"""The fan's system matrix: one sparse linear operator per interpolation mode.

The beam geometry is purely axial, so every slice is projected through the
same fan and rendering is one linear map A of shape (n_rays, ny * nx)
applied to each flattened slice. Entry (i, v) holds the summed weight that
ray i's retained samples give voxel v; several samples of one ray in the
same voxel coalesce into one entry. The solver's data gradient applies
A^T, and back-projection uses the nonzero pattern of the trilinear A (its
bilinear footprint), so |B(x)| is the number of entries in voxel x's
column.

Bilinear interpolation clamps neighbor indices to the grid, so points in
the half-voxel band inside the boundary read the edge voxels and clamped
corners that coincide coalesce. Each sample's weights sum to 1, so in exact
arithmetic A @ 1 = n, the per-ray retained sample count. Slices are
applied as A(x - m) + n * m with m the slice minimum, which keeps constant
slices exact: x - m is exactly zero there. A block of slices whose minima
are all 0 (zero backgrounds, clipped iterates) skips the shift: x - 0 = x
and n * 0 = 0, so both passes would leave every value unchanged.

Storage is numpy only. Rows of each direction (ray-major for A,
voxel-major for A^T) are grouped into buckets by power-of-two length and
zero-padded to the longest row of their bucket. A voxel-major block of
slices (a fixed byte budget of them) is applied one chunk of bucket rows
at a time: `take` gathers the rows' inputs into a bounded temporary and a
batched `matmul` contracts them with the weights.

Blocks write disjoint output rows, so forward, adjoint and ray_mean run
them on up to `threads` workers (see _pool). The block size does not depend
on the thread count, so every sum is taken in the same order and the
outputs are bit-identical at any thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._pool import run_blocks

INTERPOLATIONS = ("trilinear", "nearest")
# bytes of a voxel-major block of slices and of one gathered chunk
_BLOCK_BYTES = 8 << 20
_CHUNK_BYTES = 1 << 20
# voxels per tile when a voxel-major result is copied back to slices
_TILE = 512


@dataclass(frozen=True)
class _Bucket:
    rows: np.ndarray  # (r,) output rows
    idx: np.ndarray   # (r, L) input rows, 0 on padding
    w: np.ndarray     # (r, L) weights, 0 on padding


def _buckets(out_ids, in_ids, weights, n_out) -> tuple:
    """Group entries (sorted by out_ids) into padded power-of-two buckets."""
    lengths = np.bincount(out_ids, minlength=n_out)
    starts = np.cumsum(lengths) - lengths
    keys = np.ceil(np.log2(np.maximum(lengths, 1))).astype(np.int64)
    out = []
    for key in np.unique(keys[lengths > 0]):
        rows = np.flatnonzero((keys == key) & (lengths > 0))
        n = lengths[rows][:, None]
        col = np.arange(lengths[rows].max())
        pad = col >= n
        pos = np.where(pad, 0, starts[rows][:, None] + col)
        out.append(_Bucket(
            rows=rows,
            idx=np.where(pad, 0, in_ids[pos]),
            w=np.where(pad, 0.0, weights[pos]),
        ))
    return tuple(out)


def _apply(buckets, src: np.ndarray, n_out: int, pattern: bool = False) -> np.ndarray:
    """out[r] = sum over a row's entries of w * src[idx]; src is (n_in, nb).

    pattern=True weights every entry 1 (padding stays 0)."""
    nb = src.shape[1]
    out = np.zeros((n_out, nb), dtype=np.float64)
    for b in buckets:
        step = max(1, _CHUNK_BYTES // (b.idx.shape[1] * nb * 8))
        for s in range(0, len(b.rows), step):
            w = b.w[s:s + step]
            if pattern:
                w = (w != 0.0).astype(np.float64)
            g = np.take(src, b.idx[s:s + step], axis=0)  # (r, L, nb)
            out[b.rows[s:s + step]] = np.matmul(w[:, None, :], g)[:, 0]
    return out


def _entries(sample_xy, sample_valid, bounds, interpolation):
    """Uncoalesced (ray, voxel, weight) entries of every retained sample,
    ray-major; bilinear corners of zero weight are included."""
    nx, ny = bounds
    valid = sample_valid.ravel()
    ray = np.nonzero(valid)[0] // sample_valid.shape[1]
    xy = sample_xy.reshape(-1, 2)[valid]
    if interpolation == "nearest":
        x = np.clip(np.floor(xy[:, 0]).astype(np.int64), 0, nx - 1)
        y = np.clip(np.floor(xy[:, 1]).astype(np.int64), 0, ny - 1)
        return ray, y * nx + x, np.ones(len(ray))
    q = xy - 0.5
    i0 = np.floor(q)
    fx, fy = (q - i0).T
    i0 = i0.astype(np.int64)  # in [-1, n - 1]
    x0, x1 = np.clip(i0[:, 0], 0, nx - 1), np.clip(i0[:, 0] + 1, 0, nx - 1)
    y0, y1 = np.clip(i0[:, 1], 0, ny - 1) * nx, np.clip(i0[:, 1] + 1, 0, ny - 1) * nx
    gx, gy = 1.0 - fx, 1.0 - fy
    voxel = np.stack((y0 + x0, y0 + x1, y1 + x0, y1 + x1), axis=1)
    weight = np.stack((gy * gx, gy * fx, fy * gx, fy * fx), axis=1)
    return np.repeat(ray, 4), voxel.ravel(), weight.ravel()


class FanOperator:
    """Sparse system matrix A of a fan for one interpolation mode.

    forward maps (nz, ny, nx) volumes to (nz, n_rays) line sums, adjoint
    maps (nz, n_rays) coefficients back to (nz, ny, nx), and ray_mean
    averages per-pixel values over each voxel's crossing rays.
    """

    def __init__(self, sample_xy, sample_valid, sample_counts, bounds,
                 interpolation: str = "trilinear"):
        if interpolation not in INTERPOLATIONS:
            raise ValueError(f"unknown interpolation mode: {interpolation!r}")
        self.bounds = (int(bounds[0]), int(bounds[1]))
        nx, ny = self.bounds
        self.n_voxels = nx * ny
        self.n_rays = len(sample_counts)
        self.sample_counts = np.asarray(sample_counts, dtype=np.float64)
        ray, voxel, w = _entries(sample_xy, sample_valid, self.bounds, interpolation)
        # coalesce repeated (ray, voxel) pairs; the entries arrive ray-major,
        # which the stable sort exploits
        keys = ray * self.n_voxels + voxel
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        weight = np.add.reduceat(w[order], starts) if len(keys) else w
        keep = weight > 0
        keys = keys[starts[keep]]
        # coalesced entries, sorted by ray and then by voxel
        self.ray = keys // self.n_voxels
        self.voxel = keys % self.n_voxels
        self.weight = weight[keep]
        self._rows = _buckets(self.ray, self.voxel, self.weight, self.n_rays)
        # slices per voxel-major block
        self.block = max(1, _BLOCK_BYTES // (8 * self.n_voxels))

    @cached_property
    def _cols(self) -> tuple:
        order = np.argsort(self.voxel, kind="stable")
        return _buckets(self.voxel[order], self.ray[order], self.weight[order],
                        self.n_voxels)

    @cached_property
    def counts(self) -> np.ndarray:
        """Entries per voxel, shape (ny, nx); for the trilinear A, |B(x)|."""
        nx, ny = self.bounds
        counts = np.bincount(self.voxel, minlength=self.n_voxels).reshape(ny, nx)
        counts.flags.writeable = False  # shared: aggregate_rho returns views of it
        return counts

    def _blocks(self, nz: int) -> list:
        return [(z0, min(nz, z0 + self.block)) for z0 in range(0, nz, self.block)]

    def forward(self, x: np.ndarray, *, threads: int = 1) -> np.ndarray:
        """Line sums A x_j of every slice j: (nz, ny, nx) -> (nz, n_rays).

        Blocks of slices run on up to `threads` workers (see _pool); the
        result is the same at any thread count."""
        flat = np.asarray(x, dtype=np.float64).reshape(len(x), self.n_voxels)
        nz = len(flat)
        out = np.empty((nz, self.n_rays), dtype=np.float64)

        def block(zs, work):
            z0, z1 = zs
            xt = work[:self.n_voxels * (z1 - z0)].reshape(self.n_voxels, z1 - z0)
            np.copyto(xt, flat[z0:z1].T)
            m = flat[z0:z1].min(axis=1)
            shift = m.any()  # -0.0 counts as 0
            if shift:
                xt -= m
            out[z0:z1] = _apply(self._rows, xt, self.n_rays).T
            if shift:
                out[z0:z1] += m[:, None] * self.sample_counts

        # one voxel-major workspace per worker, filled by copy, so the shift
        # never writes the caller's data
        run_blocks(block, self._blocks(nz), threads,
                   lambda: np.empty(self.n_voxels * min(nz, self.block), dtype=np.float64))
        return out

    def _transpose(self, r: np.ndarray, pattern: bool, out, threads: int) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        nx, ny = self.bounds
        if out is None:
            out = np.empty((len(r), ny, nx), dtype=np.float64)
        elif (out.shape != (len(r), ny, nx) or out.dtype != np.float64
              or not out.flags.c_contiguous):
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape "
                f"{(len(r), ny, nx)}, got {out.dtype} {out.shape}"
            )
        flat = out.reshape(len(r), self.n_voxels)
        cols = self._cols  # built here, not once per worker

        def block(zs, _):
            z0, z1 = zs
            rt = np.ascontiguousarray(r[z0:z1].T)
            vt = _apply(cols, rt, self.n_voxels, pattern)
            # tiled: one whole-block strided copy runs several times slower
            for v0 in range(0, self.n_voxels, _TILE):
                flat[z0:z1, v0:v0 + _TILE] = vt[v0:v0 + _TILE].T

        run_blocks(block, self._blocks(len(r)), threads)
        return out

    def adjoint(self, r: np.ndarray, *, out=None, threads: int = 1) -> np.ndarray:
        """A^T r_j of every row j: (nz, n_rays) -> (nz, ny, nx).

        out, if given, is a C-contiguous float64 (nz, ny, nx) array that
        receives the result and is returned. Blocks of rows run on up to
        `threads` workers; the result is the same at any thread count."""
        return self._transpose(r, False, out, threads)

    def ray_mean(self, c: np.ndarray, *, threads: int = 1) -> np.ndarray:
        """Mean of c_j over the rays crossing each voxel, 0 where none does:
        (nz, n_rays) -> (nz, ny, nx). threads as for adjoint."""
        sums = self._transpose(c, True, None, threads)
        # uncovered voxels hold exact zeros, which stay 0 / 1
        return np.divide(sums, np.maximum(self.counts, 1), out=sums)
