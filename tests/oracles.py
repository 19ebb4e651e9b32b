"""Independent references for the fan, its system matrix and the renderer.

The library computes every line integral through the fan's system matrix
(see panoray.fan_operator). sample_trilinear and transmittance walk one
point at a time instead: the tests check renders against them, and their
own math is pinned by TestTransmittance (test_renderer.py) and
TestTrilinear (test_volume.py).

ssim_percent scores SSIM through the window sums of shifted 2D views and
runs the arithmetic on every pair, all-zero pairs included; the library's
flat-row sums and its exact score for an all-zero pair must match it bit for
bit.

walk_samples, coalesced_entries and padded_tiles build the fan's sample
arrays and the operator's entries and tiles by whole-array passes: every
step of every ray is computed and tested, entries are coalesced by integer
keys, and tiles are filled class by class. The library builds the same
arrays from the samples it keeps, and fills every class in one scatter; the
tests require them to be bit-identical.
"""

import math

import numpy as np

from panoray.volume import DensityVolume


def sample_trilinear(vol: DensityVolume, point, mode: str = "trilinear"):
    """Sample the volume at continuous (z, y, x) points in voxel units.

    Trilinear interpolation of the 8 surrounding voxel centers, with neighbor
    indices clamped to the grid so the half-voxel band just inside the
    boundary reads the edge voxels (a uniform volume reads its constant at
    every interior point). Points outside the box [0, nz] x [0, ny] x [0, nx]
    return exactly 0. mode="nearest" snaps to the containing voxel instead.
    """
    pts = np.atleast_2d(np.asarray(point, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected point(s) of shape (3,) or (N, 3), got {np.shape(point)}")
    nz, ny, nx = vol.dims
    hi = np.array([nz, ny, nx], dtype=np.float64)
    inside = np.all((pts >= 0.0) & (pts <= hi), axis=1)

    if mode == "nearest":
        idx = np.clip(np.floor(pts).astype(np.int64), 0, [nz - 1, ny - 1, nx - 1])
        out = vol.data[idx[:, 0], idx[:, 1], idx[:, 2]]
        out = np.where(inside, out, 0.0)
    elif mode == "trilinear":
        q = pts - 0.5
        i0 = np.floor(q).astype(np.int64)
        f = q - i0
        dims = np.array(vol.dims, dtype=np.int64)
        lo = np.clip(i0, 0, dims - 1)
        hi_idx = np.clip(i0 + 1, 0, dims - 1)
        vals = []
        for dz in (0, 1):
            zi = (hi_idx if dz else lo)[:, 0]
            for dy in (0, 1):
                yi = (hi_idx if dy else lo)[:, 1]
                for dx in (0, 1):
                    xi = (hi_idx if dx else lo)[:, 2]
                    vals.append(vol.data[zi, yi, xi])
        c000, c001, c010, c011, c100, c101, c110, c111 = vals
        # lerp chain; exact on voxel centers and on constant fields
        fx, fy, fz = f[:, 2], f[:, 1], f[:, 0]
        c00 = c000 + fx * (c001 - c000)
        c01 = c010 + fx * (c011 - c010)
        c10 = c100 + fx * (c101 - c100)
        c11 = c110 + fx * (c111 - c110)
        c0 = c00 + fy * (c01 - c00)
        c1 = c10 + fy * (c11 - c10)
        out = c0 + fz * (c1 - c0)
        out = np.where(inside, out, 0.0)
    else:
        raise ValueError(f"unknown interpolation mode: {mode!r}")

    if np.ndim(point) == 1:
        return float(out[0])
    return out


def transmittance(densities, delta: float, beta: float) -> float:
    """T = exp(-sum(beta * sigma_i * delta)) with compensated summation."""
    # written so that NaN (which fails every comparison) is rejected too
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    total = math.fsum(float(s) for s in np.asarray(densities, dtype=np.float64).ravel())
    return math.exp(-beta * delta * total)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """a and b have one dtype and shape and the same bits; 8-byte values are
    compared as uint64, so -0.0 and 0.0 differ."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.itemsize == 8:
        return np.array_equal(a.view(np.uint64), b.view(np.uint64))
    return np.array_equal(a, b)


def walk_samples(origins, directions, n_samples: int, delta: float, bounds):
    """(xy, valid, counts) as packed by ray_geometry._sample, from every
    step origin + (delta * j) * direction of every ray, j < n_steps."""
    nx, ny = bounds
    n_steps = int(math.ceil(2.0 * math.hypot(nx, ny) / delta)) + 2
    ts = delta * np.arange(n_steps, dtype=np.float64)
    x = origins[:, 0, None] + ts * directions[:, 0, None]
    y = origins[:, 1, None] + ts * directions[:, 1, None]
    ok = (x >= 0) & (x <= nx) & (y >= 0) & (y <= ny)
    counts = np.minimum(ok.sum(axis=1), n_samples)
    max_k = int(counts.max()) if len(counts) else 0
    k = np.arange(max_k)
    steps = np.minimum(ok.argmax(axis=1)[:, None] + k, n_steps - 1)
    valid = k < counts[:, None]
    xy = np.stack([np.take_along_axis(c, steps, axis=1) for c in (x, y)], axis=-1)
    xy[~valid] = 0.0
    return xy, valid, counts


def coalesced_entries(sample_xy, sample_valid, bounds, interpolation):
    """The (ray, voxel, weight) entries of FanOperator: each retained
    sample's clamped bilinear corners (or its containing voxel), sorted
    stably by the key ray * n_voxels + voxel, summed per key by reduceat,
    entries of zero sum dropped, and ray and voxel taken back from the key."""
    nx, ny = bounds
    n_voxels = nx * ny
    valid = sample_valid.ravel()
    ray = np.nonzero(valid)[0] // sample_valid.shape[1]
    xy = sample_xy.reshape(-1, 2)[valid]
    if interpolation == "nearest":
        x = np.clip(np.floor(xy[:, 0]).astype(np.int64), 0, nx - 1)
        y = np.clip(np.floor(xy[:, 1]).astype(np.int64), 0, ny - 1)
        voxel, w = y * nx + x, np.ones(len(ray))
    else:
        q = xy - 0.5
        i0 = np.floor(q)
        fx, fy = (q - i0).T
        i0 = i0.astype(np.int64)
        x0, x1 = np.clip(i0[:, 0], 0, nx - 1), np.clip(i0[:, 0] + 1, 0, nx - 1)
        y0, y1 = np.clip(i0[:, 1], 0, ny - 1) * nx, np.clip(i0[:, 1] + 1, 0, ny - 1) * nx
        gx, gy = 1.0 - fx, 1.0 - fy
        voxel = np.stack((y0 + x0, y0 + x1, y1 + x0, y1 + x1), axis=1).ravel()
        w = np.stack((gy * gx, gy * fx, fy * gx, fy * fx), axis=1).ravel()
        ray = np.repeat(ray, 4)
    keys = ray * n_voxels + voxel
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    is_start = np.empty(len(keys), dtype=bool)
    is_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    weight = np.add.reduceat(w[order], starts) if len(keys) else w
    keep = weight > 0
    keys = keys[starts[keep]]
    return keys // n_voxels, keys % n_voxels, weight[keep]


def padded_tiles(out_ids, in_ids, weights, rows, n_in, height, classes):
    """(rows, idx, w) of each class of fan_operator._tiles, in its order, for
    entries in any order, `height` output ids per tile and `classes` length
    classes per octave: the (tile, in_id) pairs and each entry's pair from
    np.unique, then each class's tiles picked by a mask over every tile, pair
    and entry and written by index."""
    n_tiles = -(-len(rows) // height)
    tile = out_ids // height
    pairs, pair_of = np.unique(tile * n_in + in_ids, return_inverse=True)
    pair_tile = pairs // n_in
    lengths = np.bincount(pair_tile, minlength=n_tiles)
    col = np.arange(len(pairs)) - np.searchsorted(pair_tile, pair_tile)
    keys = np.where(lengths > 0, np.ceil(classes * np.log2(np.maximum(lengths, 1))), -1)
    ids = np.full(n_tiles * height, -1)
    ids[:len(rows)] = rows
    out = []
    for key in np.unique(keys):
        tiles = np.flatnonzero(keys == key)
        slot = np.full(n_tiles, -1)
        slot[tiles] = np.arange(len(tiles))
        n = lengths[tiles].max()
        idx = np.zeros((len(tiles), n), dtype=np.int64)
        on = slot[pair_tile] >= 0
        idx[slot[pair_tile[on]], col[on]] = pairs[on] % n_in
        w = np.zeros((len(tiles), height, n))
        on = slot[tile] >= 0
        w[slot[tile[on]], out_ids[on] % height, col[pair_of[on]]] = weights[on]
        out.append((ids.reshape(n_tiles, height)[tiles].ravel(), idx, w))
    return out


def _view_window_sums(x, w: int):
    """Valid-mode w x w moving sums of the 2D x: w - 1 shifted adds of whole
    rows, then w - 1 adds of shifted 2D column views."""
    n, m = x.shape[0] - w + 1, x.shape[1] - w + 1
    rows = x[0:n] + x[1:n + 1]
    for k in range(2, w):
        rows += x[k:k + n]
    out = rows[:, 0:m] + rows[:, 1:m + 1]
    for k in range(2, w):
        out += rows[:, k:k + m]
    return out


def ssim_percent(a, b, w: int = 7, c1: float = 0.01 ** 2, c2: float = 0.03 ** 2) -> float:
    """Mean SSIM in percent over the axial slices of the 3D a and b, each
    slice pair read as float64 and scored by uniform w x w windows in valid
    mode, in the operation order of panoray.metrics."""
    slice_means = []
    for x, y in zip(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)):
        mx, my, vx, vy, cov = (_view_window_sums(v, w) / (w * w)
                               for v in (x, y, x * x, y * y, x * y))
        mxy = mx * my
        num = (2.0 * mxy + c1) * (2.0 * (cov - mxy) + c2)
        mx2, my2 = mx * mx, my * my
        den = (mx2 + my2 + c1) * ((vx - mx2) + (vy - my2) + c2)
        slice_means.append(np.mean(num / den))
    return 100.0 * float(np.mean(slice_means))
