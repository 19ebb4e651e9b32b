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
arithmetic A @ 1 = n, the per-ray retained sample count, and a constant
slice c gets c * n to rounding. Every forward is A x and nothing more: a
voxel no ray crosses has an empty column of A, so its value never reaches
a line sum.

Storage is numpy only, in dense tiles. Tile t of a direction holds the
_TILE output ids t * _TILE ... t * _TILE + _TILE - 1 (rays for A, support
positions for A^T), its columns the sorted union of their entries' input ids;
its weights are one dense (_TILE, L) block, 0 where a row has no entry
(register-blocked storage with explicit zero fill: Im, Yelick and Vuduc,
"SPARSITY", IJHPCA 18(1), 2004). Adjacent rays of a fan are nearly parallel
and under a voxel apart, and adjacent voxels are crossed by mostly the same
rays, so a tile's rows share most of their inputs: on the 64^2 acceptance
fan A's tiles gather 0.31 inputs per entry for 1.23 multiply-adds and A^T's
0.52 for 2.08, padding included (0.53 and 2.10, 0.50 and 2.01 on the
default 256^2 fan). Tiles are grouped into length classes of L, _CLASSES
per octave, and zero-padded to the longest union of their class, under
2 ** (1 / _CLASSES) times each; classes, unlike fixed-size groups of
length-sorted tiles, keep _apply's chunks sized in bytes, which scale with
the block width. Tiles with no entries form a class of L = 0. The pattern
tiles of ray_mean_state share the rows and indices of A^T's tiles of
their dtype, with weights (w > 0): 1 on every entry, since coalesced
weights are > 0, and 0 elsewhere.

_apply overwrites an output block, a view of the result, from a
voxel-major input block: it zeroes the rows of the L = 0 class and computes
the others one chunk of tiles at a time, `take` gathering each tile's union
once into a temporary of at most _CHUNK_BYTES, sized to stay in a core's L2
cache, and one batched `matmul` contracting each (_TILE, L) block with it.
That is one small GEMM per tile, where one GEMV per row gathered a shared
input once for each row that reads it and paid a BLAS call per row. A row
with no entries, in a tile that has some, gets 0 from its zero weights, as
does a row of an id past the last output, which is computed and dropped.
So a NaN or infinite input reaches every row of its tile (0 * NaN is NaN);
densities and pixels are checked finite where they enter the package.

Each column of a block must get the same bits whatever the block's width,
so that a slice's results do not depend on its block, on how many slices
its volume has, on its layout or on the thread count:
- BLAS computes a product's columns in groups and rounds a leftover column
  differently, so a block is padded with zero columns to a multiple of its
  dtype's _LANES: 8 for float64 and 16 for float32 (OpenBLAS 0.3.31's
  AVX-512 GEMM kernels round a leftover of up to 4 float64 or 8 float32
  columns their own way).
- The same OpenBLAS hands a GEMM of more than about 10^6 multiply-adds
  from its small-matrix kernel to its general one, which sums a long L in
  panels, and may split one of more than 2^18 over its threads; either
  changes the bits with the width or with OPENBLAS_NUM_THREADS. So _apply
  runs a wide block in column groups, a multiple of _LANES wide, that keep
  each tile's matmul within _GEMM = 2^18 multiply-adds where a group of
  _LANES columns can: a 128-slice float32 state of the default fan runs
  A's longest tiles, about 1,500 columns, 32 slices at a time.
Tiles are 4 rows high; tiles of 2 to 16 rows give the same bytes as each
other. Taller tiles gather less but multiply more zeros: on a 2-vCPU Xeon,
8-row tiles ran the default 256-ray fan's A slower (a 16-slice public
forward took 5.0 against 2.8 ms, the 128-slice float32 state 6.5 against
5.0 ms), and with no bound on a matmul's size OpenBLAS threaded them on
that state and their bytes changed under OPENBLAS_NUM_THREADS=1.

A state layout (StateLayout) holds one array of voxel ids, its support,
in increasing order, and each operator builds two, once each:
- full: every voxel, np.arange(n_voxels);
- crossed: the voxels some ray crosses (counts > 0), 40.9% of the default
  256^2 grid, 45.6% of the 512-ray 256^2 fan's and 85.5% of the 64^2
  acceptance fan's; it is full when every voxel is crossed or none is, so
  no support is empty.
Each layout builds A and A^T from the operator's coalesced entries,
relabelled by support position, by one rule: a table tiles its own output
ids, A the rays, reading support positions, and A^T the support positions,
reading rays. A row's bits do not depend on its tile mates, as they do not
on the tile height: each output is one accumulator summed in increasing
input order from +0, a column off the row's entries adds an exact 0 * x,
and inputs are finite. The crossed A^T has no tile of L = 0 and drops ids
only past its last row. A's columns and A^T's rows of the voxels no ray
crosses are empty, so the crossed layout gives the full one's line sums
whatever a volume holds off the support, and the full one's A^T once
from_state has zero-filled the rest; the public forward, the solver and
back-projection all run in it.

forward takes slice-major (nz, ny, nx) volumes in blocks of _PIECE slices and
gathers each block's crossed voxels, transposed, into a float64 workspace
per worker that holds only those (3.4 MB on the default fan), so a render's
peak memory stays low. float32 volumes, as phantoms and loaded PVOL1 volumes
are, are widened by that gather one block at a time, never as a whole; the
widening is exact, so their line sums are those of the float64 volume.

A state-layout volume serves the *_state methods and the solver: one
C-contiguous float32 or float64 array of shape (size, nz), voxel-major,
size being the support's voxel count. The *_state methods gather straight
from such a volume and write straight into one, each in one pass over all
its slices, and compute in its dtype: the rows of coefficients that A^T
reads are cast to it, and the tiles are built in it (StateLayout._table),
so a float32 solve builds no float64 table. Line sums are float64 in any
case. to_state gathers the support and from_state writes it and
zero-fills the rest, once at each end. New state volumes are mapped on
their own (StateLayout.buffer). ray_mean_state divides by the counts
raised to 1, so it gives 0 wherever no ray crosses and the same values in
either layout.

forward's blocks write disjoint output rows, so it runs them on up to
`threads` workers (see _pool); the state methods run on the calling
thread. The blocks do not depend on the thread count, and padded
blocks give every slice the same bits, so the outputs are bit-identical at
any thread count, in either layout and for any number of slices.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._pool import run_blocks

INTERPOLATIONS = ("trilinear", "nearest")
# bytes of one gathered chunk, which stays in a core's L2 cache beside the
# block it reads
_CHUNK_BYTES = 512 << 10
# output ids per tile and length classes per octave of tile width (see
# _tiles and the module doc)
_TILE = 4
_CLASSES = 8
# per dtype, matmul column counts are padded to a multiple of this; and the
# most multiply-adds one tile's matmul may hold (see the module doc)
_LANES = {np.dtype(np.float64): 8, np.dtype(np.float32): 16}
_GEMM = 1 << 18
# slices per block copied into voxel-major order (forward, to_state), and
# voxels per strip when a voxel-major block is copied back to slices: a
# whole-block strided copy of a wide block runs several times slower
_PIECE = 16
_STRIP = 512


@dataclass(frozen=True)
class _Tiles:
    rows: np.ndarray          # (c * _TILE,) each tile id's output row, -1 past n_out
    keep: np.ndarray | None   # rows >= 0, None when every id has a row
    idx: np.ndarray           # (c, L) input rows, 0 on padding
    w: np.ndarray             # (c, _TILE, L) weights, 0 off the entries


def _tiles(out_ids, in_ids, weights, n_out: int, n_in: int) -> tuple:
    """Group entries, one per (out_id, in_id) pair and in any order, into
    dense tiles, one padded _Tiles per length class. Tile t holds the output
    ids t * _TILE ... t * _TILE + _TILE - 1 as its rows, -1 for those at or
    past n_out; its columns are the sorted union of their in_ids (< n_in).
    A tile whose union has L > 0 columns has class ceil(_CLASSES * log2(L)),
    so its class's longest union is under 2 ** (1 / _CLASSES) times L;
    tiles with no entries form a first class of L = 0. One sort of the
    (tile, in_id) keys gives every union, and one scatter each fills the idx
    and w arrays of all classes, which are views of two flat arrays; w has
    the weights' dtype."""
    n_tiles = -(-n_out // _TILE)
    keys = out_ids // _TILE
    keys *= n_in
    keys += in_ids
    # stable: the operator's ray-major entries give keys in sorted runs (A's
    # are _TILE runs per tile), which a merge sort exploits; it took 0.6 and
    # 1.9 ms for A and A^T on the 64^2 acceptance fan, against 1.6 and 1.8
    # for the default sort
    order = np.argsort(keys, kind="stable")
    keys = keys.take(order)
    first = _run_starts(keys)
    pairs = keys.take(first)  # the distinct (tile, in_id) keys, sorted
    del keys
    # each sorted entry's pair
    col = np.repeat(np.arange(len(first)), np.diff(first, append=len(order)))
    del first
    pair_tile = pairs // n_in
    lengths = np.bincount(pair_tile, minlength=n_tiles)
    starts = np.cumsum(lengths) - lengths
    classes = np.full(n_tiles, -1, dtype=np.int64)
    has = lengths > 0
    classes[has] = np.ceil(_CLASSES * np.log2(lengths[has]))
    by_class = np.argsort(classes, kind="stable")
    edges = np.append(np.flatnonzero(np.diff(classes[by_class], prepend=-2)), n_tiles)
    # each tile's class width and its offset in the flat idx array; its w
    # block starts at _TILE times that offset
    width = np.empty(n_tiles, dtype=np.int64)
    base = np.empty(n_tiles, dtype=np.int64)
    spans, total = [], 0
    for a, b in zip(edges[:-1], edges[1:]):
        t = by_class[a:b]
        n = int(lengths[t].max())
        width[t] = n
        base[t] = total + n * np.arange(b - a)
        spans.append((t, total, n))
        total += n * (b - a)
    idx = np.zeros(total, dtype=np.int64)
    at = base[pair_tile]
    at += np.arange(len(pairs))
    at -= starts[pair_tile]
    pairs -= pair_tile * n_in
    idx[at] = pairs
    del at, pairs, pair_tile
    # each sorted entry's place in w: tile, row in the tile, column
    row = out_ids.take(order)
    tile = row // _TILE
    row -= _TILE * tile
    row *= width[tile]
    col -= starts[tile]
    row += col
    del col
    at = base[tile]
    del tile
    at *= _TILE
    at += row
    del row
    w = np.zeros(_TILE * total, dtype=weights.dtype)
    w[at] = weights.take(order)
    del at, order
    ids = np.arange(n_tiles * _TILE).reshape(n_tiles, _TILE)
    ids[ids >= n_out] = -1
    out = []
    for t, at, n in spans:
        r = ids[t].ravel()
        keep = r >= 0
        out.append(_Tiles(rows=r, keep=None if keep.all() else keep,
                          idx=idx[at:at + n * len(t)].reshape(len(t), n),
                          w=w[_TILE * at:_TILE * (at + n * len(t))].reshape(len(t), _TILE, n)))
    return tuple(out)


def _apply(tiles, src: np.ndarray, out: np.ndarray) -> None:
    """out[r] = sum over a row's entries of w * src[idx] for every row r of
    the (n_rows, nb) block out, which is overwritten (rows with no entries
    get zeros); the tiles' weights have src's dtype, in which the sums are
    computed. src is (n_in, nb) and is never written; unless nb is a
    multiple of its dtype's _LANES, it is copied once into a block
    zero-padded to one, whose padding columns are computed and dropped.
    Each chunk of a class's tiles is gathered once and contracted by batched
    matmuls, _TILE rows at a time, over groups of columns a multiple of
    _LANES wide that keep a tile's matmul within _GEMM multiply-adds, so
    each column's sums do not depend on nb (see the module doc); the rows of
    ids off the output are computed and dropped."""
    nb = out.shape[1]
    if not nb:  # no slices: out has nothing to write
        return
    lanes = _LANES[src.dtype]
    if nb % lanes:
        padded = np.zeros((len(src), -(-nb // lanes) * lanes), dtype=src.dtype)
        padded[:, :nb] = src
        src = padded
    width, itemsize = src.shape[1], src.itemsize
    for t in tiles:
        c, n = t.idx.shape
        if not n:
            out[t.rows if t.keep is None else t.rows[t.keep]] = 0.0
            continue
        cols = max(lanes, _GEMM // (_TILE * n) // lanes * lanes)
        step = max(1, _CHUNK_BYTES // (n * width * itemsize))
        for s in range(0, c, step):
            g = np.take(src, t.idx[s:s + step], axis=0)  # (c', L, width)
            rows = t.rows[_TILE * s:_TILE * (s + step)]
            keep = slice(None) if t.keep is None else t.keep[_TILE * s:_TILE * (s + step)]
            dst = rows[keep]
            for j in range(0, nb, cols):
                sums = np.matmul(t.w[s:s + step], g[:, :, j:j + cols])
                k = min(cols, nb - j)
                out[dst, j:j + k] = sums.reshape(len(rows), -1)[keep, :k]


def _state_dtype(a: np.ndarray) -> np.dtype:
    """The state dtype that holds a's values: float32 for float32, else
    float64."""
    return np.dtype(np.float32 if a.dtype == np.float32 else np.float64)


def _copy_back(vt: np.ndarray, rows: np.ndarray, voxels: np.ndarray) -> None:
    """rows (nb, n_voxels) = the voxel-major block vt (size, nb), whose rows
    are the voxels (sorted voxel ids), transposed, every other voxel 0, in
    strips of _STRIP voxels. A strip is assembled voxel-major first, so its
    rows move whole."""
    n = rows.shape[1]
    strip = np.empty((_STRIP, vt.shape[1]), dtype=vt.dtype)
    # the support positions that start each strip
    starts = np.searchsorted(voxels, np.arange(0, n + _STRIP, _STRIP))
    for i, v0 in enumerate(range(0, n, _STRIP)):
        a, b = starts[i], starts[i + 1]
        part = strip[:min(_STRIP, n - v0)]
        part.fill(0)
        part[voxels[a:b] - v0] = vt[a:b]
        rows[:, v0:v0 + _STRIP] = part.T


def _corners(p: np.ndarray, size: int) -> tuple:
    """Bilinear neighbors along one axis of the coordinates p: the lower
    and upper indices, clamped to [0, size - 1], and their weights 1 - f
    and f."""
    q = p - 0.5
    i = np.floor(q)
    f = q - i
    i = i.astype(np.int64)  # in [-1, size - 1]
    lo = np.clip(i, 0, size - 1)
    i += 1
    return lo, np.clip(i, 0, size - 1, out=i), 1.0 - f, f


def _entries(sample_xy, sample_counts, bounds, interpolation):
    """The uncoalesced entries of every retained sample, sample_xy[i, j] for
    j < sample_counts[i], in ray-major order: each sample's ray (n,) and the
    voxels (n, m) and weights (n, m) of its m entries. Those are its four
    clamped bilinear corners for "trilinear", zero weights included, or for
    "nearest" the voxel that contains it, of weight 1.0. Each pass runs over
    one contiguous coordinate column of the kept samples, and the corners
    are written straight into their (n, 4) arrays."""
    nx, ny = bounds
    kept = np.flatnonzero(np.arange(sample_xy.shape[1]) < sample_counts[:, None])
    ray = kept // sample_xy.shape[1]
    flat = sample_xy.reshape(-1, 2)
    px, py = flat[:, 0].take(kept), flat[:, 1].take(kept)
    if interpolation == "nearest":
        x = np.clip(np.floor(px).astype(np.int64), 0, nx - 1)
        y = np.clip(np.floor(py).astype(np.int64), 0, ny - 1)
        y *= nx
        y += x
        return ray, y[:, None], np.ones((len(kept), 1))
    x0, x1, gx, fx = _corners(px, nx)
    y0, y1, gy, fy = _corners(py, ny)
    y0 *= nx
    y1 *= nx
    voxel = np.empty((len(kept), 4), dtype=np.int64)
    weight = np.empty((len(kept), 4))
    for j, (y, x, wy, wx) in enumerate(((y0, x0, gy, gx), (y0, x1, gy, fx),
                                         (y1, x0, fy, gx), (y1, x1, fy, fx))):
        np.add(y, x, out=voxel[:, j])
        np.multiply(wy, wx, out=weight[:, j])
    return ray, voxel, weight


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in keys."""
    is_start = np.empty(len(keys), dtype=bool)
    is_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=is_start[1:])
    return np.flatnonzero(is_start)


class FanOperator:
    """Sparse system matrix A of a fan for one interpolation mode.

    forward maps (nz, ny, nx) volumes to (nz, n_rays) line sums. The
    *_state methods of its two StateLayouts, full and crossed, apply A, A^T
    and the mean over each voxel's crossing rays to volumes in state layout
    (see the module doc).
    """

    def __init__(self, sample_xy, sample_counts, bounds, interpolation: str = "trilinear"):
        if interpolation not in INTERPOLATIONS:
            raise ValueError(f"unknown interpolation mode: {interpolation!r}")
        self.bounds = (int(bounds[0]), int(bounds[1]))
        nx, ny = self.bounds
        self.n_voxels = nx * ny
        self.n_rays = len(sample_counts)
        ray, voxel, w = _entries(sample_xy, sample_counts, self.bounds, interpolation)
        # coalesce repeated (ray, voxel) pairs: a stable sort of the keys
        # (the entries arrive ray-major, which it exploits) makes each pair
        # one run of entries in their original order, whose weights are
        # summed in that order and whose ray and voxel are gathered from the
        # run's first entry (nearest's sums of 1.0 are exact in any order).
        # Each array over all entries is dropped once used, which keeps the
        # build's peak memory low.
        keys = ((ray * self.n_voxels)[:, None] + voxel).ravel()
        order = np.argsort(keys, kind="stable")
        starts = _run_starts(keys.take(order))
        del keys
        first = order.take(starts)
        weight = np.add.reduceat(w.ravel().take(order), starts) if len(order) else w.ravel()
        del order, w
        keep = weight > 0
        if not keep.all():  # bilinear corners of zero weight
            first, weight = first[keep], weight[keep]
        # coalesced entries, sorted by ray and then by voxel
        self.ray = ray[first // voxel.shape[1]]
        self.voxel = voxel.ravel()[first]
        self.weight = weight

    @cached_property
    def full(self) -> StateLayout:
        """The state layout of every voxel."""
        return StateLayout(self, np.arange(self.n_voxels))

    @cached_property
    def crossed(self) -> StateLayout:
        """The state layout of the voxels some ray crosses (counts > 0): full
        when every voxel is crossed or none is."""
        voxels = np.flatnonzero(self.counts)
        return StateLayout(self, voxels) if 0 < len(voxels) < self.n_voxels else self.full

    @cached_property
    def counts(self) -> np.ndarray:
        """Entries per voxel, shape (ny, nx); for the trilinear A, |B(x)|."""
        nx, ny = self.bounds
        counts = np.bincount(self.voxel, minlength=self.n_voxels).reshape(ny, nx)
        counts.flags.writeable = False  # shared: aggregate_rho returns views of it
        return counts

    def forward(self, x: np.ndarray, *, threads: int = 1) -> np.ndarray:
        """Line sums A x_j of every slice j: (nz, ny, nx) -> (nz, n_rays).

        Blocks of _PIECE slices run on up to `threads` workers (see _pool),
        each block's crossed voxels copied into a float64 workspace of its
        worker's own; no other voxel is read, as none reaches a line sum.
        The result is the same at any thread count. float32 slices are read
        as they are, widened one block at a time by that copy; x of any
        other dtype is converted to float64 first."""
        x = np.asarray(x)
        flat = np.asarray(x, dtype=_state_dtype(x)).reshape(len(x), self.n_voxels)
        nz = len(flat)
        out = np.empty((nz, self.n_rays), dtype=np.float64)
        lay = self.crossed
        rows = lay._table("rows", np.float64)

        def block(z0, work):
            z1 = min(nz, z0 + _PIECE)
            xt = work[:lay.size * (z1 - z0)].reshape(lay.size, z1 - z0)
            np.copyto(xt, flat[z0:z1, lay.voxels].T)
            _apply(rows, xt, out[z0:z1].T)

        run_blocks(block, range(0, nz, _PIECE), threads,
                   lambda: np.empty(lay.size * min(nz, _PIECE), dtype=np.float64))
        return out


class StateLayout:
    """The state layout of a FanOperator's volumes over one support (see the
    module doc): voxels holds the support's voxel ids in increasing order,
    size (at least 1) counts them and counts holds their entry counts. Its
    tiles of A, A^T and the pattern are built on first use, one table per
    dtype that a core reads them in (see _table). An operator's full and
    crossed properties build its two layouts."""

    def __init__(self, op: FanOperator, voxels: np.ndarray):
        # op's arrays, not op, which holds its layouts: a cycle would keep
        # them all alive until the garbage collector ran
        self.bounds, self.n_voxels, self.n_rays = op.bounds, op.n_voxels, op.n_rays
        self.voxels, self.size = voxels, len(voxels)
        self.counts = op.counts.ravel()[voxels]
        self._entries = (op.ray, op.voxel, op.weight)
        self._tables = {}  # see _table

    def _table(self, kind: str, dtype) -> tuple:
        """The tiles of one kind with weights of dtype, built on first use
        straight in dtype and kept, from the entries relabelled by support
        position: "rows" are A's, tiling the rays, and "cols" A^T's, tiling
        the support positions; "pattern" is the cols of dtype weighted 1 on
        every entry, sharing their rows, keep and idx."""
        dtype = np.dtype(dtype)
        if (kind, dtype) not in self._tables:
            if kind == "pattern":
                tiles = tuple(_Tiles(t.rows, t.keep, t.idx, (t.w > 0).astype(dtype))
                              for t in self._table("cols", dtype))
            else:
                ray, voxel, weight = self._entries
                weight = weight.astype(dtype, copy=False)
                pos = np.empty(self.n_voxels, dtype=np.int64)
                pos[self.voxels] = np.arange(self.size)
                p = pos[voxel]  # every entry's voxel is on the support
                tiles = (_tiles(ray, p, weight, self.n_rays, self.size) if kind == "rows"
                         else _tiles(p, ray, weight, self.size, self.n_rays))
            self._tables[kind, dtype] = tiles
        return self._tables[kind, dtype]

    def buffer(self, nz: int, dtype) -> np.ndarray:
        """A new state-layout volume of nz slices of dtype, all 0, in an
        anonymous memory mapping of its own, which goes back to the system
        when the volume is freed. malloc would serve a volume under 32 MiB
        from its heap once a freed one of about that size had raised its
        mmap threshold, and keep it resident after it is freed, so each
        solve or transpose in a process would leave its volumes behind."""
        dtype = np.dtype(dtype)
        n = nz * self.size
        buf = mmap.mmap(-1, max(1, n * dtype.itemsize))
        return np.frombuffer(buf, dtype=dtype, count=n).reshape(self.size, nz)

    def to_state(self, x: np.ndarray) -> np.ndarray:
        """The support of the (nz, ny, nx) volume x in state layout: a new
        volume (see buffer), float32 if x is and float64 otherwise."""
        x = np.asarray(x)
        flat = np.asarray(x, dtype=_state_dtype(x)).reshape(len(x), self.n_voxels)
        out = self.buffer(len(flat), flat.dtype)
        for z0 in range(0, len(flat), _PIECE):
            np.copyto(out[:, z0:z0 + _PIECE], flat[z0:z0 + _PIECE, self.voxels].T)
        return out

    def from_state(self, state: np.ndarray) -> np.ndarray:
        """The volume held in state layout as a new (nz, ny, nx) array of
        the state's dtype, 0 off the support."""
        nx, ny = self.bounds
        nz = state.shape[1]
        out = np.empty((nz, ny, nx), dtype=state.dtype)
        _copy_back(state, out.reshape(nz, self.n_voxels), self.voxels)
        return out

    def forward_state(self, state: np.ndarray) -> np.ndarray:
        """forward of the volume held in state layout, computed in the
        state's dtype: (nz, n_rays) float64 line sums, the full grid's
        whatever the volume holds off the support (see the module doc).
        state is never written, and copied only to pad it (see _apply)."""
        out = np.empty((state.shape[1], self.n_rays), dtype=np.float64)
        _apply(self._table("rows", state.dtype), state, out.T)
        return out

    def _transpose_state(self, r: np.ndarray, kind: str, out) -> np.ndarray:
        r = np.asarray(r)
        shape = (self.size, len(r))
        if out is None:
            out = self.buffer(len(r), _state_dtype(r))
        elif not (isinstance(out, np.ndarray) and out.shape == shape
                  and out.dtype in (np.float64, np.float32) and out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous float64 or float32 array of shape "
                             f"{shape}, got {np.asarray(out).dtype} {np.shape(out)}")
        _apply(self._table(kind, out.dtype), np.ascontiguousarray(r.T, dtype=out.dtype), out)
        return out

    def adjoint_state(self, r: np.ndarray, out=None) -> np.ndarray:
        """A^T r_j of every row j of the (nz, n_rays) rows r on the support,
        as a state-layout volume computed in its dtype: out if given (a
        C-contiguous float64 or float32 array of shape (size, nz);
        ValueError otherwise), else a new one of r's state dtype (see
        to_state)."""
        return self._transpose_state(r, "cols", out)

    def ray_mean_state(self, c: np.ndarray) -> np.ndarray:
        """Mean of c_j over the rays crossing each voxel, for every row j of
        the (nz, n_rays) rows c, on the support, as a new state-layout volume
        of c's state dtype (see to_state), computed in it. Each pattern sum
        is divided by its voxel's count raised to 1, so a voxel no ray
        crosses, whose sum is 0, gets 0."""
        sums = self._transpose_state(c, "pattern", None)
        per_voxel = np.maximum(self.counts, 1).astype(sums.dtype).reshape(self.size, 1)
        return np.divide(sums, per_voxel, out=sums)
