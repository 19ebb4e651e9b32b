"""The fan's system matrix against per-sample loop references."""

import functools
import gc
import math
import mmap
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import coalesced_entries, padded_tiles, same_bits

import panoray
from panoray import _pool, fan_operator
from panoray.backproject import BackProjectionMap, aggregate_rho, crossing_counts
from panoray.ray_geometry import GeometryConfig, build_fan, extract_rays
from panoray.renderer import RenderConfig, render_simpx
from panoray.volume import make_phantom

FANS = {
    # 4x4 grid: most samples sit in the clamped edge band, where two or four
    # bilinear corners land on the same voxel
    "grid4": (GeometryConfig(width=32), (4, 4)),
    "square32": (GeometryConfig(width=64), (32, 32)),
    "trimmed": (GeometryConfig(width=48), (24, 20)),
    "padded": (GeometryConfig(width=200, angle_scale=2.0), (16, 16)),
    "short-rays": (GeometryConfig(width=40, n_samples=9), (20, 20)),
}


# (angle_scale, width) of the fans the render-sweep benchmark builds at 256^2
SWEEP_GEOMETRIES = [(0.5, 256), (0.5, 512), (1.0, 256), (1.0, 512)]


@pytest.fixture(scope="module", params=sorted(FANS))
def fan(request):
    cfg, bounds = FANS[request.param]
    return build_fan(cfg, bounds=bounds)


def _corners(px, py, nx, ny):
    """(voxel, weight) of the four clamped bilinear corners of one sample."""
    qx, qy = px - 0.5, py - 0.5
    x0, y0 = math.floor(qx), math.floor(qy)
    fx, fy = qx - x0, qy - y0
    out = []
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            x = min(max(x0 + dx, 0), nx - 1)
            y = min(max(y0 + dy, 0), ny - 1)
            out.append((y * nx + x, wy * wx))
    return out


def ref_line_sums(slice2d, fan, interpolation):
    """Per-sample loop: each retained sample interpolated on its own."""
    ny, nx = slice2d.shape
    flat = slice2d.ravel()
    out = np.zeros(fan.n_rays)
    for i in range(fan.n_rays):
        for px, py in fan.sample_xy[i, :fan.sample_counts[i]]:
            if interpolation == "nearest":
                x = min(int(math.floor(px)), nx - 1)
                y = min(int(math.floor(py)), ny - 1)
                out[i] += flat[y * nx + x]
            else:
                out[i] += sum(w * flat[v] for v, w in _corners(px, py, nx, ny))
    return out


def adjoint(op, r):
    """A^T r through the crossed state layout, as an (nz, ny, nx) volume."""
    return op.crossed.from_state(op.crossed.adjoint_state(r))


def ray_mean(op, c):
    """The mean over crossing rays through the crossed state layout, as an
    (nz, ny, nx) volume."""
    return op.crossed.from_state(op.crossed.ray_mean_state(c))


# how far rho, the float32 means of float32-rounded candidates, may lie
# from the float64 means rounded once. Their rounding errors add up along a
# voxel's crossing rays: at most 7 ulp on the README jaw, and at most 4 over
# constant rows where no voxel has more than 16 crossing rays, as on every
# drawn fan
RHO_ULPS = 16


def ulps_apart(a, b):
    """How many float32 ulp apart the nonnegative float32 arrays a and b lie,
    elementwise: the distance of their int32 views."""
    return np.abs(a.view(np.int32).astype(np.int64) - b.view(np.int32))


def ref_footprints(fan):
    """Per ray, the set of distinct voxels given nonzero bilinear weight."""
    nx, ny = fan.bounds
    return [
        {v for px, py in xy[:k] for v, w in _corners(px, py, nx, ny) if w > 0}
        for xy, k in zip(fan.sample_xy, fan.sample_counts)
    ]


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_forward_matches_per_sample_reference(fan, interpolation):
    nx, ny = fan.bounds
    x = np.random.default_rng(3).uniform(0.0, 1.0, (3, ny, nx))
    got = fan.operator(interpolation).forward(x)
    assert got.shape == (3, fan.n_rays)
    for j in range(3):
        want = ref_line_sums(x[j], fan, interpolation)
        assert np.allclose(got[j], want, rtol=1e-12, atol=1e-12)


def test_float32_forward_widens_one_block_at_a_time():
    # a float32 volume, as every phantom is, is widened into the float64
    # workspace one public block at a time and never copied whole: the
    # peak stays under the volume's own size, half a whole float64 copy
    op = build_fan(GeometryConfig(), bounds=(256, 256)).operator()
    x32 = make_phantom("jaw-arch", (64, 256, 256), seed=1).data
    assert x32.dtype == np.float32
    op.forward(x32[:1])  # the tables and numpy's lazy set-up, outside the trace
    tracemalloc.start()
    try:
        got = op.forward(x32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (64, op.n_rays)
    assert peak < x32.nbytes


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_adjoint_identity(fan, interpolation):
    nx, ny = fan.bounds
    rng = np.random.default_rng(4)
    op = fan.operator(interpolation)
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, (5, ny, nx))
        r = rng.uniform(0.0, 1.0, (5, fan.n_rays))
        lhs = float(np.sum(op.forward(x) * r))
        rhs = float(np.sum(x * adjoint(op, r)))
        assert rhs == pytest.approx(lhs, rel=1e-12)


def test_crossing_counts_match_distinct_voxels(fan):
    nx, ny = fan.bounds
    want = np.zeros(ny * nx, dtype=np.int64)
    for feet in ref_footprints(fan):
        for v in feet:
            want[v] += 1
    counts = crossing_counts(fan, (2, ny, nx))
    assert np.array_equal(counts[0].ravel(), want)
    assert np.array_equal(counts[1], counts[0])


def test_ray_mean_state_is_mean_over_crossing_rays(fan):
    # the crossed layout's float64 means, against the per-ray loop
    nx, ny = fan.bounds
    cands = np.random.default_rng(5).uniform(0.0, 1.0, (2, fan.n_rays))
    sums = np.zeros((2, ny * nx))
    hits = np.zeros(ny * nx)
    for i, feet in enumerate(ref_footprints(fan)):
        for v in feet:
            sums[:, v] += cands[:, i]
            hits[v] += 1
    want = np.where(hits > 0, sums / np.maximum(hits, 1), 0.0)
    got = ray_mean(fan.operator(), cands)
    assert got.dtype == np.float64
    assert np.allclose(got.reshape(2, -1), want, rtol=1e-12, atol=0.0)
    assert np.all(got.reshape(2, -1)[:, hits == 0] == 0.0)


def test_rho_is_mean_over_crossing_rays(fan):
    # rho is float32: the crossed layout's float32 means of the
    # float32-rounded candidates, bit for bit, within RHO_ULPS of the
    # float64 means rounded once, and 0 off the crossed voxels
    nx, ny = fan.bounds
    cands = np.random.default_rng(5).uniform(0.0, 1.0, (2, fan.n_rays))
    op = fan.operator()
    rho = aggregate_rho(fan, cands, (2, ny, nx)).rho
    assert same(rho, ray_mean(op, cands.astype(np.float32)))
    assert ulps_apart(rho, ray_mean(op, cands).astype(np.float32)).max() <= RHO_ULPS
    assert not rho[:, op.counts == 0].any()


@pytest.mark.parametrize("name", [*sorted(FANS), "default"])
def test_constant_rows_within_count_ulps(name):
    # a float32 mean of k float32 values lies within k ulp of their float64
    # mean, so a constant row c back-projects to within |B(x)| ulp of
    # float32(c) on every crossed voxel, above it as well as below, and rho
    # stays in [0, 1]; binade edges included
    cfg, bounds = FANS.get(name, (GeometryConfig(), (256, 256)))
    fan = build_fan(cfg, bounds=bounds)
    nx, ny = bounds
    c = np.concatenate([[1.0, 0.5, 0.25, 0.1, np.nextafter(0.5, 0.0)],
                        np.random.default_rng(9).uniform(0.0, 1.0, 11)])
    rho = aggregate_rho(fan, np.repeat(c[:, None], fan.n_rays, axis=1), (len(c), ny, nx)).rho
    counts = fan.operator().counts
    crossed = counts > 0
    assert (ulps_apart(rho[:, crossed], c.astype(np.float32)[:, None]) <= counts[crossed]).all()
    assert rho.min() >= 0.0 and rho.max() <= 1.0


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_constant_slices_are_exact(fan, interpolation):
    # each slice constant: line sums are c_j * n_i to rounding, since each
    # sample's weights sum to 1
    nx, ny = fan.bounds
    c = np.array([0.0, 0.3, 1.0, 0.123456789])
    x = np.broadcast_to(c[:, None, None], (4, ny, nx))
    got = fan.operator(interpolation).forward(x)
    n = fan.sample_counts.astype(np.float64)
    np.testing.assert_allclose(got, c[:, None] * n[None, :], rtol=1e-12, atol=0)


def test_nearest_render_uniform_exact():
    fan = build_fan(GeometryConfig(), bounds=(256, 256))
    vol = make_phantom("uniform:0.5", (4, 256, 256))
    cfg = RenderConfig(height=4, interpolation="nearest")
    px = render_simpx(vol, fan, cfg).pixels[:, fan.sample_counts == 200]
    assert np.unique(px).size == 1
    assert px[0, 0] == pytest.approx(-math.expm1(-cfg.beta * 0.5 * 200 * fan.delta), abs=1e-15)


def test_operator_cached_per_mode(fan):
    assert fan.operator() is fan.operator("trilinear")
    assert fan.operator("nearest") is not fan.operator("trilinear")
    with pytest.raises(ValueError):
        fan.operator("cubic")


def test_operator_coalesces_entries(fan):
    # one entry per (ray, voxel): never more than the distinct footprint
    assert len(fan.operator().weight) == sum(len(f) for f in ref_footprints(fan))


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_operator_without_entries(interpolation):
    # no retained sample: nothing to coalesce, and A and A^T are zero maps
    fan = build_fan(GeometryConfig(width=32), bounds=(8, 8))
    op = fan_operator.FanOperator(fan.sample_xy, np.zeros_like(fan.sample_counts), fan.bounds,
                                  interpolation)
    assert len(op.ray) == len(op.voxel) == len(op.weight) == 0
    assert not op.forward(np.ones((2, 8, 8))).any()
    assert not adjoint(op, np.ones((2, fan.n_rays))).any()
    check_build_matches_oracle(op, fan.sample_xy, np.zeros_like(fan.sample_valid), interpolation)


def check_build_matches_oracle(op, sample_xy, sample_valid, interpolation):
    """op's coalesced entries and the A and A^T tiles of both its layouts
    are bit-identical to the whole-array build of oracles.py from the same
    samples; the float32 tables, built from float32 weights, are the
    float64 ones cast, bit for bit; and each dtype's pattern is 1 exactly
    where its A^T weights are nonzero."""
    ray, voxel, weight = coalesced_entries(sample_xy, sample_valid, op.bounds, interpolation)
    assert same_bits(op.ray, ray) and same_bits(op.voxel, voxel) and same_bits(op.weight, weight)
    for lay in (op.full, op.crossed):
        pos = np.full(op.n_voxels, -1)
        pos[lay.voxels] = np.arange(lay.size)
        for kind, want in (
            ("rows", padded_tiles(ray, pos[voxel], weight, np.arange(op.n_rays), lay.size,
                                  fan_operator._TILE, fan_operator._CLASSES)),
            ("cols", padded_tiles(pos[voxel], ray, weight, np.arange(lay.size), op.n_rays,
                                  fan_operator._TILE, fan_operator._CLASSES)),
        ):
            got = lay._table(kind, np.float64)
            assert len(got) == len(want)
            for t, (rows, idx, w) in zip(got, want):
                assert same_bits(t.rows, rows) and same_bits(t.idx, idx) and same_bits(t.w, w)
                keep = rows >= 0
                assert t.keep is None if keep.all() else same_bits(t.keep, keep)
            single = lay._table(kind, np.float32)
            assert len(single) == len(got)
            for t32, t in zip(single, got):
                assert t32.w.dtype == np.float32
                assert same_bits(t32.rows, t.rows) and same_bits(t32.idx, t.idx)
                assert (t32.keep is None) == (t.keep is None)
                assert t.keep is None or same_bits(t32.keep, t.keep)
                assert same_bits(t32.w, t.w.astype(np.float32))
        for dtype in (np.float64, np.float32):
            cols = lay._table("cols", dtype)
            for p, t in zip(lay._table("pattern", dtype), cols, strict=True):
                assert p.w.dtype == dtype
                assert p.rows is t.rows and p.keep is t.keep and p.idx is t.idx
                assert same_bits(p.w, (t.w != 0).astype(dtype))


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_build_matches_oracle(fan, interpolation):
    check_build_matches_oracle(fan.operator(interpolation), fan.sample_xy, fan.sample_valid,
                               interpolation)


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
@pytest.mark.parametrize("angle_scale, width", SWEEP_GEOMETRIES)
def test_sweep_build_matches_oracle(angle_scale, width, interpolation):
    fan = build_fan(GeometryConfig(width=width, angle_scale=angle_scale), bounds=(256, 256))
    check_build_matches_oracle(fan.operator(interpolation), fan.sample_xy, fan.sample_valid,
                               interpolation)


def test_blocks_and_chunks_do_not_change_results(fan, monkeypatch):
    # one slice per block and one row per chunk give the bytes of the
    # default sizes
    nx, ny = fan.bounds
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, (3, ny, nx))
    r = rng.uniform(0.0, 1.0, (3, fan.n_rays))
    x_before = x.copy()
    want_fwd, want_adj = fan.operator().forward(x), adjoint(fan.operator(), r)
    monkeypatch.setattr(fan_operator, "_PIECE", 1)
    monkeypatch.setattr(fan_operator, "_CHUNK_BYTES", 8)
    op = fan_operator.FanOperator(fan.sample_xy, fan.sample_counts, fan.bounds)
    assert same_bits(op.forward(x), want_fwd)
    assert np.array_equal(x, x_before)  # the input is never written
    assert same_bits(adjoint(op, r), want_adj)


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_public_transpose_of_float32_rows_is_float64(fan, interpolation):
    # adjoint_state into a float64 volume widens float32 rows first and
    # gives the bits of the widened rows; aggregate_rho rounds its
    # candidates to float32 first, so float64 ones give the bits of their
    # float32 rounding
    r = np.random.default_rng(8).uniform(-1.0, 1.0, (3, fan.n_rays)).astype(np.float32)
    lay = fan.operator(interpolation).crossed
    got = lay.adjoint_state(r, np.empty((lay.size, 3)))
    assert same(got, lay.adjoint_state(r.astype(np.float64)))
    nx, ny = fan.bounds
    c = np.random.default_rng(9).uniform(0.0, 1.0, (3, fan.n_rays))
    assert same(aggregate_rho(fan, c, (3, ny, nx)).rho,
                aggregate_rho(fan, c.astype(np.float32), (3, ny, nx)).rho)


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_adjoint_out_buffer(fan, interpolation):
    # adjoint_state fills a given float64 or float32 state-layout volume
    # and returns it; one of another dtype, shape or layout is refused
    # before any write, including a flat one of the same values and one too
    # narrow for every slice, whose leading slices alone would fit
    nx, ny = fan.bounds
    n = nx * ny
    r = np.random.default_rng(7).uniform(-1.0, 1.0, (3, fan.n_rays))
    op = fan.operator(interpolation)
    want = adjoint(op, r)
    lay = op.full
    buf = np.full((n, 3), np.nan)
    assert lay.adjoint_state(r, buf) is buf
    assert np.array_equal(lay.from_state(buf), want)
    buf32 = np.full((n, 3), np.nan, dtype=np.float32)
    assert lay.adjoint_state(r, buf32) is buf32
    assert np.allclose(lay.from_state(buf32), want, rtol=1e-5, atol=1e-5)
    for bad in (np.zeros((n, 2)), np.zeros((n + 1, 3)), np.zeros((n, 3), dtype=np.float16),
                np.zeros(3 * n), np.zeros((3, n)), np.zeros((3, n)).T, np.zeros((n, 6))[:, ::2]):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            lay.adjoint_state(r, bad)
        assert not bad.any()  # refused before any write


def test_from_state_out_buffer(fan):
    # from_state returns a new C-contiguous volume of the state's dtype,
    # which shares no memory with the state
    nx, ny = fan.bounds
    lay = fan.operator().full
    x = np.random.default_rng(8).uniform(0.0, 1.0, (3, ny, nx))
    for dtype in (np.float64, np.float32):
        state = lay.to_state(x.astype(dtype))
        got = lay.from_state(state)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert not np.may_share_memory(got, state)
        assert np.array_equal(got, x.astype(dtype))


# random fans from extract_rays: small grids, axis-aligned and random angles,
# integral and random centers inside and outside the grid. Rays through a
# center inside the grid enter it, and on a grid of at most 3 voxels a side
# they often cross every voxel, so the fans' crossed supports are empty,
# partial and full in shares of about 1:2:1 (see test_fans_draw_every_support)
@st.composite
def fans(draw):
    size = st.integers(1, 3) | st.integers(1, 16)
    nx, ny = draw(size), draw(size)
    coord = st.integers(-8, 24).map(float) | st.floats(-8.0, 24.0)
    inside = st.tuples(st.floats(0.0, float(nx)), st.floats(0.0, float(ny)))
    centers = draw(st.lists(st.tuples(coord, coord) | inside, min_size=2, max_size=3))
    for a, b in zip(centers, centers[1:]):
        assume(math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-6)
    n_seg = len(centers) - 1
    return extract_rays(
        centers,
        draw(st.lists(st.floats(5.0, 120.0), min_size=n_seg, max_size=n_seg)),
        initial_angle=draw(st.sampled_from([0.0, 90.0, -90.0])
                           | st.floats(-360.0, 360.0)),
        width=draw(st.integers(n_seg, 16)),
        bounds=(nx, ny),
        delta=draw(st.sampled_from([1.0, 0.5]) | st.floats(0.25, 3.0)),
        n_samples=draw(st.integers(1, 60)),
    )


modes = st.sampled_from(["trilinear", "nearest"])


def support(op):
    """Whether op's rays cross no voxel, some or every one."""
    return "empty" if not op.counts.any() else "full" if op.counts.all() else "partial"


@pytest.mark.parametrize("kind", ["empty", "partial", "full"])
def test_fans_draw_every_support(kind):
    # the properties over fans() meet each kind of crossed support
    find(fans(), lambda fan: support(fan.operator()) == kind,
         settings=settings(max_examples=200, database=None, phases=[Phase.generate]))


class TestOperatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(fans(), modes, st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, fan, interpolation, nz, seed):
        nx, ny = fan.bounds
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (nz, ny, nx))
        r = rng.uniform(0.0, 1.0, (nz, fan.n_rays))
        op = fan.operator(interpolation)
        lhs = float(np.sum(op.forward(x) * r))
        rhs = float(np.sum(x * adjoint(op, r)))
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(fans(), modes,
           st.lists(st.sampled_from(["zero", "positive", "constant"]), max_size=4),
           st.sampled_from([0.0, -0.0]), st.integers(0, 2**32 - 1))
    def test_forward_with_zero_and_positive_slice_minima(
            self, fan, interpolation, extra, zero, seed):
        # two slices per block: the first block mixes a zero minimum with a
        # constant positive slice, the second holds two zero minima; drawn
        # slices fill blocks of any kind
        nx, ny = fan.bounds
        rng = np.random.default_rng(seed)
        kinds = ["zero", "constant", "zero", "zero"] + extra
        x = rng.uniform(0.0, 1.0, (len(kinds), ny, nx))
        for j, kind in enumerate(kinds):
            if kind == "positive":
                x[j] = 0.05 + 0.95 * x[j]
            elif kind == "constant":
                x[j] = x[j, 0, 0] + 0.05
            else:
                x[j].flat[rng.integers(nx * ny)] = zero
        x.flags.writeable = False  # the input is never written
        x_before = x.copy()
        op = fan.operator(interpolation)
        with mock.patch.object(fan_operator, "_PIECE", 2):
            got = op.forward(x)
        for j in range(len(kinds)):
            want = ref_line_sums(x[j], fan, interpolation)
            assert np.allclose(got[j], want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(x, x_before)
        # one-slice blocks on a strided view give the same bytes
        with mock.patch.object(fan_operator, "_PIECE", 1):
            assert same_bits(op.forward(x[::-1])[::-1], got)
        assert np.array_equal(x, x_before)

    @settings(max_examples=60, deadline=None)
    @given(fans(), modes, st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_uncrossed_voxels_never_reach_forward(self, fan, interpolation, nz, seed):
        # a voxel no ray crosses has an empty column of A: whatever values
        # those voxels hold, below every crossed value or far above it,
        # forward gives the same bytes, which are the full layout's
        op = fan.operator(interpolation)
        nx, ny = fan.bounds
        rng = np.random.default_rng(seed)
        # slices with negative and with positive minima
        x = (rng.uniform(-1.0, 1.0, (nz, nx * ny))
             + 1.25 * rng.integers(0, 2, (nz, 1)))
        got = op.forward(x.reshape(nz, ny, nx))
        full = op.full
        assert got.tobytes() == full.forward_state(full.to_state(x.reshape(nz, ny, nx))).tobytes()
        crossed = op.counts.ravel() > 0
        off = np.count_nonzero(~crossed)
        for y in (np.zeros_like(x), x - 1e6, x + 1e6):
            y[:, crossed] = x[:, crossed]
            y[:, ~crossed] += rng.uniform(-1.0, 1.0, (nz, off))
            assert op.forward(y.reshape(nz, ny, nx)).tobytes() == got.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(fans(), modes, st.integers(1, 6), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def test_bit_identical_at_any_thread_count(self, fan, interpolation, nz, per_block,
                                               seed):
        # one or two slices per forward block, so up to six blocks for the
        # workers to split; three CPUs are reported so that threads=3 gets
        # three workers
        nx, ny = fan.bounds
        rng = np.random.default_rng(seed)
        # slices with zero and with positive minima
        x = rng.uniform(0.0, 1.0, (nz, ny, nx)) + 0.25 * rng.integers(0, 2, (nz, 1, 1))
        x.flags.writeable = False  # the input is never written
        op = fan.operator(interpolation)
        with mock.patch.object(fan_operator, "_PIECE", per_block):
            want = op.forward(x)
            with mock.patch.object(_pool.os, "cpu_count", return_value=3):
                for threads in (1, 2, 3):
                    assert np.array_equal(op.forward(x, threads=threads), want)

    @pytest.mark.parametrize("nz, n", [(40, 64), (20, 512)])
    def test_forward_blocks_give_the_state_path_bits(self, nz, n):
        # grids where _PIECE-slice blocks differ from 8 MB ones: 40 slices of
        # 64^2 (16 + 16 + 8) and 20 of 512^2 (16 + 4); each gives the bits of
        # the crossed layout's one-block forward_state at any thread count
        fan = build_fan(GeometryConfig(), bounds=(n, n))
        op = fan.operator()
        x = np.random.default_rng(n).uniform(0.0, 1.0, (nz, n, n))
        want = op.crossed.forward_state(op.crossed.to_state(x))
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 2, 3):
                assert same_bits(op.forward(x, threads=threads), want)

    @settings(max_examples=60, deadline=None)
    @given(fans(), st.integers(1, 4), st.data())
    def test_aggregate_rho_map_passes_the_checks(self, fan, nz, data):
        # aggregate_rho skips the map's checks; for candidates in [0, 1]
        # (endpoints included) the checking constructor, which requires rho
        # to be 0 off the crossed voxels, must accept its map
        nx, ny = fan.bounds
        cands = data.draw(hnp.arrays(np.float64, (nz, fan.n_rays),
                                     elements=st.floats(0.0, 1.0)))
        m = aggregate_rho(fan, cands, (nz, ny, nx))
        checked = BackProjectionMap(counts=np.array(m.counts), rho=m.rho)
        assert checked.counts.shape == checked.rho.shape == (nz, ny, nx)
        assert np.array_equal(checked.counts, crossing_counts(fan, (nz, ny, nx)))
        assert m.rho.min() >= 0.0 and m.rho.max() <= 1.0
        # rho is the crossed layout's float32 means of the float32-rounded
        # candidates, within RHO_ULPS of the float64 means rounded once
        op = fan.operator()
        assert same(m.rho, ray_mean(op, cands.astype(np.float32)))
        assert ulps_apart(m.rho, ray_mean(op, cands).astype(np.float32)).max() <= RHO_ULPS
        # every layout's means lie in [0, 1] in either dtype, so the solver's
        # rho init needs no clip: a pattern sum of [0, 1] values is at most
        # its count under monotone rounding
        for lay in (op.full, op.crossed):
            for dtype in (np.float64, np.float32):
                means = lay.ray_mean_state(cands.astype(dtype))
                assert means.dtype == dtype
                assert not means.size or (means.min() >= 0.0 and means.max() <= 1.0)


def test_pattern_weights_mark_the_entries(fan):
    # the crossed layout's A^T tiles, sharing their rows and indices,
    # weighted 1 on each entry and 0 elsewhere, so each support voxel's row
    # of pattern weights sums to its entry count
    lay = fan.operator().crossed
    assert np.array_equal(lay.counts, fan.operator().counts[fan.operator().counts > 0])
    pattern, cols = lay._table("pattern", np.float64), lay._table("cols", np.float64)
    assert len(pattern) == len(cols)
    for p, t in zip(pattern, cols):
        assert p.rows is t.rows and p.keep is t.keep and p.idx is t.idx
        assert np.array_equal(p.w, (t.w != 0.0).astype(np.float64))
        sums = p.w.sum(axis=2).ravel()
        keep = t.rows >= 0
        assert np.array_equal(sums[keep], lay.counts[t.rows[keep]])
        assert not sums[~keep].any()


def directions(op):
    """(tiles, dense matrix, row lengths) of A and A^T in the full layout
    and of A, A^T and the pattern in the crossed one, the dense matrices
    built from the coalesced (ray, voxel, weight) entries; a crossed
    matrix keeps its support's columns or rows, in voxel order."""
    a = np.zeros((op.n_rays, op.n_voxels))
    a[op.ray, op.voxel] = op.weight  # coalesced: one entry per (ray, voxel)
    per_ray = np.bincount(op.ray, minlength=op.n_rays)
    per_voxel = op.counts.ravel()
    lay = op.crossed
    keep = lay.voxels
    return [(op.full._table("rows", np.float64), a, per_ray),
            (op.full._table("cols", np.float64), a.T, per_voxel),
            (lay._table("rows", np.float64), a[:, keep], per_ray),
            (lay._table("cols", np.float64), a.T[keep], per_voxel[keep]),
            (lay._table("pattern", np.float64), (a.T[keep] > 0).astype(np.float64),
             per_voxel[keep])]


def dense_from_tiles(tiles, shape):
    """The matrix the tiles hold: each kept row of a tile's weight block
    added at its output row and the tile's columns; rows of ids off the
    output are dropped."""
    d = np.zeros(shape)
    for t in tiles:
        c, n = t.idx.shape
        keep = t.rows >= 0
        cols = np.repeat(t.idx, fan_operator._TILE, axis=0)[keep]
        np.add.at(d, (np.repeat(t.rows[keep], n), cols.ravel()),
                  t.w.reshape(c * fan_operator._TILE, n)[keep].ravel())
    return d


def check_tiles(tiles, dense, lengths):
    """The tiles' kept rows partition the rows, each written once, and
    only the last tile's ids past the last row are dropped. The first
    class, of width 0, holds the tiles of rows with no entries; each other
    holds one length class of tile unions and is padded to its longest,
    under 2 ** (1 / _CLASSES) times each union. A tile's union is
    the leading columns of its idx row, in increasing order, and each of
    them carries a weight in some row; a row that is dropped carries none.
    The matrix the tiles hold is the dense one, exactly."""
    k, h = fan_operator._CLASSES, fan_operator._TILE
    rows = np.concatenate([t.rows for t in tiles])
    assert np.array_equal(np.sort(rows[rows >= 0]), np.arange(len(lengths)))
    assert np.count_nonzero(rows < 0) == -len(lengths) % h
    classes = set()
    for i, t in enumerate(tiles):
        c, n = t.idx.shape
        assert t.rows.shape == (c * h,) and t.w.shape == (c, h, n)
        keep = t.rows >= 0
        assert t.keep is None if keep.all() else np.array_equal(t.keep, keep)
        assert not t.w.reshape(c * h, n)[~keep].any()
        per_row = lengths[np.where(keep, t.rows, 0)] * keep
        if n == 0:
            assert i == 0 and not per_row.any()
            continue
        used = (t.w > 0).any(axis=1)
        union = used.sum(axis=1)
        pad = np.arange(n) >= union[:, None]
        assert np.array_equal(used, ~pad)
        assert union.min() > 0 and np.all(np.diff(t.idx, axis=1)[~pad[:, 1:]] > 0)
        key = np.ceil(k * np.log2(union))
        assert np.all(key == key[0]) and key[0] not in classes
        classes.add(key[0])
        assert n == union.max() and np.all(n < union * 2 ** (1 / k))
        assert not t.idx[pad].any() and np.all(t.w[t.w != 0] > 0)
        assert np.array_equal((t.w > 0).sum(axis=2).ravel(), per_row)
    assert np.array_equal(dense_from_tiles(tiles, dense.shape), dense)


def check_apply_zeroes_empty_rows(op, nb, seed):
    """_apply into NaN-filled blocks writes exact zeros on the rows with no
    entries and the dense products on the others."""
    rng = np.random.default_rng(seed)
    for tiles, dense, lengths in directions(op):
        src = rng.uniform(-1.0, 1.0, (dense.shape[1], nb))
        out = np.full((dense.shape[0], nb), np.nan)
        fan_operator._apply(tiles, src, out)
        assert np.all(out[lengths == 0] == 0.0)
        assert np.allclose(out, dense @ src, rtol=1e-12, atol=1e-12)


def check_crossed_transpose(op):
    """The crossed layout's A^T tiles its own rows, the support positions:
    one tile per _TILE of them, none of no entries, and ids dropped only in
    the last tile, past the last position."""
    lay, h = op.crossed, fan_operator._TILE
    tiles = lay._table("cols", np.float64)
    n_tiles = -(-lay.size // h)
    assert sum(len(t.idx) for t in tiles) == n_tiles
    assert all(t.idx.shape[1] for t in tiles)
    partial = [t for t in tiles if t.keep is not None]
    assert len(partial) == (lay.size % h > 0)
    for t in partial:
        rows = t.rows.reshape(-1, h)
        dropped = (rows < 0).any(axis=1)
        last = np.arange((n_tiles - 1) * h, n_tiles * h)
        assert np.count_nonzero(dropped) == 1
        assert np.array_equal(rows[dropped][0], np.where(last < lay.size, last, -1))


def test_crossed_transpose_tiles_the_support():
    # the default fan crosses 26,790 voxels: its crossed A^T has 6,698 tiles
    # where tiling every voxel id gave 16,384, of which 8,871 held no entry
    op = build_fan(GeometryConfig(), bounds=(256, 256)).operator()
    assert op.crossed.size == 26_790
    check_crossed_transpose(op)


class TestLengthClasses:
    @settings(max_examples=60, deadline=None)
    @given(fans(), modes, st.integers(1, 6), st.sampled_from([8, 256, 512 << 10]),
           st.integers(0, 2**32 - 1))
    def test_tiles_and_apply(self, fan, interpolation, nb, chunk, seed):
        # chunk bytes from one tile per chunk to the default
        op = fan.operator(interpolation)
        for tiles, dense, lengths in directions(op):
            check_tiles(tiles, dense, lengths)
        with mock.patch.object(fan_operator, "_CHUNK_BYTES", chunk):
            check_apply_zeroes_empty_rows(op, nb, seed)

    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    def test_fixture_fans(self, fan, interpolation):
        # rows of up to a few hundred entries, so most of these fans have
        # classes of several lengths and tiles with padding; the random
        # fans' short rows rarely do
        op = fan.operator(interpolation)
        for tiles, dense, lengths in directions(op):
            check_tiles(tiles, dense, lengths)
        check_apply_zeroes_empty_rows(op, 5, 0)

    @pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
    def test_rays_and_voxels_without_entries(self, interpolation):
        # centres off an 8x8 grid: half the rays take no sample
        fan = extract_rays([(-8.0, -8.0), (24.0, 24.0), (24.0, -8.0)], [90.0, 90.0],
                           initial_angle=45.0, width=12, bounds=(8, 8), n_samples=20)
        op = fan.operator(interpolation)
        assert 0 < np.count_nonzero(fan.sample_counts == 0) < fan.n_rays
        assert 0 < op.crossed.size < op.n_voxels
        for tiles, dense, lengths in directions(op):
            check_tiles(tiles, dense, lengths)
        # A and the full A^T have rows of length 0, some in tiles of their
        # own; the crossed A^T, tiled by support position, has none
        check_crossed_transpose(op)
        check_apply_zeroes_empty_rows(op, 5, 0)

    @pytest.mark.parametrize("cfg, bounds, gathers, madds", [
        (GeometryConfig(width=512, angle_scale=0.5), (64, 64), (0.31, 0.52), (1.23, 2.08)),
        (GeometryConfig(), (256, 256), (0.53, 0.51), (2.11, 2.01)),
    ], ids=["acceptance-64", "default-256"])
    def test_padding_stays_low(self, cfg, bounds, gathers, madds):
        # the voxels a tile gathers and the multiply-adds of its weight block,
        # padding included, per entry of A and of A^T: _TILE adjacent rays
        # or voxels share most of their unions on the dense acceptance fan's
        # A, and about half of them elsewhere
        op = build_fan(cfg, bounds=bounds).operator()
        for kind, g, m in zip(("rows", "cols"), gathers, madds):
            tiles = op.full._table(kind, np.float64)
            assert sum(t.idx.size for t in tiles) <= g * len(op.weight)
            assert sum(t.w.size for t in tiles) <= m * len(op.weight)


@functools.cache
def square_fan(n):
    return build_fan(GeometryConfig(width=64), bounds=(n, n))


def same(a, b):
    """a and b have one dtype and shape and the same bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStateLayout:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([8, 16]), modes, st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_state_cores_equal_the_public_ones(self, n, interpolation, nz, seed):
        op = square_fan(n).operator(interpolation)
        rng = np.random.default_rng(seed)
        # slices with zero and with positive minima
        x = rng.uniform(0.0, 1.0, (nz, n, n)) + 0.25 * rng.integers(0, 2, (nz, 1, 1))
        r = rng.uniform(-1.0, 1.0, (nz, op.n_rays))
        c = rng.uniform(0.0, 1.0, (nz, op.n_rays))
        # the full layout's cores against the public forward and the crossed
        # layout's transposes
        want_fwd, want_adj, want_mean = op.forward(x), adjoint(op, r), ray_mean(op, c)
        lay = op.full
        # a state volume is one C-contiguous voxel-major (size, nz) array
        state = lay.to_state(x)
        assert state.shape == (n * n, nz) and state.flags.c_contiguous
        assert np.array_equal(state, x.reshape(nz, n * n).T)
        assert np.array_equal(lay.from_state(state), x)
        state.flags.writeable = False  # the forward never writes its input
        assert np.array_equal(lay.forward_state(state), want_fwd)
        buf = np.full(state.shape, np.nan)
        assert lay.adjoint_state(r, buf) is buf
        assert np.array_equal(lay.from_state(buf), want_adj)
        assert np.array_equal(lay.from_state(lay.ray_mean_state(c)), want_mean)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([8, 16]), modes, st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_float32_state_cores(self, n, interpolation, nz, seed):
        # float32 state out of to_state, adjoint_state and ray_mean_state,
        # float64 line sums, and values close to the float64 cores'
        op = square_fan(n).operator(interpolation)
        rng = np.random.default_rng(seed)
        x = (rng.uniform(0.0, 1.0, (nz, n, n))
             + 0.25 * rng.integers(0, 2, (nz, 1, 1))).astype(np.float32)
        r = rng.uniform(-1.0, 1.0, (nz, op.n_rays))
        c = rng.uniform(0.0, 1.0, (nz, op.n_rays)).astype(np.float32)
        want_fwd, want_adj = op.forward(x), adjoint(op, r)
        want_mean = ray_mean(op, c.astype(np.float64))
        lay, crossed = op.full, op.crossed
        state = lay.to_state(x)
        assert state.dtype == np.float32
        assert np.array_equal(lay.from_state(state), x)
        fwd = lay.forward_state(state)
        adj = lay.adjoint_state(r, np.empty(state.shape, np.float32))
        mean = crossed.ray_mean_state(c)
        assert fwd.dtype == np.float64 and mean.dtype == np.float32
        assert np.allclose(fwd, want_fwd, rtol=1e-5, atol=1e-5)
        assert np.allclose(lay.from_state(adj), want_adj, rtol=1e-5, atol=1e-5)
        assert np.allclose(crossed.from_state(mean), want_mean, rtol=1e-5, atol=1e-6)

    def test_forward_state_pads_the_state_once(self):
        # a state whose slice count is not a multiple of _LANES is read
        # through at most one lane-padded copy beside the line sums
        lay = square_fan(128).operator().full
        nz = 20
        state = lay.to_state(np.random.default_rng(11).uniform(0.5, 1.0, (nz, 128, 128)))
        want = lay.forward_state(state)  # the tables, outside the trace
        padded = lay.size * 24 * 8  # 20 float64 slices padded to 3 * 8 lanes
        tracemalloc.start()
        try:
            got = lay.forward_state(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same(got, want)
        # beside them, at most one gathered chunk of tiles and its sums
        assert peak <= got.nbytes + padded + 2 * fan_operator._CHUNK_BYTES

    def test_volumes_of_no_slices(self):
        # every core takes a volume of no slices, as the public ones do
        op = square_fan(16).operator()
        for lay in (op.full, op.crossed):
            state = lay.to_state(np.zeros((0, 16, 16)))
            assert state.shape == (lay.size, 0)
            assert lay.forward_state(state).shape == (0, op.n_rays)
            assert lay.from_state(state).shape == (0, 16, 16)
        for apply in (adjoint, ray_mean):
            assert apply(op, np.zeros((0, op.n_rays))).shape == (0, 16, 16)

    @settings(max_examples=60, deadline=None)
    @given(fans(), modes, st.sampled_from([np.float64, np.float32]), st.data())
    def test_cores_do_not_depend_on_the_slice_count(self, fan, interpolation, dtype, data):
        # each state core of a whole volume gives the bits that it gives on
        # contiguous slice ranges of it, ragged and not all multiples of
        # _LANES, in either layout: a slice's sums do not depend on how many
        # columns _apply pads, groups and multiplies beside it
        nz = data.draw(st.integers(2, 40))
        cuts = sorted(data.draw(st.sets(st.integers(1, nz - 1), min_size=1, max_size=4)))
        ranges = list(zip([0, *cuts], [*cuts, nz]))
        lanes = fan_operator._LANES[np.dtype(dtype)]
        assume(any((z1 - z0) % lanes for z0, z1 in ranges))
        op = fan.operator(interpolation)
        nx, ny = fan.bounds
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # slices with zero and with positive minima
        x = (rng.uniform(0.0, 1.0, (nz, ny, nx))
             + 0.25 * rng.integers(0, 2, (nz, 1, 1))).astype(dtype)
        r = rng.uniform(-1.0, 1.0, (nz, op.n_rays)).astype(dtype)
        c = rng.uniform(0.0, 1.0, (nz, op.n_rays)).astype(dtype)
        for lay in (op.full, op.crossed):
            fwd = lay.forward_state(lay.to_state(x))
            adj, mean = lay.adjoint_state(r), lay.ray_mean_state(c)
            for z0, z1 in ranges:
                assert same(lay.forward_state(lay.to_state(x[z0:z1])), fwd[z0:z1])
                assert same(lay.adjoint_state(r[z0:z1]), adj[:, z0:z1])
                assert same(lay.ray_mean_state(c[z0:z1]), mean[:, z0:z1])


class TestCrossedLayout:
    def test_supports(self):
        # every voxel of a 4x4 grid is crossed, so its crossed layout is the
        # full one; the default fan crosses 26,790 of its 65,536 voxels
        op = build_fan(GeometryConfig(width=256), bounds=(4, 4)).operator()
        assert op.crossed is op.full and op.full.size == 16
        assert np.array_equal(op.full.voxels, np.arange(16))
        op = build_fan(GeometryConfig(), bounds=(256, 256)).operator()
        assert op.crossed.size == 26790
        assert np.array_equal(op.crossed.voxels, np.flatnonzero(op.counts))
        # every ray of this fan ends before the 8x8 grid: no support is empty,
        # so its crossed layout is the full one too, and A, A^T and ray_mean
        # are zero maps
        op = extract_rays([(-60.0, -60.0), (-40.0, -60.0)], [10.0], width=4, bounds=(8, 8),
                          n_samples=5).operator()
        assert op.n_rays == 4 and not op.counts.any() and op.crossed is op.full
        assert not op.forward(np.ones((2, 8, 8))).any()
        for apply in (adjoint, ray_mean):
            got = apply(op, np.ones((2, 4)))
            assert got.dtype == np.float64 and got.shape == (2, 8, 8) and not got.any()

    def test_state_buffers_are_mapped_zeros(self):
        # new state buffers of either layout are zeros in a writable
        # anonymous mapping of their own, which goes when they are freed
        def mapped(a):
            while isinstance(a, np.ndarray):  # a view's base, down to the memory
                a = a.base
            return isinstance(getattr(a, "obj", a), mmap.mmap)

        for lay in (square_fan(16).operator().crossed, square_fan(16).operator().full):
            for dtype in (np.float32, np.float64):
                buf = lay.buffer(3, dtype)
                assert buf.dtype == dtype and buf.shape == (lay.size, 3) and not buf.any()
                assert buf.flags.writeable and mapped(buf)
            for state in (lay.adjoint_state(np.ones((3, lay.n_rays))),
                          lay.to_state(np.ones((3, *lay.bounds[::-1]), np.float32))):
                assert mapped(state)

    def test_freed_without_the_garbage_collector(self):
        # the layouts hold the operator's arrays, not the operator, so no
        # cycle keeps them alive
        fan = square_fan(16)
        op = fan_operator.FanOperator(fan.sample_xy, fan.sample_counts, fan.bounds)
        assert 0 < op.crossed.size < op.n_voxels
        c = np.ones((2, op.n_rays))
        op.crossed.ray_mean_state(c)
        op.crossed.forward_state(op.crossed.to_state(np.ones((2, 16, 16), np.float32)))
        refs = [weakref.ref(o) for o in (op, op.full, op.crossed)]
        gc.disable()
        try:
            del op
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None)
    @given(fans(), modes, st.integers(1, 5), st.sampled_from([np.float64, np.float32]),
           st.integers(0, 2**32 - 1))
    def test_crossed_cores_equal_the_full_ones(self, fan, interpolation, nz, dtype, seed):
        # non-negative volumes that are 0 off the crossed voxels, with zero and
        # positive minima on them: turned slice-major, the crossed cores give
        # the full ones' bits; ray_mean_state's too, which the full layout
        # divides by the counts raised to 1
        op = fan.operator(interpolation)
        nx, ny = fan.bounds
        rng = np.random.default_rng(seed)
        x = ((rng.uniform(0.0, 1.0, (nz, ny, nx)) + 0.25 * rng.integers(0, 2, (nz, 1, 1)))
             * (op.counts > 0)).astype(dtype)
        r = rng.uniform(-1.0, 1.0, (nz, op.n_rays)).astype(dtype)
        c = rng.uniform(0.0, 1.0, (nz, op.n_rays)).astype(dtype)
        full, lay = op.full, op.crossed
        crossed = np.count_nonzero(op.counts)
        assert lay is full if crossed in (0, op.n_voxels) else lay.size == crossed
        state, full_state = lay.to_state(x), full.to_state(x)
        assert state.shape == (lay.size, nz)
        assert same(lay.from_state(state), x)
        assert same(lay.forward_state(state), full.forward_state(full_state))
        assert same(lay.from_state(lay.adjoint_state(r)),
                    full.from_state(full.adjoint_state(r)))
        assert same(lay.from_state(lay.ray_mean_state(c)),
                    full.from_state(full.ray_mean_state(c)))


@st.composite
def random_tiles(draw):
    """Tiles of a random sparse matrix whose rows hold 0 to 200 distinct
    columns, some of them long enough for BLAS to regroup a product's
    columns, built from its entries in random order, its rows in a drawn
    permutation; the oracle's build of the same entries; and the entries."""
    lengths = draw(st.lists(st.integers(0, 200), min_size=1, max_size=12))
    order = np.array(draw(st.permutations(range(len(lengths)))), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_out, n_in = len(lengths), 250
    out_ids = np.repeat(order, lengths)
    in_ids = np.concatenate([rng.choice(n_in, n, replace=False) for n in lengths])
    weights = rng.uniform(0.0, 1.0, len(out_ids)) + 0.5
    shuffle = rng.permutation(len(out_ids))
    out_ids, in_ids, weights = out_ids[shuffle], in_ids[shuffle], weights[shuffle]
    h, k = fan_operator._TILE, fan_operator._CLASSES
    return (fan_operator._tiles(out_ids, in_ids, weights, n_out, n_in),
            padded_tiles(out_ids, in_ids, weights, np.arange(n_out), n_in, h, k),
            (out_ids, in_ids, weights), n_out, n_in, rng)


class TestApply:
    @settings(max_examples=40, deadline=None)
    @given(random_tiles(), st.sampled_from([np.float64, np.float32]),
           st.lists(st.integers(1, 63), min_size=1, max_size=6))
    def test_column_bits_do_not_depend_on_block_width(self, drawn, dtype, widths):
        # padding each block to its dtype's lane count gives every column the
        # bits it gets in the widest block; float64 needs 8 lanes for that and
        # float32 16. The tiles of entries in any order are the oracle's
        tiles, want, _, n_out, n_in, rng = drawn
        assert len(tiles) == len(want)
        for t, (rows, idx, w) in zip(tiles, want):
            assert same_bits(t.rows, rows) and same_bits(t.idx, idx) and same_bits(t.w, w)
        tiles = tuple(fan_operator._Tiles(t.rows, t.keep, t.idx, t.w.astype(dtype))
                      for t in tiles)
        src = rng.uniform(-1.0, 1.0, (n_in, 64)).astype(dtype)
        wide = np.empty((n_out, 64), dtype)
        fan_operator._apply(tiles, src, wide)
        for nb in widths:
            out = np.full((n_out, nb), np.nan, dtype)
            fan_operator._apply(tiles, np.ascontiguousarray(src[:, :nb]), out)
            assert out.tobytes() == np.ascontiguousarray(wide[:, :nb]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(random_tiles(), st.permutations(range(12)), st.sampled_from([np.float64, np.float32]),
           st.integers(1, 63).filter(lambda nb: nb % 8))
    def test_row_bits_do_not_depend_on_tile_mates(self, drawn, moved, dtype, nb):
        # the same entries tiled again under another permutation of their
        # output ids, so that rows share tiles with other rows: every row gets
        # the same bytes, in a block whose width is no multiple of _LANES and
        # whose input holds signed zeros, since each sum runs over its inputs
        # in increasing order from +0 and a column off the row adds 0 * x
        tiles, _, (out_ids, in_ids, weights), n_out, n_in, rng = drawn
        moved = np.array([i for i in moved if i < n_out], dtype=np.int64)
        again = fan_operator._tiles(moved[out_ids], in_ids, weights, n_out, n_in)
        src = rng.uniform(-1.0, 1.0, (n_in, nb))
        src[rng.random(src.shape) < 0.3] = 0.0
        src[rng.random(src.shape) < 0.3] = -0.0
        src = src.astype(dtype)
        out, out_moved = np.empty((n_out, nb), dtype), np.empty((n_out, nb), dtype)
        for t, o in ((tiles, out), (again, out_moved)):
            t = tuple(fan_operator._Tiles(x.rows, x.keep, x.idx, x.w.astype(dtype)) for x in t)
            fan_operator._apply(t, src, o)
        assert out_moved[moved].tobytes() == out.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_wide_blocks_of_long_tiles(self, dtype):
        # a tile of thousands of columns in blocks of up to 512 slices: one
        # matmul over a whole wide block would leave OpenBLAS's small-matrix
        # kernel (or reach its threads) and change a column's bits, so
        # _apply splits such blocks into column groups of at most _GEMM
        # multiply-adds per tile
        rng = np.random.default_rng(13)
        n_in, k = 4000, 1500
        out_ids = np.repeat(np.arange(8), k)
        in_ids = np.concatenate([rng.choice(n_in, k, replace=False) for _ in range(8)])
        tiles = fan_operator._tiles(out_ids, in_ids, rng.uniform(0.5, 1.5, len(out_ids)),
                                    8, n_in)
        assert max(t.idx.shape[1] for t in tiles) > 3000
        tiles = tuple(fan_operator._Tiles(t.rows, t.keep, t.idx, t.w.astype(dtype))
                      for t in tiles)
        src = rng.uniform(-1.0, 1.0, (n_in, 512)).astype(dtype)
        want = np.empty((8, 16), dtype)
        fan_operator._apply(tiles, np.ascontiguousarray(src[:, :16]), want)
        for nb in (40, 160, 512):
            out = np.empty((8, nb), dtype)
            fan_operator._apply(tiles, np.ascontiguousarray(src[:, :nb]), out)
            assert out[:, :16].tobytes() == want.tobytes()

# hashes every output of the state cores on a 128-slice float32 state of the
# default fan, in both layouts, and of a 16-slice float64 public forward
_CORE_HASHES = """
import hashlib
import numpy as np
from panoray.ray_geometry import GeometryConfig, build_fan
op = build_fan(GeometryConfig(), bounds=(256, 256)).operator()
rng = np.random.default_rng(0)
x = rng.uniform(0.0, 1.0, (128, 256, 256)).astype(np.float32)
r = rng.uniform(-1.0, 1.0, (128, op.n_rays)).astype(np.float32)
for lay in (op.crossed, op.full):
    state = lay.to_state(x)
    for out in (lay.forward_state(state), lay.adjoint_state(r), lay.ray_mean_state(r)):
        print(hashlib.sha256(out.tobytes()).hexdigest())
print(hashlib.sha256(op.forward(x[:16].astype(np.float64)).tobytes()).hexdigest())
"""


def test_openblas_threads_do_not_change_bits():
    # each tile's matmul is small enough that OpenBLAS runs it on the calling
    # thread, so its own thread count changes no output bit; tiles of 8 rays
    # made OpenBLAS split the jaw block's long A tiles over its threads, and
    # the bytes changed with OPENBLAS_NUM_THREADS
    src = str(Path(panoray.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run([sys.executable, "-c", _CORE_HASHES], capture_output=True,
                              text=True, env={**env, **extra})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.split())
    assert len(outs[0]) == 7 and outs[0] == outs[1]
