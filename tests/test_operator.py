"""The fan's system matrix against per-sample loop references."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from panoray import fan_operator
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
    for i, ray in enumerate(fan.rays):
        for px, py in ray.samples:
            if interpolation == "nearest":
                x = min(int(math.floor(px)), nx - 1)
                y = min(int(math.floor(py)), ny - 1)
                out[i] += flat[y * nx + x]
            else:
                out[i] += sum(w * flat[v] for v, w in _corners(px, py, nx, ny))
    return out


def ref_footprints(fan):
    """Per ray, the set of distinct voxels given nonzero bilinear weight."""
    nx, ny = fan.bounds
    return [
        {v for px, py in ray.samples for v, w in _corners(px, py, nx, ny) if w > 0}
        for ray in fan.rays
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


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_adjoint_identity(fan, interpolation):
    nx, ny = fan.bounds
    rng = np.random.default_rng(4)
    op = fan.operator(interpolation)
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, (5, ny, nx))
        r = rng.uniform(0.0, 1.0, (5, fan.n_rays))
        lhs = float(np.sum(op.forward(x) * r))
        rhs = float(np.sum(x * op.adjoint(r)))
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


def test_rho_is_mean_over_crossing_rays(fan):
    nx, ny = fan.bounds
    cands = np.random.default_rng(5).uniform(0.0, 1.0, (2, fan.n_rays))
    sums = np.zeros((2, ny * nx))
    hits = np.zeros(ny * nx)
    for i, feet in enumerate(ref_footprints(fan)):
        for v in feet:
            sums[:, v] += cands[:, i]
            hits[v] += 1
    want = np.where(hits > 0, sums / np.maximum(hits, 1), 0.0)
    rho = aggregate_rho(fan, cands, (2, ny, nx)).rho
    assert np.allclose(rho.reshape(2, -1), want, rtol=1e-12, atol=0.0)
    assert np.all(rho.reshape(2, -1)[:, hits == 0] == 0.0)


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_constant_slices_are_exact(fan, interpolation):
    # each slice constant: line sums are exactly c_j * n_i
    nx, ny = fan.bounds
    c = np.array([0.0, 0.3, 1.0, 0.123456789])
    x = np.broadcast_to(c[:, None, None], (4, ny, nx))
    got = fan.operator(interpolation).forward(x)
    n = fan.sample_counts.astype(np.float64)
    assert np.array_equal(got, c[:, None] * n[None, :])


def test_nearest_render_uniform_exact():
    fan = build_fan(GeometryConfig(), bounds=(256, 256))
    vol = make_phantom("uniform:0.5", (4, 256, 256))
    cfg = RenderConfig(height=4, interpolation="nearest")
    px = render_simpx(vol, fan, cfg).pixels[:, fan.sample_counts == 200]
    assert np.unique(px).size == 1
    assert px[0, 0] == pytest.approx(-math.expm1(-cfg.beta * 0.5 * 200 * cfg.delta), abs=1e-15)


def test_operator_cached_per_mode(fan):
    assert fan.operator() is fan.operator("trilinear")
    assert fan.operator("nearest") is not fan.operator("trilinear")
    with pytest.raises(ValueError):
        fan.operator("cubic")


def test_operator_coalesces_entries(fan):
    # one entry per (ray, voxel): never more than the distinct footprint
    assert len(fan.operator().weight) == sum(len(f) for f in ref_footprints(fan))


def test_blocks_and_chunks_do_not_change_results(fan, monkeypatch):
    # one slice per block and one row per chunk against the default sizes
    nx, ny = fan.bounds
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 1.0, (3, ny, nx))
    r = rng.uniform(0.0, 1.0, (3, fan.n_rays))
    x_before = x.copy()
    want_fwd, want_adj = fan.operator().forward(x), fan.operator().adjoint(r)
    monkeypatch.setattr(fan_operator, "_BLOCK_BYTES", 8)
    monkeypatch.setattr(fan_operator, "_CHUNK_BYTES", 8)
    op = fan_operator.FanOperator(fan.sample_xy, fan.sample_valid,
                                  fan.sample_counts, fan.bounds)
    assert op.block == 1
    assert np.allclose(op.forward(x), want_fwd, rtol=1e-12, atol=0.0)
    assert np.array_equal(x, x_before)  # the input is never written
    assert np.allclose(op.adjoint(r), want_adj, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("interpolation", ["trilinear", "nearest"])
def test_adjoint_out_buffer(fan, interpolation):
    nx, ny = fan.bounds
    r = np.random.default_rng(7).uniform(-1.0, 1.0, (3, fan.n_rays))
    op = fan.operator(interpolation)
    buf = np.full((3, ny, nx), np.nan)
    got = op.adjoint(r, out=buf)
    assert got is buf
    assert np.array_equal(buf, op.adjoint(r))
    for bad in (np.empty((3, ny, nx + 1)), np.empty((3, ny, nx), dtype=np.float32),
                np.empty((3, nx, ny * 2))[:, :, ::2]):
        with pytest.raises(ValueError):
            op.adjoint(r, out=bad)


# random fans from extract_rays: small grids, axis-aligned and random angles,
# integral and random centers inside and outside the grid
@st.composite
def fans(draw):
    nx, ny = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    coord = st.integers(-8, 24).map(float) | st.floats(-8.0, 24.0)
    centers = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=3))
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
        rhs = float(np.sum(x * op.adjoint(r)))
        assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(fans(), modes,
           st.lists(st.sampled_from(["zero", "positive", "constant"]), max_size=4),
           st.sampled_from([0.0, -0.0]), st.integers(0, 2**32 - 1))
    def test_forward_with_zero_and_positive_slice_minima(
            self, fan, interpolation, extra, zero, seed):
        # two slices per block: the first block mixes a zero minimum with a
        # constant positive slice (shifted, so exact), the second holds two
        # zero minima (shift skipped); drawn slices fill blocks of any kind
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
        with mock.patch.object(fan_operator, "_BLOCK_BYTES", 2 * 8 * nx * ny):
            op = fan_operator.FanOperator(fan.sample_xy, fan.sample_valid,
                                          fan.sample_counts, fan.bounds,
                                          interpolation)
        assert op.block == 2
        got = op.forward(x)
        n = fan.sample_counts.astype(np.float64)
        for j, kind in enumerate(kinds):
            if kind == "constant":
                assert np.array_equal(got[j], x[j, 0, 0] * n)
            want = ref_line_sums(x[j], fan, interpolation)
            assert np.allclose(got[j], want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(x, x_before)
        # one-slice blocks on a strided view give the same sums
        with mock.patch.object(fan_operator, "_BLOCK_BYTES", 8):
            op1 = fan_operator.FanOperator(fan.sample_xy, fan.sample_valid,
                                           fan.sample_counts, fan.bounds,
                                           interpolation)
        assert np.allclose(op1.forward(x[::-1])[::-1], got, rtol=1e-12, atol=1e-12)
        assert np.array_equal(x, x_before)

    @settings(max_examples=60, deadline=None)
    @given(fans(), st.integers(1, 4), st.data())
    def test_aggregate_rho_map_passes_the_checks(self, fan, nz, data):
        # aggregate_rho skips the map's checks; for candidates in [0, 1]
        # (endpoints included) the checking constructor must accept its map
        nx, ny = fan.bounds
        cands = data.draw(hnp.arrays(np.float64, (nz, fan.n_rays),
                                     elements=st.floats(0.0, 1.0)))
        m = aggregate_rho(fan, cands, (nz, ny, nx))
        checked = BackProjectionMap(counts=np.array(m.counts), rho=m.rho)
        assert checked.counts.shape == checked.rho.shape == (nz, ny, nx)
        assert np.array_equal(checked.counts, crossing_counts(fan, (nz, ny, nx)))
        assert m.rho.min() >= 0.0 and m.rho.max() <= 1.0
