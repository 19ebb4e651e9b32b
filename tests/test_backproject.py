import dataclasses

import numpy as np
import pytest

from panoray.backproject import (
    BackProjectionMap,
    aggregate_rho,
    crossing_counts,
    image_candidates,
)
from panoray.errors import DimsError
from panoray.ray_geometry import GeometryConfig, RayFan, _sample, build_fan
from panoray.renderer import RenderConfig, SimPXImage, render_simpx
from panoray.volume import make_phantom


def fan_from_rays(rays, bounds, n_samples=200, delta=1.0):
    """Hand-built fan of (origin, direction) rays, for small geometric
    fixtures, sampled as extract_rays samples a fan."""
    origins = np.array([o for o, _ in rays], dtype=np.float64).reshape(-1, 2)
    directions = np.array([d for _, d in rays], dtype=np.float64).reshape(-1, 2)
    xy, _, counts = _sample(origins, directions, n_samples, delta, bounds)
    return RayFan(
        origins=origins, directions=directions,
        centers=np.zeros((0, 2)), angle_schedule=(),
        bounds=bounds, n_samples=n_samples, delta=delta,
        raw_count=len(rays), adjusted=None,
        segment_turns=(), segment_ray_counts=(),
        sample_xy=xy, sample_counts=counts,
    )


def hray(y):
    """Horizontal ray entering from the left at height y."""
    return (-4.0, y), (1.0, 0.0)


def vray(x):
    """Vertical ray entering from below at x."""
    return (x, -4.0), (0.0, 1.0)


class TestCrossingCounts:
    def test_empty_fan(self):
        fan = fan_from_rays([], (8, 8))
        counts = crossing_counts(fan, (2, 8, 8))
        assert counts.shape == (2, 8, 8)
        assert np.all(counts == 0)

    def test_single_axis_ray(self):
        # ray along y = 3.5 passes through voxel centers of row 3: footprint
        # is exactly that row, each voxel counted once
        fan = fan_from_rays([hray(3.5)], (8, 8))
        counts = crossing_counts(fan, (1, 8, 8))
        assert np.all(counts[0, 3, :] == 1)
        assert counts.sum() == 8

    def test_off_center_ray_touches_two_rows(self):
        fan = fan_from_rays([hray(3.0)], (8, 8))
        counts = crossing_counts(fan, (1, 8, 8))
        assert np.all(counts[0, 2:4, :] == 1)
        assert counts.sum() == 16

    def test_membership_counted_once_per_ray(self):
        # dense sampling revisits voxels many times but counts stay 0/1
        fan = fan_from_rays([((-2.0, 3.5), (1.0, 0.0))], (8, 8), n_samples=200, delta=0.125)
        counts = crossing_counts(fan, (1, 8, 8))
        assert counts.max() == 1

    def test_replicated_across_slices(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        counts = crossing_counts(fan, (5, 32, 32))
        for j in range(1, 5):
            assert np.array_equal(counts[j], counts[0])

    def test_focal_region_denser_than_periphery(self):
        # sampling density peaks around the arch: compare the central band
        # against the outer frame of the grid
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        c = crossing_counts(fan, (1, 256, 256))[0].astype(float)
        frame = np.ones_like(c, dtype=bool)
        frame[32:-32, 32:-32] = False
        focal = c[64:192, 64:192]
        assert focal.mean() > 4 * c[frame].mean()

    def test_dims_mismatch(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        with pytest.raises(DimsError):
            crossing_counts(fan, (4, 16, 16))


class TestAggregateRho:
    def test_constant_candidates(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        cands = np.full((3, 64), 0.7)
        bmap = aggregate_rho(fan, cands, (3, 32, 32))
        covered = bmap.counts > 0
        assert np.all(bmap.rho[covered] == pytest.approx(0.7))
        assert np.all(bmap.rho[~covered] == 0.0)

    def test_singleton_mean(self):
        fan = fan_from_rays([hray(3.5)], (8, 8))
        bmap = aggregate_rho(fan, np.array([[0.42]]), (1, 8, 8))
        assert np.all(bmap.rho[0, 3, :] == pytest.approx(0.42))

    def test_two_ray_mean(self):
        # horizontal and vertical rays cross at voxel (3, 3)
        fan = fan_from_rays([hray(3.5), vray(3.5)], (8, 8))
        cands = np.array([[0.2, 0.6]])
        bmap = aggregate_rho(fan, cands, (1, 8, 8))
        assert bmap.counts[0, 3, 3] == 2
        assert bmap.rho[0, 3, 3] == pytest.approx(0.4)
        assert bmap.rho[0, 3, 0] == pytest.approx(0.2)
        assert bmap.rho[0, 0, 3] == pytest.approx(0.6)

    def test_bounded_by_candidates(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        rng = np.random.default_rng(0)
        cands = rng.uniform(0.1, 0.9, (4, 64))
        bmap = aggregate_rho(fan, cands, (4, 32, 32))
        covered = bmap.counts > 0
        # rho is a float32 mean of the float32-rounded candidates, within
        # |B(x)| ulp of their float64 mean, so it can lie a few ulp above
        # the largest candidate (a constant row does; see test_operator's
        # test_constant_rows_within_count_ulps); these varied candidates
        # keep it inside
        assert bmap.rho[covered].min() >= np.float32(cands.min()) - 1e-12
        assert bmap.rho[covered].max() <= np.float32(cands.max()) + 1e-12

    def test_counts_independent_of_candidates(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        rng = np.random.default_rng(1)
        a = aggregate_rho(fan, rng.uniform(0, 0.9, (2, 64)), (2, 32, 32))
        b = aggregate_rho(fan, rng.uniform(0, 0.9, (2, 64)), (2, 32, 32))
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.counts, crossing_counts(fan, (2, 32, 32)))

    def test_counts_are_a_read_only_view(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        counts = aggregate_rho(fan, np.full((3, 64), 0.5), (3, 32, 32)).counts
        assert counts.shape == (3, 32, 32) and counts.dtype == np.int64
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0, 0, 0] = 7
        assert np.array_equal(counts, crossing_counts(fan, (3, 32, 32)))

    def test_shape_mismatch(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        with pytest.raises(DimsError):
            aggregate_rho(fan, np.zeros((2, 63)), (2, 32, 32))

    # 1 + 1e-12 and -1e-300 round to 1 and -0 in float32: the candidates
    # are checked as given, before aggregate_rho rounds them
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5, 1 + 1e-12, -1e-300])
    def test_rejects_bad_candidates(self, bad):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        cands = np.full((3, 64), 0.5)
        cands[1, 7] = bad
        with pytest.raises(ValueError, match="candidates"):
            aggregate_rho(fan, cands, (3, 32, 32))

    def test_accepts_closed_candidate_range(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        cands = np.zeros((2, 64))
        cands[1] = 1.0
        bmap = aggregate_rho(fan, cands, (2, 32, 32))
        covered = bmap.counts[1] > 0
        assert np.all(bmap.rho[0] == 0.0)
        assert np.all(bmap.rho[1][covered] == 1.0) and np.all(bmap.rho[1][~covered] == 0.0)

    def test_fan_without_rays(self):
        bmap = aggregate_rho(fan_from_rays([], (8, 8)), np.zeros((2, 0)), (2, 8, 8))
        assert np.all(bmap.rho == 0.0) and np.all(bmap.counts == 0)

    def test_rejects_zero_slices(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        with pytest.raises(DimsError):
            aggregate_rho(fan, np.zeros((0, 64)), (0, 32, 32))

    def test_map_invariants(self):
        with pytest.raises(ValueError):
            BackProjectionMap(
                counts=np.zeros((2, 2, 2), dtype=np.int64),
                rho=np.ones((2, 2, 2)),
            )


class TestOneSampleRecord:
    def test_counts_alone_say_which_samples_a_ray_keeps(self):
        # sample_xy holds 3 more points per ray than sample_counts keeps:
        # sample_valid is derived from the counts, and rendering and
        # back-projection both use the counts' samples, so a uniform volume
        # renders to the closed form of the counts and back-projects to
        # its density
        full = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        fan = dataclasses.replace(full, sample_counts=np.maximum(full.sample_counts - 3, 0))
        n = fan.sample_counts
        assert np.array_equal(fan.sample_valid, np.arange(fan.sample_xy.shape[1]) < n[:, None])
        assert not fan.sample_valid.flags.writeable
        assert (fan.sample_xy[~fan.sample_valid] != 0).any()
        cfg = RenderConfig(width=64, height=2)
        vol = make_phantom("uniform:0.4", (2, 32, 32))
        px = render_simpx(vol, fan, cfg).pixels
        want = -np.expm1(-cfg.beta * float(vol.data[0, 0, 0]) * n * fan.delta)
        assert np.allclose(px, want, rtol=1e-12, atol=0.0)
        bmap = aggregate_rho(fan, image_candidates(px, fan, cfg.beta), (2, 32, 32))
        crossed = bmap.counts > 0
        assert np.abs(bmap.rho[crossed] - 0.4).max() < 1e-5
        assert not np.array_equal(bmap.counts, crossing_counts(full, (2, 32, 32)))


class TestInvertPixel:
    """image_candidates inverts each pixel in closed form."""

    def test_zero_pixel(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        assert not image_candidates(np.zeros((2, 64)), fan, 0.02).any()

    def test_closed_form_inverse(self):
        # the pixel a constant density c gives ray i inverts back to c, each
        # ray by its own sample count
        fan = build_fan(GeometryConfig(width=64, delta=0.7), bounds=(32, 32))
        n = fan.sample_counts
        assert n.min() > 0 and n.min() < n.max()
        for c in (0.1, 0.37, 0.9):
            px = -np.expm1(-0.02 * c * n * fan.delta)
            got = image_candidates(np.stack([px, px]), fan, 0.02)
            assert got == pytest.approx(np.full((2, 64), c), rel=1e-12)

    def test_clamped_at_one(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        px = np.full((2, 64), 1.0 - 1e-12)  # implies density far above 1
        assert np.all(image_candidates(px, fan, 0.02) == 1.0)

    def test_rays_without_samples(self):
        # a ray that never enters the grid gets candidate 0 whatever its pixel
        fan = fan_from_rays([hray(3.5), ((-50.0, -50.0), (0.0, 1.0))], (8, 8))
        assert fan.sample_counts[0] > 0 and fan.sample_counts[1] == 0
        got = image_candidates(np.full((3, 2), 0.5), fan, 0.02)
        assert np.all(got[:, 0] > 0.0) and np.all(got[:, 1] == 0.0)


class TestRoundTrip:
    def test_uniform_round_trip(self):
        # render a constant volume, invert every pixel, aggregate: rho matches
        # the constant on every covered voxel (2% budget, exact here)
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        vol = make_phantom("uniform:0.4", (16, 256, 256))
        c = float(vol.data[0, 0, 0])
        img = render_simpx(vol, fan, RenderConfig(height=16))
        cands = image_candidates(img.pixels, fan, 0.02)
        bmap = aggregate_rho(fan, cands, (16, 256, 256))
        covered = bmap.counts > 0
        assert np.abs(bmap.rho[covered] - c).max() <= 0.02 * c

    def test_candidates_shape_guard(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        with pytest.raises(DimsError):
            image_candidates(np.zeros((4, 32)), fan, 0.02)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0, -0.1])
    def test_candidates_reject_bad_pixels(self, bad):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        px = np.full((4, 64), 0.3)
        px[2, 5] = bad
        with pytest.raises(ValueError):
            image_candidates(px, fan, 0.02)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, 0.0, -1.0])
    def test_candidates_reject_bad_beta(self, beta):
        # a negative or infinite beta used to clip every candidate to 0, so
        # backproject wrote an all-zero rho and exited 0
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        with pytest.raises(ValueError, match="beta"):
            image_candidates(np.full((4, 64), 0.3), fan, beta)

    def test_candidates_reject_empty_image(self):
        # numpy's zero-size reduction error used to escape here
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        with pytest.raises(DimsError):
            image_candidates(np.zeros((0, 64)), fan, 0.02)

    def test_candidates_shape_checked_before_values(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        with pytest.raises(DimsError):
            image_candidates(np.full((4, 32), np.nan), fan, 0.02)

    def test_candidates_of_image_and_raw_pixels_agree(self):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        px = np.random.default_rng(2).uniform(0.0, 0.9, (4, 64))
        want = image_candidates(px, fan, 0.02)
        assert px.flags.writeable  # the caller's array is not frozen
        assert np.array_equal(image_candidates(SimPXImage(px), fan, 0.02), want)
