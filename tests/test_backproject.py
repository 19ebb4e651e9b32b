import math

import numpy as np
import pytest

from panoray.backproject import (
    BackProjectionMap,
    aggregate_rho,
    crossing_counts,
    image_candidates,
    invert_pixel_to_candidate,
)
from panoray.errors import DimsError
from panoray.ray_geometry import GeometryConfig, Ray, RayFan, build_fan, sample_points
from panoray.renderer import RenderConfig, SimPXImage, render_simpx
from panoray.volume import make_phantom


def fan_from_rays(rays, bounds, n_samples=200, delta=1.0):
    """Hand-built fan for small geometric fixtures."""
    rays = [sample_points(r, n_samples, delta, bounds) for r in rays]
    counts = np.array([r.in_bounds_count for r in rays], dtype=np.int64)
    max_k = int(counts.max()) if rays else 0
    xy = np.zeros((len(rays), max_k, 2))
    valid = np.zeros((len(rays), max_k), dtype=bool)
    for i, r in enumerate(rays):
        k = r.in_bounds_count
        if k:
            xy[i, :k] = r.samples
            valid[i, :k] = True
    return RayFan(
        origins=np.array([r.origin for r in rays]).reshape(-1, 2),
        directions=np.array([r.direction for r in rays]).reshape(-1, 2),
        centers=np.zeros((0, 2)), angle_schedule=(),
        bounds=bounds, n_samples=n_samples, delta=delta,
        raw_count=len(rays), adjusted=None,
        segment_turns=(), segment_ray_counts=(),
        sample_xy=xy, sample_valid=valid, sample_counts=counts,
    )


def hray(y, bounds):
    """Horizontal ray entering from the left at height y."""
    return Ray(origin=np.array([-4.0, y]), direction=np.array([1.0, 0.0]))


def vray(x, bounds):
    return Ray(origin=np.array([x, -4.0]), direction=np.array([0.0, 1.0]))


class TestCrossingCounts:
    def test_empty_fan(self):
        fan = fan_from_rays([], (8, 8))
        counts = crossing_counts(fan, (2, 8, 8))
        assert counts.shape == (2, 8, 8)
        assert np.all(counts == 0)

    def test_single_axis_ray(self):
        # ray along y = 3.5 passes through voxel centers of row 3: footprint
        # is exactly that row, each voxel counted once
        fan = fan_from_rays([hray(3.5, (8, 8))], (8, 8))
        counts = crossing_counts(fan, (1, 8, 8))
        assert np.all(counts[0, 3, :] == 1)
        assert counts.sum() == 8

    def test_off_center_ray_touches_two_rows(self):
        fan = fan_from_rays([hray(3.0, (8, 8))], (8, 8))
        counts = crossing_counts(fan, (1, 8, 8))
        assert np.all(counts[0, 2:4, :] == 1)
        assert counts.sum() == 16

    def test_membership_counted_once_per_ray(self):
        # dense sampling revisits voxels many times but counts stay 0/1
        ray = Ray(origin=np.array([-2.0, 3.5]), direction=np.array([1.0, 0.0]))
        fan = fan_from_rays([ray], (8, 8), n_samples=200, delta=0.125)
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
        fan = fan_from_rays([hray(3.5, (8, 8))], (8, 8))
        bmap = aggregate_rho(fan, np.array([[0.42]]), (1, 8, 8))
        assert np.all(bmap.rho[0, 3, :] == pytest.approx(0.42))

    def test_two_ray_mean(self):
        # horizontal and vertical rays cross at voxel (3, 3)
        fan = fan_from_rays([hray(3.5, (8, 8)), vray(3.5, (8, 8))], (8, 8))
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
        assert bmap.rho[covered].min() >= cands.min() - 1e-12
        assert bmap.rho[covered].max() <= cands.max() + 1e-12

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
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


class TestInvertPixel:
    def test_zero_pixel(self):
        assert invert_pixel_to_candidate(0.0, 200, 1.0, 0.02) == 0.0

    def test_closed_form_inverse(self):
        # pixel produced by constant density c inverts back to c
        for c in (0.1, 0.37, 0.9):
            pixel = 1.0 - math.exp(-0.02 * c * 200 * 1.0)
            got = invert_pixel_to_candidate(pixel, 200, 1.0, 0.02)
            assert got == pytest.approx(c, rel=1e-12)

    def test_clamped_at_one(self):
        pixel = 1.0 - 1e-12  # implies density far above 1
        assert invert_pixel_to_candidate(pixel, 10, 1.0, 0.02) == 1.0

    def test_rejects_saturated(self):
        with pytest.raises(ValueError):
            invert_pixel_to_candidate(1.0, 200, 1.0, 0.02)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            invert_pixel_to_candidate(0.5, 0, 1.0, 0.02)

    @pytest.mark.parametrize("name", ["delta", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_params(self, name, value):
        # a NaN delta or beta used to return a NaN candidate
        params = {"delta": 1.0, "beta": 0.02, name: value}
        with pytest.raises(ValueError, match="delta and beta"):
            invert_pixel_to_candidate(0.5, 200, **params)


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
