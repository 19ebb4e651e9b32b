import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from panoray.errors import FormatError
from panoray.ray_geometry import (
    CenterCurve,
    GeometryConfig,
    Ray,
    angle_for_center,
    build_fan,
    default_curve_for_grid,
    extract_rays,
    load_rayfan_header,
    make_centers,
    sample_points,
    save_rayfan,
)

# raw emission count of the default construction; computed once by running it
# and pinned here as a regression bound
DEFAULT_RAW_COUNT = 240


def unplaced_curve() -> CenterCurve:
    return CenterCurve(offset=(0.0, 0.0), scale=1.0)


class TestCenters:
    def test_vertex_center(self):
        pts = make_centers(unplaced_curve())
        assert pts[10] == pytest.approx((0.0, 100.0))

    def test_first_center(self):
        pts = make_centers(unplaced_curve())
        assert pts[0] == pytest.approx((-50.0, 25.0))

    def test_symmetry(self):
        pts = make_centers(unplaced_curve())
        for i in range(21):
            assert pts[i][0] == pytest.approx(-pts[20 - i][0])
            assert pts[i][1] == pytest.approx(pts[20 - i][1])

    def test_count(self):
        assert unplaced_curve().n_centers == 21
        assert len(make_centers(unplaced_curve())) == 21

    def test_default_grid_placement(self):
        curve = default_curve_for_grid(256, 256)
        pts = make_centers(curve)
        assert pts[10] == pytest.approx((128.0, 153.6))  # vertex at 60% of y
        assert pts[0] == pytest.approx((78.0, 78.6))

    def test_scaled_placement(self):
        curve = default_curve_for_grid(64, 64)
        pts = make_centers(curve)
        assert curve.scale == pytest.approx(0.25)
        assert pts[10] == pytest.approx((32.0, 0.6 * 64))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            CenterCurve(step=0.0)
        with pytest.raises(ValueError):
            CenterCurve(step=7.0)  # does not divide the range


class TestAngleSchedule:
    def test_table(self):
        assert angle_for_center(0) == 0.5
        assert angle_for_center(1) == 0.5
        assert angle_for_center(18) == 0.5
        assert angle_for_center(19) == 0.5
        assert angle_for_center(10) == 1.5
        assert angle_for_center(5) == 0.6
        for i in range(20):
            assert angle_for_center(i) in (0.5, 0.6, 1.5)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            angle_for_center(20)
        with pytest.raises(IndexError):
            angle_for_center(-1)


class TestExtractRays:
    def test_two_centers_full_gap(self):
        # rotation step equal to the whole gap: initial ray + connecting ray
        centers = [(10.0, 10.0), (20.0, 10.0)]  # connecting direction 0 deg
        fan = extract_rays(centers, [30.0], initial_angle=30.0, width=2, bounds=(32, 32))
        assert fan.raw_count == 2
        assert fan.adjusted is None

    def test_rays_pass_through_centers(self):
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        centers = fan.centers
        reach = math.hypot(256, 256)
        for ray in fan.rays:
            anchor = ray.origin + reach * ray.direction
            d = np.min(np.hypot(*(centers - anchor).T))
            assert d < 1e-9

    def test_degenerate_segment(self):
        with pytest.raises(ValueError, match="degenerate"):
            extract_rays([(1.0, 1.0), (1.0, 1.0)], [0.5], initial_angle=0.0, width=4)

    def test_default_fan_width(self):
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        assert fan.n_rays == 256
        assert fan.raw_count == DEFAULT_RAW_COUNT
        assert fan.adjusted == "pad"

    def test_pad_duplicates_boundary(self):
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        pad_left = (fan.n_rays - fan.raw_count) // 2
        for i in range(pad_left + 1):
            assert np.array_equal(fan.rays[i].direction, fan.rays[0].direction)
        for i in range(1, (fan.n_rays - fan.raw_count) - pad_left + 1):
            assert np.array_equal(fan.rays[-i].direction, fan.rays[-1].direction)

    def test_trim(self):
        fan = build_fan(GeometryConfig(width=200), bounds=(256, 256))
        assert fan.n_rays == 200
        assert fan.adjusted == "trim"
        assert fan.raw_count == DEFAULT_RAW_COUNT

    def test_unit_directions(self):
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        for ray in fan.rays:
            assert abs(np.hypot(*ray.direction) - 1.0) < 1e-9

    def test_molar_density(self):
        # molar-end segments (theta=0.5) emit at least as many rays per degree
        # of swept angle as the incisor segment 10 (theta=1.5)
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        per_degree = [
            c / t for c, t in zip(fan.segment_ray_counts, fan.segment_turns)
        ]
        for i in (0, 1, 18, 19):
            assert per_degree[i] >= per_degree[10]

    def test_deterministic(self):
        a = build_fan(GeometryConfig(), bounds=(256, 256))
        b = build_fan(GeometryConfig(), bounds=(256, 256))
        assert np.array_equal(a.sample_xy, b.sample_xy)
        assert np.array_equal(a.sample_counts, b.sample_counts)


class TestSamplePoints:
    def test_full_ray_200_samples(self):
        # vertical ray through the middle of a big grid
        ray = Ray(origin=np.array([128.0, -400.0]), direction=np.array([0.0, 1.0]))
        out = sample_points(ray, 200, 1.0, (256, 256))
        assert out.in_bounds_count == 200
        gaps = np.hypot(*np.diff(out.samples, axis=0).T)
        assert np.all(np.abs(gaps - 1.0) < 1e-9)

    def test_never_entering(self):
        ray = Ray(origin=np.array([-50.0, -50.0]), direction=np.array([0.0, 1.0]))
        out = sample_points(ray, 200, 1.0, (16, 16))
        assert out.in_bounds_count == 0

    def test_first_sample_is_first_inbounds(self):
        # walking +x from x=-3.5: first in-bounds point is x=0.5
        ray = Ray(origin=np.array([-3.5, 8.0]), direction=np.array([1.0, 0.0]))
        out = sample_points(ray, 200, 1.0, (16, 16))
        assert out.samples[0] == pytest.approx((0.5, 8.0))
        assert out.in_bounds_count == 16  # x = 0.5 .. 15.5, then bound 16 exceeded

    def test_early_exit_prefix(self):
        # shallow ray clips the top edge early: keeps only the short prefix
        a = math.radians(15.0)
        ray = Ray(
            origin=np.array([-4.0, 6.0]),
            direction=np.array([math.cos(a), math.sin(a)]),
        )
        out = sample_points(ray, 200, 1.0, (8, 8))
        assert 0 < out.in_bounds_count < 10
        assert np.all(out.samples[:, 0] <= 8.0)
        assert np.all(out.samples[:, 1] <= 8.0)

    def test_all_samples_in_bounds(self):
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        xy = fan.sample_xy[fan.sample_valid]
        assert xy[:, 0].min() >= 0.0 and xy[:, 0].max() <= 256.0
        assert xy[:, 1].min() >= 0.0 and xy[:, 1].max() <= 256.0
        assert fan.sample_counts.max() <= 200

    def test_monotone_parameter(self):
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        for ray in fan.rays[:16]:
            t = (ray.samples - ray.origin) @ ray.direction
            assert np.all(np.diff(t) > 0)

    def test_bad_args(self):
        ray = Ray(origin=np.zeros(2), direction=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            sample_points(ray, 0, 1.0, (8, 8))
        with pytest.raises(ValueError):
            sample_points(ray, 10, 0.0, (8, 8))


class TestRaymapExport:
    def test_header_and_lines(self, tmp_path):
        fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
        path = tmp_path / "fan.txt"
        save_rayfan(fan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "RAYFAN1 64 200 1"
        assert len(lines) == 1 + 64
        first = lines[1].split()
        assert first[0] == "0" and len(first) == 6
        n_rays, n_samples, delta = load_rayfan_header(path)
        assert (n_rays, n_samples, delta) == (64, 200, 1.0)

    @pytest.mark.parametrize("header", [
        b"RAYFAN1 x 200 1\n",       # non-integer ray count
        b"RAYFAN1 64 2.5 1\n",      # non-integer sample count
        b"RAYFAN1 64 200 one\n",    # non-float delta
        "RAYFAN1 64 200 1\u00e9\n".encode(),  # non-ASCII
        b"RAYFAN1 64 200\n",        # missing field
        b"RAYFAN2 64 200 1\n",      # wrong magic
        b"",
    ])
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "fan.txt"
        path.write_bytes(header + b"0 1 2 0.5 0.5 3\n")
        with pytest.raises(FormatError, match="rayfan header"):
            load_rayfan_header(path)

    def test_golden_bytes(self, tmp_path):
        # pins every byte of the dump: origins, directions and in-bounds
        # counts of this fan must not move a bit
        path = tmp_path / "fan.txt"
        save_rayfan(build_fan(GeometryConfig(width=64), bounds=(32, 32)), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "5bb11dbfbc0722949ac61b849f793655ee3e891d7aa3203c21cd9df870cfe6c3"


class TestScheduleOverrides:
    def test_theta_override_changes_fan(self):
        base = build_fan(GeometryConfig(width=256), bounds=(256, 256))
        tweaked = build_fan(
            GeometryConfig(width=256, theta_overrides={10: 0.75}), bounds=(256, 256)
        )
        # halving the vertex step roughly doubles that segment's rays
        assert tweaked.segment_ray_counts[10] > 1.5 * base.segment_ray_counts[10]
        assert tweaked.segment_ray_counts[0] == base.segment_ray_counts[0]

    @pytest.mark.parametrize("key", [20, 25, -1, "10"])
    def test_override_key_outside_segments_rejected(self, key):
        with pytest.raises(ValueError):
            GeometryConfig(theta_overrides={key: 0.5})

    def test_override_keys_at_segment_bounds(self):
        cfg = GeometryConfig(theta_overrides={0: 0.25, 19: 0.75})
        assert cfg.schedule()[0] == 0.25 and cfg.schedule()[19] == 0.75

    def test_angle_scale_densifies(self):
        base = build_fan(GeometryConfig(width=512), bounds=(256, 256))
        dense = build_fan(
            GeometryConfig(width=512, angle_scale=0.5), bounds=(256, 256)
        )
        assert dense.raw_count > 1.8 * base.raw_count

    def test_non_unit_delta_spacing(self):
        fan = build_fan(GeometryConfig(width=64, delta=0.7), bounds=(32, 32))
        for ray in fan.rays[:8]:
            gaps = np.hypot(*np.diff(ray.samples, axis=0).T)
            assert np.abs(gaps - 0.7).max() < 1e-9

    def test_custom_initial_angle(self):
        # 45 deg down to the 0 deg connecting ray in 5 deg steps: 10 rays, no
        # trim/pad, and the first ray keeps the requested direction
        fan = extract_rays(
            [(10.0, 10.0), (20.0, 10.0)], [5.0],
            initial_angle=45.0, width=10, bounds=(32, 32),
        )
        assert fan.raw_count == 10
        assert fan.adjusted is None
        d = fan.rays[0].direction
        assert math.degrees(math.atan2(d[1], d[0])) == pytest.approx(45.0)


def brute_force_samples(origin, direction, n_samples, delta, bounds):
    """Walk every step of one ray and keep the first n_samples in-bounds
    points, assuming nothing about where they lie along the walk."""
    nx, ny = bounds
    n_steps = int(math.ceil(2.0 * math.hypot(nx, ny) / delta)) + 2
    kept = []
    for j in range(n_steps):
        t = delta * j
        x = float(origin[0]) + t * float(direction[0])
        y = float(origin[1]) + t * float(direction[1])
        if 0 <= x <= nx and 0 <= y <= ny and len(kept) < n_samples:
            kept.append((x, y))
    return np.array(kept, dtype=np.float64).reshape(-1, 2)


# grid-edge and integral coordinates with axis-aligned angles or directions
# put samples exactly on the grid's edges, where the in-bounds test is
# decided by equality
def coords(nx, ny):
    return (st.sampled_from([0.0, float(nx), float(ny)])
            | st.integers(-40, 80).map(float) | st.floats(-40.0, 80.0))


angles = st.sampled_from([0.0, 90.0, 180.0, -90.0]) | st.floats(-360.0, 360.0)
deltas = st.sampled_from([1.0, 0.5]) | st.floats(0.25, 3.0)
grid_sides = st.integers(1, 32)


@st.composite
def fans(draw):
    nx, ny = draw(grid_sides), draw(grid_sides)
    point = st.tuples(coords(nx, ny), coords(nx, ny))
    centers = draw(st.lists(point, min_size=2, max_size=4))
    for a, b in zip(centers, centers[1:]):
        assume(math.hypot(b[0] - a[0], b[1] - a[1]) > 1e-6)
    n_seg = len(centers) - 1
    schedule = draw(st.lists(st.sampled_from([90.0, 45.0]) | st.floats(5.0, 120.0),
                             min_size=n_seg, max_size=n_seg))
    return extract_rays(
        centers, schedule,
        initial_angle=draw(angles),
        width=draw(st.integers(n_seg, 24)),
        bounds=(nx, ny),
        delta=draw(deltas),
        n_samples=draw(st.integers(1, 300)),
    )


@st.composite
def rays_on_grids(draw):
    nx, ny = draw(grid_sides), draw(grid_sides)
    origin = np.array(draw(st.tuples(coords(nx, ny), coords(nx, ny))))
    direction = draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
                     | angles.map(lambda a: (math.cos(math.radians(a)),
                                             math.sin(math.radians(a)))))
    return Ray(origin, np.array(direction)), (nx, ny)


class TestSamplerProperties:
    @settings(max_examples=100, deadline=None)
    @given(fans())
    def test_packed_samples_match_per_ray_walk(self, fan):
        # the initial ray plus each segment's rotation steps and connecting ray
        assert 1 + sum(fan.segment_ray_counts) == fan.raw_count
        xy, valid, counts = fan.sample_xy, fan.sample_valid, fan.sample_counts
        assert xy.shape[:2] == valid.shape == (fan.n_rays, counts.max())
        for i in range(fan.n_rays):
            ref = brute_force_samples(fan.origins[i], fan.directions[i],
                                      fan.n_samples, fan.delta, fan.bounds)
            k = len(ref)
            assert counts[i] == k
            assert xy[i, :k].tobytes() == ref.tobytes()
            assert not xy[i, k:].any()
            assert valid[i].tolist() == [j < k for j in range(valid.shape[1])]
            one = sample_points(Ray(fan.origins[i], fan.directions[i]),
                                fan.n_samples, fan.delta, fan.bounds)
            assert one.samples.tobytes() == ref.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(rays_on_grids(), st.integers(1, 300), deltas)
    def test_sample_points_match_per_ray_walk(self, ray_grid, n_samples, delta):
        ray, bounds = ray_grid
        ref = brute_force_samples(ray.origin, ray.direction, n_samples, delta, bounds)
        out = sample_points(ray, n_samples, delta, bounds)
        assert out.in_bounds_count == len(ref)
        assert out.samples.tobytes() == ref.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(fans())
    def test_ray_views_match_arrays(self, fan):
        rays = fan.rays
        assert len(rays) == fan.n_rays
        for i, ray in enumerate(rays):
            assert np.array_equal(ray.origin, fan.origins[i])
            assert np.array_equal(ray.direction, fan.directions[i])
            assert ray.delta == fan.delta
            assert ray.in_bounds_count == fan.sample_counts[i]
            assert np.array_equal(ray.samples, fan.sample_xy[i, :fan.sample_counts[i]])

    @settings(max_examples=10, deadline=None)
    @given(fans())
    def test_arrays_read_only(self, fan):
        for arr in (fan.origins, fan.directions, fan.sample_xy,
                    fan.sample_valid, fan.sample_counts):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
