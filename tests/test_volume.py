import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sample_trilinear

from panoray import volume
from panoray.errors import DimsError, FormatError
from panoray.volume import DensityVolume, load_volume, make_phantom, save_volume


class TestPhantoms:
    def test_uniform_zero(self):
        vol = make_phantom("uniform:0", (8, 8, 8))
        assert vol.dims == (8, 8, 8)
        assert np.all(vol.data == 0.0)

    def test_uniform_half(self):
        vol = make_phantom("uniform:0.5", (8, 8, 8))
        assert np.all(vol.data == 0.5)

    def test_single_voxel(self):
        vol = make_phantom("single-voxel:4,4,4,1.0", (8, 8, 8))
        assert np.count_nonzero(vol.data) == 1
        assert vol.data.sum() == 1.0
        assert vol.data[4, 4, 4] == 1.0

    def test_deterministic(self):
        a = make_phantom("sphere-set", (16, 16, 16), seed=3)
        b = make_phantom("sphere-set", (16, 16, 16), seed=3)
        assert np.array_equal(a.data, b.data)
        c = make_phantom("sphere-set", (16, 16, 16), seed=4)
        assert not np.array_equal(a.data, c.data)

    def test_jaw_arch_in_range(self):
        vol = make_phantom("jaw-arch", (16, 32, 32), seed=0)
        assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0
        assert vol.data.max() == 1.0  # teeth present

    def test_explicit_spheres(self):
        vol = make_phantom("sphere-set:8,8,8,3,0.6", (16, 16, 16))
        assert vol.data[8, 8, 8] == pytest.approx(0.6)
        assert vol.data[0, 0, 0] == 0.0

    def test_sphere_center_outside_volume(self):
        with pytest.raises(ValueError, match="outside"):
            make_phantom("sphere-set:40,8,8,3,0.6", (16, 16, 16))

    def test_single_voxel_outside(self):
        with pytest.raises(ValueError, match="outside"):
            make_phantom("single-voxel:9,0,0,1.0", (8, 8, 8))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown phantom kind"):
            make_phantom("blob", (8, 8, 8))

    def test_bad_dims(self):
        with pytest.raises(DimsError):
            make_phantom("uniform:0", (0, 8, 8))

    @pytest.mark.parametrize("kind, message", [
        ("sphere-set:8,8,8,nan,0.5", "sphere radius"),
        ("sphere-set:8,8,8,inf,0.5", "sphere radius"),
        ("sphere-set:8,8,8,1e200,0.5", "sphere radius"),
        ("sphere-set:8,8,8,-2,0.5", "sphere radius"),
        ("sphere-set:-3", "bad sphere count '-3'"),
        ("sphere-set:2.5", "bad sphere count '2.5'"),
        ("single-voxel:nan,0,0,1.0", "outside dims"),
        ("single-voxel:inf,0,0,1.0", "outside dims"),
        ("single-voxel:-0.5,0,0,1.0", "outside dims"),
    ])
    def test_bad_shape_parameters(self, kind, message):
        with pytest.raises(ValueError, match=message):
            make_phantom(kind, (16, 16, 16))

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            make_phantom("uniform:1.5", (4, 4, 4))


def _old_f32_grid(data):
    """Whole-array quantization to float32 precision: the reference."""
    return np.ascontiguousarray(data.astype(np.float32).astype(np.float64))


class TestQuantize:
    @pytest.mark.parametrize("kind", [
        "uniform:0.3", "single-voxel:2,5,7,0.7", "sphere-set", "jaw-arch"])
    def test_phantoms_unchanged(self, kind):
        got = make_phantom(kind, (9, 20, 22), seed=4).data
        want = _reference_phantom(kind, (9, 20, 22), seed=4)
        assert _bits_equal(got, want)


# ----------------------------------------------------------------------
# The whole-volume phantoms that bounding-box rasterization replaced: one
# full-grid mask per shape, then one whole-volume float32 round trip.
# ----------------------------------------------------------------------

def _reference_spheres(dims, spheres):
    nz, ny, nx = dims
    zz = np.arange(nz, dtype=np.float64)[:, None, None] + 0.5
    yy = np.arange(ny, dtype=np.float64)[None, :, None] + 0.5
    xx = np.arange(nx, dtype=np.float64)[None, None, :] + 0.5
    data = np.zeros(dims, dtype=np.float64)
    for cz, cy, cx, r, v in spheres:
        data[(zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2 <= r**2] = v
    return _old_f32_grid(data)


def _reference_random_spheres(dims, seed, count):
    rng = np.random.default_rng(seed)
    nz, ny, nx = dims
    spheres = []
    for _ in range(count):
        r = rng.uniform(0.08, 0.16) * min(dims)
        cz = rng.uniform(r, nz - r)
        cy = rng.uniform(r, ny - r)
        cx = rng.uniform(r, nx - r)
        val = rng.uniform(0.4, 1.0)
        spheres.append((cz, cy, cx, r, val))
    return spheres


def _reference_jaw(dims, seed):
    nz, ny, nx = dims
    rng = np.random.default_rng(seed)
    data = np.zeros(dims, dtype=np.float64)
    zz = (np.arange(nz)[:, None, None] + 0.5) / nz
    yy = (np.arange(ny)[None, :, None] + 0.5) / ny
    xx = (np.arange(nx)[None, None, :] + 0.5) / nx
    r2 = ((zz - 0.5) / 0.45) ** 2 + ((yy - 0.52) / 0.44) ** 2 + ((xx - 0.5) / 0.46) ** 2
    data[(r2 <= 1.0) & (r2 >= 0.78)] = 0.55
    data[r2 < 0.78] = 0.15
    n_teeth = 10
    apex_y, end_y = 0.72, 0.38
    half_span = 0.26
    z0, z1 = int(0.35 * nz), max(int(0.35 * nz) + 1, int(0.65 * nz))
    tooth_r = max(1.2, 0.035 * nx)
    for k in range(n_teeth):
        u = -1.0 + 2.0 * k / (n_teeth - 1)
        cx = (0.5 + half_span * u) * nx
        cy = (apex_y - (apex_y - end_y) * u * u) * ny
        cy += rng.uniform(-0.004, 0.004) * ny
        dist2 = ((np.arange(ny)[:, None] + 0.5) - cy) ** 2 + (
            (np.arange(nx)[None, :] + 0.5) - cx
        ) ** 2
        data[z0:z1, dist2 <= tooth_r**2] = 1.0
    return _old_f32_grid(np.clip(data, 0.0, 1.0, out=data))


def _reference_phantom(kind, dims, seed=0):
    name, _, arg = kind.partition(":")
    if name == "uniform":
        return _old_f32_grid(np.full(dims, float(arg)))
    if name == "single-voxel":
        z, y, x, v = (float(p) for p in arg.split(","))
        data = np.zeros(dims)
        data[int(z), int(y), int(x)] = v
        return _old_f32_grid(data)
    if name == "sphere-set":
        return _reference_spheres(dims, _reference_random_spheres(dims, seed, int(arg or 5)))
    assert name == "jaw-arch"
    return _reference_jaw(dims, seed)


def _bits_equal(got, want):
    """got is float32 and, widened, holds the float64 reference's bits."""
    return (got.dtype == np.float32 and got.shape == want.shape
            and np.array_equal(got.astype(np.float64).view(np.uint64), want.view(np.uint64)))


def _descriptor(spheres):
    return "sphere-set:" + ";".join(",".join(repr(float(t)) for t in s) for s in spheres)


@st.composite
def sphere_sets(draw):
    """Dims with 1-voxel axes among them, and spheres centred on the volume's
    faces, on voxel centres or anywhere inside, with radii from 0.01 to past
    the volume, some exactly on the grid's half-integer distances."""
    dims = tuple(draw(st.integers(1, 12)) for _ in range(3))

    def coord(n):
        return st.one_of(st.just(0.0), st.just(float(n)),
                         st.integers(0, n - 1).map(lambda k: k + 0.5),
                         st.floats(0.0, float(n)))

    radius = st.one_of(st.floats(0.01, 2.0 * max(dims) + 2.0),
                       st.integers(1, 4 * max(dims)).map(lambda k: k / 2))
    sphere = st.tuples(*(coord(n) for n in dims), radius, st.floats(0.0, 1.0))
    return dims, draw(st.lists(sphere, min_size=1, max_size=6))


class TestPhantomRasterization:
    """make_phantom against the whole-volume reference above, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(sphere_sets())
    def test_sphere_sets(self, case):
        dims, spheres = case
        got = make_phantom(_descriptor(spheres), dims).data
        assert _bits_equal(got, _reference_spheres(dims, spheres))

    def test_overlapping_spheres_later_wins(self):
        spheres = [(4.0, 4.0, 4.0, 3.0, 0.3), (4.5, 5.0, 5.5, 2.5, 0.9), (3.0, 3.0, 3.0, 1.0, 0.1)]
        got = make_phantom(_descriptor(spheres), (8, 9, 10)).data
        assert _bits_equal(got, _reference_spheres((8, 9, 10), spheres))
        assert set(np.unique(got)) == {0.0, *(float(np.float32(s[4])) for s in spheres)}

    @pytest.mark.parametrize("count", [0, 1, 8])
    @pytest.mark.parametrize("dims", [(1, 1, 1), (5, 1, 7), (16, 24, 20)])
    def test_random_sphere_sets(self, dims, count):
        got = make_phantom(f"sphere-set:{count}", dims, seed=6).data
        assert _bits_equal(got, _reference_phantom(f"sphere-set:{count}", dims, seed=6))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (7, 13, 5), (9, 20, 22)])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_jaw(self, dims, seed):
        got = make_phantom("jaw-arch", dims, seed=seed).data
        assert _bits_equal(got, _reference_jaw(dims, seed))

    # values float32 rounds: up, down, to a subnormal, to zero, and -0.0
    @pytest.mark.parametrize("v", ["0.1", "0.3", "0.7", "0.999999999", "1e-40", "1e-50", "-0.0"])
    def test_rounded_values(self, v):
        for kind, dims in ((f"uniform:{v}", (2, 3, 4)), (f"single-voxel:1,2,3,{v}", (2, 3, 4))):
            assert _bits_equal(make_phantom(kind, dims).data, _reference_phantom(kind, dims))

    @pytest.mark.parametrize("kind", ["sphere-set:8", "jaw-arch"])
    def test_peak_memory_near_the_volume(self, kind):
        dims = (32, 128, 128)
        make_phantom(kind, dims, seed=2)  # numpy's one-time lazy set-up is not traced
        tracemalloc.start()
        try:
            vol = make_phantom(kind, dims, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * vol.data.nbytes


class TestDensityVolume:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DensityVolume(np.full((2, 2, 2), 1.5))

    def test_rejects_bad_shape(self):
        with pytest.raises(DimsError):
            DensityVolume(np.zeros((4, 4)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DensityVolume(np.full((2, 2, 2), np.nan))
        partial = np.full((2, 2, 2), 0.5)
        partial[1, 0, 1] = np.nan
        with pytest.raises(ValueError):
            DensityVolume(partial)

    @pytest.mark.parametrize("kind", [
        "uniform:1", "single-voxel:1,2,3,0.7", "sphere-set:8", "jaw-arch"])
    def test_phantoms_pass_the_checks(self, kind):
        # make_phantom skips the range check; the checking constructor takes
        # its data as it is: C-contiguous float32 in [0, 1], frozen
        vol = make_phantom(kind, (6, 20, 22), seed=3)
        assert vol.data.dtype == np.float32 and not vol.data.flags.writeable
        assert DensityVolume(vol.data).data is vol.data

    def test_immutable(self):
        vol = make_phantom("uniform:0.5", (4, 4, 4))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 0.1


class TestTrilinear:
    def test_voxel_center_identity(self):
        vol = make_phantom("sphere-set", (8, 8, 8), seed=1)
        for z, y, x in ((0, 0, 0), (3, 4, 5), (7, 7, 7)):
            got = sample_trilinear(vol, (z + 0.5, y + 0.5, x + 0.5))
            assert got == vol.data[z, y, x]

    def test_constant_field_interior(self):
        vol = make_phantom("uniform:0.5", (8, 8, 8))
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.0, 8.0, size=(50, 3))
        assert np.all(sample_trilinear(vol, pts) == 0.5)

    def test_axis_midpoint(self):
        # neighbors equal along the other axes: midpoint of 0 and 1 gives 0.5
        data = np.zeros((1, 1, 2))
        data[0, 0, 1] = 1.0
        vol = DensityVolume(data)
        assert sample_trilinear(vol, (0.5, 0.5, 1.0)) == pytest.approx(0.5)

    def test_outside_returns_zero(self):
        vol = make_phantom("uniform:0.5", (4, 4, 4))
        for pt in ((-0.01, 2, 2), (2, 4.01, 2), (2, 2, -5), (5, 2, 2)):
            assert sample_trilinear(vol, pt) == 0.0

    def test_bounded_by_neighbors(self):
        vol = make_phantom("sphere-set", (8, 8, 8), seed=5)
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.0, 8.0, size=(200, 3))
        vals = sample_trilinear(vol, pts)
        assert np.all(vals >= vol.data.min() - 1e-12)
        assert np.all(vals <= vol.data.max() + 1e-12)

    def test_matches_bruteforce_oracle(self):
        vol = make_phantom("sphere-set", (6, 6, 6), seed=7)
        rng = np.random.default_rng(8)

        def oracle(p):
            # direct 8-corner weighted sum with clamped indices
            q = np.asarray(p) - 0.5
            i0 = np.floor(q).astype(int)
            f = q - i0
            total = 0.0
            for dz in (0, 1):
                for dy in (0, 1):
                    for dx in (0, 1):
                        w = (
                            (f[0] if dz else 1 - f[0])
                            * (f[1] if dy else 1 - f[1])
                            * (f[2] if dx else 1 - f[2])
                        )
                        idx = np.clip(i0 + (dz, dy, dx), 0, 5)
                        total += w * vol.data[idx[0], idx[1], idx[2]]
            return total

        for _ in range(50):
            p = rng.uniform(0.0, 6.0, 3)
            assert sample_trilinear(vol, p) == pytest.approx(oracle(p), abs=1e-12)

    def test_nearest_mode(self):
        vol = make_phantom("single-voxel:2,2,2,1.0", (4, 4, 4))
        assert sample_trilinear(vol, (2.9, 2.1, 2.6), mode="nearest") == 1.0
        assert sample_trilinear(vol, (3.2, 2.1, 2.6), mode="nearest") == 0.0
        with pytest.raises(ValueError, match="interpolation"):
            sample_trilinear(vol, (1, 1, 1), mode="cubic")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        for kind in ("uniform:0.37", "sphere-set", "jaw-arch"):
            vol = make_phantom(kind, (6, 7, 8), seed=2)
            path = tmp_path / "v.pvol"
            save_volume(vol, path)
            back = load_volume(path)
            assert back.dims == vol.dims
            assert np.array_equal(back.data, vol.data)

    def test_header_layout(self, tmp_path):
        vol = make_phantom("uniform:0", (2, 3, 4))
        path = tmp_path / "v.pvol"
        save_volume(vol, path)
        blob = path.read_bytes()
        assert blob.startswith(b"PVOL1 2 3 4\n")
        assert len(blob) == len(b"PVOL1 2 3 4\n") + 2 * 3 * 4 * 4

    def test_short_payload(self, tmp_path):
        path = tmp_path / "bad.pvol"
        path.write_bytes(b"PVOL1 2 2 2\n" + b"\0" * 10)
        with pytest.raises(FormatError, match="payload"):
            load_volume(path)

    def test_long_payload(self, tmp_path):
        path = tmp_path / "bad.pvol"
        path.write_bytes(b"PVOL1 1 1 1\n" + b"\0" * 8)
        with pytest.raises(FormatError, match="payload"):
            load_volume(path)

    def test_zero_dims(self, tmp_path):
        path = tmp_path / "bad.pvol"
        path.write_bytes(b"PVOL1 0 8 8\n")
        with pytest.raises(DimsError, match="invalid dims"):
            load_volume(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pvol"
        path.write_bytes(b"XVOL9 2 2 2\n" + b"\0" * 32)
        with pytest.raises(FormatError, match="header"):
            load_volume(path)

    def test_nan_payload(self, tmp_path):
        path = tmp_path / "nan.pvol"
        path.write_bytes(b"PVOL1 1 1 2\n" + np.full(2, np.nan, dtype="<f4").tobytes())
        with pytest.raises(ValueError):
            load_volume(path)

    def test_missing_newline(self, tmp_path):
        path = tmp_path / "bad.pvol"
        path.write_bytes(b"PVOL1 2 2 2" + b"\0" * 500)
        with pytest.raises(FormatError):
            load_volume(path)
