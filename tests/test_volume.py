import tracemalloc

import numpy as np
import pytest

from panoray import volume
from panoray.errors import DimsError, FormatError
from panoray.volume import (
    AttenuationModel,
    DensityVolume,
    gray_to_normalized,
    hu_to_mu,
    load_volume,
    make_phantom,
    sample_trilinear,
    save_volume,
)


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

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            make_phantom("uniform:1.5", (4, 4, 4))


def _old_f32_grid(data):
    """The whole-array quantization _as_f32_grid replaced: the reference."""
    return np.ascontiguousarray(data.astype(np.float32).astype(np.float64))


class TestQuantize:
    # one 1 MB slab holds four 256 x 256 or two 300 x 301 float32 planes
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 7), (7, 300, 301), (9, 256, 256)])
    def test_in_place_and_bit_equal_to_a_float32_round_trip(self, shape):
        data = np.random.default_rng(11).uniform(-2.0, 2.0, shape)
        # signed zero, a subnormal and values float32 rounds to 0 or keeps
        edge = [-0.0, 5e-324, 1e-40, 3.0e38, 0.1, 1.0 / 3.0]
        data.flat[:min(data.size, len(edge))] = edge[:data.size]
        want = _old_f32_grid(data)
        tracemalloc.start()
        try:
            got = volume._as_f32_grid(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is data
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert peak < 2 * volume._READ_CHUNK

    @pytest.mark.parametrize("kind", [
        "uniform:0.3", "single-voxel:2,5,7,0.7", "sphere-set", "jaw-arch"])
    def test_phantoms_unchanged(self, kind, monkeypatch):
        got = make_phantom(kind, (9, 20, 22), seed=4).data
        monkeypatch.setattr(volume, "_as_f32_grid", _old_f32_grid)
        want = make_phantom(kind, (9, 20, 22), seed=4).data
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

    def test_immutable(self):
        vol = make_phantom("uniform:0.5", (4, 4, 4))
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 0.1


class TestAttenuation:
    def test_water_fixed_point(self):
        assert hu_to_mu(0.0, AttenuationModel()) == AttenuationModel().mu_water

    def test_air_fixed_point(self):
        assert hu_to_mu(-1000.0, AttenuationModel()) == 0.0

    def test_bone_value(self):
        # HU = 1000 with mu_water = 0.2 doubles the water coefficient
        assert hu_to_mu(1000.0, AttenuationModel(mu_water=0.2)) == pytest.approx(0.4)

    def test_affine(self):
        model = AttenuationModel(mu_water=0.17)
        rng = np.random.default_rng(0)
        for _ in range(20):
            h1, h2 = rng.uniform(-1000, 3000, 2)
            alpha = rng.uniform(0, 1)
            lhs = hu_to_mu(alpha * h1 + (1 - alpha) * h2, model)
            rhs = alpha * hu_to_mu(h1, model) + (1 - alpha) * hu_to_mu(h2, model)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_beta_positive(self):
        with pytest.raises(ValueError):
            AttenuationModel(a=-1.0)
        assert AttenuationModel(a=0.05, c=2.0).beta == pytest.approx(0.025)

    def test_gray_normalization(self):
        assert gray_to_normalized(-1000) == 0.0
        assert gray_to_normalized(3000) == 1.0
        assert gray_to_normalized(1000) == pytest.approx(0.5)


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
