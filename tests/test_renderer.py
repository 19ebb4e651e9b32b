import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import same_bits, sample_trilinear, transmittance
from test_operator import fans, modes

from panoray import _pool, fan_operator
from panoray.errors import DimsError, FormatError
from panoray.fan_operator import INTERPOLATIONS
from panoray.ray_geometry import GeometryConfig, build_fan
from panoray.renderer import (
    RenderConfig,
    SimPXImage,
    as_pixels,
    load_image,
    mip,
    render_simpx,
    save_image,
    save_pgm16,
)
from panoray.volume import DensityVolume, make_phantom


@pytest.fixture(scope="module")
def fan256():
    return build_fan(GeometryConfig(), bounds=(256, 256))


@pytest.fixture(scope="module")
def fan32():
    return build_fan(GeometryConfig(width=64), bounds=(32, 32))


class TestTransmittance:
    def test_zero_densities(self):
        assert transmittance([0.0] * 50, delta=1.0, beta=0.5) == 1.0

    def test_single_sample(self):
        # sigma=2 (raw value, no volume involved), delta=0.5, beta=1
        t = transmittance([2.0], delta=0.5, beta=1.0)
        assert t == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert 1.0 - t == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_empty(self):
        assert transmittance([], delta=1.0, beta=1.0) == 1.0

    def test_concatenation(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 1, 40)
        whole = transmittance(s, 0.7, 0.3)
        for cut in (1, 7, 20, 39):
            prod = transmittance(s[:cut], 0.7, 0.3) * transmittance(s[cut:], 0.7, 0.3)
            assert prod == pytest.approx(whole, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0, 1, 200)
        base = transmittance(s, 1.0, 0.02)
        for _ in range(10):
            assert abs(transmittance(rng.permutation(s), 1.0, 0.02) - base) < 1e-12

    def test_monotone_in_density(self):
        s = [0.2, 0.4, 0.6]
        t0 = transmittance(s, 1.0, 0.5)
        s[1] += 0.05
        assert transmittance(s, 1.0, 0.5) < t0

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = transmittance(rng.uniform(0, 1, 100), 1.0, 0.1)
            assert 0.0 < t <= 1.0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            transmittance([0.5], delta=0.0, beta=1.0)
        with pytest.raises(ValueError):
            transmittance([0.5], delta=1.0, beta=-1.0)

    @pytest.mark.parametrize("name", ["delta", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, name, value):
        # a NaN delta used to return a NaN transmittance
        params = {"delta": 1.0, "beta": 1.0, name: value}
        with pytest.raises(ValueError, match=name):
            transmittance([0.5], **params)


class TestRenderSimPX:
    def test_zero_volume(self, fan256):
        vol = make_phantom("uniform:0", (128, 256, 256))
        img = render_simpx(vol, fan256, RenderConfig())
        assert img.dims == (128, 256)
        assert np.all(img.pixels == 0.0)

    def test_default_image_size(self, fan256):
        vol = make_phantom("uniform:0.2", (128, 256, 256))
        img = render_simpx(vol, fan256, RenderConfig())
        assert img.pixels.size == 32768

    def test_uniform_closed_form(self, fan256):
        cfg = RenderConfig()
        vol = make_phantom("uniform:0.5", (128, 256, 256))
        img = render_simpx(vol, fan256, cfg)
        full = fan256.sample_counts == 200
        expected = 1.0 - math.exp(-cfg.beta * 0.5 * 200 * fan256.delta)
        px = img.pixels[:, full]
        assert np.abs(px - expected).max() < 1e-9

    def test_beta_sigma_scaling(self, fan256):
        vol = make_phantom("jaw-arch", (16, 256, 256), seed=0)
        half = DensityVolume(vol.data / 2.0)
        a = render_simpx(vol, fan256, RenderConfig(beta=0.02, height=16))
        b = render_simpx(half, fan256, RenderConfig(beta=0.04, height=16))
        assert np.abs(a.pixels - b.pixels).max() <= 1e-12

    def test_matches_transmittance_op(self, fan32):
        # cross-check the vectorized path against the scalar operation
        vol = make_phantom("sphere-set", (4, 32, 32), seed=9)
        cfg = RenderConfig(beta=0.1, width=64, height=4)
        img = render_simpx(vol, fan32, cfg)
        for i in (0, 20, 40, 63):
            samples = fan32.sample_xy[i, :fan32.sample_counts[i]]
            for j in (0, 3):
                pts = np.column_stack(
                    [np.full(len(samples), j + 0.5), samples[:, 1], samples[:, 0]]
                )
                dens = sample_trilinear(vol, pts)
                expected = 1.0 - transmittance(dens, fan32.delta, cfg.beta)
                assert img.pixels[j, i] == pytest.approx(expected, abs=1e-12)

    def test_nearest_mode(self, fan32):
        vol = make_phantom("uniform:0.3", (4, 32, 32))
        cfg = RenderConfig(beta=0.1, width=64, height=4, interpolation="nearest")
        img = render_simpx(vol, fan32, cfg)
        full = fan32.sample_counts == fan32.sample_counts.max()
        assert np.all(img.pixels[:, full] > 0.0)

    def test_threads_identical(self, fan256):
        vol = make_phantom("jaw-arch", (8, 256, 256), seed=1)
        a = render_simpx(vol, fan256, RenderConfig(height=8, threads=1))
        b = render_simpx(vol, fan256, RenderConfig(height=8, threads=4))
        assert np.array_equal(a.pixels, b.pixels)

    def test_monotone_in_density(self, fan32):
        base = np.full((4, 32, 32), 0.3)
        vol = DensityVolume(base)
        cfg = RenderConfig(beta=0.1, width=64, height=4)
        img0 = render_simpx(vol, fan32, cfg)
        bumped = base.copy()
        bumped[2, 16, 16] = 0.9
        img1 = render_simpx(DensityVolume(bumped), fan32, cfg)
        assert np.all(img1.pixels >= img0.pixels)
        assert np.any(img1.pixels[2] > img0.pixels[2])

    def test_dim_mismatches(self, fan256):
        vol = make_phantom("uniform:0", (4, 256, 256))
        with pytest.raises(DimsError):
            render_simpx(vol, fan256, RenderConfig(width=128, height=4))
        with pytest.raises(DimsError):
            render_simpx(vol, fan256, RenderConfig(height=128))
        small = make_phantom("uniform:0", (4, 32, 32))
        with pytest.raises(DimsError):
            render_simpx(small, fan256, RenderConfig(height=4))


class TestMip:
    def test_uniform(self):
        vol = make_phantom("uniform:0.4", (4, 5, 6))
        for axis, shape in (("axial", (5, 6)), ("coronal", (4, 6)), ("sagittal", (4, 5))):
            m = mip(vol, axis)
            assert m.shape == shape
            assert np.all(m == np.float64(np.float32(0.4)))

    def test_single_voxel(self):
        vol = make_phantom("single-voxel:1,2,3,1.0", (4, 5, 6))
        ax = mip(vol, "axial")
        assert ax[2, 3] == 1.0 and ax.sum() == 1.0
        co = mip(vol, "coronal")
        assert co[1, 3] == 1.0 and co.sum() == 1.0
        sa = mip(vol, "sagittal")
        assert sa[1, 2] == 1.0 and sa.sum() == 1.0

    def test_dominates_slices(self):
        vol = make_phantom("sphere-set", (6, 8, 8), seed=4)
        m = mip(vol, "axial")
        for j in range(6):
            assert np.all(m >= vol.data[j])

    def test_bad_axis(self):
        vol = make_phantom("uniform:0", (4, 4, 4))
        with pytest.raises(ValueError, match="axis"):
            mip(vol, "oblique")

    def test_float64_whatever_the_volume_dtype(self):
        # a float32 phantom's projections are widened, exactly: the float64
        # volume's, bit for bit
        vol = make_phantom("jaw-arch", (6, 10, 12), seed=2)
        wide = DensityVolume(vol.data.astype(np.float64))
        assert vol.data.dtype == np.float32 and wide.data.dtype == np.float64
        for axis in ("axial", "coronal", "sagittal"):
            assert same_bits(mip(vol, axis), mip(wide, axis))


class TestImageIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = SimPXImage(rng.uniform(0.0, 0.999, (12, 17)))
        path = tmp_path / "img.pimg"
        save_image(img, path)
        back = load_image(path)
        assert back.dims == (12, 17)
        assert np.array_equal(
            back.pixels, img.pixels.astype(np.float32).astype(np.float64)
        )

    def test_header(self, tmp_path):
        img = SimPXImage(np.zeros((2, 3)))
        path = tmp_path / "img.pimg"
        save_image(img, path)
        blob = path.read_bytes()
        assert blob.startswith(b"PIMG1 2 3\n")
        assert len(blob) == len(b"PIMG1 2 3\n") + 2 * 3 * 4

    def test_bad_payload(self, tmp_path):
        path = tmp_path / "bad.pimg"
        path.write_bytes(b"PIMG1 2 2\n" + b"\0" * 9)
        with pytest.raises(FormatError):
            load_image(path)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            SimPXImage(np.full((2, 2), 1.0))
        with pytest.raises(ValueError):
            SimPXImage(np.full((2, 2), -0.1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        px = np.full((2, 2), 0.5)
        px[1, 0] = bad
        with pytest.raises(ValueError):
            SimPXImage(px)

    def test_non_ascii_header(self, tmp_path):
        path = tmp_path / "bad.pimg"
        path.write_bytes("PIMG1 2 2\u00e9\n".encode() + b"\0" * 16)
        with pytest.raises(FormatError, match="ASCII"):
            load_image(path)

    def test_pgm16(self, tmp_path):
        px = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "img.pgm"
        save_pgm16(px, path)
        blob = path.read_bytes()
        header = b"P5\n2 2\n65535\n"
        assert blob.startswith(header)
        vals = np.frombuffer(blob[len(header):], dtype=">u2").reshape(2, 2)
        assert vals[0, 0] == 0
        assert vals[0, 1] == 32768  # round(0.5 * 65535)
        assert vals[1, 0] == 65535
        assert vals[1, 1] == 16384

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pgm16_rejects_non_finite(self, tmp_path, bad):
        px = np.array([[0.0, 0.5], [bad, 0.25]])
        path = tmp_path / "img.pgm"
        with pytest.raises(ValueError):
            save_pgm16(px, path)
        assert not path.exists()


class TestSaturation:
    def test_extreme_attenuation_clamps_below_one(self):
        fan = build_fan(GeometryConfig(), bounds=(256, 256))
        vol = make_phantom("uniform:0.95", (2, 256, 256))
        img = render_simpx(vol, fan, RenderConfig(beta=5.0, height=2))
        assert img.pixels.max() < 1.0
        assert img.pixels.max() == np.nextafter(1.0, 0.0)


class TestImageRangeProperty:
    @settings(max_examples=60, deadline=None)
    @given(fans(), modes, st.integers(1, 3),
           st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           st.sampled_from([1e3]) | st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    def test_pixels_lie_in_unit_interval(self, fan, interpolation, nz, top, beta, seed):
        # zero volumes and random ones with densities up to 1, at betas up
        # to ones that saturate 1 - T to 1.0 in double precision: pixels
        # stay in [0, 1)
        nx, ny = fan.bounds
        vol = DensityVolume(np.random.default_rng(seed).uniform(0.0, top, (nz, ny, nx)))
        cfg = RenderConfig(beta=beta, width=fan.n_rays, height=nz, interpolation=interpolation)
        px = render_simpx(vol, fan, cfg).pixels
        assert px.shape == (nz, fan.n_rays)
        assert px.min() >= 0.0 and px.max() < 1.0


class TestConfigMismatches:
    def test_nearest_matches_volume_sampler(self, fan32):
        # the image path and the volume-level nearest sampler agree
        vol = make_phantom("sphere-set", (2, 32, 32), seed=12)
        cfg = RenderConfig(beta=0.25, width=64, height=2, interpolation="nearest")
        img = render_simpx(vol, fan32, cfg)
        samples = fan32.sample_xy[10, :fan32.sample_counts[10]]
        pts = np.column_stack([np.full(len(samples), 0.5), samples[:, 1], samples[:, 0]])
        dens = sample_trilinear(vol, pts, mode="nearest")
        expected = 1.0 - transmittance(dens, fan32.delta, cfg.beta)
        assert img.pixels[0, 10] == pytest.approx(expected, abs=1e-12)


class TestAsPixels:
    def test_image_pixels_as_they_are(self):
        img = SimPXImage(np.full((3, 4), 0.25))
        assert as_pixels(img, 4) is img.pixels
        assert as_pixels(img, 4, 3) is img.pixels

    def test_raw_array_checked_not_frozen(self):
        px = np.full((3, 4), 0.25)
        assert as_pixels(px, 4, 3) is px
        assert px.flags.writeable
        for bad in (np.nan, np.inf, -np.inf, 1.0, -0.1):
            px_bad = px.copy()
            px_bad[2, 1] = bad
            with pytest.raises(ValueError, match="opacity"):
                as_pixels(px_bad, 4)
            assert px_bad.flags.writeable

    @pytest.mark.parametrize("shape, width, height", [
        ((3, 4), 5, None), ((3, 4), 4, 2), ((0, 4), 4, None), ((12,), 12, None),
        ((3, 4, 1), 4, 3),
    ])
    def test_shape_rejected_before_values(self, shape, width, height):
        # a NaN in a wrongly shaped array is reported as the shape error
        with pytest.raises(DimsError):
            as_pixels(np.full(shape, np.nan), width, height)
        if len(shape) == 2 and min(shape) > 0:
            with pytest.raises(DimsError):
                as_pixels(SimPXImage(np.zeros(shape)), width, height)


class TestRenderConfigModes:
    def test_every_operator_mode_accepted(self):
        for mode in INTERPOLATIONS:
            assert RenderConfig(interpolation=mode).interpolation == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="interpolation"):
            RenderConfig(interpolation="cubic")

    @pytest.mark.parametrize("name", ["width", "height"])
    @pytest.mark.parametrize("value", [0, 4.5, True])
    def test_counts_are_integers(self, name, value):
        # 4.5 failed deep inside the render with a TypeError
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            RenderConfig(**{name: value})
        assert getattr(RenderConfig(**{name: np.int64(4)}), name) == 4

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0, -0.1])
    def test_beta_must_be_finite_and_positive(self, beta):
        with pytest.raises(ValueError, match="beta"):
            RenderConfig(beta=beta)

    def test_sampling_belongs_to_the_fan(self):
        # sample count and spacing are read from the fan, not copied here
        names = [f.name for f in dataclasses.fields(RenderConfig)]
        assert names == ["beta", "width", "height", "interpolation", "threads"]


class TestFloat32Volumes:
    """forward reads float32 slices as they are and widens them one block at
    a time; the widening is exact, so a float32 volume gives its float64
    widening's line sums and image, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(fans(), modes,
           st.lists(st.sampled_from(["negative", "zero", "-zero", "positive"]),
                    min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_forward_and_render_match_the_float64_widening(self, fan, interpolation,
                                                           kinds, seed):
        # slices whose minimum is negative, 0.0, -0.0 or positive; one slice
        # per forward block, so two workers split them
        nx, ny = fan.bounds
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (len(kinds), ny, nx)).astype(np.float32)
        for j, kind in enumerate(kinds):
            k = rng.integers(nx * ny)
            if kind == "positive":
                x[j] = 0.05 + 0.95 * x[j]
            else:
                x[j].flat[k] = {"negative": -x[j].flat[k], "zero": 0.0, "-zero": -0.0}[kind]
        x.flags.writeable = False  # the input is never written
        # densities: the negative values mirrored, -0.0 kept
        vol = DensityVolume(np.where(x < 0, -x, x))
        wide = DensityVolume(vol.data.astype(np.float64))
        assert vol.data.dtype == np.float32
        op = fan.operator(interpolation)
        with (mock.patch.object(fan_operator, "_PIECE", 1),
              mock.patch.object(_pool.os, "cpu_count", return_value=2)):
            for threads in (1, 2):
                assert same_bits(op.forward(x, threads=threads),
                                 op.forward(x.astype(np.float64), threads=threads))
                cfg = RenderConfig(width=fan.n_rays, height=len(kinds),
                                   interpolation=interpolation, threads=threads)
                assert same_bits(render_simpx(vol, fan, cfg).pixels,
                                 render_simpx(wide, fan, cfg).pixels)
