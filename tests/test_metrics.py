import math
import re
import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ssim_percent
from panoray import _pool, metrics
from panoray.errors import DimsError
from panoray.metrics import (
    DICE_THRESHOLD,
    MetricsReport,
    dice,
    evaluate,
    psnr,
    ssim,
    volume_mse,
)
from panoray.volume import make_phantom


def rand_volume(shape, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, shape)


def masked_psnr(a, b, mask):
    """PSNR over the voxels mask selects: each axial slice pair's selected
    squared differences summed on their own, the sums added in slice order,
    then divided by the selected count."""
    total = 0.0
    for x, y, m in zip(a, b, mask):
        total += float(np.sum(((x - y) ** 2)[m]))
    return min(99.0, 10.0 * math.log10(1.0 / (total / np.count_nonzero(mask))))


@st.composite
def ssim_pairs(draw):
    """Two volumes of one shape, float64 or float32 each, with values in
    [-0.5, 1) and slices that may be all 0.0, all -0.0 or carry bands of
    zero rows and columns."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(7, 40)), draw(st.integers(7, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def volume():
        v = rng.uniform(-0.5, 1.0, shape)
        for z in range(shape[0]):
            kind = draw(st.sampled_from(["values", "zeros", "negative zeros", "bands"]))
            if kind == "zeros":
                v[z] = 0.0
            elif kind == "negative zeros":
                v[z] = -0.0
            elif kind == "bands":
                r, c = draw(st.integers(0, shape[1] - 1)), draw(st.integers(0, shape[2] - 1))
                v[z, r:r + draw(st.integers(1, 8))] = 0.0
                v[z, :, c:c + draw(st.integers(1, 8))] = -0.0
        return v.astype(draw(st.sampled_from([np.float64, np.float32])))

    return volume(), volume()


class TestPsnr:
    def test_identical_capped(self):
        a = rand_volume((4, 4, 4), 0)
        assert psnr(a, a) == 99.0

    def test_constant_offset(self):
        a = np.zeros((4, 4, 4))
        b = np.full((4, 4, 4), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_symmetric(self):
        a, b = rand_volume((4, 4, 4), 1), rand_volume((4, 4, 4), 2)
        assert psnr(a, b) == psnr(b, a)

    def test_error_scaling(self):
        # doubling the error costs exactly 20*log10(2) dB
        a = rand_volume((5, 5, 5), 3)
        e = rand_volume((5, 5, 5), 4) * 0.05
        p1 = psnr(a, a + e)
        p2 = psnr(a, a + 2 * e)
        assert p1 - p2 == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_bruteforce_oracle(self):
        a, b = rand_volume((4, 4, 4), 5), rand_volume((4, 4, 4), 6)
        total = 0.0
        for z in range(4):
            for y in range(4):
                for x in range(4):
                    total += (a[z, y, x] - b[z, y, x]) ** 2
        expected = 10.0 * math.log10(1.0 / (total / 64.0))
        assert psnr(a, b) == pytest.approx(expected, abs=1e-12)

    def test_mask(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        b[0, 0, 0] = 0.5
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[1] = True  # error voxel excluded
        assert psnr(a, b, mask=mask) == 99.0
        assert psnr(a, b) < 99.0

    def test_dims_mismatch(self):
        with pytest.raises(DimsError):
            psnr(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_nan_rejected(self):
        # a NaN MSE must not score as the 99 dB cap
        a = np.zeros((2, 2, 2))
        b = np.full((2, 2, 2), np.nan)
        with pytest.raises(ValueError):
            psnr(a, b)
        with pytest.raises(ValueError):
            psnr(b, a, mask=np.ones((2, 2, 2), dtype=bool))


class TestDice:
    def test_identity(self):
        vol = make_phantom("sphere-set", (8, 8, 8), seed=1)
        assert dice(vol, vol) == 100.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        a[0, 0, 0] = 1.0
        b[3, 3, 3] = 1.0
        assert dice(a, b) == 0.0

    def test_partial_overlap(self):
        # A has 8 voxels, B the same 8 plus 8 extra: 2*8/(8+16) = 2/3
        a = np.zeros((4, 4, 4))
        b = np.zeros((4, 4, 4))
        a[0, :2, :4] = 1.0
        b[0, :2, :4] = 1.0
        b[1, :2, :4] = 1.0
        assert dice(a, b) == pytest.approx(200.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        # every comparison with NaN is false, so both sets came out empty: 100
        a, b = rand_volume((2, 8, 8), 3), rand_volume((2, 8, 8), 4)
        for fn in (dice, evaluate):
            with pytest.raises(ValueError, match="threshold"):
                fn(a, b, threshold=threshold)

    def test_empty_empty(self):
        z = np.zeros((4, 4, 4))
        assert dice(z, z) == 100.0

    def test_float32_compared_in_float64(self):
        # voxels at float32(0.2) lie above the threshold 0.2 once widened; a
        # float32 comparison would round the threshold to them and miss them
        a, b = (rand_volume((3, 8, 8), seed).astype(np.float32) for seed in (30, 31))
        a[1, 2:5, 2:5] = np.float32(DICE_THRESHOLD)
        b[1, 3:7, 3:7] = np.float32(DICE_THRESHOLD)
        want = dice(a.astype(np.float64), b.astype(np.float64))
        assert dice(a, b) == want
        assert dice(a, b.astype(np.float64)) == want
        assert dice(a, b) == evaluate(a, b).dice

    @pytest.mark.parametrize("threshold,want", [(0.2, None), (0.7, None), (2.0, 100.0)])
    def test_evaluate_counts_per_slice_exactly(self, threshold, want):
        # evaluate counts Dice's voxels inside the SSIM slice tasks; integer
        # counts summed over slices give dice's value bit for bit, and at
        # threshold 2.0 both sets are empty
        a, b = rand_volume((5, 12, 11), 17), rand_volume((5, 12, 11), 18)
        want = dice(a, b, threshold=threshold) if want is None else want
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 2, 3):
                assert evaluate(a, b, threshold=threshold, threads=threads).dice == want

    def test_threshold_aware(self):
        a = np.full((4, 4, 4), 0.19)
        b = np.full((4, 4, 4), 0.21)
        assert dice(a, b) == 0.0  # a all background, b all foreground
        assert dice(a, b, threshold=0.1) == 100.0

    def test_monotone_rescale_invariance(self):
        # rescaling both inputs without moving any voxel across the threshold
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (5, 5, 5))
        b = rng.uniform(0, 1, (5, 5, 5))
        d0 = dice(a, b, threshold=0.2)

        def remap(x):
            # strictly monotone, fixes 0.2
            return np.where(x > 0.2, 0.2 + 0.8 * (x - 0.2), x * 0.9 + 0.02)

        assert dice(remap(a), remap(b), threshold=0.2) == d0

    def test_bruteforce_oracle(self):
        a, b = rand_volume((4, 4, 4), 8), rand_volume((4, 4, 4), 9)
        inter = na = nb = 0
        for z in range(4):
            for y in range(4):
                for x in range(4):
                    fa = a[z, y, x] > 0.2
                    fb = b[z, y, x] > 0.2
                    na += fa
                    nb += fb
                    inter += fa and fb
        expected = 200.0 * inter / (na + nb)
        assert dice(a, b) == pytest.approx(expected, abs=1e-12)


class TestSsim:
    def test_identity(self):
        vol = make_phantom("jaw-arch", (4, 16, 16), seed=0)
        assert ssim(vol, vol) == 100.0

    def test_constant_vs_constant(self):
        a = np.zeros((2, 8, 8))
        b = np.ones((2, 8, 8)) * 0.999
        val = ssim(a, b)
        assert 0.0 < val < 5.0

    def test_symmetric(self):
        a, b = rand_volume((3, 9, 9), 10), rand_volume((3, 9, 9), 11)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_window_too_large(self):
        with pytest.raises(DimsError):
            ssim(np.zeros((2, 5, 5)), np.zeros((2, 5, 5)))

    @pytest.mark.parametrize("shape", [(8, 8), (64,), (2, 8, 8, 8)])
    def test_not_3d_rejected(self, shape):
        # SSIM scores axial slices; psnr, volume_mse and dice take any shape
        a = b = np.zeros(shape)
        for fn in (ssim, evaluate):
            with pytest.raises(DimsError, match=re.escape(str(shape))):
                fn(a, b)
        assert psnr(a, b) == 99.0 and volume_mse(a, b) == 0.0 and dice(a, b) == 100.0

    @pytest.mark.parametrize("shape", [(3, 7, 7), (2, 7, 12), (2, 11, 8), (2, 16, 16)])
    def test_bruteforce_oracle(self, shape):
        # every 7x7 window's statistics summed on its own, slice by slice
        rng = np.random.default_rng(sum(shape))
        a, b = rng.uniform(0, 1, shape), rng.uniform(0, 1, shape)
        c1, c2 = 0.01 ** 2, 0.03 ** 2
        slice_means = []
        for x, y in zip(a, b):
            vals = []
            for i in range(x.shape[0] - 6):
                for j in range(x.shape[1] - 6):
                    wx, wy = x[i:i + 7, j:j + 7], y[i:i + 7, j:j + 7]
                    mx, my = wx.mean(), wy.mean()
                    vx = (wx * wx).mean() - mx * mx
                    vy = (wy * wy).mean() - my * my
                    cov = (wx * wy).mean() - mx * my
                    vals.append((2 * mx * my + c1) * (2 * cov + c2)
                                / ((mx * mx + my * my + c1) * (vx + vy + c2)))
            slice_means.append(np.mean(vals))
        assert ssim(a, b) == pytest.approx(100.0 * np.mean(slice_means), rel=1e-12)

    def test_degrades_with_noise(self):
        a = make_phantom("jaw-arch", (2, 32, 32), seed=3).data
        noise = np.clip(a + rand_volume((2, 32, 32), 12) * 0.2, 0, 1)
        assert ssim(a, noise) < 100.0


    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(7, 20), st.integers(7, 20),
           st.integers(0, 2**32 - 1))
    def test_bit_identical_at_any_thread_count(self, nz, ny, nx, seed):
        # every slice is one block; three CPUs are reported so that
        # threads=3 gets three workers
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0, 1, (nz, ny, nx)), rng.uniform(0, 1, (nz, ny, nx))
        a.flags.writeable = b.flags.writeable = False  # the inputs are never written
        want_ssim, want_report = ssim(a, b), evaluate(a, b)
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 2, 3):
                assert ssim(a, b, threads=threads) == want_ssim
                assert evaluate(a, b, threads=threads) == want_report


    @settings(max_examples=60, deadline=None)
    @given(ssim_pairs())
    def test_equals_the_view_window_oracle(self, pair):
        # the flat-row window sums, the arithmetic on their wrapped rows and
        # the exact score of all-zero pairs give the 2D-view oracle's value
        a, b = pair
        want = ssim_percent(a, b)
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 3):
                assert ssim(a, b, threads=threads) == want
                assert evaluate(a, b, threads=threads).ssim == want

    @pytest.mark.parametrize("shape", [(2, 96, 130), (1, 256, 256)])
    def test_wide_slices_equal_the_view_window_oracle(self, shape):
        # past about 128 windows a row, a mean over a strided view of the
        # valid windows would sum in another order than the oracle's
        rng = np.random.default_rng(sum(shape))
        a, b = rng.uniform(-0.5, 1.0, shape), rng.uniform(-0.5, 1.0, shape)
        b[0, 40:60] = 0.0
        want = ssim_percent(a, b)
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 3):
                assert ssim(a, b, threads=threads) == want
                assert evaluate(a.astype(np.float32), b, threads=threads).ssim == \
                    ssim_percent(a.astype(np.float32), b)

    def test_all_zero_pairs_skip_the_arithmetic(self):
        # a pair of slices of +-0 scores exactly 1 without SSIM arithmetic;
        # any other pair runs it, an identical one and one whose squared
        # differences round to 0 included
        zeros, negative = np.zeros((3, 9, 10)), np.full((3, 9, 10), -0.0)
        values = rand_volume((3, 9, 10), 27)
        tiny = zeros.copy()
        tiny[1, 4, 4] = 5e-324
        big = np.full((2, 8, 8), 1e200)
        with mock.patch.object(metrics, "_slice_ssim", wraps=metrics._slice_ssim) as core:
            for x, y in ((zeros, zeros), (zeros, negative), (negative, zeros),
                         (negative, negative), (negative.astype(np.float32), zeros)):
                assert ssim(x, y) == 100.0
                assert evaluate(x, y).ssim == 100.0
            assert core.call_count == 0
            assert ssim(values, values) == 100.0
            assert core.call_count == 3
            mixed = values.copy()
            mixed[1] = -0.0
            assert ssim(mixed, np.where(mixed == 0.0, 0.0, mixed)) == 100.0
            assert core.call_count == 5
            assert ssim(zeros, tiny) == ssim_percent(zeros, tiny)
            assert core.call_count == 6
            with pytest.raises(ValueError, match="overflow"):
                ssim(big, big)
            assert core.call_count == 7


class TestVolumeMse:
    def test_identical(self):
        a = rand_volume((3, 3, 3), 13)
        assert volume_mse(a, a) == 0.0

    def test_constant_difference(self):
        a = np.zeros((4, 4, 4))
        b = np.full((4, 4, 4), 0.5)
        assert volume_mse(a, b) == pytest.approx(0.25, abs=1e-15)

    def test_bruteforce_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            a = rng.uniform(0, 1, (4, 4, 4))
            b = rng.uniform(0, 1, (4, 4, 4))
            total = 0.0
            for z in range(4):
                for y in range(4):
                    for x in range(4):
                        total += (a[z, y, x] - b[z, y, x]) ** 2
            assert volume_mse(a, b) == pytest.approx(total / 64.0, abs=1e-12)

    def test_empty_rejected(self):
        # a per-slice mean would divide by a voxel count of 0
        empty = np.zeros((0, 8, 8))
        for fn in (volume_mse, psnr, dice, ssim, evaluate):
            with pytest.raises(DimsError, match="no voxels"):
                fn(empty, empty)

    def test_same_as_per_slice_expression(self):
        # each axial slice pair's squared differences summed on their own,
        # the sums added in slice order, then divided by the voxel count:
        # the rule evaluate's slice tasks follow, so bit-identical; on about
        # half of such pairs a whole-array mean differs in the last bits
        for seed in (19, 21, 23, 25):
            a, b = rand_volume((6, 40, 33), seed), rand_volume((6, 40, 33), seed + 1)
            total = 0.0
            for x, y in zip(a, b):
                total += float(np.sum((x - y) ** 2))
            mse = total / a.size
            assert volume_mse(a, b) == mse
            assert psnr(a, b) == 10.0 * math.log10(1.0 / mse)

    def test_image_keeps_whole_array_expression(self):
        # a 2D image takes one whole-array mean
        a, b = rand_volume((6, 40, 33), 21), rand_volume((6, 40, 33), 22)
        assert volume_mse(a[0], b[0]) == float(np.mean((a[0] - b[0]) ** 2))
        assert psnr(a[0], b[0]) == 10.0 * math.log10(1.0 / volume_mse(a[0], b[0]))

    def test_mask_sums_each_slice_selection(self):
        # a mask is scored one slice pair at a time, as the unmasked walk
        # is: an all-True mask gives the unmasked value bit for bit (a flat
        # selection's one sum differed in the last bits on 6 of these 20
        # pairs), and any mask the per-slice expression's
        for seed in range(20):
            a, b = rand_volume((16, 32, 32), 2 * seed), rand_volume((16, 32, 32), 2 * seed + 1)
            assert psnr(a, b, mask=np.ones(a.shape, dtype=bool)) == psnr(a, b)
            for mask in (a > 0.3, np.arange(a.size).reshape(a.shape) % 7 == 0):
                assert psnr(a, b, mask=mask) == masked_psnr(a, b, mask)
            assert psnr(a[3], b[3], mask=a[3] > 0.5) == masked_psnr(a[3:4], b[3:4],
                                                                      a[3:4] > 0.5)


class TestNonFinite:
    # every metric raises ValueError, and no RuntimeWarning, for a NaN or an
    # infinity in a, in b or in both at one voxel (inf - inf is NaN)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["a", "b", "both"])
    def test_rejected_without_warning(self, bad, where):
        a, b = rand_volume((4, 9, 8), 23), rand_volume((4, 9, 8), 24)
        for v in {"a": (a,), "b": (b,), "both": (a, b)}[where]:
            v[2, 4, 5] = bad
        mask = np.zeros(a.shape, dtype=bool)
        mask[2] = True
        calls = [lambda: psnr(a, b), lambda: psnr(a, b, mask=mask),
                 lambda: psnr(a[2], b[2]), lambda: volume_mse(a, b),
                 lambda: dice(a, b)]
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 2, 3):
                calls += [lambda t=threads: ssim(a, b, threads=t),
                          lambda t=threads: evaluate(a, b, threads=t),
                          lambda t=threads: evaluate(a.astype(np.float32),
                                                     b.astype(np.float32), threads=t)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in calls:
                    with pytest.raises(ValueError, match="finite"):
                        call()

    def test_overflow_rejected_without_warning(self):
        # finite values whose squares, products or window sums overflow
        # float64 raise ValueError, not a RuntimeWarning; Dice only compares
        big, zero = np.full((2, 8, 8), 1e200), np.zeros((2, 8, 8))
        calls = [lambda: psnr(big, zero), lambda: psnr(big, zero, mask=big > 0),
                 lambda: psnr(big[0], -big[0]), lambda: volume_mse(big, zero),
                 lambda: volume_mse(1e154 * np.ones(4), -1e154 * np.ones(4))]
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 2, 3):
                calls += [lambda t=threads: ssim(big, zero, threads=t),
                          lambda t=threads: ssim(big, big, threads=t),
                          lambda t=threads: evaluate(big, zero, threads=t),
                          lambda t=threads: evaluate(big, big, threads=t)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in calls:
                    with pytest.raises(ValueError, match="overflow"):
                        call()
                assert dice(big, zero) == 0.0
                assert dice(big, big) == 100.0

    def test_outside_the_mask_ignored(self):
        # a masked psnr scores only the voxels the mask selects
        a, b = rand_volume((2, 8, 8), 25), rand_volume((2, 8, 8), 26)
        a[0, 0, 0] = math.nan
        mask = np.ones(a.shape, dtype=bool)
        mask[0, 0, 0] = False
        assert psnr(a, b, mask=mask) == masked_psnr(a, b, mask)


class TestReport:
    def test_format_line(self):
        report = MetricsReport(psnr=20.0, ssim=93.5, dice=66.7, mse=0.01, threshold=0.2)
        line = report.format_line()
        assert line.startswith("psnr=20 ")
        assert "dice=66.7" in line and "threshold=0.2" in line

    def test_evaluate_matches_metric_functions(self):
        # exactly, also for a float32 operand scored on three workers
        a, b = rand_volume((3, 9, 9), 15), rand_volume((3, 9, 9), 16)
        b32 = b.astype(np.float32)
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for other, threads in ((b, 1), (b32, 3)):
                report = evaluate(a, other, threshold=0.4, threads=threads)
                assert report.psnr == psnr(a, other)
                assert report.mse == volume_mse(a, other)
                assert report.ssim == ssim(a, other)
                assert report.dice == dice(a, other, threshold=0.4)

    def test_evaluate_reads_float32_exactly(self):
        # float32 volumes on either side, values at the float32 threshold
        # included: SSIM's window sums and products and Dice's comparisons
        # in float32 would each move the result
        a = rand_volume((5, 12, 12), 17)
        b32, c32 = (rand_volume((5, 12, 12), seed).astype(np.float32) for seed in (18, 19))
        b32[2, 3:6, 3:6] = np.float32(0.2)
        b64, c64 = b32.astype(np.float64), c32.astype(np.float64)
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 2, 3):
                assert evaluate(a, b32, threads=threads) == evaluate(a, b64, threads=threads)
                assert evaluate(b32, a, threads=threads) == evaluate(b64, a, threads=threads)
                assert evaluate(b32, c32, threads=threads) == evaluate(b64, c64,
                                                                      threads=threads)

    def test_evaluate_widens_no_float32_volume(self):
        # evaluate and ssim score slice pairs through per-worker slice
        # buffers, volume_mse and psnr widen float32 by their ufuncs' casts,
        # and dice compares float32 to a float64 threshold: no widened
        # float32 volume and no difference volume, so the traced peak stays
        # under one float64 volume's bytes for either dtype
        a = rand_volume((64, 32, 32), 20)
        a32 = a.astype(np.float32)
        b32 = rand_volume((64, 32, 32), 21).astype(np.float32)
        b64 = b32.astype(np.float64)
        calls = {"psnr": psnr, "volume_mse": volume_mse, "dice": dice}
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            for threads in (1, 2, 3):
                calls[f"evaluate/{threads}"] = partial(evaluate, threads=threads)
                calls[f"ssim/{threads}"] = partial(ssim, threads=threads)
            for name, call in calls.items():
                for x, y in ((a, b64), (a, b32), (b32, a), (a32, b32)):
                    tracemalloc.start()
                    try:
                        call(x, y)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak < a.nbytes, (name, x.dtype, y.dtype, peak)

    def test_metric_functions_make_no_whole_volume_temporary(self):
        # psnr, volume_mse and dice read the pair a slice pair at a time, so
        # their traced peak is a few slice buffers, far under one volume
        a = rand_volume((64, 32, 32), 22)
        b = rand_volume((64, 32, 32), 23)
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        for fn in (psnr, volume_mse, dice):
            for x, y in ((a, b), (a, b32), (a32, b32)):
                tracemalloc.start()
                try:
                    fn(x, y)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < a.nbytes // 8, (fn.__name__, x.dtype, y.dtype, peak)

    def test_evaluate_identical_volumes(self):
        a = make_phantom("sphere-set", (8, 8, 8), seed=2)
        report = evaluate(a, a)
        assert report.psnr == 99.0
        assert report.ssim == 100.0
        assert report.dice == 100.0
        assert report.mse == 0.0
