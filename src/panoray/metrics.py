"""Volume quality metrics: PSNR, per-slice SSIM, Dice overlap and MSE.

PSNR and SSIM score normalized densities, whose dynamic range is [0, 1]."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._pool import check_int, check_real, run_blocks
from .errors import DimsError
from .volume import DensityVolume

PSNR_CAP_DB = 99.0
DICE_THRESHOLD = 0.2
_SSIM_WINDOW = 7
# SSIM's stabilizers (k1 L)^2 and (k2 L)^2 on the dynamic range L = 1
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


@dataclass(frozen=True)
class MetricsReport:
    psnr: float       # dB, capped at PSNR_CAP_DB
    ssim: float       # percent
    dice: float       # percent
    mse: float
    threshold: float

    def format_line(self) -> str:
        return (
            f"psnr={self.psnr:.6g} ssim={self.ssim:.6g} dice={self.dice:.6g} "
            f"mse={self.mse:.6g} threshold={self.threshold:g}"
        )


def _data(v) -> np.ndarray:
    """The values of a DensityVolume or array-like: a float32 array as it is,
    since the metrics widen it to float64 as they use it (every float32
    value is exact in float64), anything else as float64."""
    if isinstance(v, DensityVolume):
        return v.data
    if isinstance(v, np.ndarray) and v.dtype == np.float32:
        return v
    return np.asarray(v, dtype=np.float64)


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimsError(f"volume dims differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DimsError(f"volumes of dims {a.shape} hold no voxels")


def _check_finite(*arrays: np.ndarray, out=None) -> None:
    """ValueError unless every value is finite, checked before any arithmetic
    (inf - inf would warn, and a NaN would score); out, a bool buffer of the
    arrays' shape, spares the temporary."""
    if not all(np.isfinite(v, out=out).all() for v in arrays):
        raise ValueError("metrics need finite values, got NaN or infinity")


def _no_overflow(value):
    """value; ValueError unless it is finite. Float64 arithmetic on finite
    values can overflow: squares do past about 1e154."""
    if not math.isfinite(value):
        raise ValueError("metrics overflow float64 on values this large")
    return value


def _slice_sq_sum(x: np.ndarray, y: np.ndarray, diff: np.ndarray) -> float:
    """The sum of (x - y) ** 2 over a slice pair, computed in float64 (a
    float32 slice is widened by the ufuncs' casts) through the float64 slice
    buffer diff; inf if it overflows."""
    with np.errstate(over="ignore"):
        np.subtract(x, y, out=diff, dtype=np.float64)
        np.multiply(diff, diff, out=diff)
        return float(diff.sum())


def _slice_mean(sq_sums, size: int) -> float:
    """The mean squared difference from per-slice sums: the sums added in
    slice order, then divided by the voxel count."""
    # a plain loop, not sum(), which compensates its float sums on Python 3.12+
    total = 0.0
    for s in sq_sums:
        total += s
    return _no_overflow(total) / size


def _mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean of (a - b) ** 2 over a and b of one shape; ValueError for a NaN or
    infinite value or a sum that overflows. A 3D pair is summed one axial
    slice pair at a time through one slice buffer, by the rule evaluate's
    slice tasks follow, so the two agree exactly; any other array (a masked
    selection, a 2D image) is summed as one slice, which gives np.mean's
    value."""
    _check_finite(a, b)
    pairs = zip(a, b) if a.ndim == 3 else [(a, b)]
    diff = np.empty(a.shape[1:] if a.ndim == 3 else a.shape)
    return _slice_mean((_slice_sq_sum(x, y, diff) for x, y in pairs), a.size)


def volume_mse(a, b) -> float:
    """Mean squared voxel difference."""
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    return _mse(a, b)


def _psnr_db(mse: float) -> float:
    """PSNR in dB of a finite MSE (as _slice_mean returns)."""
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse))


def psnr(a, b, *, mask=None) -> float:
    """10*log10(1 / MSE) in dB, the peak being 1, the top of the normalized
    density range; capped at 99.0 (identical inputs). The MSE is volume_mse's,
    taken over the voxels a mask selects when one is given.

    Raises ValueError when a scored value is NaN or infinite, or when its
    squared differences overflow."""
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        _check_dims(a, mask)
        if not mask.any():
            raise ValueError("psnr mask selects no voxels")
        return _psnr_db(_mse(a[mask], b[mask]))
    return _psnr_db(_mse(a, b))


def dice(a, b, threshold: float = DICE_THRESHOLD) -> float:
    """Overlap of the binarized volumes in percent; two empty sets agree (100)."""
    check_real("threshold", threshold)
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    _check_finite(a, b)
    # compared in float64: float32 values and a Python float would be
    # compared in float32, to the threshold rounded
    fa = np.greater(a, threshold, signature="dd->?")
    fb = np.greater(b, threshold, signature="dd->?")
    return _dice_percent(int(fa.sum()), int(fb.sum()), int((fa & fb).sum()))


def _dice_percent(na: int, nb: int, both: int) -> float:
    """Dice in percent from the voxel counts above the threshold in a, in b
    and in both."""
    if na == 0 and nb == 0:
        return 100.0
    return 200.0 * both / (na + nb)


def _window_sums(x: np.ndarray, w: int, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Valid-mode w x w moving sums of the 2D x into out, through the
    (ny - w + 1, nx) buffer rows: w - 1 shifted adds down the columns, then
    w - 1 along the rows, all on contiguous rows."""
    n = rows.shape[0]
    np.add(x[0:n], x[1:n + 1], out=rows)
    for k in range(2, w):
        rows += x[k:k + n]
    m = out.shape[1]
    np.add(rows[:, 0:m], rows[:, 1:m + 1], out=out)
    for k in range(2, w):
        out += rows[:, k:k + m]
    return out


def ssim(a, b, *, threads: int = 1) -> float:
    """Mean structural similarity over axial slices, in percent.

    Uniform 7x7 window in valid mode, stabilizers k1=0.01 / k2=0.03 on the
    dynamic range 1 of normalized densities. Slices run on up to `threads`
    workers (see _pool); the value is the same at any thread count.
    """
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    means, _, _ = _slice_walk(a, b, None, threads)
    return 100.0 * float(np.mean(means))


def _slice_walk(a, b, threshold, threads):
    """One pass over the axial slice pairs on up to `threads` workers: the
    per-slice SSIM means in slice order and, for a threshold that is not
    None, Dice's voxel counts (above it in a, in b, in both) summed over
    the slices and the per-slice sums of squared differences in slice order;
    the counts are integers, so they equal whole-volume counts. ValueError
    for a NaN or infinite value, before any SSIM arithmetic on its slice,
    and for an SSIM mean that overflows."""
    w = _SSIM_WINDOW
    nz, ny, nx = a.shape
    if ny < w or nx < w:
        raise DimsError(
            f"axial slices {a.shape[1:]} are smaller than the {w}x{w} SSIM window"
        )

    # one slice at a time through buffers allocated once per worker, so a
    # slice's working set stays in cache; the five window means are kept
    # apart so that ssim(v, v) is exactly 100. A float32 slice is widened
    # into a buffer of its own first: a ufunc over two float32 slices
    # computes in float32, even into a float64 output
    def buffers():
        means = np.empty((5, ny - w + 1, nx - w + 1))
        wide_a, wide_b = (None if v.dtype == np.float64 else np.empty((ny, nx))
                          for v in (a, b))
        return (np.empty((ny - w + 1, nx)), np.empty((ny, nx)), means,
                np.empty_like(means[0]), np.empty_like(means[0]),
                np.empty((ny, nx), dtype=bool), np.empty((ny, nx), dtype=bool),
                wide_a, wide_b)

    # SSIM's products and window sums of finite values past about 1e154
    # overflow, with no warning here: _no_overflow rejects the slice's mean
    @np.errstate(all="ignore")
    def slice_pair(j, bufs):
        rows, prod, means, num, den, above_a, above_b, wide_a, wide_b = bufs
        mx, my, vx, vy, cov = means
        x, y = a[j], b[j]
        if wide_a is not None:
            np.copyto(wide_a, x)
            x = wide_a
        if wide_b is not None:
            np.copyto(wide_b, y)
            y = wide_b
        _check_finite(x, y, out=above_a)
        # the MSE's float64 squared differences go through prod before SSIM's products
        sq_sum = None if threshold is None else _slice_sq_sum(x, y, prod)
        _window_sums(x, w, rows, mx)
        _window_sums(y, w, rows, my)
        _window_sums(np.multiply(x, x, out=prod), w, rows, vx)
        _window_sums(np.multiply(y, y, out=prod), w, rows, vy)
        _window_sums(np.multiply(x, y, out=prod), w, rows, cov)
        means /= w * w
        # num = (2 mx my + c1) * (2 cov + c2), with cov = E[xy] - mx my
        np.multiply(mx, my, out=num)
        cov -= num
        num *= 2.0
        num += _SSIM_C1
        cov *= 2.0
        cov += _SSIM_C2
        num *= cov
        # den = (mx^2 + my^2 + c1) * (vx + vy + c2), with vx = E[x^2] - mx^2
        np.multiply(mx, mx, out=den)
        vx -= den
        my2 = np.multiply(my, my, out=cov)
        vy -= my2
        den += my2
        den += _SSIM_C1
        vx += vy
        vx += _SSIM_C2
        den *= vx
        num /= den
        mean = _no_overflow(np.mean(num))
        if threshold is None:
            return mean, None, None
        np.greater(x, threshold, out=above_a)
        np.greater(y, threshold, out=above_b)
        counts = (np.count_nonzero(above_a), np.count_nonzero(above_b),
                  np.count_nonzero(np.logical_and(above_a, above_b, out=above_a)))
        return mean, counts, sq_sum

    means, counts, sq_sums = zip(*run_blocks(slice_pair, range(nz), threads, buffers))
    if threshold is None:
        return means, None, None
    return means, [sum(c) for c in zip(*counts)], sq_sums


def evaluate(a, b, threshold: float = DICE_THRESHOLD, *,
             threads: int = 1) -> MetricsReport:
    """PSNR, SSIM, Dice and MSE of a against b; threads as for ssim.

    The values are those psnr, ssim, dice and volume_mse give. One walk over
    the axial slice pairs scores one pair at a time: its SSIM, its Dice
    counts and its float64 sum of squared differences, which are added in
    slice order for the MSE, as volume_mse adds them. A float32 array is read
    as its float64 values a slice at a time, so no whole-volume copy or
    difference volume is made. ValueError for a NaN or infinite value, and
    for values so large that float64 sums overflow."""
    check_real("threshold", threshold)
    check_int("threads", threads)
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    means, counts, sq_sums = _slice_walk(a, b, threshold, threads)
    mse = _slice_mean(sq_sums, a.size)  # shared by psnr and mse, as each computes it
    return MetricsReport(
        psnr=_psnr_db(mse),
        ssim=100.0 * float(np.mean(means)),
        dice=_dice_percent(*counts),
        mse=mse,
        threshold=threshold,
    )
