"""Volume quality metrics: PSNR, per-slice SSIM, Dice overlap and MSE.

PSNR and SSIM score normalized densities, whose dynamic range is [0, 1].
Every metric reads its volumes through one walk that scores one axial slice
pair at a time in float64, so none makes a whole-volume temporary. SSIM's
window sums run as shifted adds over whole rows, the horizontal ones along
the flattened rows, and a slice pair whose values are all +-0 scores exactly
1 with no window arithmetic; both give the values of the plain 2D-view
computation bit for bit."""

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


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a's and b's values (see _data); DimsError unless of one shape with voxels."""
    a, b = _data(a), _data(b)
    if a.shape != b.shape:
        raise DimsError(f"volume dims differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise DimsError(f"volumes of dims {a.shape} hold no voxels")
    return a, b


def _no_overflow(value):
    """value; ValueError unless it is finite. Float64 arithmetic on finite
    values can overflow: squares do past about 1e154."""
    if not math.isfinite(value):
        raise ValueError("metrics overflow float64 on values this large")
    return value


def _slice_mean(sq_sums, size: int) -> float:
    """The mean squared difference from _slice_walk's per-pair sums: the sums
    added in order, then divided by the voxel count."""
    # a plain loop, not sum(), which compensates its float sums on Python 3.12+
    total = 0.0
    for s in sq_sums:
        total += s
    return _no_overflow(total) / size


def volume_mse(a, b) -> float:
    """Mean squared voxel difference."""
    a, b = _pair(a, b)
    _, sq_sums, _ = _slice_walk(a, b, DICE_THRESHOLD, 1)
    return _slice_mean(sq_sums, a.size)


def _psnr_db(mse: float) -> float:
    """PSNR in dB of a finite MSE (as _slice_mean returns)."""
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(1.0 / mse))


def psnr(a, b, *, mask=None) -> float:
    """10*log10(1 / MSE) in dB, the peak being 1, the top of the normalized
    density range; capped at 99.0 (identical inputs). The MSE is volume_mse's,
    taken over the voxels a mask selects when one is given: each slice
    pair's selected squared differences are summed on their own, so an
    all-True mask gives the unmasked value bit for bit.

    Raises ValueError when a scored value is NaN or infinite, or when its
    squared differences overflow."""
    a, b = _pair(a, b)
    size = a.size
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise DimsError(f"mask dims {mask.shape} differ from volume dims {a.shape}")
        size = np.count_nonzero(mask)
        if not size:
            raise ValueError("psnr mask selects no voxels")
    _, sq_sums, _ = _slice_walk(a, b, DICE_THRESHOLD, 1, mask=mask)
    return _psnr_db(_slice_mean(sq_sums, size))


def dice(a, b, threshold: float = DICE_THRESHOLD) -> float:
    """Overlap of the binarized volumes in percent; two empty sets agree (100)."""
    check_real("threshold", threshold)
    a, b = _pair(a, b)
    counts, _, _ = _slice_walk(a, b, threshold, 1)
    return _dice_percent(*counts)


def _dice_percent(na: int, nb: int, both: int) -> float:
    """Dice in percent from the voxel counts above the threshold in a, in b
    and in both."""
    if na == 0 and nb == 0:
        return 100.0
    return 200.0 * both / (na + nb)


def _window_sums(x: np.ndarray, w: int, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Valid-mode w x w moving sums of the 2D x into the first nx - w + 1
    columns of out, through rows; both buffers are C-contiguous and of shape
    (ny - w + 1, nx). w - 1 shifted adds of whole rows run down the columns,
    then w - 1 shifted adds along the flattened rows. Each of out's last
    w - 1 columns wraps into the next row (the very last w - 1 values are
    left unwritten): junk that no caller reads. Every valid sum adds the
    same values in the same order as shifted 2D column views would."""
    n = rows.shape[0]
    np.add(x[0:n], x[1:n + 1], out=rows)
    for k in range(2, w):
        rows += x[k:k + n]
    flat = rows.reshape(-1)
    m = flat.size - (w - 1)
    sums = out.reshape(-1)[:m]
    np.add(flat[0:m], flat[1:m + 1], out=sums)
    for k in range(2, w):
        sums += flat[k:k + m]
    return out


def ssim(a, b, *, threads: int = 1) -> float:
    """Mean structural similarity over the axial slices of 3D volumes, in percent.

    Uniform 7x7 window in valid mode, stabilizers k1=0.01 / k2=0.03 on the
    dynamic range 1 of normalized densities. Slices run on up to `threads`
    workers (see _pool); the value is the same at any thread count.
    """
    a, b = _pair(a, b)
    _, _, means = _slice_walk(a, b, DICE_THRESHOLD, threads, with_ssim=True)
    return 100.0 * float(np.mean(means))


def _slice_ssim(x, y, prod, rows, means, num, den) -> float:
    """The mean SSIM of the float64 slice pair x, y through the buffers: prod
    of the slice's shape; rows, the five window means, num and den of shape
    (ny - w + 1, nx), as _window_sums fills them. The arithmetic runs on
    whole rows, wrapped junk columns included (they may overflow, so the
    caller ignores float errors); the mean is over a contiguous copy of the
    valid windows, since a strided view would sum them in another order.
    The five means are kept apart so that ssim(v, v) is exactly 100."""
    w = _SSIM_WINDOW
    mx, my, vx, vy, cov = means
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
    n, m = num.shape[0], num.shape[1] - (w - 1)
    valid = den.reshape(-1)[:n * m].reshape(n, m)
    np.copyto(valid, num[:, :m])
    return _no_overflow(np.mean(valid))


def _slice_walk(a, b, threshold, threads, with_ssim=False, mask=None):
    """The one read of a's and b's values: one pass on up to `threads`
    workers over their axial slice pairs (any other shape than 3D, such as a
    2D image, is one pair), each read as float64. Returns Dice's voxel
    counts (above threshold in a, in b, in both) summed over the pairs,
    which as integers equal whole-volume counts; the pairs' sums of squared
    differences in order, over the voxels that the bool array mask, of a's
    shape, selects if given; and, with_ssim, the slices' SSIM means in order
    (else Nones).

    ValueError for a NaN or infinite value (with a mask, a selected one),
    before any SSIM arithmetic on its pair, and for an SSIM mean that
    overflows; with_ssim, DimsError unless a is 3D with axial slices at
    least the SSIM window wide."""
    w = _SSIM_WINDOW
    if with_ssim and (a.ndim != 3 or min(a.shape[1:]) < w):
        raise DimsError(f"SSIM scores 3D volumes whose axial slices hold its {w}x{w} "
                        f"window, got dims {a.shape}")
    if a.ndim != 3:
        a, b = a[np.newaxis], b[np.newaxis]
        if mask is not None:
            mask = mask[np.newaxis]
    shape = a.shape[1:]

    # buffers allocated once per worker keep a pair's working set in cache.
    # A float32 slice is widened into one first: ufuncs on float32 compute in
    # float32, even into a float64 output, and compare to a rounded threshold
    def buffers():
        wide = [None if v.dtype == np.float64 else np.empty(shape) for v in (a, b)]
        window = None
        if with_ssim:
            ny, nx = shape
            means = np.empty((5, ny - w + 1, nx))
            window = (np.empty((ny - w + 1, nx)), means,
                      np.empty_like(means[0]), np.empty_like(means[0]))
        return (np.empty(shape), np.empty(shape, dtype=bool),
                np.empty(shape, dtype=bool), *wide, window)

    # squares, SSIM's products and window sums of finite values past about
    # 1e154 overflow, with no warning here: _slice_mean and _slice_ssim
    # reject the overflowed sum or mean. SSIM's junk columns may overflow
    # too, and are never read
    @np.errstate(all="ignore")
    def slice_pair(j, bufs):
        prod, above_a, above_b, wide_a, wide_b, window = bufs
        x, y = a[j], b[j]
        if wide_a is not None:
            np.copyto(wide_a, x)
            x = wide_a
        if wide_b is not None:
            np.copyto(wide_b, y)
            y = wide_b
        np.subtract(x, y, out=prod)
        prod *= prod
        # the slice's selected values, in its order: a selection of every
        # voxel sums as the whole slice does
        sel = slice(None) if mask is None else mask[j]
        sq_sum = float(prod[sel].sum())
        # a NaN or infinity makes the sum NaN or inf; so does an overflow,
        # which _slice_mean rejects on its own
        if not (math.isfinite(sq_sum) or np.isfinite(x[sel]).all()
                and np.isfinite(y[sel]).all()):
            raise ValueError("metrics need finite values, got NaN or infinity")
        np.greater(x, threshold, out=above_a)
        np.greater(y, threshold, out=above_b)
        counts = (np.count_nonzero(above_a), np.count_nonzero(above_b),
                  np.count_nonzero(np.logical_and(above_a, above_b, out=above_a)))
        if window is None:
            mean = None
        elif sq_sum == 0.0 and not (x.any() or y.any()):
            # every window sum of a pair of zeros is 0, so every window's
            # num and den are the same rounded c1 c2: SSIM is exactly 1
            mean = 1.0
        else:
            mean = _slice_ssim(x, y, prod, *window)
        return counts, sq_sum, mean

    counts, sq_sums, means = zip(*run_blocks(slice_pair, range(len(a)), threads, buffers))
    return [int(sum(c)) for c in zip(*counts)], sq_sums, means


def evaluate(a, b, threshold: float = DICE_THRESHOLD, *,
             threads: int = 1) -> MetricsReport:
    """PSNR, SSIM, Dice and MSE of a against b; threads as for ssim.

    The values are those psnr, ssim, dice and volume_mse give, from one walk
    over the axial slice pairs. ValueError for a NaN or infinite value, and
    for values so large that float64 sums overflow."""
    check_real("threshold", threshold)
    check_int("threads", threads)
    a, b = _pair(a, b)
    counts, sq_sums, means = _slice_walk(a, b, threshold, threads, with_ssim=True)
    mse = _slice_mean(sq_sums, a.size)  # shared by psnr and mse, as each computes it
    return MetricsReport(
        psnr=_psnr_db(mse),
        ssim=100.0 * float(np.mean(means)),
        dice=_dice_percent(*counts),
        mse=mse,
        threshold=threshold,
    )
