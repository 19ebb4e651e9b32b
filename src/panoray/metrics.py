"""Volume quality metrics: PSNR, per-slice SSIM, Dice overlap and MSE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimsError
from .volume import DensityVolume

PSNR_CAP_DB = 99.0
DICE_THRESHOLD = 0.2
_SSIM_WINDOW = 7
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


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
    return v.data if isinstance(v, DensityVolume) else np.asarray(v, dtype=np.float64)


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimsError(f"volume dims differ: {a.shape} vs {b.shape}")


def volume_mse(a, b) -> float:
    """Mean squared voxel difference."""
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    return float(np.mean((a - b) ** 2))


def psnr(a, b, peak: float = 1.0, mask=None) -> float:
    """10*log10(peak^2 / MSE) in dB, capped at 99.0 (identical inputs).

    Raises ValueError when the MSE is not finite (NaN or infinite inputs)."""
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        _check_dims(a, mask)
        if not mask.any():
            raise ValueError("psnr mask selects no voxels")
        mse = float(np.mean((a[mask] - b[mask]) ** 2))
    else:
        mse = float(np.mean((a - b) ** 2))
    if not math.isfinite(mse):
        raise ValueError(f"psnr needs finite inputs, got MSE {mse}")
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * math.log10(peak * peak / mse))


def dice(a, b, threshold: float = DICE_THRESHOLD) -> float:
    """Overlap of the binarized volumes in percent; two empty sets agree (100)."""
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    fa = a > threshold
    fb = b > threshold
    na, nb = int(fa.sum()), int(fb.sum())
    if na == 0 and nb == 0:
        return 100.0
    return 200.0 * int((fa & fb).sum()) / (na + nb)


def _window_mean(x: np.ndarray, w: int) -> np.ndarray:
    """Valid-mode w x w moving average via an integral image."""
    c = np.cumsum(np.cumsum(x, axis=0), axis=1)
    c = np.pad(c, ((1, 0), (1, 0)))
    s = c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]
    return s / (w * w)


def ssim(a, b, peak: float = 1.0) -> float:
    """Mean structural similarity over axial slices, in percent.

    Uniform 7x7 window in valid mode, stabilizers k1=0.01 / k2=0.03 on the
    given dynamic range.
    """
    a, b = _data(a), _data(b)
    _check_dims(a, b)
    w = _SSIM_WINDOW
    if a.shape[1] < w or a.shape[2] < w:
        raise DimsError(
            f"axial slices {a.shape[1:]} are smaller than the {w}x{w} SSIM window"
        )
    c1 = (_SSIM_K1 * peak) ** 2
    c2 = (_SSIM_K2 * peak) ** 2
    slice_means = []
    for j in range(a.shape[0]):
        x, y = a[j], b[j]
        mx = _window_mean(x, w)
        my = _window_mean(y, w)
        vx = _window_mean(x * x, w) - mx * mx
        vy = _window_mean(y * y, w) - my * my
        cov = _window_mean(x * y, w) - mx * my
        num = (2.0 * mx * my + c1) * (2.0 * cov + c2)
        den = (mx * mx + my * my + c1) * (vx + vy + c2)
        slice_means.append(np.mean(num / den))
    return 100.0 * float(np.mean(slice_means))


def evaluate(a, b, threshold: float = DICE_THRESHOLD, peak: float = 1.0) -> MetricsReport:
    return MetricsReport(
        psnr=psnr(a, b, peak=peak),
        ssim=ssim(a, b, peak=peak),
        dice=dice(a, b, threshold=threshold),
        mse=volume_mse(a, b),
        threshold=threshold,
    )


def save_report(report: MetricsReport, path) -> None:
    """Machine-readable key=value dump, one entry per line."""
    with open(path, "w", encoding="ascii") as fh:
        for key in ("psnr", "ssim", "dice", "mse", "threshold"):
            fh.write(f"{key}={getattr(report, key):.17g}\n")
