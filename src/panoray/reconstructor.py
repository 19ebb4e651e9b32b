"""Volume recovery from a SimPX image by projected gradient descent.

The objective is data fidelity in image space through the same forward
model that produced the target, optionally plus a weighted projection term
comparing maximum intensity projections against supplied target MIPs:

    total = sum((render(est) - target)^2)
          + lambda1 * sum over axes sum((mip(est) - target_mip)^2)

The gradient of the data term is the exact adjoint of the renderer: a pixel
with transmittance T and residual r contributes 2 * r * T * beta * delta to
every density sample on its ray, scattered through the transposed bilinear
weights (the transpose of the fan's system matrix, see fan_operator). The
MIP term splits each projected pixel's residual equally across the voxels
lying within mip_tie_tol of that column's maximum (a subgradient of the
max; identical to plain argmax routing when the maximum is isolated).
Routing to the argmax alone jams the descent once shaving flattens column
maxima into plateaus, so the band backs the practical convergence here.
Iterates stay inside the [0, 1] box and the step is halved until the loss
decreases, so the loss history is monotone. Each line search starts from a
safeguarded spectral (Barzilai-Borwein) guess, which is what lets the
ill-conditioned tomographic modes converge within a practical iteration
budget; step_size caps the very first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backproject, metrics
from .errors import DimsError
from .fan_operator import FanOperator
from .ray_geometry import RayFan
from .renderer import _MIP_AXES, as_pixels
from .volume import DensityVolume, _as_f32_grid

MIP_AXES = ("axial", "coronal", "sagittal")


@dataclass(frozen=True)
class ReconConfig:
    lambda1: float = 10.0
    max_iters: int = 200
    step_size: float = 1.0
    backtrack_factor: float = 0.5
    max_halvings: int = 30
    init: str = "rho"            # "rho" (back-projection) or "zeros"
    tol: float = 1e-7            # relative loss decrease to keep iterating
    beta: float = 0.02
    clamp: tuple[float, float] = (0.0, 1.0)
    mip_tie_tol: float = 1e-3    # width of the shared-maximum band

    def __post_init__(self):
        if self.lambda1 < 0:
            raise ValueError(f"lambda1 must be >= 0, got {self.lambda1}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.step_size <= 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not 0 < self.backtrack_factor < 1:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if self.max_halvings < 0:
            raise ValueError(f"max_halvings must be >= 0, got {self.max_halvings}")
        lo, hi = self.clamp
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"clamp must be finite with lo < hi, got {self.clamp}")
        if self.init not in ("rho", "zeros"):
            raise ValueError(f"init must be 'rho' or 'zeros', got {self.init!r}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.mip_tie_tol < 0:
            raise ValueError(f"mip_tie_tol must be >= 0, got {self.mip_tie_tol}")


@dataclass
class ReconReport:
    # rows of (iteration, total, mse_img, mse_mip, step)
    loss_history: list = field(default_factory=list)
    iterations_run: int = 0
    final_metrics: metrics.MetricsReport | None = None

    def format_lines(self) -> list[str]:
        return [
            f"{it} {total:.17g} {mse_img:.17g} {mse_mip:.17g} {step:.17g}"
            for it, total, mse_img, mse_mip, step in self.loss_history
        ]


def save_report(report: ReconReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(report.format_lines()) + "\n")


def _check_mips(target_mips, dims) -> dict:
    if target_mips is None:
        return {}
    nz, ny, nx = dims
    want = {"axial": (ny, nx), "coronal": (nz, nx), "sagittal": (nz, ny)}
    out = {}
    for axis, arr in dict(target_mips).items():
        if axis not in _MIP_AXES:
            raise ValueError(f"unknown MIP axis {axis!r}")
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != want[axis]:
            raise DimsError(
                f"{axis} MIP target has shape {arr.shape}, expected {want[axis]}"
            )
        out[axis] = arr
    return out


def _opacity(est: np.ndarray, op: FanOperator, beta: float, delta: float) -> np.ndarray:
    """Opacity image of the current estimate, all slices of est."""
    return -np.expm1(-beta * delta * op.forward(est))


def _loss_terms(est, y, mips, fan, beta, lambda1):
    pred = _opacity(est, fan.operator(), beta, fan.delta)
    mse_img = float(np.sum((pred - y) ** 2))
    mse_mip = 0.0
    for axis, tgt in mips.items():
        proj = est.max(axis=_MIP_AXES[axis])
        mse_mip += float(np.sum((proj - tgt) ** 2))
    return mse_img + lambda1 * mse_mip, mse_img, mse_mip, pred


def _prepare(est, target_img, target_mips, fan):
    """The estimate's data, the target's pixels and the MIP targets, checked
    against each other and the fan."""
    est_data = est.data if isinstance(est, DensityVolume) else np.asarray(est, np.float64)
    nz, ny, nx = est_data.shape
    fan.check_grid(nx, ny)
    y = as_pixels(target_img, fan.n_rays, nz)
    return est_data, y, _check_mips(target_mips, est_data.shape)


def loss(est, target_img, target_mips, fan: RayFan, cfg: ReconConfig):
    """Total objective and its (mse_img, mse_mip) components."""
    est_data, y, mips = _prepare(est, target_img, target_mips, fan)
    total, mse_img, mse_mip, _ = _loss_terms(est_data, y, mips, fan, cfg.beta, cfg.lambda1)
    return total, (mse_img, mse_mip)


def _gradient(est, y, mips, fan, beta, lambda1, pred=None, tie_tol: float = 1e-3,
              out=None):
    op = fan.operator()
    if pred is None:
        pred = _opacity(est, op, beta, fan.delta)
    resid = pred - y
    transmit = 1.0 - pred
    coeff = 2.0 * beta * fan.delta * resid * transmit
    grad = op.adjoint(coeff, out=out)

    for axis, tgt in mips.items():
        ax = _MIP_AXES[axis]
        proj = est.max(axis=ax)
        r = 2.0 * lambda1 * (proj - tgt)
        # share each projected residual across the band of (near-)maximizers
        tie = est >= np.expand_dims(proj - tie_tol, ax)
        share = np.expand_dims(r / tie.sum(axis=ax), ax)
        np.add(grad, share, out=grad, where=tie)
    return grad


def gradient(est, target_img, target_mips, fan: RayFan, cfg: ReconConfig) -> np.ndarray:
    """d(total)/d(sigma) at every voxel."""
    est_data, y, mips = _prepare(est, target_img, target_mips, fan)
    return _gradient(est_data, y, mips, fan, cfg.beta, cfg.lambda1, tie_tol=cfg.mip_tie_tol)


def reconstruct(
    target_img,
    fan: RayFan,
    cfg: ReconConfig,
    ground_truth: DensityVolume | None = None,
    target_mips=None,
    threads: int = 1,
) -> tuple[DensityVolume, ReconReport]:
    """Projected gradient descent with backtracking line search.

    Returns the recovered volume (dims: target height x fan grid) and a
    report with one loss row per accepted iterate, monotone by construction.
    threads is still accepted for compatibility but has no effect: there is
    one code path, so results are deterministic.
    """
    y = as_pixels(target_img, fan.n_rays)
    nx, ny = fan.bounds
    dims = (y.shape[0], ny, nx)
    mips = _check_mips(target_mips, dims)
    lo, hi = cfg.clamp

    if cfg.init == "zeros":
        x = np.zeros(dims, dtype=np.float64)
    else:
        cands = backproject.image_candidates(y, fan, cfg.beta)
        x = backproject.aggregate_rho(fan, cands, dims).rho
        np.clip(x, lo, hi, out=x)

    report = ReconReport()
    total, mse_img, mse_mip, pred = _loss_terms(x, y, mips, fan, cfg.beta, cfg.lambda1)
    if not np.isfinite(total):
        raise RuntimeError(f"non-finite loss at initialization: {total}")
    report.loss_history.append((0, total, mse_img, mse_mip, 0.0))

    # Workspace: a float64 volume at 128 x 256 x 256 is 64 MB, past the
    # allocator's mmap threshold, so a fresh temporary costs page faults and
    # an munmap each time. Whole-volume arithmetic writes into these buffers
    # instead, and accepted iterates rotate buffers by reference. x is always
    # solver-owned (zeros, rho or a former trial), never the caller's data.
    trial = np.empty_like(x)
    scratch = np.empty_like(x)
    step = cfg.step_size
    prev_x = prev_grad = spare_grad = None
    for it in range(1, cfg.max_iters + 1):
        if total == 0.0:
            break
        grad = _gradient(
            x, y, mips, fan, cfg.beta, cfg.lambda1, pred=pred, tie_tol=cfg.mip_tie_tol,
            out=spare_grad,
        )
        if prev_x is None:
            step = cfg.step_size
        else:
            # spectral step guess from the last accepted move, safeguarded;
            # the backtracking below keeps the iteration monotone regardless.
            # trial is free until the line search, so it holds dg.
            dx = np.subtract(x, prev_x, out=scratch).ravel()
            dg = np.subtract(grad, prev_grad, out=trial).ravel()
            curv = float(dx @ dg)
            if curv > 1e-30:
                step = min(1e6, max(1e-12, float(dx @ dx) / curv))
            else:
                step = min(1e6, 2.0 * step)
        accepted = False
        for _ in range(cfg.max_halvings + 1):
            # trial = clip(x - step * grad, lo, hi)
            np.multiply(grad, step, out=trial)
            np.subtract(x, trial, out=trial)
            np.clip(trial, lo, hi, out=trial)
            t_total, t_img, t_mip, t_pred = _loss_terms(
                trial, y, mips, fan, cfg.beta, cfg.lambda1
            )
            if not np.isfinite(t_total):
                raise RuntimeError(f"non-finite loss during line search: {t_total}")
            if t_total < total:
                accepted = True
                break
            step *= cfg.backtrack_factor
        if not accepted:
            break
        rel_drop = (total - t_total) / total
        # prev_x (the iterate before last) is no longer needed, so its buffer
        # takes the next trial; prev_grad's buffer takes the next gradient
        free_x = prev_x if prev_x is not None else np.empty_like(x)
        prev_x, x, trial = x, trial, free_x
        spare_grad, prev_grad = prev_grad, grad
        total, mse_img, mse_mip, pred = t_total, t_img, t_mip, t_pred
        report.loss_history.append((it, total, mse_img, mse_mip, step))
        report.iterations_run = it
        if rel_drop < cfg.tol:
            break

    result = DensityVolume(_as_f32_grid(np.clip(x, 0.0, 1.0, out=x)))
    if ground_truth is not None:
        report.final_metrics = metrics.evaluate(result, ground_truth)
    return result, report
