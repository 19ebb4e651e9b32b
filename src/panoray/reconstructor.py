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
lying within _MIP_TIE_TOL of that column's maximum (a subgradient of the
max; identical to plain argmax routing when the maximum is isolated).
Routing to the argmax alone jams the descent once shaving flattens column
maxima into plateaus, so the band backs the practical convergence here.
Iterates stay inside the [0, 1] box of normalized densities and the step is
multiplied by _BACKTRACK, at most _MAX_HALVINGS times, until the loss
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
from ._pool import check_int, check_real
from .errors import DimsError
from .fan_operator import FanOperator, StateLayout
from .ray_geometry import RayFan
from .renderer import _MIP_AXES, RenderConfig, as_pixels
from .volume import DensityVolume, _write_output


# the line search and MIP band of the module docstring; read at call time,
# so that a test can patch them
_BACKTRACK = 0.5
_MAX_HALVINGS = 30
_MIP_TIE_TOL = 1e-3


@dataclass(frozen=True)
class ReconConfig:
    lambda1: float = 10.0
    max_iters: int = 200
    step_size: float = 1.0
    init: str = "rho"            # "rho" (back-projection) or "zeros"
    tol: float = 1e-7            # relative loss decrease to keep iterating
    beta: float = RenderConfig.beta

    def __post_init__(self):
        check_real("lambda1", self.lambda1, ">= 0")
        check_int("max_iters", self.max_iters)
        check_real("step_size", self.step_size, "> 0")
        if self.init not in ("rho", "zeros"):
            raise ValueError(f"init must be 'rho' or 'zeros', got {self.init!r}")
        check_real("beta", self.beta, "> 0")
        if math.isnan(self.tol):
            raise ValueError("tol must not be NaN")


@dataclass
class ReconReport:
    # rows of (iteration, total, mse_img, mse_mip, step)
    loss_history: list = field(default_factory=list)
    iterations_run: int = 0
    final_metrics: metrics.MetricsReport | None = None
    # why the loop ended: "zero_loss" (the loss reached exactly 0, also if
    # the last iteration's step reached it), "line_search" (no step of the
    # halving sequence lowered the loss), "tol" (relative decrease below
    # cfg.tol) or "max_iters"
    stop_reason: str | None = None

    def format_lines(self) -> list[str]:
        return [
            f"{it} {total:.17g} {mse_img:.17g} {mse_mip:.17g} {step:.17g}"
            for it, total, mse_img, mse_mip, step in self.loss_history
        ]


def save_report(report: ReconReport, path) -> None:
    # the first line stands in for a header: it is written last
    first, _, rest = ("\n".join(report.format_lines()) + "\n").partition("\n")
    _write_output(path, (first + "\n").encode("ascii"), [rest.encode("ascii")])


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
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{axis} MIP target must be finite")
        out[axis] = arr
    return out


# elements per BLAS dot in _dot: OpenBLAS runs a longer dot on its own
# thread pool, whose wake-up cost several ms per dot on a 2-vCPU host, and
# rounds it by that pool's size
_DOT_CHUNK = 8192
# the solver's state dtype (see reconstruct)
_STATE_DTYPE = np.float32
# where each MIP axis lies in a state volume viewed as (ny, nx, nz)
_STATE_AXES = {"axial": 2, "coronal": 0, "sagittal": 1}


def _state_layout(op: FanOperator, mips: dict) -> StateLayout:
    """The state layout a solve and the public loss and gradient run in: the
    crossed voxels, the only ones the data term reads or moves (A's columns
    of the others are empty), or every voxel when MIP targets are given,
    since their projections read any voxel and their tie band can move
    it."""
    return op.full if mips else op.crossed


def _in_state_order(axis: str, arr: np.ndarray) -> np.ndarray:
    """A projection-shaped array in the axis order of a state volume viewed
    as (ny, nx, nz): axial (ny, nx) as it is, coronal (nx, nz) and sagittal
    (ny, nz) transposed."""
    return arr if axis == "axial" else arr.T


def _projections(lay: StateLayout, state: np.ndarray, axes) -> dict:
    """Maximum intensity projections of the volume held in the full layout
    lay, C-contiguous in slice-major shape and of the state's dtype: axial
    (ny, nx), coronal (nz, nx), sagittal (nz, ny); none without axes, in
    any layout. Maxima are exact, so they equal those of the slice-major
    volume."""
    if not axes:
        return {}
    nx, ny = lay.bounds
    view = state.reshape(ny, nx, state.shape[1])
    return {axis: np.ascontiguousarray(
        _in_state_order(axis, view.max(axis=_STATE_AXES[axis]))) for axis in axes}


def _mip_term(lay, state, grad, axis, proj, r, tie_tol, band) -> np.ndarray:
    """grad += the MIP term of one axis, on volumes of one dtype held in
    the full layout lay: each projected residual r is shared equally across
    the voxels within tie_tol of their column's maximum proj. The threshold
    and each share are rounded to that dtype, so nothing is compared or
    added in another. Returns the int64 tie counts, shaped like proj. band
    is a bool state-layout workspace that holds the tie band, counted
    through its uint8 view, into int32 (a column holds far fewer than 2**31
    voxels), which is cheaper than summing bools."""
    k = _STATE_AXES[axis]
    nx, ny = lay.bounds
    b, t, g = (a.reshape(ny, nx, state.shape[1]) for a in (state, band, grad))
    floor = (proj - tie_tol).astype(state.dtype)
    np.greater_equal(b, np.expand_dims(_in_state_order(axis, floor), k), out=t)
    counts = np.add.reduce(t.view(np.uint8), axis=k, dtype=np.int32).astype(np.int64)
    counts = _in_state_order(axis, counts)
    share = (r / counts).astype(grad.dtype)
    np.add(g, np.expand_dims(_in_state_order(axis, share), k), out=g, where=t)
    return counts


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two arrays of one dtype and shape: the sum of the dots of
    their consecutive _DOT_CHUNK-element chunks, and of the rest last; each
    of these is a BLAS dot in the arrays' dtype, and their sums are
    float64."""
    x, y = a.reshape(-1), b.reshape(-1)
    n = len(x) - len(x) % _DOT_CHUNK
    # one BLAS dot per chunk, in one batched call
    parts = np.matmul(x[:n].reshape(-1, 1, _DOT_CHUNK), y[:n].reshape(-1, _DOT_CHUNK, 1))
    return float(np.sum(parts, dtype=np.float64)) + float(x[n:] @ y[n:])


def _loss_terms(lay, state, y, mips, fan, beta, lambda1):
    """total, mse_img, mse_mip, and the predicted image and MIP projections
    of the estimate held in the state layout lay, which _gradient can reuse
    at the same estimate."""
    pred = -np.expm1(-beta * fan.delta * lay.forward_state(state))
    mse_img = float(np.sum((pred - y) ** 2))
    mse_mip = 0.0
    projs = _projections(lay, state, mips)
    for axis, tgt in mips.items():
        mse_mip += float(np.sum((projs[axis] - tgt) ** 2))
    return mse_img + lambda1 * mse_mip, mse_img, mse_mip, pred, projs


def _prepare(est, target_img, target_mips, fan):
    """The state layout of a solve with these MIP targets (see
    _state_layout), the estimate in it, widened to float64 whatever its
    dtype, the target's pixels and the MIP targets, checked against each
    other and the fan. ValueError for a NaN or infinite density; any finite
    one is taken."""
    est_data = np.asarray(est.data if isinstance(est, DensityVolume) else est, np.float64)
    nz, ny, nx = est_data.shape
    fan.check_grid(nx, ny)
    y = as_pixels(target_img, fan.n_rays, nz)
    mips = _check_mips(target_mips, est_data.shape)
    if not np.all(np.isfinite(est_data)):
        raise ValueError("estimate densities must be finite")
    lay = _state_layout(fan.operator(), mips)
    return lay, lay.to_state(est_data), y, mips


def loss(est, target_img, target_mips, fan: RayFan, cfg: ReconConfig):
    """Total objective and its (mse_img, mse_mip) components, in float64 and
    in the state layout a solve with these MIP targets runs in."""
    lay, state, y, mips = _prepare(est, target_img, target_mips, fan)
    total, mse_img, mse_mip, _, _ = _loss_terms(lay, state, y, mips, fan, cfg.beta,
                                                cfg.lambda1)
    return total, (mse_img, mse_mip)


def _gradient(lay, state, y, mips, fan, beta, lambda1, pred, projs,
              out=None, band=None):
    """Gradient at the estimate held in the state layout lay, in that
    layout and the state's dtype (into out if given); pred and projs are
    the predicted image and the MIP projections of this same estimate, as
    _loss_terms returns them. band is a bool state-layout workspace for the
    MIP term, allocated here if None."""
    resid = pred - y
    transmit = 1.0 - pred
    coeff = 2.0 * beta * fan.delta * resid * transmit
    grad = lay.adjoint_state(coeff, lay.buffer(len(y), state.dtype) if out is None else out)
    if mips and band is None:
        band = np.empty(state.shape, dtype=bool)
    for axis, tgt in mips.items():
        r = 2.0 * lambda1 * (projs[axis] - tgt)
        _mip_term(lay, state, grad, axis, projs[axis], r, _MIP_TIE_TOL, band)
    return grad


def gradient(est, target_img, target_mips, fan: RayFan, cfg: ReconConfig) -> np.ndarray:
    """d(total)/d(sigma) at every voxel, computed as loss is: 0 off the
    support of its state layout, where no term moves a voxel."""
    lay, state, y, mips = _prepare(est, target_img, target_mips, fan)
    _, _, _, pred, projs = _loss_terms(lay, state, y, mips, fan, cfg.beta, cfg.lambda1)
    grad = _gradient(lay, state, y, mips, fan, cfg.beta, cfg.lambda1, pred, projs)
    return lay.from_state(grad)


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
    threads, an integer >= 1, caps the workers of the final SSIM (see
    metrics.ssim); the result is the same at any thread count. The
    projections, the back-projection and the solver's whole-volume
    arithmetic run on the calling thread. The solver holds its volumes as
    float32 in one of the operator's state layouts, each one (size, nz)
    array that the projections read and write whole: the crossed voxels
    only, unless MIP targets are given (see _state_layout). Without MIP
    targets no other voxel gets a gradient, so every voxel no ray crosses
    ends at exactly 0. The result is turned slice-major once, at the end,
    and stays float32, as every volume the package makes; the step's two
    dots are summed in fixed chunks (_dot). Densities lie
    in [0, 1] and results are stored as float32, so the state holds them
    at the precision they are stored with; the loss, the line sums and the
    step are float64, and the public loss and gradient stay float64
    throughout.
    """
    check_int("threads", threads)
    y = as_pixels(target_img, fan.n_rays)
    nx, ny = fan.bounds
    dims = (y.shape[0], ny, nx)
    if ground_truth is not None:
        # before any work: metrics.evaluate would check it after the solve
        truth_dims = (ground_truth.dims if isinstance(ground_truth, DensityVolume)
                      else np.shape(ground_truth))
        if truth_dims != dims:
            raise DimsError(f"truth volume dims {truth_dims} do not match the "
                            f"reconstruction dims {dims}")
    mips = _check_mips(target_mips, dims)
    lay = _state_layout(fan.operator(), mips)

    # Workspace: four float32 volumes in the state layout lay (see
    # fan_operator): the iterate x, trial, and two gradient buffers. At
    # 128 x 256 x 256 on the default fan each holds the 40.9% of the voxels
    # that rays cross, about 13.1 MiB, and the full 32 MiB only with MIP
    # targets. Held that way, every forward gathers straight from x or
    # trial and every adjoint writes straight into a gradient buffer, with
    # no layout copy; all other arithmetic is elementwise, in any layout,
    # and stays in float32 (a Python float step does not widen it). The
    # spectral step needs only s = x_new - x_old and the gradient change
    # g_new - g_old (s_k and y_k in Nocedal & Wright, section 6.1), so the
    # previous iterate and gradient are not kept beside them:
    # - at acceptance the old iterate's buffer receives s and trades places
    #   with trial, so trial holds s until the next spectral step has used
    #   it and then takes that iteration's line-search trials;
    # - the new gradient goes to the free gradient buffer and the gradient
    #   change is written over the older one, which then receives the
    #   gradient after that.
    # Whole-volume arithmetic writes into these buffers, because a fresh
    # temporary of their size costs page faults and an munmap each time.
    # With MIP targets a bool volume holds each axis's tie band in turn.
    if cfg.init == "zeros":
        x = lay.buffer(dims[0], _STATE_DTYPE)
    else:
        x = backproject._rho_state(lay, backproject.image_candidates(y, fan, cfg.beta))
    band = np.empty(x.shape, dtype=bool) if mips else None

    report = ReconReport()
    total, mse_img, mse_mip, pred, projs = _loss_terms(
        lay, x, y, mips, fan, cfg.beta, cfg.lambda1
    )
    if not np.isfinite(total):
        raise RuntimeError(f"non-finite loss at initialization: {total}")
    report.loss_history.append((0, total, mse_img, mse_mip, 0.0))

    trial = lay.buffer(dims[0], _STATE_DTYPE)
    s = None  # the buffer holding s, once an iterate is accepted
    grad = older = None
    step = float(cfg.step_size)  # a Python float: float32 * step stays float32
    for it in range(1, cfg.max_iters + 1):
        if total == 0.0:
            report.stop_reason = "zero_loss"
            break
        older, grad = grad, _gradient(
            lay, x, y, mips, fan, cfg.beta, cfg.lambda1, pred=pred, projs=projs,
            out=older, band=band,
        )
        if s is not None:
            # spectral step guess from the last accepted move, safeguarded;
            # the backtracking below keeps the iteration monotone regardless
            curv = _dot(s, np.subtract(grad, older, out=older))
            if curv > 1e-30:
                step = min(1e6, max(1e-12, _dot(s, s) / curv))
            else:
                step = min(1e6, 2.0 * step)
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            # trial = clip(x - step * grad, 0, 1)
            np.multiply(grad, step, out=trial)
            np.subtract(x, trial, out=trial)
            np.clip(trial, 0.0, 1.0, out=trial)
            t_total, t_img, t_mip, t_pred, t_projs = _loss_terms(
                lay, trial, y, mips, fan, cfg.beta, cfg.lambda1
            )
            if not np.isfinite(t_total):
                raise RuntimeError(f"non-finite loss during line search: {t_total}")
            if t_total < total:
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            report.stop_reason = "line_search"
            break
        rel_drop = (total - t_total) / total
        np.subtract(trial, x, out=x)
        x, trial = trial, x
        s = trial
        total, mse_img, mse_mip, pred, projs = t_total, t_img, t_mip, t_pred, t_projs
        report.loss_history.append((it, total, mse_img, mse_mip, step))
        report.iterations_run = it
        if rel_drop < cfg.tol:
            report.stop_reason = "tol"
            break
    else:
        # the last accepted step may itself have reached an exact fit
        report.stop_reason = "zero_loss" if total == 0.0 else "max_iters"
    del s, grad, older, band

    del trial
    # back to slice-major once; every iterate is clipped to [0, 1]
    result = DensityVolume._unchecked(lay.from_state(x))
    del x
    if ground_truth is not None:
        report.final_metrics = metrics.evaluate(result, ground_truth, threads=threads)
    return result, report
