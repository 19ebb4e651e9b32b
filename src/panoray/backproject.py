"""Ray-crossing structure and intermediate-density aggregation.

For every voxel, B(x) is the set of image pixels whose ray touches the voxel
(a ray touches a voxel when the bilinear footprint of any of its retained
sample points gives that voxel nonzero weight; several samples of one ray in
the same voxel count once). |B(x)| is the sampling density of the fan, and
rho averages per-pixel density candidates over B(x), so sparsely sampled
voxels weight each contributing pixel more.

Because the fan is shared by all axial slices, the crossing structure is a
2D pattern replicated along z, and pixel (j, i) only touches voxels of
slice j. That pattern is the nonzero pattern of the fan's trilinear system
matrix: |B(x)| is its per-voxel entry count, and rho is its pattern applied
transposed to the candidates, divided by the counts raised to 1. That is
one rule, _rho_state, shared by aggregate_rho and the solver's rho start:
float32 means of float32-rounded candidates, by ray_mean_state in a state
layout (the same bits in either; see fan_operator), in [0, 1] unclipped.
Each mean lies within |B(x)| float32 ulp of the float64 mean, as float32
sums of [0, 1] values round, so a constant image comes back to a few ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import check_real, check_sizes
from .errors import DimsError
from .ray_geometry import RayFan
from .renderer import as_pixels


@dataclass(frozen=True)
class BackProjectionMap:
    counts: np.ndarray  # (nz, ny, nx) int64, |B(x)| per voxel
    rho: np.ndarray     # (nz, ny, nx) float32, 0 where counts == 0

    @classmethod
    def _unchecked(cls, counts, rho) -> BackProjectionMap:
        """A map whose invariants hold by construction: skips __post_init__."""
        bmap = object.__new__(cls)
        bmap.__dict__.update(counts=counts, rho=rho)
        return bmap

    def __post_init__(self):
        if self.counts.shape != self.rho.shape:
            raise DimsError(
                f"counts shape {self.counts.shape} != rho shape {self.rho.shape}"
            )
        if self.counts.min() < 0:
            raise ValueError("crossing counts must be >= 0")
        if not np.all(np.isfinite(self.rho)):
            raise ValueError("rho contains non-finite values")
        if np.any(self.rho[self.counts == 0] != 0.0):
            raise ValueError("rho must be 0 wherever counts == 0")


def crossing_counts(fan: RayFan, dims) -> np.ndarray:
    """|B(x)| on an (nz, ny, nx) grid. Identical across axial slices."""
    nz, ny, nx = check_sizes("dims", dims, 3)
    fan.check_grid(nx, ny)
    return np.broadcast_to(fan.operator().counts, (nz, ny, nx)).copy()


def aggregate_rho(fan: RayFan, candidates: np.ndarray, dims) -> BackProjectionMap:
    """Mean of per-pixel candidate densities over each voxel's crossing set.

    candidates has one value per image pixel, shape (nz, n_rays): row j holds
    the candidates of slice j's pixels, each in [0, 1] as image_candidates
    returns them, and checked before they are rounded to float32. rho is
    float32, within |B(x)| ulp of the float64 mean (see the module doc).
    """
    nz, ny, nx = check_sizes("dims", dims, 3)
    fan.check_grid(nx, ny)
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.shape != (nz, fan.n_rays):
        raise DimsError(
            f"need one candidate per pixel, shape ({nz}, {fan.n_rays}), got {candidates.shape}"
        )
    # written so that NaN (which fails every comparison) is rejected too
    if candidates.size and not (candidates.min() >= 0.0 and candidates.max() <= 1.0):
        raise ValueError("candidates must be finite and lie in [0, 1]")

    op = fan.operator()
    # rho is 0 where no ray crosses: the map's invariants hold by
    # construction. counts is a read-only view, the same in every slice
    rho = op.crossed.from_state(_rho_state(op.crossed, candidates))
    return BackProjectionMap._unchecked(np.broadcast_to(op.counts, (nz, ny, nx)), rho)


def _rho_state(lay, candidates: np.ndarray) -> np.ndarray:
    """rho as a new float32 volume in the state layout lay (module doc)."""
    return lay.ray_mean_state(candidates.astype(np.float32))


def image_candidates(image_pixels: np.ndarray, fan: RayFan, beta: float) -> np.ndarray:
    """Per-pixel density candidates of a whole image: a SimPXImage, or an
    (h, n_rays) array checked by the same rule (see renderer.as_pixels).

    A pixel's candidate is the density that would reproduce its opacity if
    spread uniformly along its ray's n retained samples: it solves
    1 - exp(-beta * sigma * n * delta) = pixel, clamped to [0, 1]. Pixels of
    rays that never enter the grid get candidate 0 (they also have no
    footprint, so the value is never aggregated).
    """
    check_real("beta", beta, "> 0")
    px = as_pixels(image_pixels, fan.n_rays)
    n = fan.sample_counts.astype(np.float64)
    denom = beta * np.maximum(n, 1.0) * fan.delta
    sigma = -np.log1p(-px) / denom[None, :]
    sigma[:, n == 0] = 0.0
    return np.clip(sigma, 0.0, 1.0)
