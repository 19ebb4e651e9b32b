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
transposed to the candidates, divided by the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimsError
from .ray_geometry import RayFan


@dataclass(frozen=True)
class BackProjectionMap:
    counts: np.ndarray  # (nz, ny, nx) int64, |B(x)| per voxel
    rho: np.ndarray     # (nz, ny, nx) float64, 0 where counts == 0

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
    nz, ny, nx = (int(d) for d in dims)
    if (nx, ny) != fan.bounds:
        raise DimsError(
            f"fan was built for axial grid {fan.bounds}, dims give ({nx}, {ny})"
        )
    counts2d = fan.operator().counts
    return np.broadcast_to(counts2d, (nz, ny, nx)).copy()


def aggregate_rho(fan: RayFan, candidates: np.ndarray, dims) -> BackProjectionMap:
    """Mean of per-pixel candidate densities over each voxel's crossing set.

    candidates has one value per image pixel, shape (nz, n_rays): row j holds
    the candidates of slice j's pixels.
    """
    nz, ny, nx = (int(d) for d in dims)
    if (nx, ny) != fan.bounds:
        raise DimsError(
            f"fan was built for axial grid {fan.bounds}, dims give ({nx}, {ny})"
        )
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.shape != (nz, fan.n_rays):
        raise DimsError(
            f"need one candidate per pixel, shape ({nz}, {fan.n_rays}), "
            f"got {candidates.shape}"
        )

    op = fan.operator()
    rho = op.ray_mean(candidates)
    # a read-only view: the pattern is the same in every slice
    counts = np.broadcast_to(op.counts, (nz, ny, nx))
    return BackProjectionMap(counts=counts, rho=rho)


def invert_pixel_to_candidate(
    pixel: float, n_inbounds: int, delta: float, beta: float
) -> float:
    """Density that would reproduce this opacity if spread uniformly along
    the ray: solves 1 - exp(-beta * sigma * n * delta) = pixel, clamped to [0, 1]."""
    if not 0.0 <= pixel < 1.0:
        raise ValueError(f"pixel must lie in [0, 1), got {pixel}")
    if n_inbounds < 1:
        raise ValueError(f"n_inbounds must be >= 1, got {n_inbounds}")
    if delta <= 0 or beta <= 0:
        raise ValueError("delta and beta must be > 0")
    sigma = -np.log1p(-pixel) / (beta * n_inbounds * delta)
    return float(np.clip(sigma, 0.0, 1.0))


def image_candidates(image_pixels: np.ndarray, fan: RayFan, beta: float) -> np.ndarray:
    """Vectorized invert_pixel_to_candidate over a whole image.

    Pixels of rays that never enter the grid get candidate 0 (they also have
    no footprint, so the value is never aggregated).
    """
    px = np.asarray(image_pixels, dtype=np.float64)
    if px.ndim != 2 or px.shape[1] != fan.n_rays:
        raise DimsError(
            f"image width {px.shape[-1] if px.ndim == 2 else '?'} does not match "
            f"fan ray count {fan.n_rays}"
        )
    # written so that NaN (which fails every comparison) is rejected too
    if not (px.min() >= 0.0 and px.max() < 1.0):
        raise ValueError("pixels must be finite and lie in [0, 1)")
    n = fan.sample_counts.astype(np.float64)
    denom = beta * np.maximum(n, 1.0) * fan.delta
    sigma = -np.log1p(-px) / denom[None, :]
    sigma[:, n == 0] = 0.0
    return np.clip(sigma, 0.0, 1.0)
