"""Independent per-point references for the renderer's line integrals.

The library computes every line integral through the fan's system matrix
(see panoray.fan_operator). These scalar forms walk one point at a time
instead: the tests check renders against them, and their own math is
pinned by TestTransmittance (test_renderer.py) and TestTrilinear
(test_volume.py).
"""

import math

import numpy as np

from panoray.volume import DensityVolume


def sample_trilinear(vol: DensityVolume, point, mode: str = "trilinear"):
    """Sample the volume at continuous (z, y, x) points in voxel units.

    Trilinear interpolation of the 8 surrounding voxel centers, with neighbor
    indices clamped to the grid so the half-voxel band just inside the
    boundary reads the edge voxels (a uniform volume reads its constant at
    every interior point). Points outside the box [0, nz] x [0, ny] x [0, nx]
    return exactly 0. mode="nearest" snaps to the containing voxel instead.
    """
    pts = np.atleast_2d(np.asarray(point, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected point(s) of shape (3,) or (N, 3), got {np.shape(point)}")
    nz, ny, nx = vol.dims
    hi = np.array([nz, ny, nx], dtype=np.float64)
    inside = np.all((pts >= 0.0) & (pts <= hi), axis=1)

    if mode == "nearest":
        idx = np.clip(np.floor(pts).astype(np.int64), 0, [nz - 1, ny - 1, nx - 1])
        out = vol.data[idx[:, 0], idx[:, 1], idx[:, 2]]
        out = np.where(inside, out, 0.0)
    elif mode == "trilinear":
        q = pts - 0.5
        i0 = np.floor(q).astype(np.int64)
        f = q - i0
        dims = np.array(vol.dims, dtype=np.int64)
        lo = np.clip(i0, 0, dims - 1)
        hi_idx = np.clip(i0 + 1, 0, dims - 1)
        vals = []
        for dz in (0, 1):
            zi = (hi_idx if dz else lo)[:, 0]
            for dy in (0, 1):
                yi = (hi_idx if dy else lo)[:, 1]
                for dx in (0, 1):
                    xi = (hi_idx if dx else lo)[:, 2]
                    vals.append(vol.data[zi, yi, xi])
        c000, c001, c010, c011, c100, c101, c110, c111 = vals
        # lerp chain; exact on voxel centers and on constant fields
        fx, fy, fz = f[:, 2], f[:, 1], f[:, 0]
        c00 = c000 + fx * (c001 - c000)
        c01 = c010 + fx * (c011 - c010)
        c10 = c100 + fx * (c101 - c100)
        c11 = c110 + fx * (c111 - c110)
        c0 = c00 + fy * (c01 - c00)
        c1 = c10 + fy * (c11 - c10)
        out = c0 + fz * (c1 - c0)
        out = np.where(inside, out, 0.0)
    else:
        raise ValueError(f"unknown interpolation mode: {mode!r}")

    if np.ndim(point) == 1:
        return float(out[0])
    return out


def transmittance(densities, delta: float, beta: float) -> float:
    """T = exp(-sum(beta * sigma_i * delta)) with compensated summation."""
    # written so that NaN (which fails every comparison) is rejected too
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    total = math.fsum(float(s) for s in np.asarray(densities, dtype=np.float64).ravel())
    return math.exp(-beta * delta * total)
