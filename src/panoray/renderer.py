"""Beer-Lambert rendering of simulated panoramic X-ray images.

A pixel (j, i) of a SimPX image is the opacity 1 - T of ray i marched
across axial slice j, with transmittance T = exp(-sum(beta * sigma * delta))
over the ray's retained sample points. The fan is shared by all slices
(the beam geometry is purely axial; vertically the projection is parallel),
so the line sums of all slices come from the fan's one system matrix
(see fan_operator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimsError
from .fan_operator import INTERPOLATIONS
from .ray_geometry import RayFan
from .volume import DensityVolume, _read_f32_file

_PIMG_MAGIC = "PIMG1"
# largest float32 strictly below 1, used to keep stored opacities in [0, 1)
_F32_BELOW_ONE = np.nextafter(np.float32(1.0), np.float32(0.0))


@dataclass(frozen=True)
class RenderConfig:
    """Rendering parameters.

    threads is still accepted (and must be >= 1) for compatibility but has
    no effect: every render runs the same single code path, so outputs are
    deterministic.
    """

    beta: float = 0.02
    n_samples: int = 200
    delta: float = 1.0
    width: int = 256
    height: int = 128
    interpolation: str = "trilinear"
    threads: int = 1

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(f"unknown interpolation mode: {self.interpolation!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class SimPXImage:
    """Opacity image: row = axial slice, column = ray index."""

    pixels: np.ndarray  # (height, width) float64 in [0, 1)

    def __post_init__(self):
        px = np.ascontiguousarray(np.asarray(self.pixels, dtype=np.float64))
        as_pixels(px)
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def dims(self) -> tuple[int, int]:
        return self.pixels.shape  # (height, width)


def as_pixels(image, width: int | None = None, height: int | None = None) -> np.ndarray:
    """A SimPXImage's pixels as they are, or a raw array checked by the image
    rule (2D, non-empty, finite, in [0, 1)) without freezing or writing it.
    A given width and height must match."""
    checked = isinstance(image, SimPXImage)
    px = image.pixels if checked else np.asarray(image, dtype=np.float64)
    if (px.ndim != 2 or min(px.shape) < 1 or width not in (None, px.shape[1])
            or height not in (None, px.shape[0])):
        raise DimsError(
            f"image must be 2D, non-empty and of shape ({height or 'h'}, {width or 'w'}), "
            f"got {px.shape}"
        )
    if not checked:
        lo, hi = px.min(), px.max()
        # written so that NaN (which fails every comparison) is rejected too
        if not (lo >= 0.0 and hi < 1.0):
            raise ValueError(f"opacity pixels must be finite and lie in [0, 1), "
                             f"got range [{lo:g}, {hi:g}]")
    return px


def transmittance(densities, delta: float, beta: float) -> float:
    """T = exp(-sum(beta * sigma_i * delta)) with compensated summation."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    total = math.fsum(float(s) for s in np.asarray(densities, dtype=np.float64).ravel())
    return math.exp(-beta * delta * total)


def render_simpx(vol: DensityVolume, fan: RayFan, cfg: RenderConfig) -> SimPXImage:
    """Render the opacity image of a volume through the fan."""
    nz, ny, nx = vol.dims
    if fan.n_rays != cfg.width:
        raise DimsError(f"fan has {fan.n_rays} rays but config width is {cfg.width}")
    if nz < cfg.height:
        raise DimsError(f"volume has {nz} slices, image height {cfg.height} needs more")
    fan.check_grid(nx, ny)
    if fan.n_samples != cfg.n_samples or fan.delta != cfg.delta:
        raise DimsError(
            f"fan sampling (n={fan.n_samples}, delta={fan.delta}) does not match "
            f"config (n={cfg.n_samples}, delta={cfg.delta})"
        )
    sums = fan.operator(cfg.interpolation).forward(vol.data[:cfg.height])
    pixels = -np.expm1(-cfg.beta * fan.delta * sums)  # 1 - T without cancellation
    # extreme attenuation rounds 1 - T up to 1.0 in double precision; the
    # image contract is [0, 1), so saturate just below
    np.minimum(pixels, np.nextafter(1.0, 0.0), out=pixels)
    return SimPXImage(pixels)


_MIP_AXES = {"axial": 0, "coronal": 1, "sagittal": 2}


def mip(vol: DensityVolume, axis: str) -> np.ndarray:
    """Maximum intensity projection along one anatomical axis.

    axial -> (ny, nx), coronal -> (nz, nx), sagittal -> (nz, ny).
    """
    if axis not in _MIP_AXES:
        raise ValueError(f"axis must be one of {sorted(_MIP_AXES)}, got {axis!r}")
    return vol.data.max(axis=_MIP_AXES[axis])


# ----------------------------------------------------------------------
# Image files: PIMG1 floats and 16-bit binary PGM
# ----------------------------------------------------------------------

def save_image(img: SimPXImage, path) -> None:
    """Write 'PIMG1 h w\\n' + row-major little-endian float32 pixels."""
    h, w = img.dims
    payload = img.pixels.astype("<f4")
    # float32 rounding may bump a value just below 1 up to 1.0; keep the
    # stored file inside the documented [0, 1) range
    payload = np.minimum(payload, _F32_BELOW_ONE)
    with open(path, "wb") as fh:
        fh.write(f"{_PIMG_MAGIC} {h} {w}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(payload).tobytes())


def load_image(path) -> SimPXImage:
    """Read a PIMG1 file (pixels must lie in [0, 1))."""
    return SimPXImage(_read_f32_file(path, _PIMG_MAGIC, 2))


def save_pgm16(pixels: np.ndarray, path) -> None:
    """16-bit binary PGM (big-endian sample bytes), values scaled by 65535."""
    px = np.asarray(pixels, dtype=np.float64)
    if px.ndim != 2:
        raise DimsError(f"PGM export needs a 2D image, got shape {px.shape}")
    if not np.all(np.isfinite(px)):
        raise ValueError("PGM export needs finite pixels")
    h, w = px.shape
    scaled = np.round(np.clip(px, 0.0, 1.0) * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        fh.write(np.ascontiguousarray(scaled).tobytes())
