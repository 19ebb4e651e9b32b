"""Density volumes, synthetic phantoms, unit conversions and PVOL1 file I/O.

A volume is a normalized density field sigma in [0, 1] on an (nz, ny, nx)
voxel grid, stored z-major. Continuous coordinates are in voxel units with
voxel (i, j, k) spanning the unit cube [i, i+1) x [j, j+1) x [k, k+1), so
voxel centers sit at half-integer coordinates and the volume occupies the
box [0, nz] x [0, ny] x [0, nx].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimsError, FormatError

_PVOL_MAGIC = "PVOL1"


def _as_f32_grid(data: np.ndarray) -> np.ndarray:
    # Quantize to float32-representable values so PVOL1 round trips are exact,
    # but keep float64 in memory for downstream arithmetic.
    return np.ascontiguousarray(data.astype(np.float32).astype(np.float64))


@dataclass(frozen=True)
class DensityVolume:
    """Immutable 3D scalar field of normalized densities."""

    data: np.ndarray  # shape (nz, ny, nx), float64, values in [0, 1]

    def __post_init__(self):
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 3:
            raise DimsError(f"volume data must be 3D, got shape {data.shape}")
        if min(data.shape) < 1:
            raise DimsError(f"volume dims must all be >= 1, got {data.shape}")
        lo, hi = data.min(), data.max()
        # written so that NaN (which fails every comparison) is rejected too
        if not (lo >= 0.0 and hi <= 1.0):
            raise ValueError(
                f"density values must lie in [0, 1], got range [{lo:g}, {hi:g}]"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # (nz, ny, nx)


@dataclass(frozen=True)
class AttenuationModel:
    """Affine map between normalized density, HU and attenuation coefficient.

    mu = mu_water * (1 + HU / 1000) and mu ~ a * sigma + b; beta = a / c folds
    the voxel-length scale c into a single rendering coefficient. The source
    intensity normalization is fixed (A * I0 = 1), so it carries no field.
    """

    mu_water: float = 0.2
    a: float = 0.02
    b: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.mu_water <= 0:
            raise ValueError(f"mu_water must be > 0, got {self.mu_water}")
        if self.c <= 0 or self.a <= 0:
            raise ValueError("a and c must be > 0 so that beta = a/c is > 0")

    @property
    def beta(self) -> float:
        return self.a / self.c


def hu_to_mu(hu: float, model: AttenuationModel) -> float:
    """Linear attenuation coefficient for a Hounsfield value (water = 0)."""
    return model.mu_water * (1.0 + hu / 1000.0)


def gray_to_normalized(gray):
    """Map raw CT-style gray values in [-1000, 3000] linearly onto [0, 1].

    Utility only; clinical calibration of gray values is out of scope.
    """
    return np.clip((np.asarray(gray, dtype=np.float64) + 1000.0) / 4000.0, 0.0, 1.0)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# Phantoms
# ----------------------------------------------------------------------

def _parse_floats(text: str, n: int | None = None):
    parts = [p for p in text.split(",") if p != ""]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"bad numeric phantom parameter {text!r}") from exc
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} comma-separated values, got {text!r}")
    return vals


def _sphere_mask(dims, center, radius):
    nz, ny, nx = dims
    zz = np.arange(nz, dtype=np.float64)[:, None, None] + 0.5
    yy = np.arange(ny, dtype=np.float64)[None, :, None] + 0.5
    xx = np.arange(nx, dtype=np.float64)[None, None, :] + 0.5
    cz, cy, cx = center
    return (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2


def _random_spheres(dims, seed, count):
    rng = np.random.default_rng(seed)
    nz, ny, nx = dims
    spheres = []
    for _ in range(count):
        r = rng.uniform(0.08, 0.16) * min(dims)
        cz = rng.uniform(r, nz - r)
        cy = rng.uniform(r, ny - r)
        cx = rng.uniform(r, nx - r)
        val = rng.uniform(0.4, 1.0)
        spheres.append((cz, cy, cx, r, val))
    return spheres


def _jaw_arch(dims, seed):
    """Ellipsoid shell plus tooth-like cylinders along a parabolic arch."""
    nz, ny, nx = dims
    rng = np.random.default_rng(seed)
    data = np.zeros(dims, dtype=np.float64)

    zz = (np.arange(nz)[:, None, None] + 0.5) / nz
    yy = (np.arange(ny)[None, :, None] + 0.5) / ny
    xx = (np.arange(nx)[None, None, :] + 0.5) / nx
    # outer shell standing in for cortical bone
    r2 = ((zz - 0.5) / 0.45) ** 2 + ((yy - 0.52) / 0.44) ** 2 + ((xx - 0.5) / 0.46) ** 2
    data[(r2 <= 1.0) & (r2 >= 0.78)] = 0.55
    data[r2 < 0.78] = 0.15  # soft interior

    # teeth: short vertical cylinders on a parabolic arch opening toward -y
    n_teeth = 10
    apex_y, end_y = 0.72, 0.38
    half_span = 0.26
    z0, z1 = int(0.35 * nz), max(int(0.35 * nz) + 1, int(0.65 * nz))
    tooth_r = max(1.2, 0.035 * nx)
    for k in range(n_teeth):
        u = -1.0 + 2.0 * k / (n_teeth - 1)  # -1 .. 1 across the arch
        cx = (0.5 + half_span * u) * nx
        cy = (apex_y - (apex_y - end_y) * u * u) * ny
        cy += rng.uniform(-0.004, 0.004) * ny
        dist2 = ((np.arange(ny)[:, None] + 0.5) - cy) ** 2 + (
            (np.arange(nx)[None, :] + 0.5) - cx
        ) ** 2
        disk = dist2 <= tooth_r**2
        data[z0:z1, disk] = 1.0
    return np.clip(data, 0.0, 1.0)


def make_phantom(kind: str, dims, seed: int = 0) -> DensityVolume:
    """Build a synthetic test volume from a descriptor string.

    Descriptors:
      uniform:<c>                      constant field of value c
      single-voxel:<z>,<y>,<x>,<v>     one voxel set to v, rest zero
      sphere-set[:<n>]                 n seeded random spheres (default 5)
      sphere-set:<z>,<y>,<x>,<r>,<v>;...   explicit spheres
      jaw-arch                         ellipsoid shell + teeth along an arch

    Deterministic given (kind, dims, seed).
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or min(dims) < 1:
        raise DimsError(f"phantom dims must be three positive integers, got {dims}")
    nz, ny, nx = dims

    name, _, arg = kind.partition(":")
    if name == "uniform":
        c = float(arg) if arg else 0.0
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"uniform value must be in [0, 1], got {c}")
        data = np.full(dims, c, dtype=np.float64)
    elif name == "single-voxel":
        z, y, x, v = _parse_floats(arg, 4)
        z, y, x = int(z), int(y), int(x)
        if not (0 <= z < nz and 0 <= y < ny and 0 <= x < nx):
            raise ValueError(f"single-voxel position ({z},{y},{x}) outside dims {dims}")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"single-voxel value must be in [0, 1], got {v}")
        data = np.zeros(dims, dtype=np.float64)
        data[z, y, x] = v
    elif name == "sphere-set":
        if arg == "":
            spheres = _random_spheres(dims, seed, 5)
        elif ";" not in arg and "," not in arg:
            spheres = _random_spheres(dims, seed, int(arg))
        else:
            spheres = []
            for part in arg.split(";"):
                cz, cy, cx, r, v = _parse_floats(part, 5)
                if not (0 <= cz <= nz and 0 <= cy <= ny and 0 <= cx <= nx):
                    raise ValueError(
                        f"sphere center ({cz},{cy},{cx}) outside volume dims {dims}"
                    )
                if r <= 0:
                    raise ValueError(f"sphere radius must be > 0, got {r}")
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"sphere value must be in [0, 1], got {v}")
                spheres.append((cz, cy, cx, r, v))
        data = np.zeros(dims, dtype=np.float64)
        for cz, cy, cx, r, v in spheres:
            data[_sphere_mask(dims, (cz, cy, cx), r)] = v
    elif name == "jaw-arch":
        data = _jaw_arch(dims, seed)
    else:
        raise ValueError(f"unknown phantom kind: {kind!r}")

    return DensityVolume(_as_f32_grid(data))


# ----------------------------------------------------------------------
# PVOL1 serialization
# ----------------------------------------------------------------------

def save_raw_volume(data: np.ndarray, path) -> None:
    """PVOL1 writer for raw fields (counts, gradients) without the [0,1] check."""
    data = np.asarray(data)
    if data.ndim != 3:
        raise DimsError(f"expected 3D field, got shape {data.shape}")
    nz, ny, nx = data.shape
    with open(path, "wb") as fh:
        fh.write(f"{_PVOL_MAGIC} {nz} {ny} {nx}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def save_volume(vol: DensityVolume, path) -> None:
    """Write a volume as 'PVOL1 nz ny nx\\n' + little-endian float32 payload."""
    save_raw_volume(vol.data, path)


def _read_header_line(fh, path) -> str:
    line = fh.readline(256)
    if not line.endswith(b"\n"):
        raise FormatError(f"{path}: missing or overlong header line")
    try:
        return line[:-1].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: header is not ASCII") from exc


def _read_f32_file(path, magic: str, n_dims: int) -> np.ndarray:
    """Read '<magic> d1 .. dn\\n' + row-major little-endian float32 values as
    a float64 array; the payload must hold exactly d1 * .. * dn values.
    PVOL1 volumes and PIMG1 images share this layout."""
    with open(path, "rb") as fh:
        header = _read_header_line(fh, path)
        parts = header.split(" ")
        if len(parts) != n_dims + 1 or parts[0] != magic:
            raise FormatError(
                f"{path}: bad header {header!r}, expected '{magic}' and {n_dims} dims"
            )
        try:
            dims = tuple(int(p) for p in parts[1:])
        except ValueError as exc:
            raise FormatError(f"{path}: non-integer dims in header {header!r}") from exc
        if min(dims) < 1:
            raise DimsError(f"{path}: invalid dims {dims}, all must be >= 1")
        expected = 4 * math.prod(dims)
        payload = fh.read(expected + 1)
        if len(payload) != expected:
            raise FormatError(
                f"{path}: payload holds {min(len(payload), expected)}+ bytes, "
                f"expected exactly {expected} for dims {dims}"
            )
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(dims)


def load_raw_volume(path) -> np.ndarray:
    """Read a PVOL1 file without the [0, 1] density restriction."""
    return _read_f32_file(path, _PVOL_MAGIC, 3)


def load_volume(path) -> DensityVolume:
    """Read a density volume from a PVOL1 file (values must lie in [0, 1])."""
    return DensityVolume(load_raw_volume(path))
