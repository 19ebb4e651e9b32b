"""Density volumes, synthetic phantoms and PVOL1 file I/O.

A volume is a normalized density field sigma in [0, 1] on an (nz, ny, nx)
voxel grid, stored z-major. Continuous coordinates are in voxel units with
voxel (i, j, k) spanning the unit cube [i, i+1) x [j, j+1) x [k, k+1), so
voxel centers sit at half-integer coordinates and the volume occupies the
box [0, nz] x [0, ny] x [0, nx].

Densities are held as float32, the precision a PVOL1 file stores: every
phantom is built in it and load_volume reads straight into it. A volume of
any other dtype is widened to float64, which holds float32 values exactly.

PVOL1 files (and the PIMG1 images that share their layout) go straight
between file and float32 array, with no staging copy, each way. Data of any
other dtype or layout is written one cast slab of about _READ_CHUNK bytes
at a time, never through a whole-volume temporary.

Every writer in the package goes through _write_output, which overwrites
a regular file in place: the file keeps its inode and is cut to the new
bytes. A truncating open frees the old file's blocks and cached pages
first; on ext4 that costs more than writing the new bytes over them when
the output already exists. The header goes in last, after the cut, over a
line of NUL bytes that no loader accepts: a write that raises or is killed
part way leaves either the old file, if no byte reached it, or a file the
loaders reject, never a valid header over a mix of new and old values.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
from dataclasses import dataclass

import numpy as np

from ._pool import check_sizes
from .errors import DimsError, FormatError

_PVOL_MAGIC = "PVOL1"
_READ_CHUNK = 1 << 20  # bytes per written slab, and a pipe's first read room


def _f32_slabs(data: np.ndarray):
    """data's values as little-endian float32, in slabs along its first axis
    of about _READ_CHUNK bytes each. A slab is a view of data when data holds
    contiguous float32; otherwise (another dtype, a strided or broadcast
    view) it is that slab alone, cast as astype("<f4") would cast it."""
    rows = max(1, min(len(data), _READ_CHUNK // max(1, 4 * math.prod(data.shape[1:]))))
    for start in range(0, len(data), rows):
        yield np.ascontiguousarray(data[start:start + rows], dtype="<f4")


def _write_output(path, header: bytes, chunks) -> None:
    """Write header (ending in a newline) and then each bytes-like chunk to
    path, as open(path, "wb") would but without truncating it on open: a
    new file gets mode 0o666 & ~umask, and an existing regular file is
    overwritten in place (it keeps its inode) and cut to the new length.

    A regular file's header is written last, after the cut: until then the
    file begins with a line of NUL bytes in its place, which no loader
    accepts. So a writer that raises, or whose process is killed, leaves
    either the old file untouched (if no byte reached it) or a file that
    the loaders reject, never the new header over a mix of new and old
    values. After an exception the file is still cut at the bytes that
    reached it, and that exception propagates even if the cut fails. FIFOs
    and devices get the header first and are never cut."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        fh = open(fd, "wb")
    except BaseException:
        os.close(fd)
        raise
    with fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)

        def cut():
            # at the file offset, not fh's: a failed flush must not leave
            # the old file's tail behind the new bytes
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))

        try:
            fh.write(bytes(len(header) - 1) + b"\n" if regular else header)
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
        except BaseException:
            if regular:
                with contextlib.suppress(OSError):
                    cut()
            raise
        if regular:
            cut()
            os.pwrite(fd, header, 0)


def _check_densities(data: np.ndarray) -> None:
    lo, hi = data.min(), data.max()
    # written so that NaN (which fails every comparison) is rejected too
    if not (lo >= 0.0 and hi <= 1.0):
        raise ValueError(
            f"density values must lie in [0, 1], got range [{lo:g}, {hi:g}]"
        )


@dataclass(frozen=True)
class DensityVolume:
    """Immutable 3D scalar field of normalized densities. float32 data is
    kept as float32; any other data is widened to float64."""

    data: np.ndarray  # shape (nz, ny, nx), float32 or float64, values in [0, 1]

    @classmethod
    def _unchecked(cls, data: np.ndarray) -> DensityVolume:
        """A volume of data, which must be a C-contiguous float32 or float64
        3D array of dims >= 1 with values in [0, 1] by construction: skips
        __post_init__'s checks and its whole-volume range passes."""
        vol = object.__new__(cls)
        data.flags.writeable = False
        vol.__dict__.update(data=data)
        return vol

    def __post_init__(self):
        data = np.asarray(self.data)
        data = np.ascontiguousarray(data, dtype=np.float32 if data.dtype == np.float32
                                    else np.float64)
        if data.ndim != 3:
            raise DimsError(f"volume data must be 3D, got shape {data.shape}")
        if min(data.shape) < 1:
            raise DimsError(f"volume dims must all be >= 1, got {data.shape}")
        _check_densities(data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # (nz, ny, nx)


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


def _quantize(v: float) -> float:
    """v rounded to float32 precision, as a PVOL1 file stores it."""
    return float(np.float32(v))


def _axis_terms(n: int, c: float) -> np.ndarray:
    """(k + 0.5 - c) ** 2 for the n voxel centers k + 0.5 of an axis."""
    return (np.arange(n, dtype=np.float64) + 0.5 - c) ** 2


def _box(terms, limit: float):
    """The index box of the points whose per-axis terms each pass t <= limit,
    as slices, with each axis's terms cut to it; None if it is empty.

    The terms are non-negative and rounding is monotone, so a point outside
    the box has a sum of terms (in any order) above limit as well."""
    box, cut = [], []
    for t in terms:
        inside = np.flatnonzero(t <= limit)
        if not len(inside):
            return None
        lo, hi = inside[0], inside[-1] + 1
        box.append(slice(lo, hi))
        cut.append(t[lo:hi])
    return tuple(box), cut


def _fill_sphere(data: np.ndarray, center, radius: float, value: float) -> None:
    """Set the voxels whose centers lie within radius of center to value,
    testing ((tz + ty) + tx) <= r ** 2 over the sphere's box only."""
    r2 = radius ** 2
    found = _box((_axis_terms(n, c) for n, c in zip(data.shape, center)), r2)
    if found is None:
        return
    box, (tz, ty, tx) = found
    data[box][(tz[:, None, None] + ty[None, :, None]) + tx[None, None, :] <= r2] = value


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
    """Ellipsoid shell plus tooth-like cylinders along a parabolic arch,
    built one axial slice at a time."""
    nz, ny, nx = dims
    rng = np.random.default_rng(seed)
    data = np.zeros(dims, dtype=np.float32)
    shell, interior = _quantize(0.55), _quantize(0.15)

    # outer shell standing in for cortical bone, around a soft interior;
    # each slice's r2 is (tz + ty) + tx, the terms summed in axis order
    tz = (((np.arange(nz) + 0.5) / nz - 0.5) / 0.45) ** 2
    ty = (((np.arange(ny) + 0.5) / ny - 0.52) / 0.44) ** 2
    tx = (((np.arange(nx) + 0.5) / nx - 0.5) / 0.46) ** 2
    for z in range(nz):
        found = _box((tz[z] + ty, tx), 1.0)
        if found is None:
            continue
        box, (tzy, tx_cut) = found
        r2 = tzy[:, None] + tx_cut[None, :]
        part = data[z][box]
        part[(r2 <= 1.0) & (r2 >= 0.78)] = shell
        part[r2 < 0.78] = interior

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
        # never an empty box: the center lies inside the grid and tooth_r > 1
        (ys, xs), (ty_cut, tx_cut) = _box((_axis_terms(ny, cy), _axis_terms(nx, cx)), tooth_r**2)
        data[z0:z1, ys, xs][:, ty_cut[:, None] + tx_cut[None, :] <= tooth_r**2] = 1.0
    return data


def _sphere_count(arg: str) -> int:
    """The n of 'sphere-set:<n>': a whole number >= 0."""
    try:
        count = int(arg)
    except ValueError:
        count = -1  # reported like a negative count
    if count < 0:
        raise ValueError(f"bad sphere count {arg!r}: expected a whole number >= 0")
    return count


def make_phantom(kind: str, dims, seed: int = 0) -> DensityVolume:
    """Build a synthetic test volume from a descriptor string.

    Descriptors:
      uniform:<c>                      constant field of value c
      single-voxel:<z>,<y>,<x>,<v>     one voxel set to v, rest zero
      sphere-set[:<n>]                 n seeded random spheres (default 5)
      sphere-set:<z>,<y>,<x>,<r>,<v>;...   explicit spheres
      jaw-arch                         ellipsoid shell + teeth along an arch

    Deterministic given (kind, dims, seed). Each shape is rasterized over its
    own bounding box (a jaw slice by slice), so building one costs about the
    voxels it covers; the zero background outside every shape is never
    written. Values are quantized to float32 precision as constants, once
    per shape, and the volume is float32, so a PVOL1 round trip is exact.
    """
    dims = check_sizes("phantom dims", dims, 3)
    nz, ny, nx = dims

    name, _, arg = kind.partition(":")
    if name == "uniform":
        c = float(arg) if arg else 0.0
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"uniform value must be in [0, 1], got {c}")
        data = np.full(dims, _quantize(c), dtype=np.float32)
    elif name == "single-voxel":
        z, y, x, v = _parse_floats(arg, 4)
        # compared as floats first, so NaN and inf are rejected too
        if not (0 <= z < nz and 0 <= y < ny and 0 <= x < nx):
            raise ValueError(f"single-voxel position ({z:g},{y:g},{x:g}) outside dims {dims}")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"single-voxel value must be in [0, 1], got {v}")
        data = np.zeros(dims, dtype=np.float32)
        data[int(z), int(y), int(x)] = _quantize(v)
    elif name == "sphere-set":
        if arg == "":
            spheres = _random_spheres(dims, seed, 5)
        elif ";" not in arg and "," not in arg:
            spheres = _random_spheres(dims, seed, _sphere_count(arg))
        else:
            spheres = []
            for part in arg.split(";"):
                cz, cy, cx, r, v = _parse_floats(part, 5)
                if not (0 <= cz <= nz and 0 <= cy <= ny and 0 <= cx <= nx):
                    raise ValueError(
                        f"sphere center ({cz},{cy},{cx}) outside volume dims {dims}"
                    )
                # NaN fails r > 0; an inf or huge radius has no finite r * r
                if not (r > 0 and math.isfinite(r * r)):
                    raise ValueError(f"sphere radius must be finite and > 0, got {r}")
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"sphere value must be in [0, 1], got {v}")
                spheres.append((cz, cy, cx, r, v))
        data = np.zeros(dims, dtype=np.float32)
        for cz, cy, cx, r, v in spheres:  # later spheres overwrite earlier ones
            _fill_sphere(data, (cz, cy, cx), r, _quantize(v))
    elif name == "jaw-arch":
        data = _jaw_arch(dims, seed)
    else:
        raise ValueError(f"unknown phantom kind: {kind!r}")

    # every value written is a checked constant in [0, 1]
    return DensityVolume._unchecked(data)


# ----------------------------------------------------------------------
# PVOL1 serialization
# ----------------------------------------------------------------------

def _write_f32_file(path, magic: str, data: np.ndarray) -> None:
    """Write '<magic> d1 .. dn\\n' + data's values as row-major little-endian
    float32, slab by slab (see _f32_slabs). PVOL1 volumes and PIMG1 images
    share this layout (read back by _read_f32_file)."""
    if min(data.shape) < 1:  # the loaders reject such a file
        raise DimsError(f"{path}: invalid dims {data.shape}, all must be >= 1")
    header = f"{magic} {' '.join(map(str, data.shape))}\n".encode("ascii")
    _write_output(path, header, _f32_slabs(data))


def save_raw_volume(data: np.ndarray, path) -> None:
    """PVOL1 writer for raw fields (counts, gradients) without the [0,1] check."""
    data = np.asarray(data)
    if data.ndim != 3:
        raise DimsError(f"expected 3D field, got shape {data.shape}")
    _write_f32_file(path, _PVOL_MAGIC, data)


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


def _read_payload(fh, path, dims, size_hint: int) -> np.ndarray:
    """The 4 * prod(dims) payload bytes that follow the header, as a flat
    little-endian float32 array, or FormatError if the file holds any other
    number of bytes.

    Reads go straight into the array's bytes, and one that ends inside a
    value (pipes return what has arrived) is continued at that byte. The
    array starts at size_hint bytes (the rest of a regular file) or
    _READ_CHUNK, whichever is more, plus one value, so a right-sized file is
    read into one allocation that sees one byte past the claim. Dims may
    claim more bytes than can be allocated, so the array doubles only once
    the bytes that arrived fill it, and reading stops one byte past the
    claim."""
    n = math.prod(dims)
    expected = 4 * n
    out = np.empty(min(n, max(_READ_CHUNK, size_hint) // 4) + 1, dtype="<f4")
    raw = memoryview(out).cast("B")
    total = 0  # bytes read into out
    while total <= expected:
        if total == len(raw):
            grown = np.empty(min(n + 1, 2 * out.size), dtype="<f4")
            grown[:out.size] = out
            out, raw = grown, memoryview(grown).cast("B")
        got = fh.readinto(raw[total:expected + 1])
        if not got:
            break
        total += got
    if total != expected:
        holds = total if total < expected else f"more than {expected}"
        raise FormatError(
            f"{path}: payload holds {holds} bytes, "
            f"expected exactly {expected} for dims {dims}"
        )
    return out[:n]


def _read_f32_file(path, magic: str, n_dims: int) -> np.ndarray:
    """Read '<magic> d1 .. dn\\n' + row-major little-endian float32 values
    into a native float32 array; the payload must hold exactly d1 * .. * dn
    values. PVOL1 volumes and PIMG1 images share this layout."""
    # unbuffered: the payload goes straight from each read into the array
    with open(path, "rb", buffering=0) as fh:
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
        # the ASCII header line took len(header) + 1 bytes
        size_hint = os.fstat(fh.fileno()).st_size - len(header) - 1
        payload = _read_payload(fh, path, dims, size_hint)
    return payload.astype(np.float32, copy=False).reshape(dims)  # no copy on little-endian


def load_raw_volume(path) -> np.ndarray:
    """Read a PVOL1 file as stored, float32, without the [0, 1] restriction."""
    return _read_f32_file(path, _PVOL_MAGIC, 3)


def load_volume(path) -> DensityVolume:
    """Read a density volume from a PVOL1 file (values must lie in [0, 1]),
    as the float32 values the file stores."""
    return DensityVolume(_read_f32_file(path, _PVOL_MAGIC, 3))
