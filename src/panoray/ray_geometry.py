"""Panoramic ray-fan construction.

The fan mimics how a panoramic unit sweeps its beam: the instantaneous
rotation center travels along a piecewise-quadratic arch, and between
consecutive center points the beam line is rotated in fixed angular steps.
All geometry lives in the 2D axial plane, in voxel units of the target grid;
the fan is replicated across axial slices by the renderer (parallel vertically).

Conventions, pinned by the tests:
  * Centers: c_i = scale * (x_i, f(x_i)) + offset with x_i on a uniform grid;
    f(x) = coeff*(x+span)^2 for x <= 0 and coeff*(x-span)^2 for x >= 0.
  * Ray directions are unit 2D vectors with directed angles in degrees.
  * Segment i rotates from the previous direction to the direction of
    c_i -> c_{i+1} along the minimal signed arc, in steps of theta_i,
    emitting each step through c_i, and finishes with the connecting ray.
  * The very first ray points along `initial_angle`; by default that is the
    perpendicular of the chord c_0 -> c_last (90 deg for the default arch,
    i.e. straight +y through the left molar region).
  * Each ray starts a full grid diagonal behind its center so the walk
    always covers the whole grid section of the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimsError, FormatError
from .fan_operator import FanOperator

_RAYFAN_MAGIC = "RAYFAN1"

# Per-segment rotation step (degrees): dense near the molars (segment ends),
# coarse near the incisors (arch vertex, segment 10).
_THETA_SMALL = 0.5
_THETA_LARGE = 1.5
_THETA_DEFAULT = 0.6
N_SEGMENTS = 20


def angle_for_center(i: int) -> float:
    """Rotation step theta_i in degrees for segment i (0..19)."""
    if not 0 <= i < N_SEGMENTS:
        raise IndexError(f"segment index must be in [0, {N_SEGMENTS - 1}], got {i}")
    if i in (0, 1, 18, 19):
        return _THETA_SMALL
    if i == 10:
        return _THETA_LARGE
    return _THETA_DEFAULT


@dataclass(frozen=True)
class CenterCurve:
    """Piecewise-quadratic rotation-center trajectory and its grid placement."""

    coefficient: float = 0.01
    x_range: tuple[float, float] = (-50.0, 50.0)
    step: float = 5.0
    span: float = 100.0  # breakpoints of the two quadratic branches at +-span
    offset: tuple[float, float] = (128.0, 53.6)
    scale: float = 1.0

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"curve step must be > 0, got {self.step}")
        if self.x_range[1] <= self.x_range[0]:
            raise ValueError(f"empty x_range {self.x_range}")
        if self.scale <= 0:
            raise ValueError(f"curve scale must be > 0, got {self.scale}")
        n = (self.x_range[1] - self.x_range[0]) / self.step
        if abs(n - round(n)) > 1e-9:
            raise ValueError(
                f"x_range {self.x_range} is not an integer number of steps {self.step}"
            )

    @property
    def n_centers(self) -> int:
        return int(round((self.x_range[1] - self.x_range[0]) / self.step)) + 1

    def height(self, x: float) -> float:
        """Curve value f(x) before scale/offset placement."""
        if x <= 0:
            return self.coefficient * (x + self.span) ** 2
        return self.coefficient * (x - self.span) ** 2


def default_curve_for_grid(nx: int, ny: int) -> CenterCurve:
    """Default arch placement: horizontally centered, vertex at 60% of y."""
    scale = min(nx, ny) / 256.0
    vertex = CenterCurve().height(0.0)  # 100 for the default coefficients
    return CenterCurve(offset=(nx / 2.0, 0.6 * ny - scale * vertex), scale=scale)


def make_centers(curve: CenterCurve) -> np.ndarray:
    """Sampled center points c_i on the axial grid, shape (n_centers, 2)."""
    xs = curve.x_range[0] + curve.step * np.arange(curve.n_centers)
    pts = np.array([(x, curve.height(x)) for x in xs], dtype=np.float64)
    return pts * curve.scale + np.asarray(curve.offset, dtype=np.float64)


@dataclass(frozen=True)
class Ray:
    """One beam line: origin, unit direction and its retained sample points."""

    origin: np.ndarray      # (2,) axial start point, far outside the grid
    direction: np.ndarray   # (2,) unit vector
    delta: float = 1.0
    samples: np.ndarray | None = None  # (in_bounds_count, 2) or None before sampling

    @property
    def in_bounds_count(self) -> int:
        return 0 if self.samples is None else self.samples.shape[0]


@dataclass(frozen=True)
class RayFan:
    """The fan as read-only arrays, one row per ray: origin, direction and
    retained samples, zero-padded past each ray's in-bounds count. `rays`
    derives per-ray `Ray` views from them."""

    origins: np.ndarray = field(repr=False)       # (n_rays, 2)
    directions: np.ndarray = field(repr=False)    # (n_rays, 2) unit vectors
    centers: np.ndarray
    angle_schedule: tuple
    bounds: tuple[int, int]       # (nx, ny) axial extents in voxel units
    n_samples: int
    delta: float
    raw_count: int                # rays emitted before trim/pad
    adjusted: str | None          # None, "trim" or "pad"
    segment_turns: tuple          # swept degrees per segment (raw construction)
    segment_ray_counts: tuple     # rays emitted per segment (raw construction)
    sample_xy: np.ndarray = field(repr=False)   # (n_rays, max_k, 2)
    sample_valid: np.ndarray = field(repr=False)  # (n_rays, max_k) bool
    sample_counts: np.ndarray = field(repr=False)  # (n_rays,) int
    # system matrices by interpolation mode, built on first use
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # fans are shared by every caller and cache operators built from
        # these arrays; freeze them
        for arr in (self.origins, self.directions, self.sample_xy,
                    self.sample_valid, self.sample_counts):
            arr.flags.writeable = False

    @property
    def n_rays(self) -> int:
        return len(self.origins)

    @property
    def rays(self) -> tuple:
        """Per-ray views of the arrays: origin, direction and retained samples."""
        return tuple(Ray(o, d, self.delta, xy[:k]) for o, d, xy, k in zip(
            self.origins, self.directions, self.sample_xy, self.sample_counts))

    def check_grid(self, nx: int, ny: int) -> None:
        """Raise DimsError unless the fan was built for an (nx, ny) axial grid."""
        if self.bounds != (nx, ny):
            raise DimsError(f"fan was built for axial grid {self.bounds}, got ({nx}, {ny})")

    def operator(self, interpolation: str = "trilinear") -> FanOperator:
        """The fan's system matrix for one interpolation mode (cached)."""
        op = self._operators.get(interpolation)
        if op is None:
            op = FanOperator(self.sample_xy, self.sample_valid, self.sample_counts,
                             self.bounds, interpolation)
            self._operators[interpolation] = op
        return op


@dataclass(frozen=True)
class GeometryConfig:
    """Everything needed to build a fan for a given axial grid."""

    curve: CenterCurve | None = None   # None -> default placement for the grid
    initial_angle: float | None = None  # degrees; None -> chord perpendicular
    width: int = 256
    n_samples: int = 200
    delta: float = 1.0
    angle_scale: float = 1.0           # < 1 densifies the sweep (0.5 = 2x rays)
    theta_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.width < 1 or self.n_samples < 1:
            raise ValueError("width and n_samples must be >= 1")
        if self.delta <= 0 or self.angle_scale <= 0:
            raise ValueError("delta and angle_scale must be > 0")
        bad = [k for k in self.theta_overrides if k not in range(N_SEGMENTS)]
        if bad:
            raise ValueError(
                f"theta_overrides keys must be segment indices 0..{N_SEGMENTS - 1}, "
                f"got {bad}"
            )

    def schedule(self) -> tuple:
        thetas = []
        for i in range(N_SEGMENTS):
            t = self.theta_overrides.get(i, angle_for_center(i))
            thetas.append(float(t) * self.angle_scale)
        return tuple(thetas)


def _unit(angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg)
    return np.array([math.cos(a), math.sin(a)], dtype=np.float64)


def _wrap180(a: float) -> float:
    """Signed minimal arc in (-180, 180]."""
    return -((-a + 180.0) % 360.0 - 180.0)


def extract_rays(
    centers,
    angle_schedule,
    initial_angle: float | None = None,
    width: int = 256,
    bounds: tuple[int, int] = (256, 256),
    delta: float = 1.0,
    n_samples: int = 200,
) -> RayFan:
    """Emit the rotating fan over all center segments as (center index,
    angle) pairs, fit it to `width`, and return it sampled (see RayFan).

    Origins sit one grid diagonal behind the segment center against the ray
    direction.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 2 or centers.shape[1] != 2:
        raise ValueError(f"need at least 2 centers of shape (n, 2), got {centers.shape}")
    n_seg = centers.shape[0] - 1
    if len(angle_schedule) < n_seg:
        raise ValueError(
            f"angle schedule covers {len(angle_schedule)} segments, need {n_seg}"
        )
    if width < n_seg:
        raise ValueError(f"width {width} below segment count {n_seg}")

    if initial_angle is None:
        chord = centers[-1] - centers[0]
        initial_angle = math.degrees(math.atan2(chord[1], chord[0])) + 90.0

    rays = [(0, initial_angle)]
    current = float(initial_angle)
    seg_turns, seg_counts = [], []
    for i in range(n_seg):
        seg = centers[i + 1] - centers[i]
        if math.hypot(seg[0], seg[1]) < 1e-12:
            raise ValueError(f"degenerate segment: centers {i} and {i + 1} coincide")
        target = current + _wrap180(math.degrees(math.atan2(seg[1], seg[0])) - current)
        turn = target - current
        theta = float(angle_schedule[i])
        if theta <= 0:
            raise ValueError(f"rotation step for segment {i} must be > 0, got {theta}")
        sign = 1.0 if turn >= 0 else -1.0
        k = 1
        # rotate until the next step would pass the connecting direction
        while k * theta < abs(turn) - 1e-9:
            rays.append((i, current + sign * k * theta))
            k += 1
        rays.append((i, target))  # the connecting ray through c_i and c_{i+1}
        seg_turns.append(abs(turn))
        seg_counts.append(k)  # k - 1 rotation steps plus the connecting ray
        current = target

    raw_count = len(rays)
    adjusted = None
    if raw_count > width:
        adjusted = "trim"
        excess = raw_count - width
        left = excess // 2
        rays = rays[left:left + width]
    elif raw_count < width:
        adjusted = "pad"
        deficit = width - raw_count
        left = deficit // 2
        rays = [rays[0]] * left + rays + [rays[-1]] * (deficit - left)

    directions = np.array([_unit(angle) for _, angle in rays])
    origins = centers[[c for c, _ in rays]] - math.hypot(bounds[0], bounds[1]) * directions
    xy, valid, counts = _sample(origins, directions, n_samples, delta, bounds)
    return RayFan(
        origins=origins,
        directions=directions,
        centers=centers,
        angle_schedule=tuple(float(t) for t in angle_schedule[:n_seg]),
        bounds=(int(bounds[0]), int(bounds[1])),
        n_samples=n_samples,
        delta=delta,
        raw_count=raw_count,
        adjusted=adjusted,
        segment_turns=tuple(seg_turns),
        segment_ray_counts=tuple(seg_counts),
        sample_xy=xy,
        sample_valid=valid,
        sample_counts=counts,
    )


def _sample(origins, directions, n_samples: int, delta: float, bounds):
    """Walk every ray from its origin at spacing delta and keep the first
    n_samples points that fall inside [0, nx] x [0, ny].

    Returns the packed (xy, valid, counts) arrays, zero-padded past each
    ray's count. Each computed coordinate is monotone in the step and the box
    is convex, so a ray's in-bounds steps form one run from its first one.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    nx, ny = bounds
    reach = math.hypot(nx, ny)
    n_steps = int(math.ceil(2.0 * reach / delta)) + 2
    ts = delta * np.arange(n_steps, dtype=np.float64)
    x = origins[:, 0, None] + ts * directions[:, 0, None]
    y = origins[:, 1, None] + ts * directions[:, 1, None]
    ok = (x >= 0) & (x <= nx) & (y >= 0) & (y <= ny)
    counts = np.minimum(ok.sum(axis=1), n_samples)
    max_k = int(counts.max()) if len(counts) else 0
    k = np.arange(max_k)
    steps = np.minimum(ok.argmax(axis=1)[:, None] + k, n_steps - 1)
    valid = k < counts[:, None]
    xy = np.stack([np.take_along_axis(c, steps, axis=1) for c in (x, y)], axis=-1)
    xy[~valid] = 0.0
    return xy, valid, counts


def sample_points(ray: Ray, n_samples: int, delta: float, bounds) -> Ray:
    """Walk the ray from its origin at spacing delta and keep the first
    n_samples points that fall inside [0, nx] x [0, ny]."""
    xy, _, counts = _sample(ray.origin[None, :], ray.direction[None, :],
                            n_samples, delta, bounds)
    return Ray(origin=ray.origin, direction=ray.direction, delta=delta,
               samples=xy[0, :counts[0]])


def build_fan(config: GeometryConfig | None = None, bounds=(256, 256)) -> RayFan:
    """Construct and sample the full fan for an (nx, ny) axial grid."""
    cfg = config if config is not None else GeometryConfig()
    nx, ny = int(bounds[0]), int(bounds[1])
    if nx < 1 or ny < 1:
        raise DimsError(f"axial bounds must be positive, got {bounds}")
    curve = cfg.curve if cfg.curve is not None else default_curve_for_grid(nx, ny)
    return extract_rays(
        make_centers(curve),
        cfg.schedule(),
        initial_angle=cfg.initial_angle,
        width=cfg.width,
        bounds=(nx, ny),
        delta=cfg.delta,
        n_samples=cfg.n_samples,
    )


# ----------------------------------------------------------------------
# raymap export
# ----------------------------------------------------------------------

def save_rayfan(fan: RayFan, path) -> None:
    """Plain-text fan dump: header + one 'i ox oy dx dy n' line per ray."""
    lines = [f"{_RAYFAN_MAGIC} {fan.n_rays} {fan.n_samples} {fan.delta:.9g}"]
    for i, ((ox, oy), (dx, dy), k) in enumerate(
        zip(fan.origins, fan.directions, fan.sample_counts)
    ):
        lines.append(f"{i} {ox:.9g} {oy:.9g} {dx:.17g} {dy:.17g} {k}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_rayfan_header(path) -> tuple[int, int, float]:
    """Parse just the RAYFAN1 header (ray count, sample count, delta)."""
    with open(path, "rb") as fh:
        line = fh.readline()
    try:
        magic, n_rays, n_samples, delta = line.decode("ascii").split()
        header = int(n_rays), int(n_samples), float(delta)
    except ValueError as exc:  # non-ASCII bytes, a wrong field count, bad numbers
        raise FormatError(f"{path}: bad rayfan header ({exc})") from exc
    if magic != _RAYFAN_MAGIC:
        raise FormatError(f"{path}: bad rayfan header magic {magic!r}")
    return header
