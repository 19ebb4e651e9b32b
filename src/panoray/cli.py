"""Command-line entry point wiring phantoms, rendering, back-projection,
reconstruction, metrics and export together.

--geometry FILE is the one source of the fan and of beta: render, raymap,
backproject and reconstruct build the fan from the same file and read the
same beta (the file's beta=, else 0.02), so an image is inverted through
the fan and attenuation that rendered it. render's --height sets the
image's own height; its --beta must equal the geometry's beta.

--threads N (default: the CPU count) caps the worker threads of render's
projection and of the SSIM that metrics and reconstruct --truth score:
render projects blocks of slices on them, and SSIM scores slices on them.
backproject and the solve of reconstruct project on the calling thread.
Every block is computed the same way whichever worker runs it, so outputs
are bit-identical at any thread count. --seed sets phantom's RNG seed.

No command writes a file it reads or writes one file twice, and none
writes into a directory that is missing or over one: an output path that
names an input or another output, is a directory, or lies in a directory
that does not exist is refused before any work.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from . import backproject, metrics, ray_geometry, reconstructor, renderer, volume
from ._pool import check_int, check_real
from .errors import DimsError, FormatError

# geometry-file keys and their parsers by the config that owns their defaults;
# "auto" leaves scale, offset or initial_angle to that owner
_CURVE_KEYS = {"scale": float, "coefficient": float, "span": float, "x_range": tuple,
               "step": float, "offset": tuple}
_FAN_KEYS = {"initial_angle": float, "width": int, "n_samples": int, "delta": float,
             "angle_scale": float}
_AUTO_KEYS = {"scale", "offset", "initial_angle"}
_GEOMETRY_KEYS = {*_CURVE_KEYS, *_FAN_KEYS, "grid", "beta"}
# the path options each command reads and writes (see _check_outputs)
_PATHS = {
    "phantom": ((), ("out",)),
    "render": (("vol", "geometry"), ("out",)),
    "raymap": (("geometry",), ("out",)),
    "backproject": (("img", "geometry"), ("out_counts", "out_rho")),
    "reconstruct": (("img", "geometry", "truth"), ("out", "report")),
    "metrics": (("a", "b"), ()),
    "export": (("img", "vol"), ("out",)),
}


def _parse_number(text, key, kind=float):
    """A geometry value as kind (float, int, or tuple: two floats); errors name key."""
    if kind is tuple:
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"{key} expects two comma-separated values, got {text!r}")
        return tuple(_parse_number(part, key) for part in parts)
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} expects {what}, got {text!r}") from None


def _parse_grid(text) -> tuple[int, int]:
    try:
        nx, ny = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise FormatError(f"grid expects two comma-separated integers, got {text!r}") from exc
    return nx, ny


def load_geometry(path) -> dict:
    """Parse a key=value geometry file; unknown keys, theta_<i> keys whose
    i is not a segment index, and keys that repeat one of an earlier line
    (theta keys compared by segment index) are rejected."""
    raw = {}
    seen = {}  # (line, key) of each key so far, theta keys by segment index
    # undecodable bytes become lone surrogates, which fail isascii
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for ln, line in enumerate(fh, 1):
            if not line.isascii():
                raise FormatError(f"{path}:{ln}: line is not ASCII")
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            name = key
            if key.startswith("theta_"):
                index = key[len("theta_"):]
                if not (index.isascii() and index.isdigit()
                        and int(index) < ray_geometry.N_SEGMENTS):
                    raise FormatError(
                        f"{path}:{ln}: geometry key {key!r} names no segment; "
                        f"use theta_0 .. theta_{ray_geometry.N_SEGMENTS - 1}"
                    )
                name = f"theta_{int(index)}"
            elif key not in _GEOMETRY_KEYS:
                raise FormatError(f"{path}:{ln}: unknown geometry key {key!r}")
            if name in seen:
                first, given = seen[name]
                raise FormatError(f"{path}:{ln}: geometry key {key!r} repeats "
                                  f"{given!r} of line {first}")
            seen[name] = ln, key
            raw[key] = val
    return raw


def _given(raw: dict, table: dict) -> dict:
    """The keys of `table` that `raw` sets, other than to "auto", parsed."""
    return {
        key: _parse_number(raw[key], key, kind)
        for key, kind in table.items()
        if key in raw and not (key in _AUTO_KEYS and raw[key] == "auto")
    }


def build_geometry(raw: dict, grid: tuple[int, int]):
    """Turn a raw geometry dict into a GeometryConfig for an (nx, ny) grid;
    keys it does not set keep CenterCurve's and GeometryConfig's defaults."""
    curve = ray_geometry.default_curve_for_grid(*grid, **_given(raw, _CURVE_KEYS))
    overrides = {int(key[len("theta_"):]): _parse_number(val, key)
                 for key, val in raw.items() if key.startswith("theta_")}
    return ray_geometry.GeometryConfig(curve=curve, theta_overrides=overrides,
                                       **_given(raw, _FAN_KEYS))


def _geometry_setup(args, grid=None):
    """Load the geometry file (if any) and return the fan for `grid` (nx, ny),
    else for the file's grid= or 256x256, and beta (> 0), the file's or the
    default; a file grid= that differs from `grid` raises DimsError."""
    raw = load_geometry(args.geometry) if args.geometry else {}
    beta = _parse_number(raw.get("beta", renderer.RenderConfig.beta), "beta")
    check_real("beta", beta, "> 0")
    if "grid" in raw:
        file_grid = _parse_grid(raw["grid"])
        if grid is not None and file_grid != grid:
            raise DimsError(f"geometry grid {file_grid} does not match volume {grid}")
        grid = file_grid
    grid = grid or ray_geometry.DEFAULT_GRID
    fan = ray_geometry.build_fan(build_geometry(raw, grid), bounds=grid)
    return fan, beta


def _same_file(a, b) -> bool:
    """Whether the paths a and b name one file: by device and inode where
    both exist, else by resolved path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _check_outputs(args) -> None:
    """ValueError if an output path of the command names one of its inputs
    or an earlier output, is a directory, or lies in a directory that does
    not exist."""
    inputs, outputs = _PATHS[args.command]
    seen = [(dest, getattr(args, dest)) for dest in inputs if getattr(args, dest)]
    for dest, path in ((d, getattr(args, d)) for d in outputs if getattr(args, d)):
        flag = f"--{dest.replace('_', '-')}"
        for other, prior in seen:
            if _same_file(path, prior):
                raise ValueError(f"{flag} {path} names the same file "
                                 f"as --{other.replace('_', '-')}")
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise ValueError(f"{flag} {path}: no directory {parent}")
        seen.append((dest, path))


def _cmd_phantom(args):
    try:
        dims = tuple(int(d) for d in args.dims.split(","))
    except ValueError as exc:
        raise ValueError(f"--dims expects three comma-separated integers nz,ny,nx, "
                         f"got {args.dims!r}") from exc
    vol = volume.make_phantom(args.kind, dims, seed=args.seed)
    volume.save_volume(vol, args.out)
    return 0


def _cmd_render(args):
    vol = volume.load_volume(args.vol)
    nz, ny, nx = vol.dims
    fan, beta = _geometry_setup(args, grid=(nx, ny))
    if args.beta is not None and args.beta != beta:
        raise ValueError(f"--beta {args.beta} does not match the geometry's beta {beta}; "
                         "set beta= in the geometry file")
    height = args.height if args.height is not None else min(nz, 128)
    rcfg = renderer.RenderConfig(beta=beta, width=fan.n_rays, height=height,
                                 threads=args.threads)
    img = renderer.render_simpx(vol, fan, rcfg)
    renderer.save_image(img, args.out)
    return 0


def _cmd_raymap(args):
    fan, _ = _geometry_setup(args)
    ray_geometry.save_rayfan(fan, args.out)
    return 0


def _cmd_backproject(args):
    img = renderer.load_image(args.img)
    fan, beta = _geometry_setup(args)
    nx, ny = fan.bounds
    cands = backproject.image_candidates(img, fan, beta)
    bmap = backproject.aggregate_rho(fan, cands, (img.dims[0], ny, nx))
    volume.save_raw_volume(bmap.counts, args.out_counts)
    volume.save_raw_volume(bmap.rho, args.out_rho)
    return 0


def _load_truth(path, dims):
    """The --truth volume, checked against the reconstruction dims, and the
    file's identity: (device, inode, size, mtime) for a regular file, None
    for anything else (a pipe, which can be read only once)."""
    truth = volume.load_volume(path)
    if truth.dims != dims:
        raise DimsError(
            f"truth volume dims {truth.dims} do not match the reconstruction "
            f"dims {dims}; set grid=<nx>,<ny> in the geometry file"
        )
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):
        return truth, None
    return truth, (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _cmd_reconstruct(args):
    img = renderer.load_image(args.img)
    fan, beta = _geometry_setup(args)
    nx, ny = fan.bounds
    dims = (img.dims[0], ny, nx)
    truth = identity = None
    if args.truth:
        # checked before solving; a regular file is not held through the
        # solve, whose state volumes are the command's peak, but read again
        # to score
        truth, identity = _load_truth(args.truth, dims)
        if identity is not None:
            truth = None
    flags = {"max_iters": args.iters, "step_size": args.step, "init": args.init}
    cfg = reconstructor.ReconConfig(beta=beta, **{k: v for k, v in flags.items() if v is not None})
    result, report = reconstructor.reconstruct(img, fan, cfg)
    volume.save_volume(result, args.out)
    if args.report:
        reconstructor.save_report(report, args.report)
    if args.truth:
        if truth is None:
            truth, again = _load_truth(args.truth, dims)
            if again != identity:
                raise ValueError(f"{args.truth}: truth volume changed during the solve")
        print(metrics.evaluate(result, truth, threads=args.threads).format_line())
    return 0


def _cmd_metrics(args):
    # float32 as stored: evaluate widens one slice pair at a time
    a = volume.load_volume(args.a)
    b = volume.load_volume(args.b)
    report = metrics.evaluate(a, b, threshold=args.threshold, threads=args.threads)
    print(report.format_line())
    return 0


def _cmd_export(args):
    if (args.img is None) == (args.vol is None):
        raise ValueError("export needs exactly one of --img or --vol")
    if args.img is not None:
        img = renderer.load_image(args.img)
        if args.format == "pgm":
            renderer.save_pgm16(img.pixels, args.out)
        else:
            renderer.save_image(img, args.out)
    else:
        vol = volume.load_volume(args.vol)
        if args.format == "pgm":
            raise ValueError("pgm export works on images; use --img")
        volume.save_volume(vol, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--threads", type=int, default=max(1, os.cpu_count() or 1),
        help="most worker threads for render's projection and SSIM (default: the CPU "
             "count); outputs are identical at any count",
    )

    p = argparse.ArgumentParser(prog="panoray", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantom", parents=[common], help="generate a synthetic volume")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--dims", required=True, help="nz,ny,nx")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_phantom)

    sp = sub.add_parser("render", parents=[common], help="render a SimPX image")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--beta", type=float, default=None,
                    help="must equal the geometry's beta (the file's beta=, else "
                         f"{renderer.RenderConfig.beta:g})")
    sp.add_argument("--height", type=int, default=None)
    sp.add_argument("--geometry", default=None)
    sp.set_defaults(fn=_cmd_render)

    sp = sub.add_parser("raymap", parents=[common], help="export the ray fan as text")
    sp.add_argument("--geometry", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_raymap)

    sp = sub.add_parser("backproject", parents=[common],
                        help="crossing counts and aggregated density")
    sp.add_argument("--img", required=True)
    sp.add_argument("--geometry", default=None)
    sp.add_argument("--out-counts", required=True)
    sp.add_argument("--out-rho", required=True)
    sp.set_defaults(fn=_cmd_backproject)

    sp = sub.add_parser("reconstruct", parents=[common],
                        help="recover a volume from a SimPX image")
    sp.add_argument("--img", required=True)
    sp.add_argument("--geometry", default=None)
    # solver flags left unset keep ReconConfig's defaults
    sp.add_argument("--iters", type=int, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--init", choices=("rho", "zeros"), default=None)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report", default=None)
    sp.add_argument("--truth", default=None, help="ground-truth volume for metrics")
    sp.set_defaults(fn=_cmd_reconstruct)

    sp = sub.add_parser("metrics", parents=[common], help="compare two volumes")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--threshold", type=float, default=metrics.DICE_THRESHOLD)
    sp.set_defaults(fn=_cmd_metrics)

    sp = sub.add_parser("export", parents=[common], help="convert image/volume files")
    sp.add_argument("--img", default=None)
    sp.add_argument("--vol", default=None)
    sp.add_argument("--format", choices=("pgm", "float"), required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_export)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        check_int("threads", args.threads)
        _check_outputs(args)
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
    except FormatError as exc:
        print(f"error: malformed format: {exc}", file=sys.stderr)
    except DimsError as exc:
        print(f"error: inconsistent dims: {exc}", file=sys.stderr)
    except (ValueError, RuntimeError) as exc:
        print(f"error: invalid value: {exc}", file=sys.stderr)
    except OSError as exc:
        # str(exc) names exc.filename when the error carries one
        print(f"error: cannot read or write: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
