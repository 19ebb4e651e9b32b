"""Command-line entry point wiring phantoms, rendering, back-projection,
reconstruction, metrics and export together.

Every subcommand still accepts --threads for compatibility, but it has no
effect: rendering, back-projection and reconstruction run one
single-threaded code path through the fan's system matrix, so outputs are
bit-identical whatever thread count is given. --deterministic is accepted
for the same reason and changes nothing (there is no non-deterministic
path to disable).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import backproject, metrics, ray_geometry, reconstructor, renderer, volume
from .errors import DimsError, FormatError

_GEOMETRY_KEYS = {
    "coefficient", "span", "x_range", "step", "offset", "scale",
    "initial_angle", "width", "n_samples", "delta", "angle_scale",
    "grid", "beta",
}


def _parse_pair(text, name):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{name} expects two comma-separated values, got {text!r}")
    return float(parts[0]), float(parts[1])


def load_geometry(path) -> dict:
    """Parse a key=value geometry file; unknown keys, and theta_<i> keys
    whose i is not a segment index, are rejected."""
    raw = {}
    with open(path, "r", encoding="ascii") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key.startswith("theta_"):
                index = key[len("theta_"):]
                if not (index.isascii() and index.isdigit()
                        and int(index) < ray_geometry.N_SEGMENTS):
                    raise FormatError(
                        f"{path}:{ln}: geometry key {key!r} names no segment; "
                        f"use theta_0 .. theta_{ray_geometry.N_SEGMENTS - 1}"
                    )
            elif key not in _GEOMETRY_KEYS:
                raise FormatError(f"{path}:{ln}: unknown geometry key {key!r}")
            raw[key] = val
    return raw


def build_geometry(raw: dict, grid: tuple[int, int]):
    """Turn a raw geometry dict into a GeometryConfig for an (nx, ny) grid."""
    nx, ny = grid
    base = ray_geometry.default_curve_for_grid(nx, ny)
    scale = base.scale
    if raw.get("scale", "auto") != "auto":
        scale = float(raw["scale"])
    coefficient = float(raw.get("coefficient", base.coefficient))
    span = float(raw.get("span", base.span))
    x_range = base.x_range
    if "x_range" in raw:
        x_range = _parse_pair(raw["x_range"], "x_range")
    step = float(raw.get("step", base.step))
    if raw.get("offset", "auto") != "auto":
        offset = _parse_pair(raw["offset"], "offset")
    else:
        probe = ray_geometry.CenterCurve(
            coefficient=coefficient, x_range=x_range, step=step, span=span,
            offset=(0.0, 0.0), scale=1.0,
        )
        offset = (nx / 2.0, 0.6 * ny - scale * probe.height(0.0))
    curve = ray_geometry.CenterCurve(
        coefficient=coefficient, x_range=x_range, step=step, span=span,
        offset=offset, scale=scale,
    )
    initial = raw.get("initial_angle", "auto")
    overrides = {}
    for key, val in raw.items():
        if key.startswith("theta_"):
            overrides[int(key[len("theta_"):])] = float(val)
    return ray_geometry.GeometryConfig(
        curve=curve,
        initial_angle=None if initial == "auto" else float(initial),
        width=int(raw.get("width", 256)),
        n_samples=int(raw.get("n_samples", 200)),
        delta=float(raw.get("delta", 1.0)),
        angle_scale=float(raw.get("angle_scale", 1.0)),
        theta_overrides=overrides,
    )


def _geometry_setup(args, overrides=None, grid=None):
    """Load the geometry file (if any), apply CLI overrides, build the fan
    for `grid` (nx, ny), else for the file's grid= or 256x256; a file grid=
    that differs from `grid` raises DimsError."""
    raw = load_geometry(args.geometry) if getattr(args, "geometry", None) else {}
    if overrides:
        raw.update({k: str(v) for k, v in overrides.items() if v is not None})
    if "grid" in raw:
        gx, gy = _parse_pair(raw["grid"], "grid")
        if grid is not None and (int(gx), int(gy)) != grid:
            raise DimsError(
                f"geometry grid ({int(gx)}, {int(gy)}) does not match volume {grid}"
            )
        grid = (int(gx), int(gy))
    grid = grid or (256, 256)
    cfg = build_geometry(raw, grid)
    fan = ray_geometry.build_fan(cfg, bounds=grid)
    beta = float(raw.get("beta", 0.02))
    return fan, cfg, grid, beta


def _cmd_phantom(args):
    dims = tuple(int(d) for d in args.dims.split(","))
    vol = volume.make_phantom(args.kind, dims, seed=args.seed)
    volume.save_volume(vol, args.out)
    return 0


def _cmd_render(args):
    vol = volume.load_volume(args.vol)
    nz, ny, nx = vol.dims
    overrides = {"width": args.width, "n_samples": args.samples, "delta": args.delta}
    fan, cfg, _, beta = _geometry_setup(args, overrides, grid=(nx, ny))
    if args.beta is not None:
        beta = args.beta
    height = args.height if args.height is not None else min(nz, 128)
    rcfg = renderer.RenderConfig(
        beta=beta, n_samples=cfg.n_samples, delta=cfg.delta,
        width=cfg.width, height=height, threads=args.threads,
    )
    img = renderer.render_simpx(vol, fan, rcfg)
    renderer.save_image(img, args.out)
    return 0


def _cmd_raymap(args):
    fan, _, _, _ = _geometry_setup(args)
    ray_geometry.save_rayfan(fan, args.out)
    return 0


def _cmd_backproject(args):
    img = renderer.load_image(args.img)
    fan, _, grid, beta = _geometry_setup(args)
    h, w = img.dims
    if w != fan.n_rays:
        raise DimsError(f"image width {w} does not match fan ray count {fan.n_rays}")
    dims = (h, grid[1], grid[0])
    cands = backproject.image_candidates(img.pixels, fan, beta)
    bmap = backproject.aggregate_rho(fan, cands, dims)
    volume.save_raw_volume(bmap.counts, args.out_counts)
    volume.save_raw_volume(bmap.rho, args.out_rho)
    return 0


def _cmd_reconstruct(args):
    img = renderer.load_image(args.img)
    fan, _, grid, beta = _geometry_setup(args)
    h, w = img.dims
    if w != fan.n_rays:
        raise DimsError(f"image width {w} does not match fan ray count {fan.n_rays}")
    truth = volume.load_volume(args.truth) if args.truth else None
    if truth is not None and truth.dims != (h, grid[1], grid[0]):
        raise DimsError(
            f"truth volume dims {truth.dims} do not match the reconstruction "
            f"dims ({h}, {grid[1]}, {grid[0]}); set grid=<nx>,<ny> in the "
            f"geometry file"
        )
    cfg = reconstructor.ReconConfig(
        lambda1=args.lambda1, max_iters=args.iters, step_size=args.step,
        init=args.init, beta=beta,
    )
    result, report = reconstructor.reconstruct(
        img, fan, cfg, ground_truth=truth, threads=args.threads
    )
    volume.save_volume(result, args.out)
    if args.report:
        reconstructor.save_report(report, args.report)
    if report.final_metrics is not None:
        print(report.final_metrics.format_line())
    return 0


def _cmd_metrics(args):
    a = volume.load_volume(args.a)
    b = volume.load_volume(args.b)
    report = metrics.evaluate(a, b, threshold=args.threshold)
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
        "--seed", type=int, default=0,
        help="RNG seed; only phantom reads it, every other subcommand ignores it",
    )
    common.add_argument(
        "--threads", type=int, default=max(1, os.cpu_count() or 1),
        help="accepted for compatibility; has no effect (one deterministic code path)",
    )
    common.add_argument(
        "--deterministic", action="store_true",
        help="accepted for compatibility; has no effect (outputs are always deterministic)",
    )

    p = argparse.ArgumentParser(prog="panoray", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phantom", parents=[common], help="generate a synthetic volume")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--dims", required=True, help="nz,ny,nx")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_phantom)

    sp = sub.add_parser("render", parents=[common], help="render a SimPX image")
    sp.add_argument("--vol", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--width", type=int, default=None)
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
    sp.add_argument("--iters", type=int, default=200)
    sp.add_argument("--step", type=float, default=1.0)
    sp.add_argument("--lambda1", type=float, default=10.0)
    sp.add_argument("--init", choices=("rho", "zeros"), default="rho")
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
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
    except FormatError as exc:
        print(f"error: malformed format: {exc}", file=sys.stderr)
    except DimsError as exc:
        print(f"error: inconsistent dims: {exc}", file=sys.stderr)
    except (ValueError, RuntimeError) as exc:
        print(f"error: invalid value: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
