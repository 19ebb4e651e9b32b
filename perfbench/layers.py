"""Per-layer metrics of a traced run.

`install` wraps panoray's public functions on their defining modules;
`per_layer` turns the recorded spans into the per-layer metrics named in
BENCHMARK.json. Every span name gets three metrics: `.ms` (median duration
per call), `.self_ms` (median duration minus direct children) and `.calls`
(calls per measured pass, or per set-up or probe round for layers that run
only there). A layer a workload does not exercise reports 0.

Counts marked "computed" are derived from array and file sizes, not
measured: they repeat exactly and ignore cache behaviour.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from panoray import backproject, metrics, ray_geometry, reconstructor, renderer, volume

WRAPPED = (
    (volume, ("make_phantom", "save_volume", "save_raw_volume", "load_volume", "load_raw_volume")),
    (ray_geometry, ("build_fan",)),
    (renderer, ("render_simpx", "mip", "save_image", "load_image", "save_pgm16")),
    (backproject, ("crossing_counts", "image_candidates", "aggregate_rho")),
    (reconstructor, ("reconstruct", "save_report")),
    (metrics, ("evaluate", "psnr", "ssim", "dice", "volume_mse")),
)
# spans opened by the workloads themselves, around public calls
MANUAL = (
    "reconstructor.loss", "reconstructor.loss_mip",
    "reconstructor.gradient", "reconstructor.gradient_mip",
    "cli.phantom", "cli.render", "cli.backproject", "cli.reconstruct",
    "cli.metrics", "cli.export",
)
SPAN_NAMES = tuple(
    f"{m.__name__.rsplit('.', 1)[-1]}.{f}" for m, fns in WRAPPED for f in fns
) + MANUAL

COMPUTED = {
    "ray_geometry.rays", "ray_geometry.samples",
    "renderer.forward_samples", "renderer.forward_bytes",
    "volume.pvol_bytes_written", "volume.pvol_bytes_read",
    "renderer.pimg_bytes_written", "renderer.pimg_bytes_read",
}


def _file_bytes(path_index):
    def attrs(args, kwargs, result):
        path = args[path_index] if len(args) > path_index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return attrs


def _fan_attrs(args, kwargs, fan):
    return {"rays": fan.n_rays, "samples": int(fan.sample_counts.sum())}


def _render_attrs(args, kwargs, img):
    fan, cfg = args[1], args[2]
    samples = cfg.height * int(fan.sample_counts.sum())
    corners = 4 if cfg.interpolation == "trilinear" else 1
    # float64 voxel values gathered per sample, plus the float64 image written
    moved = 8 * (samples * corners + cfg.height * fan.n_rays)
    return {"samples": samples, "bytes": moved}


def _recon_attrs(args, kwargs, result):
    return {"iterations": result[1].iterations_run}


ATTRS = {
    "build_fan": _fan_attrs,
    "render_simpx": _render_attrs,
    "reconstruct": _recon_attrs,
    "save_raw_volume": _file_bytes(1),
    "load_raw_volume": _file_bytes(0),
    "save_image": _file_bytes(1),
    "load_image": _file_bytes(0),
}


def install(tracer) -> None:
    for module, fns in WRAPPED:
        for fname in fns:
            tracer.wrap(module, fname, ATTRS.get(fname))


def _root_runs(summary, kind):
    return [s for s in summary.spans if s["parent"] is None and s["name"] == kind]


def self_time_check(summary, passes):
    """The self times of all spans in the traced passes add up to the
    traced passes' wall time, so every second is attributed once."""
    roots = _root_runs(summary, "pass")
    runs = {r["run"] for r in roots}
    own = sum(t for s, t in zip(summary.spans, summary.self_s) if s["run"] in runs)
    wall = sum(s for s, _, traced in passes if traced)
    ok = len(roots) == sum(1 for *_, t in passes if t) and abs(own - wall) <= 1e-6 * max(wall, 1.0)
    return (f"span self times sum to traced wall: {own:.6f} s of {wall:.6f} s", ok)


def per_layer(summary, passes) -> dict:
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.ms"] = summary.median_ms(name)
        out[f"{name}.self_ms"] = summary.median_self_ms(name)
        out[f"{name}.calls"] = summary.calls_per_root(name)

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def rate(amount, name):
        seconds = sum(summary.durations(name))
        return amount / seconds if seconds > 0 else 0.0

    render = "renderer.render_simpx"
    samples = summary.attr(render, "samples")
    render_ms = [1e3 * d for d in summary.durations(render)]
    out["ray_geometry.rays"] = mean(summary.attr("ray_geometry.build_fan", "rays"))
    out["ray_geometry.samples"] = mean(summary.attr("ray_geometry.build_fan", "samples"))
    out["renderer.forward_samples"] = mean(samples)
    out["renderer.forward_bytes"] = mean(summary.attr(render, "bytes"))
    out["renderer.samples_per_s"] = rate(sum(samples), render)
    out["renderer.images_per_s"] = rate(len(render_ms), render)
    out["renderer.render_simpx.p90_ms"] = (
        float(np.percentile(render_ms, 90)) if render_ms else 0.0
    )

    io_bytes = sum(summary.attr("volume.save_raw_volume", "bytes")) + sum(
        summary.attr("volume.load_raw_volume", "bytes"))
    io_s = sum(summary.durations("volume.save_raw_volume")) + sum(
        summary.durations("volume.load_raw_volume"))
    out["volume.io_mb_per_s"] = io_bytes / io_s / 1e6 if io_s > 0 else 0.0

    roots = _root_runs(summary, "pass")
    first = roots[0]["run"] if roots else None

    def pass_bytes(name):
        return sum(summary.spans[i]["bytes"] for i in summary.in_root(first, name))

    out["volume.pvol_bytes_written"] = pass_bytes("volume.save_raw_volume")
    out["volume.pvol_bytes_read"] = pass_bytes("volume.load_raw_volume")
    out["renderer.pimg_bytes_written"] = pass_bytes("renderer.save_image")
    out["renderer.pimg_bytes_read"] = pass_bytes("renderer.load_image")

    iterations = summary.attr("reconstructor.reconstruct", "iterations")
    recon_s = sum(summary.durations("reconstructor.reconstruct"))
    out["reconstructor.iterations"] = statistics.median(iterations) if iterations else 0
    out["reconstructor.ms_per_iter"] = 1e3 * recon_s / sum(iterations) if iterations else 0.0
    out["reconstructor.iters_per_s"] = sum(iterations) / recon_s if iterations else 0.0

    traced = [s for s, _, t in passes if t]
    ratio = {t: statistics.median(r for _, r, tt in passes if tt == t) for t in (True, False)}
    out["trace.overhead_frac"] = ratio[True] / ratio[False] - 1.0
    root_self = sum(summary.self_s[i] for i, s in enumerate(summary.spans)
                    if s["parent"] is None and s["name"] == "pass")
    out["trace.layer_frac"] = 1.0 - root_self / sum(traced)
    out["trace.spans_per_pass"] = sum(1 for s in summary.spans if s["run"] == first)
    return out

