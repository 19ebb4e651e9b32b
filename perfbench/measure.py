"""Set-up, measured passes, output checks and the printed result of one
benchmark run; run.py calls `run` once the package has been imported."""

from __future__ import annotations

import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPS = 5
# median Calibration() time on the 2-vCPU Xeon machine the benchmark was
# defined on; scaled times read as seconds on that machine at its usual speed
CAL_REF_S = 0.015


class Calibration:
    """A fixed numpy kernel that runs no panoray code: gathers from and
    scatter-adds into a 64x64 array, like the renderer's and solver's inner
    loops. On a shared host, other tenants change a vCPU's speed by up to
    2.5x for seconds to minutes at a time, so raw pass times moved 10-30%
    between runs. Timing this kernel just before and after each set-up and
    pass lets that slowdown divide out."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.random(64 * 64)
        self.index = rng.integers(0, self.values.size, (512, 200))
        self.weights = rng.random(self.index.size)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            self.values[self.index].sum(axis=1)
            np.bincount(self.index.ravel(), weights=self.weights, minlength=self.values.size)
        return time.perf_counter() - start


def run(args, spec, import_s) -> int:
    tracer = spans.Tracer()
    if args.trace:
        layers.install(tracer)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed % workloads.N_VARIANTS, workdir, tracer)
    try:
        return measure(args, spec, wl, tracer, import_s)
    finally:
        tracer.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, wl, tracer, import_s) -> int:
    calibrate = Calibration()
    cal = [calibrate()]
    import_ratio = import_s / cal[0]
    setup_s, setup_ratio = [], []
    for i in range(SETUP_REPS):
        with tracer.root("setup", i, active=bool(args.trace)):
            start = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - start)
        cal.append(calibrate())
        setup_ratio.append(setup_s[-1] / ((cal[-2] + cal[-1]) / 2))

    ref = workloads.load_refs(wl.name, wl.variant)
    attempted = failed = 0
    passes = []          # (seconds, seconds / calibration, traced)
    first = None
    phase_start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 4 in (0, 3)
        start = time.perf_counter()
        with tracer.root("pass", i, active=traced) as root:
            try:
                out = wl.run_pass()
            except Exception:  # noqa: BLE001 - a failing pass is counted, not fatal
                traceback.print_exc()
                out = None
        # a traced pass lasts exactly as long as its root span
        seconds = root["end"] - root["start"] if traced else time.perf_counter() - start
        cal.append(calibrate())
        passes.append((seconds, seconds / ((cal[-2] + cal[-1]) / 2), traced))
        attempted += wl.ops_per_pass
        problems = ["pass raised"] if out is None else wl.check_pass(out, ref)
        if problems:
            failed += wl.ops_per_pass if out is None else min(len(problems), wl.ops_per_pass)
            for msg in problems:
                print(f"check failed: pass {i}: {msg}", file=sys.stderr)
        if first is None and out is not None:
            first = out
        i += 1
        done = time.perf_counter() - phase_start >= args.seconds
        if done and (not args.trace or {t for _, _, t in passes} == {True, False}):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        with tracer.root("probe", 0, active=True):
            wl.probes()

    checks = wl.final_checks(first) if first is not None else [("no pass completed", False)]
    trace_summary = None
    if args.trace:
        trace_summary = spans.Summary(tracer.spans)
        checks.append(layers.self_time_check(trace_summary, passes))
    for label, ok in checks:
        attempted += 1
        if not ok:
            failed += 1
            print(f"check failed: {label}", file=sys.stderr)

    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} variant {wl.variant} "
          f"passes {len(passes)} setup_reps {SETUP_REPS}")
    for label, ok in checks:
        print(f"check {'ok' if ok else 'FAILED'}: {label}")

    if args.trace:
        values = layers.per_layer(trace_summary, passes)
        wanted = spec["per_layer"]
        write_spans(args, machine, tracer.spans, trace_summary)
    else:
        seconds = [s for s, _, _ in passes]
        print(f"raw pass_s median {statistics.median(seconds):.6g} min {min(seconds):.6g} "
              f"max {max(seconds):.6g} over {len(seconds)} passes; raw import_s {import_s:.6g}; "
              f"raw setup_s median {statistics.median(setup_s):.6g}; "
              f"calibration median {1e3 * statistics.median(cal):.6g} ms "
              f"(reference {1e3 * CAL_REF_S:g} ms)")
        values = {
            "setup_s": CAL_REF_S * (import_ratio + statistics.median(setup_ratio)),
            "wall_s": CAL_REF_S * statistics.median(r for _, r, _ in passes),
            "psnr_db": wl.psnr_db(first) if first is not None else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
        extras = wl.extras() if first is not None else {}
        extras["error_rate"] = (failed / attempted, "ratio")
        for name, (value, unit) in extras.items():
            print(f"{name} {value:.6g} {unit} (workload-specific, not in BENCHMARK.json)")

    result = {}
    for m in wanted:
        value = values[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        tag = " (computed)" if m["name"] in layers.COMPUTED else ""
        print(f"{m['name']} {value:.6g} {m['unit']}{tag}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def machine_record() -> dict:
    """CPU, caches, library versions and the source commit, read only."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": git_commit(),
    }


def _version(dist: str):
    # read from package metadata: importing scipy here would add to peak RSS
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def git_commit():
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_spans(args, machine, recorded, summary) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    rows = [dict(s, self=own) for s, own in zip(recorded, summary.self_s)]
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "machine": machine, "spans": rows}, fh)
    print(f"spans written to {path.relative_to(ROOT)}")
