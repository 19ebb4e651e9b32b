"""Run one panoray benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. After set-up, passes of the workload run back to back (one client,
closed loop) until S seconds have gone, and every pass's outputs are
checked. The output lists each metric as `name value unit`, and the last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports its per-layer metrics: spans are recorded around panoray's public
functions on passes in the order traced, untraced, untraced, traced, ...,
and the untraced ones give the tracing overhead. Spans are written to
.perfbench-out/ at the end.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the names of workloads.WORKLOADS, repeated so arguments are checked before
# the package is imported
WORKLOAD_NAMES = ("recon-sphere64", "pipeline-jaw128", "render-sweep")
IMPORT_REPS = 5
_TIME_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, panoray; print(time.perf_counter() - t)"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "panoray" / "__init__.py").is_file():
        print(f"error: no panoray sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import panoray
    if Path(panoray.__file__).resolve().parent != SRC / "panoray":
        print(f"error: imported panoray from {panoray.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = import_seconds()

    import measure

    with open(spec_path, encoding="ascii") as fh:
        spec = json.load(fh)
    return measure.run(args, spec, import_s)


def import_seconds() -> float:
    """Median time to import numpy and panoray in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", _TIME_IMPORT, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
