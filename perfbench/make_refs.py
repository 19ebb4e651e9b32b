"""Write refs.json: the reference outputs of every workload variant.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs set-up and one pass of each variant with tracing off and records the
values run.py checks later passes against (masked or printed PSNR, image
pixel sums). Regenerate only when the workloads themselves change; a
change to panoray must reproduce these values, not rewrite them.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def main(names) -> int:
    refs = {}
    if workloads.REFS_PATH.is_file():
        refs = json.loads(workloads.REFS_PATH.read_text(encoding="ascii"))
    for name in names or workloads.WORKLOADS:
        table = {}
        workdir = ROOT / ".perfbench-out" / f"refs-{name}"
        for variant in range(workloads.N_VARIANTS):
            wl = workloads.WORKLOADS[name](variant, workdir, spans.Tracer())
            wl.setup()
            table[str(variant)] = wl.reference(wl.run_pass())
            print(name, variant, table[str(variant)] if name != "render-sweep" else "", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        refs[name] = table
        workloads.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                       encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
