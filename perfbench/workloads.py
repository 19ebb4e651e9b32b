"""The benchmark's three workloads, driven through panoray's public API.

Each workload is one process and one closed-loop client: the next pass
starts when the previous one has finished. Inputs come from a variant
number (the seed modulo N_VARIANTS); the package receives only the
generated inputs. Every pass is checked against closed forms, invariants
and the per-variant references in refs.json (written by make_refs.py).

  recon-sphere64   solver-bound: the acceptance reconstruction at a short,
                   fixed iteration budget; 64^2 slices stay in cache.
  pipeline-jaw128  whole CLI commands at 128x256x256: PVOL1/PIMG1 I/O, three
                   fan builds, back-projection, two metrics.evaluate calls.
  render-sweep     forward rendering only, through freshly built fans of
                   several geometries, trilinear and nearest.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from pathlib import Path

import numpy as np

from panoray import backproject, cli, metrics, ray_geometry, reconstructor, renderer, volume

N_VARIANTS = 64
REFS_PATH = Path(__file__).with_name("refs.json")
MIP_AXES = ("axial", "coronal", "sagittal")
# deterministic outputs may still move in the last digits when a later change
# reorders floating-point sums; these tolerances allow that and nothing more
PSNR_TOL_DB = 0.01
SUM_RTOL = 1e-9
CLOSED_FORM_ATOL = 1e-9


def load_refs(workload: str, variant: int):
    if not REFS_PATH.is_file():
        return None
    with open(REFS_PATH, encoding="ascii") as fh:
        return json.load(fh).get(workload, {}).get(str(variant))


def _sphere_descriptor(spheres) -> str:
    return "sphere-set:" + ";".join(",".join(f"{v:g}" for v in s) for s in spheres)


class ReconSphere64:
    """The acceptance end-to-end reconstruction at a fixed iteration budget."""

    name = "recon-sphere64"
    ops_per_pass = 1
    ITERS = 10
    DIMS = (64, 64, 64)
    BETA = 0.3
    # the pinned acceptance phantom: tooth-like spheres on the focal trough
    BASE = ((32, 23, 23, 5, 0.6), (32, 31, 29, 5, 0.6),
            (32, 36, 37, 5, 0.6), (32, 24, 42, 5, 0.6))

    def __init__(self, variant: int, workdir: Path, tracer):
        self.variant = variant
        self.tracer = tracer
        self.solver_s: list[float] = []
        self.iterations: list[int] = []

    def spheres(self):
        if self.variant == 0:
            return self.BASE
        rng = np.random.default_rng([self.variant, 1])
        return tuple(
            (round(z + rng.uniform(-1, 1), 3), round(y + rng.uniform(-0.5, 0.5), 3),
             round(x + rng.uniform(-0.5, 0.5), 3), round(r + rng.uniform(-0.15, 0.15), 3),
             round(v + rng.uniform(-0.015, 0.015), 3))
            for z, y, x, r, v in self.BASE
        )

    def setup(self):
        self.truth = volume.make_phantom(_sphere_descriptor(self.spheres()), self.DIMS)
        self.fan = ray_geometry.build_fan(
            ray_geometry.GeometryConfig(width=512, angle_scale=0.5), bounds=(64, 64)
        )
        self.target = renderer.render_simpx(
            self.truth, self.fan, renderer.RenderConfig(beta=self.BETA, width=512, height=64)
        )
        self.mips = {ax: renderer.mip(self.truth, ax) for ax in MIP_AXES}
        self.cfg = reconstructor.ReconConfig(
            beta=self.BETA, lambda1=10.0, max_iters=self.ITERS, step_size=1.0,
            init="rho", tol=0.0,
        )

    def run_pass(self):
        start = time.perf_counter()
        vol, report = reconstructor.reconstruct(
            self.target, self.fan, self.cfg, target_mips=self.mips, threads=1
        )
        self.solver_s.append(time.perf_counter() - start)
        self.iterations.append(report.iterations_run)
        covered = backproject.crossing_counts(self.fan, vol.dims) > 0
        return {"vol": vol, "report": report,
                "psnr": metrics.psnr(vol.data, self.truth.data, mask=covered)}

    def check_pass(self, out, ref) -> list[str]:
        problems = []
        totals = [row[1] for row in out["report"].loss_history]
        if any(b > a for a, b in zip(totals, totals[1:])):
            problems.append("loss history is not monotone")
        data = out["vol"].data
        if not (np.all(np.isfinite(data)) and data.min() >= 0.0 and data.max() <= 1.0):
            problems.append("reconstruction leaves [0, 1]")
        if out["report"].iterations_run != self.ITERS:
            problems.append(f"ran {out['report'].iterations_run} of {self.ITERS} iterations")
        if ref is None:
            problems.append("no reference PSNR for this variant")
        elif abs(out["psnr"] - ref["psnr_db"]) > PSNR_TOL_DB:
            problems.append(f"masked PSNR {out['psnr']:.6f} dB, reference {ref['psnr_db']:.6f}")
        return problems

    def final_checks(self, first):
        return []

    def psnr_db(self, first) -> float:
        return first["psnr"]

    def reference(self, first) -> dict:
        return {"psnr_db": first["psnr"], "iterations": first["report"].iterations_run}

    def extras(self) -> dict:
        return {"iters_per_s": (sum(self.iterations) / sum(self.solver_s), "1/s")}

    def probes(self):
        """Public loss and gradient at this workload's size, with and
        without the MIP term, as stand-ins for forward, adjoint, one
        line-search trial and the MIP term."""
        est = self.truth.data
        for name, fn, mips in (
            ("reconstructor.loss", reconstructor.loss, None),
            ("reconstructor.loss_mip", reconstructor.loss, self.mips),
            ("reconstructor.gradient", reconstructor.gradient, None),
            ("reconstructor.gradient_mip", reconstructor.gradient, self.mips),
        ):
            with self.tracer.span(name):
                fn(est, self.target, mips, self.fan, self.cfg)


class PipelineJaw128:
    """The README pipeline on a 128x256x256 jaw through in-process cli.main."""

    name = "pipeline-jaw128"
    ITERS = 5
    DIMS = (128, 256, 256)
    THREADS = 2
    COMMANDS = ("phantom", "render", "backproject", "reconstruct", "metrics", "export")
    ops_per_pass = len(COMMANDS)

    def __init__(self, variant: int, workdir: Path, tracer):
        self.variant = variant
        self.tracer = tracer
        self.dir = workdir
        self.command_s: dict[str, list[float]] = {c: [] for c in self.COMMANDS}

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        # the volume the phantom command must write, and the CLI's default fan
        self.truth = volume.make_phantom("jaw-arch", self.DIMS, seed=self.variant + 1)
        self.fan = ray_geometry.build_fan(ray_geometry.GeometryConfig(), bounds=(256, 256))

    def argv(self, command: str) -> list[str]:
        p = self.path
        args = {
            "phantom": ["--kind", "jaw-arch", "--dims", ",".join(map(str, self.DIMS)),
                        "--seed", str(self.variant + 1), "--out", p("jaw.pvol")],
            "render": ["--vol", p("jaw.pvol"), "--out", p("jaw.pimg"), "--beta", "0.02"],
            "backproject": ["--img", p("jaw.pimg"), "--out-counts", p("counts.pvol"),
                            "--out-rho", p("rho.pvol")],
            "reconstruct": ["--img", p("jaw.pimg"), "--iters", str(self.ITERS), "--init", "rho",
                            "--out", p("recon.pvol"), "--report", p("recon.txt"),
                            "--truth", p("jaw.pvol")],
            "metrics": ["--a", p("recon.pvol"), "--b", p("jaw.pvol")],
            "export": ["--img", p("jaw.pimg"), "--format", "pgm", "--out", p("jaw.pgm")],
        }[command]
        return [command, *args, "--threads", str(self.THREADS)]

    def run_pass(self):
        out = {}
        for command in self.COMMANDS:
            buf = io.StringIO()
            start = time.perf_counter()
            with self.tracer.span(f"cli.{command}"), contextlib.redirect_stdout(buf):
                try:
                    rc = cli.main(self.argv(command))
                except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as a failed op
                    rc = repr(exc)
            self.command_s[command].append(time.perf_counter() - start)
            out[command] = (rc, buf.getvalue())
        return out

    @staticmethod
    def _printed_psnr(text: str):
        m = re.search(r"psnr=(\S+)", text)
        return float(m.group(1)) if m else None

    def check_pass(self, out, ref) -> list[str]:
        problems = [f"{c} returned {rc!r}" for c, (rc, _) in out.items() if rc != 0]
        printed = self._printed_psnr(out["metrics"][1])
        if ref is None:
            problems.append("no reference PSNR for this variant")
        elif printed is None or abs(printed - ref["psnr_db"]) > PSNR_TOL_DB:
            problems.append(f"metrics printed PSNR {printed}, reference {ref['psnr_db']}")
        if out["reconstruct"][1].strip() != out["metrics"][1].strip():
            problems.append("reconstruct --truth and metrics disagree")
        return problems

    def final_checks(self, first):
        """Reload the last pass's files and check their dims and contents."""
        nz, ny, nx = self.DIMS
        height, width = min(nz, 128), self.fan.n_rays
        checks = []

        def check(label, fn):
            try:
                checks.append((label, bool(fn())))
            except Exception as exc:  # noqa: BLE001 - a failed reload is a failed check
                checks.append((f"{label}: {exc!r}", False))

        check("phantom output equals the generated jaw",
              lambda: np.array_equal(volume.load_volume(self.path("jaw.pvol")).data, self.truth.data))
        check("render output has the image dims",
              lambda: renderer.load_image(self.path("jaw.pimg")).dims == (height, width))
        for name in ("counts.pvol", "rho.pvol"):
            check(f"backproject {name} has the volume dims",
                  lambda name=name: volume.load_raw_volume(self.path(name)).shape == (height, ny, nx))
        check("reconstruct output is a valid volume of the right dims",
              lambda: volume.load_volume(self.path("recon.pvol")).dims == (height, ny, nx))
        check("reconstruct report has one line per iterate",
              lambda: len(Path(self.path("recon.txt")).read_text().splitlines()) == self.ITERS + 1)
        header = f"P5\n{width} {height}\n65535\n".encode("ascii")
        check("export writes a 16-bit PGM of the image dims",
              lambda: Path(self.path("jaw.pgm")).read_bytes()[:len(header)] == header
              and Path(self.path("jaw.pgm")).stat().st_size == len(header) + 2 * width * height)
        return checks

    def psnr_db(self, first) -> float:
        return self._printed_psnr(first["metrics"][1]) or 0.0

    def reference(self, first) -> dict:
        return {"psnr_db": self._printed_psnr(first["metrics"][1])}

    def extras(self) -> dict:
        solver = sum(self.command_s["reconstruct"])
        return {"iters_per_s": (self.ITERS * len(self.command_s["reconstruct"]) / solver, "1/s")}

    def probes(self):
        pass


class RenderSweep:
    """Forward rendering only, through fans of several geometries."""

    name = "render-sweep"
    DIMS = (64, 256, 256)
    BETA = 0.02
    GEOMETRIES = ((0.5, 256), (0.5, 512), (1.0, 256), (1.0, 512))  # (angle_scale, width)
    INTERPOLATIONS = ("trilinear", "nearest")
    N_PHANTOMS = 2
    N_SPHERES = 8
    ops_per_pass = len(GEOMETRIES) * N_PHANTOMS * len(INTERPOLATIONS)

    def __init__(self, variant: int, workdir: Path, tracer):
        self.variant = variant
        self.tracer = tracer
        self.render_s: list[float] = []

    def spheres(self, k: int, sampled: np.ndarray):
        """Non-overlapping spheres centred on sampled points of the fan, so
        every sphere is crossed by rays and line integrals through the
        phantom have a closed form."""
        rng = np.random.default_rng([self.variant, 2, k])
        nz, ny, nx = self.DIMS
        out = []
        while len(out) < self.N_SPHERES:
            r = round(rng.uniform(5.0, 10.0), 3)
            x, y = (round(float(c), 3) for c in sampled[rng.integers(len(sampled))])
            z = round(rng.uniform(r + 1, nz - r - 1), 3)
            v = round(rng.uniform(0.4, 1.0), 3)
            inside = r + 1 <= x <= nx - r - 1 and r + 1 <= y <= ny - r - 1
            if inside and all(math.dist((z, y, x), s[:3]) > r + s[3] + 1 for s in out):
                out.append((z, y, x, r, v))
        return out

    def setup(self):
        self.fans = [self.build(a, w) for a, w in self.GEOMETRIES]
        # the (0.5, 256) fan is trimmed to the middle of the sweep, so its
        # samples lie where every geometry's rays pass
        narrow = self.fans[0]
        sampled = narrow.sample_xy[narrow.sample_valid]
        self.sphere_sets = [self.spheres(k, sampled) for k in range(self.N_PHANTOMS)]
        self.phantoms = [
            volume.make_phantom(_sphere_descriptor(spheres), self.DIMS)
            for spheres in self.sphere_sets
        ]
        rng = np.random.default_rng([self.variant, 3])
        self.uniform_c = float(np.float32(rng.uniform(0.05, 0.95)))
        self.uniform = volume.make_phantom(f"uniform:{self.uniform_c!r}", (4, *self.DIMS[1:]))

    def build(self, angle_scale, width):
        return ray_geometry.build_fan(
            ray_geometry.GeometryConfig(width=width, angle_scale=angle_scale),
            bounds=(self.DIMS[2], self.DIMS[1]),
        )

    def cases(self):
        for g, (angle_scale, width) in enumerate(self.GEOMETRIES):
            for k in range(self.N_PHANTOMS):
                for interp in self.INTERPOLATIONS:
                    yield g, width, k, interp

    def run_pass(self):
        images = []
        for angle_scale, width in self.GEOMETRIES:
            fan = self.build(angle_scale, width)
            for phantom in self.phantoms:
                for interp in self.INTERPOLATIONS:
                    cfg = renderer.RenderConfig(beta=self.BETA, width=width, height=self.DIMS[0],
                                                interpolation=interp, threads=1)
                    start = time.perf_counter()
                    images.append(renderer.render_simpx(phantom, fan, cfg))
                    self.render_s.append(time.perf_counter() - start)
        return {"images": images}

    def check_pass(self, out, ref) -> list[str]:
        if ref is None:
            return ["no reference pixel sums for this variant"]
        problems = []
        for i, ((g, width, k, interp), img, want) in enumerate(
                zip(self.cases(), out["images"], ref["pixel_sums"], strict=True)):
            got = float(img.pixels.sum())
            if img.dims != (self.DIMS[0], width):
                problems.append(f"image {i} has dims {img.dims}")
            elif abs(got - want) > SUM_RTOL * abs(want):
                problems.append(f"image {i} ({interp}, geometry {g}, phantom {k}) "
                                f"pixel sum {got!r}, reference {want!r}")
        return problems

    def final_checks(self, first):
        """A uniform volume renders to 1 - exp(-beta*c*delta*n_i) on ray i."""
        checks = []
        for (angle_scale, width), fan in zip(self.GEOMETRIES, self.fans):
            expected = -np.expm1(-self.BETA * self.uniform_c * fan.delta
                                 * fan.sample_counts.astype(np.float64))
            for interp in self.INTERPOLATIONS:
                img = renderer.render_simpx(self.uniform, fan, renderer.RenderConfig(
                    beta=self.BETA, width=width, height=4, interpolation=interp))
                err = float(np.abs(img.pixels - expected[None, :]).max())
                checks.append((f"uniform closed form, angle_scale={angle_scale} width={width} "
                               f"{interp}: max error {err:.2e}", err <= CLOSED_FORM_ATOL))
        return checks

    def exact_image(self, k: int, fan) -> np.ndarray:
        """Opacity from exact chord lengths through phantom k's spheres over
        each ray's sampled span (first sample - delta/2 to last + delta/2)."""
        nz = self.DIMS[0]
        counts = fan.sample_counts
        idx = np.arange(fan.n_rays)
        p0 = fan.sample_xy[idx, 0]
        p1 = fan.sample_xy[idx, np.maximum(counts - 1, 0)]
        span = np.hypot(*(p1 - p0).T)
        d = (p1 - p0) / np.maximum(span, 1e-300)[:, None]
        lo, hi = -fan.delta / 2, span + fan.delta / 2
        z = np.arange(nz) + 0.5
        integral = np.zeros((nz, fan.n_rays))
        for cz, cy, cx, r, v in self.sphere_sets[k]:
            rad2 = np.maximum(r * r - (z - cz) ** 2, 0.0)[:, None]   # slice disk radius^2
            oc = np.array([cx, cy])[None, :] - p0
            tc = (oc * d).sum(axis=1)
            miss2 = (oc * oc).sum(axis=1) - tc * tc
            half = np.sqrt(np.maximum(rad2 - miss2[None, :], 0.0))
            chord = np.clip(np.minimum(tc + half, hi) - np.maximum(tc - half, lo), 0.0, None)
            integral += v * np.where(counts[None, :] > 1, chord, 0.0)
        return -np.expm1(-self.BETA * integral)

    def psnr_db(self, first) -> float:
        """Mean PSNR of the first pass's images against the exact sphere
        chords: the renderer's accuracy as a forward projector."""
        values = [
            metrics.psnr(img.pixels, self.exact_image(k, self.fans[g]))
            for (g, width, k, interp), img in zip(self.cases(), first["images"])
        ]
        return float(np.mean(values))

    def reference(self, first) -> dict:
        return {"pixel_sums": [float(img.pixels.sum()) for img in first["images"]]}

    def extras(self) -> dict:
        ms = sorted(1e3 * s for s in self.render_s)
        q = np.percentile(ms, [50, 90])
        return {"images_per_s": (len(ms) / sum(self.render_s), "1/s"),
                "image_ms_p50": (float(q[0]), "ms"),
                "image_ms_p90": (float(q[1]), "ms"),
                "image_samples": (len(ms), "count")}

    def probes(self):
        pass


WORKLOADS = {w.name: w for w in (ReconSphere64, PipelineJaw128, RenderSweep)}
