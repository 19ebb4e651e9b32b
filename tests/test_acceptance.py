"""Acceptance suite: one test per release criterion, each printing a
pass line (pytest prints the fail line if an assertion trips).

The end-to-end reconstruction bar asserts both the quality floor and a
regression pin around the value achieved by the first verified run of the
shipped configuration.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import panoray
from panoray.backproject import aggregate_rho, crossing_counts, image_candidates
from panoray.metrics import dice, psnr, volume_mse
from panoray.ray_geometry import (
    CenterCurve,
    GeometryConfig,
    _sample,
    angle_for_center,
    build_fan,
    make_centers,
)
from panoray.reconstructor import ReconConfig, gradient, loss, reconstruct
from panoray.renderer import RenderConfig, mip, render_simpx
from panoray.volume import DensityVolume, make_phantom

# ----------------------------------------------------------------------
# pinned constants for the end-to-end reconstruction criterion
# ----------------------------------------------------------------------
# phantom: tooth-like spheres along the focal trough of a 64-grid arch
E2E_PHANTOM = (
    "sphere-set:32,23,23,5,0.6;32,31,29,5,0.6;32,36,37,5,0.6;32,24,42,5,0.6"
)
E2E_BETA = 0.3
# masked PSNR achieved by the first verified run of the canonical
# configuration below; regression bound per the release criteria
E2E_PSNR_PIN = 31.49
E2E_PSNR_FLOOR = 30.0


def ok(name):
    print(f"[acceptance] {name}: PASS")


@pytest.fixture(scope="module")
def fan256():
    return build_fan(GeometryConfig(), bounds=(256, 256))


def test_transmittance_exactness(fan256):
    """Uniform volumes match 1 - exp(-beta*c*N*delta) to 1e-9, under 1 s."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    assert np.all(fan256.sample_counts == 200)  # every default ray is full
    for _ in range(10):
        beta = float(rng.uniform(0.005, 0.1))
        c = float(np.float32(rng.uniform(0.05, 0.95)))
        vol = make_phantom(f"uniform:{c}", (4, 256, 256))
        img = render_simpx(vol, fan256, RenderConfig(beta=beta, height=4))
        expected = 1.0 - math.exp(-beta * c * 200 * 1.0)
        assert np.abs(img.pixels - expected).max() < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"transmittance check took {elapsed:.2f}s"
    ok("transmittance-exactness")


def test_geometry_pinning(fan256):
    """Center curve, rotation-step table and fan/image sizes are pinned."""
    pts = make_centers(CenterCurve(offset=(0.0, 0.0), scale=1.0))
    assert pts[10] == pytest.approx((0.0, 100.0), abs=1e-12)
    assert pts[0] == pytest.approx((-50.0, 25.0), abs=1e-12)
    assert angle_for_center(0) == 0.5
    assert angle_for_center(10) == 1.5
    assert angle_for_center(5) == 0.6
    assert fan256.n_rays == 256
    vol = make_phantom("uniform:0", (128, 256, 256))
    img = render_simpx(vol, fan256, RenderConfig())
    assert img.dims == (128, 256)
    assert img.pixels.size == 32768
    ok("geometry-pinning")


def test_sampling_rule(fan256):
    """<= 200 samples per ray, uniform spacing, in bounds; early exits keep
    only the in-bounds prefix."""
    assert fan256.sample_counts.max() <= 200
    for xy, k in zip(fan256.sample_xy, fan256.sample_counts):
        samples = xy[:k]
        gaps = np.hypot(*np.diff(samples, axis=0).T)
        assert np.abs(gaps - 1.0).max() < 1e-9
        assert samples[:, 0].min() >= 0 and samples[:, 0].max() <= 256
        assert samples[:, 1].min() >= 0 and samples[:, 1].max() <= 256
    # a ray that leaves the grid early retains only its in-bounds prefix
    a = math.radians(15.0)
    xy, _, counts = _sample(np.array([[-4.0, 6.0]]), np.array([[math.cos(a), math.sin(a)]]),
                            200, 1.0, (8, 8))
    assert 0 < counts[0] < 200
    samples = xy[0, :counts[0]]
    inside = (
        (samples >= 0.0).all()
        and (samples[:, 0] <= 8.0).all()
        and (samples[:, 1] <= 8.0).all()
    )
    assert inside
    ok("sampling-rule")


def test_gradient_correctness():
    """Analytic adjoint matches central differences (h=1e-4, rtol 1e-4) on
    >= 20 random voxels across 3 random 8^3 phantoms, under 30 s."""
    start = time.perf_counter()
    fan = build_fan(GeometryConfig(width=64), bounds=(8, 8))
    cfg = ReconConfig(beta=0.3)
    rng = np.random.default_rng(1234)
    h = 1e-4
    checked = 0
    for _ in range(3):
        est = rng.uniform(0.1, 0.9, (8, 8, 8))
        target = rng.uniform(0.0, 0.5, (8, fan.n_rays))
        g = gradient(est, target, None, fan, cfg)
        picks = np.argwhere(np.abs(g) > 1e-9)
        picks = picks[rng.choice(len(picks), 7, replace=False)]
        for z, y, x in picks:
            ep, em = est.copy(), est.copy()
            ep[z, y, x] += h
            em[z, y, x] -= h
            fd = (
                loss(ep, target, None, fan, cfg)[0]
                - loss(em, target, None, fan, cfg)[0]
            ) / (2 * h)
            assert g[z, y, x] == pytest.approx(fd, rel=1e-4)
            checked += 1
    assert checked >= 20
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.2f}s"
    ok("gradient-correctness")


def test_backprojection_round_trip(fan256):
    """render uniform(0.4) -> invert pixels -> aggregate rho lands within 2%
    of 0.4 on every covered voxel."""
    vol = make_phantom("uniform:0.4", (16, 256, 256))
    c = float(vol.data[0, 0, 0])
    img = render_simpx(vol, fan256, RenderConfig(height=16))
    cands = image_candidates(img.pixels, fan256, beta=0.02)
    bmap = aggregate_rho(fan256, cands, (16, 256, 256))
    covered = bmap.counts > 0
    assert covered.any()
    assert np.abs(bmap.rho[covered] - c).max() <= 0.02 * c
    ok("eq7-round-trip")


def test_scaling_identity(fan256):
    """render(beta, sigma) == render(2*beta, sigma/2) to 1e-12."""
    vol = make_phantom("jaw-arch", (16, 256, 256), seed=3)
    half = DensityVolume(vol.data / 2.0)
    a = render_simpx(vol, fan256, RenderConfig(beta=0.02, height=16))
    b = render_simpx(half, fan256, RenderConfig(beta=0.04, height=16))
    assert np.abs(a.pixels - b.pixels).max() <= 1e-12
    ok("scaling-identity")


def test_metrics_oracles():
    """PSNR/Dice/MSE agree with double-loop references to 1e-12 on 4^3
    volumes; Dice threshold fixed at 0.2."""
    rng = np.random.default_rng(99)
    for _ in range(5):
        a = rng.uniform(0, 1, (4, 4, 4))
        b = rng.uniform(0, 1, (4, 4, 4))
        sq = inter = na = nb = 0.0
        for z in range(4):
            for y in range(4):
                for x in range(4):
                    sq += (a[z, y, x] - b[z, y, x]) ** 2
                    fa = a[z, y, x] > 0.2
                    fb = b[z, y, x] > 0.2
                    na += fa
                    nb += fb
                    inter += fa and fb
        mse_ref = sq / 64.0
        assert volume_mse(a, b) == pytest.approx(mse_ref, abs=1e-12)
        assert psnr(a, b) == pytest.approx(
            10.0 * math.log10(1.0 / mse_ref), abs=1e-12
        )
        assert dice(a, b) == pytest.approx(200.0 * inter / (na + nb), abs=1e-12)
    ok("metrics-oracles")


def test_end_to_end_reconstruction():
    """64^3 focal-trough sphere set, 2x angular sampling, lambda1 = 10,
    <= 500 iterations, single-threaded: monotone loss, < 5 min runtime,
    masked PSNR within the regression pin and above the 30 dB floor.

    The floor is only reachable because the projection term's residuals are
    shared across near-tied maximizers; plain argmax routing jams the
    descent around 27 dB (see the README's acceptance note).
    """
    start = time.perf_counter()
    fan = build_fan(GeometryConfig(width=512, angle_scale=0.5), bounds=(64, 64))
    truth = make_phantom(E2E_PHANTOM, (64, 64, 64))
    img = render_simpx(
        truth, fan, RenderConfig(beta=E2E_BETA, width=512, height=64)
    )
    mips = {ax: mip(truth, ax) for ax in ("axial", "coronal", "sagittal")}
    cfg = ReconConfig(
        beta=E2E_BETA, lambda1=10.0, max_iters=500, step_size=1.0,
        init="rho", tol=0.0,
    )
    vol, report = reconstruct(img, fan, cfg, target_mips=mips, threads=1)
    elapsed = time.perf_counter() - start

    totals = [row[1] for row in report.loss_history]
    assert all(b <= a for a, b in zip(totals, totals[1:])), "loss not monotone"
    assert report.iterations_run <= 500
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s"

    covered = crossing_counts(fan, (64, 64, 64)) > 0
    achieved = psnr(vol.data, truth.data, mask=covered)
    print(
        f"[acceptance] end-to-end-reconstruction: PSNR {achieved:.2f} dB "
        f"(pin {E2E_PSNR_PIN} +/- 0.5, floor {E2E_PSNR_FLOOR}), "
        f"{report.iterations_run} iters, {elapsed:.0f}s"
    )
    assert abs(achieved - E2E_PSNR_PIN) <= 0.5, (
        f"PSNR {achieved:.2f} dB moved outside the pinned {E2E_PSNR_PIN} +/- 0.5"
    )
    assert achieved >= E2E_PSNR_FLOOR, (
        f"PSNR {achieved:.2f} dB below the {E2E_PSNR_FLOOR} dB floor"
    )
    ok("end-to-end-reconstruction")


def _cli(*argv, cwd):
    # the child runs in cwd, so import panoray from an absolute path
    src = str(Path(panoray.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "panoray.cli", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_determinism(tmp_path):
    """Identical invocations are bit-identical at 1, 2 and 8 threads, across
    the render/backproject/reconstruct pipeline."""
    geom = tmp_path / "g.txt"
    geom.write_text("grid=32,32\nwidth=96\nbeta=0.3\n")
    outputs = {}
    for threads in (1, 2, 8):
        d = tmp_path / f"t{threads}"
        d.mkdir()
        vol, img = d / "v.pvol", d / "v.pimg"
        cnt, rho = d / "c.pvol", d / "r.pvol"
        rec, rep = d / "rec.pvol", d / "rep.txt"
        base = ["--threads", threads]
        _cli("phantom", "--kind", "sphere-set", "--dims", "8,32,32", "--seed", 5,
             "--out", vol, *base, cwd=tmp_path)
        _cli("render", "--vol", vol, "--geometry", geom, "--height", 8,
             "--out", img, *base, cwd=tmp_path)
        _cli("backproject", "--img", img, "--geometry", geom,
             "--out-counts", cnt, "--out-rho", rho, *base, cwd=tmp_path)
        _cli("reconstruct", "--img", img, "--geometry", geom, "--iters", 8,
             "--out", rec, "--report", rep, *base, cwd=tmp_path)
        outputs[threads] = tuple(p.read_bytes() for p in (vol, img, cnt, rho, rec, rep))
    assert outputs[1] == outputs[2] == outputs[8]
    ok("cli-determinism")
