import numpy as np
import pytest

from panoray.backproject import aggregate_rho, crossing_counts, image_candidates
from panoray.errors import DimsError
from panoray.ray_geometry import GeometryConfig, build_fan
from panoray.reconstructor import (
    ReconConfig,
    gradient,
    loss,
    reconstruct,
    save_report,
)
from panoray.renderer import RenderConfig, SimPXImage, mip, render_simpx
from panoray.volume import make_phantom

MIP_AXES = ("axial", "coronal", "sagittal")


@pytest.fixture(scope="module")
def fan8():
    # small fan over an 8x8 axial grid
    return build_fan(GeometryConfig(width=64), bounds=(8, 8))


@pytest.fixture(scope="module")
def fan32():
    return build_fan(GeometryConfig(width=128), bounds=(32, 32))


def allocating_reconstruct(y, fan, cfg, mips):
    """The solver loop as it was written before it reused buffers: fresh
    arrays for every trial and step difference, built on the public loss and
    gradient. Returns the quantized volume, the loss history and the count
    of each line-search event."""
    nx, ny = fan.bounds
    dims = (y.shape[0], ny, nx)
    lo, hi = cfg.clamp
    if cfg.init == "zeros":
        x = np.zeros(dims)
    else:
        cands = image_candidates(y, fan, cfg.beta)
        x = np.clip(aggregate_rho(fan, cands, dims).rho, lo, hi)
    total, (mse_img, mse_mip) = loss(x, y, mips, fan, cfg)
    history = [(0, total, mse_img, mse_mip, 0.0)]
    events = {"backtrack": 0, "doubling": 0, "exhausted": 0}
    step = cfg.step_size
    prev_x = prev_grad = None
    for it in range(1, cfg.max_iters + 1):
        if total == 0.0:
            break
        grad = gradient(x, y, mips, fan, cfg)
        if prev_x is None:
            step = cfg.step_size
        else:
            dx = (x - prev_x).ravel()
            dg = (grad - prev_grad).ravel()
            curv = float(dx @ dg)
            if curv > 1e-30:
                step = min(1e6, max(1e-12, float(dx @ dx) / curv))
            else:
                step = min(1e6, 2.0 * step)
                events["doubling"] += 1
        for _ in range(cfg.max_halvings + 1):
            trial = np.clip(x - step * grad, lo, hi)
            t_total, (t_img, t_mip) = loss(trial, y, mips, fan, cfg)
            if t_total < total:
                break
            step *= cfg.backtrack_factor
            events["backtrack"] += 1
        else:
            events["exhausted"] += 1
            break
        rel_drop = (total - t_total) / total
        prev_x, prev_grad = x, grad
        x, total = trial, t_total
        history.append((it, total, t_img, t_mip, step))
        if rel_drop < cfg.tol:
            break
    return np.clip(x, 0.0, 1.0).astype(np.float32).astype(np.float64), history, events


def render_for(fan, vol, beta):
    nz = vol.dims[0]
    cfg = RenderConfig(beta=beta, width=fan.n_rays, height=nz)
    return render_simpx(vol, fan, cfg)


class TestLoss:
    def test_perfect_fit_zero(self, fan8):
        truth = make_phantom("sphere-set", (8, 8, 8), seed=0)
        img = render_for(fan8, truth, beta=0.3)
        mips = {ax: mip(truth, ax) for ax in MIP_AXES}
        total, (mse_img, mse_mip) = loss(
            truth, img, mips, fan8, ReconConfig(beta=0.3)
        )
        assert total == 0.0 and mse_img == 0.0 and mse_mip == 0.0

    def test_zero_case(self, fan8):
        zeros = make_phantom("uniform:0", (8, 8, 8))
        img = render_for(fan8, zeros, beta=0.3)
        total, _ = loss(zeros, img, None, fan8, ReconConfig(beta=0.3))
        assert total == 0.0

    def test_closed_form_uniform_target(self, fan8):
        # est = zeros against a uniform(0.5) rendering: every full-length ray
        # contributes the same squared pixel value
        beta = 0.3
        vol = make_phantom("uniform:0.5", (8, 8, 8))
        img = render_for(fan8, vol, beta)
        zeros = make_phantom("uniform:0", (8, 8, 8))
        total, (mse_img, mse_mip) = loss(zeros, img, None, fan8, ReconConfig(beta=beta))
        n = fan8.sample_counts.astype(float)
        per_ray = (1.0 - np.exp(-beta * 0.5 * n * fan8.delta)) ** 2
        expected = 8 * per_ray.sum()  # 8 identical image rows
        assert total == pytest.approx(expected, rel=1e-12)
        assert mse_mip == 0.0

    def test_shape_guards(self, fan8):
        vol = make_phantom("uniform:0", (8, 8, 8))
        with pytest.raises(DimsError):
            loss(vol, np.zeros((8, 63)), None, fan8, ReconConfig())
        with pytest.raises(DimsError):
            loss(vol, np.zeros((8, 64)), {"axial": np.zeros((4, 4))}, fan8, ReconConfig())


    @pytest.mark.parametrize("fn", [loss, gradient])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, -0.1])
    def test_rejects_bad_raw_target(self, fan8, fn, bad):
        vol = make_phantom("uniform:0", (8, 8, 8))
        y = np.full((8, 64), 0.2)
        y[3, 5] = bad
        y_before = y.copy()
        with pytest.raises(ValueError, match="opacity"):
            fn(vol, y, None, fan8, ReconConfig())
        assert y.flags.writeable and np.array_equal(y, y_before, equal_nan=True)

    @pytest.mark.parametrize("fn", [loss, gradient])
    def test_rejects_empty_target(self, fan8, fn):
        with pytest.raises(DimsError):
            fn(np.zeros((0, 8, 8)), np.zeros((0, 64)), None, fan8, ReconConfig())

    def test_image_and_raw_target_agree(self, fan8):
        truth = make_phantom("sphere-set", (8, 8, 8), seed=4)
        est = make_phantom("uniform:0.2", (8, 8, 8))
        img = render_for(fan8, truth, beta=0.3)
        raw = img.pixels.copy()
        cfg = ReconConfig(beta=0.3)
        assert loss(est, img, None, fan8, cfg) == loss(est, raw, None, fan8, cfg)
        assert np.array_equal(gradient(est, img, None, fan8, cfg),
                              gradient(est, raw, None, fan8, cfg))
        assert raw.flags.writeable  # the caller's array is not frozen


class TestGradient:
    def test_zero_at_truth(self, fan8):
        truth = make_phantom("sphere-set", (8, 8, 8), seed=3)
        img = render_for(fan8, truth, beta=0.3)
        mips = {ax: mip(truth, ax) for ax in MIP_AXES}
        g = gradient(truth, img, mips, fan8, ReconConfig(beta=0.3))
        assert np.abs(g).max() < 1e-10

    def test_finite_difference_agreement(self, fan8):
        # central differences at h=1e-4 against the analytic adjoint
        rng = np.random.default_rng(11)
        cfg = ReconConfig(beta=0.3)
        h = 1e-4
        for trial in range(3):
            est = rng.uniform(0.1, 0.9, (8, 8, 8))
            target = rng.uniform(0.0, 0.5, (8, fan8.n_rays))
            g = gradient(est, target, None, fan8, cfg)
            covered = np.abs(g) > 1e-9
            picks = np.argwhere(covered)
            picks = picks[rng.choice(len(picks), 7, replace=False)]
            for z, y, x in picks:
                ep, em = est.copy(), est.copy()
                ep[z, y, x] += h
                em[z, y, x] -= h
                fd = (loss(ep, target, None, fan8, cfg)[0]
                      - loss(em, target, None, fan8, cfg)[0]) / (2 * h)
                assert g[z, y, x] == pytest.approx(fd, rel=1e-4)

    def test_residual_doubling(self, fan8):
        # moving the target to double every residual doubles the gradient
        rng = np.random.default_rng(12)
        est = rng.uniform(0.2, 0.8, (8, 8, 8))
        cfg = ReconConfig(beta=0.3)
        pred = -np.expm1(-0.3 * fan8.delta * fan8.operator().forward(est))
        target1 = 0.75 * pred   # residual pred/4
        target2 = 0.5 * pred    # residual pred/2, both targets stay in range
        g1 = gradient(est, target1, None, fan8, cfg)
        g2 = gradient(est, target2, None, fan8, cfg)
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-15)

    def test_mip_residual_routing(self):
        fan = build_fan(GeometryConfig(width=32), bounds=(4, 4))
        target = {"axial": np.zeros((4, 4))}
        zero_img = np.zeros((4, fan.n_rays))
        cfg = ReconConfig(beta=0.3, lambda1=10.0)

        # isolated maximum: the full residual lands on that voxel alone
        est = np.zeros((4, 4, 4))
        est[1, 2, 3] = 0.8
        est[3, 2, 3] = 0.4  # well below the tie band
        mip_part = (gradient(est, zero_img, target, fan, cfg)
                    - gradient(est, zero_img, None, fan, cfg))
        assert mip_part[1, 2, 3] == pytest.approx(2.0 * 10.0 * 0.8)
        assert mip_part[3, 2, 3] == 0.0

        # exact tie: the residual is shared across the tied maximizers
        est[3, 2, 3] = 0.8
        mip_part = (gradient(est, zero_img, target, fan, cfg)
                    - gradient(est, zero_img, None, fan, cfg))
        assert mip_part[1, 2, 3] == pytest.approx(10.0 * 0.8)
        assert mip_part[3, 2, 3] == pytest.approx(10.0 * 0.8)


class TestReconConfig:
    @pytest.mark.parametrize("clamp", [(1.0, 0.0), (0.5, 0.5), (0.0, np.nan),
                                       (np.nan, 1.0), (-np.inf, 1.0), (0.0, np.inf)])
    def test_rejects_bad_clamp(self, clamp):
        with pytest.raises(ValueError):
            ReconConfig(clamp=clamp)

    def test_rejects_negative_halvings(self):
        # max_halvings=-1 used to skip the line search and stop silently
        with pytest.raises(ValueError):
            ReconConfig(max_halvings=-1)

    def test_accepts_edges(self):
        assert ReconConfig(max_halvings=0, clamp=(0.0, 0.2)).max_halvings == 0


class TestWorkspace:
    # each case exercises the loop's branches: (phantom seed, config kwargs,
    # line-search events the reference loop must see)
    CASES = {
        "backtrack-and-doubling": (2, dict(beta=2.0, lambda1=1000.0, step_size=0.01),
                                   ("backtrack", "doubling")),
        "exhausted": (0, dict(beta=0.3, lambda1=10.0, step_size=0.01, max_halvings=0),
                      ("exhausted",)),
        "clamped-exhausted": (0, dict(beta=0.3, lambda1=10.0, clamp=(0.0, 0.2),
                                      max_halvings=0), ("exhausted",)),
        "zeros-init": (1, dict(beta=0.3, lambda1=10.0, init="zeros"), ("backtrack",)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_allocating_loop(self, fan8, case):
        seed, kwargs, want_events = self.CASES[case]
        truth = make_phantom("sphere-set", (8, 8, 8), seed=seed)
        cfg = ReconConfig(max_iters=25, **kwargs)
        y = render_for(fan8, truth, cfg.beta).pixels
        mips = {ax: mip(truth, ax) for ax in MIP_AXES}
        y_before = y.copy()
        mips_before = {ax: m.copy() for ax, m in mips.items()}

        want_vol, want_history, events = allocating_reconstruct(y, fan8, cfg, mips)
        for name in want_events:
            assert events[name] > 0, (case, events)
        assert len(want_history) > 4  # buffers rotate more than once
        vol, report = reconstruct(y, fan8, cfg, target_mips=mips)
        assert np.array_equal(vol.data, want_vol)
        assert report.loss_history == want_history
        assert np.array_equal(y, y_before)
        for ax in MIP_AXES:
            assert np.array_equal(mips[ax], mips_before[ax])


class TestReconstruct:
    def test_uniform_target(self, fan32):
        truth = make_phantom("uniform:0.3", (32, 32, 32))
        img = render_for(fan32, truth, beta=0.1)
        cfg = ReconConfig(beta=0.1, max_iters=200, init="rho", lambda1=0.0)
        vol, report = reconstruct(img, fan32, cfg)
        assert report.loss_history[-1][2] < 1e-6  # image-space data term
        covered = crossing_counts(fan32, (32, 32, 32)) > 0
        c = float(truth.data[0, 0, 0])
        assert np.abs(vol.data - c)[covered].max() <= 0.02

    def test_zero_target_stops_immediately(self, fan32):
        img = np.zeros((4, fan32.n_rays))
        cfg = ReconConfig(init="zeros", max_iters=50)
        vol, report = reconstruct(img, fan32, cfg)
        assert np.all(vol.data == 0.0)
        assert report.iterations_run <= 1
        assert report.loss_history[0][1] == 0.0

    def test_monotone_history(self, fan32):
        truth = make_phantom("sphere-set", (8, 32, 32), seed=5)
        img = render_for(fan32, truth, beta=0.3)
        cfg = ReconConfig(beta=0.3, max_iters=40, init="zeros")
        _, report = reconstruct(img, fan32, cfg)
        totals = [row[1] for row in report.loss_history]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        assert len(totals) >= 5

    def test_iterates_stay_in_box(self, fan32):
        truth = make_phantom("sphere-set", (8, 32, 32), seed=6)
        img = render_for(fan32, truth, beta=0.3)
        cfg = ReconConfig(beta=0.3, max_iters=30, init="rho")
        vol, _ = reconstruct(img, fan32, cfg)
        assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0

    def test_uncovered_voxels_keep_init(self, fan32):
        truth = make_phantom("sphere-set", (8, 32, 32), seed=7)
        img = render_for(fan32, truth, beta=0.3)
        cfg = ReconConfig(beta=0.3, max_iters=25, init="zeros")
        vol, _ = reconstruct(img, fan32, cfg)
        covered = crossing_counts(fan32, (8, 32, 32)) > 0
        assert np.all(vol.data[~covered] == 0.0)

    def test_threads_identical(self, fan32):
        truth = make_phantom("sphere-set", (8, 32, 32), seed=8)
        img = render_for(fan32, truth, beta=0.3)
        cfg = ReconConfig(beta=0.3, max_iters=15, init="rho")
        a, _ = reconstruct(img, fan32, cfg, threads=1)
        b, _ = reconstruct(img, fan32, cfg, threads=3)
        assert np.array_equal(a.data, b.data)

    def test_rejects_bad_target(self, fan32):
        cfg = ReconConfig()
        with pytest.raises(ValueError):
            reconstruct(np.full((4, fan32.n_rays), 1.0), fan32, cfg)
        with pytest.raises(ValueError):
            reconstruct(np.full((4, fan32.n_rays), np.nan), fan32, cfg)
        with pytest.raises(DimsError):
            reconstruct(np.zeros((4, 10)), fan32, cfg)

    def test_rejects_empty_target(self, fan32):
        # numpy's zero-size reduction error used to escape here
        with pytest.raises(DimsError):
            reconstruct(np.zeros((0, fan32.n_rays)), fan32, ReconConfig())

    def test_report_file(self, fan32, tmp_path):
        truth = make_phantom("sphere-set", (4, 32, 32), seed=9)
        img = render_for(fan32, truth, beta=0.3)
        cfg = ReconConfig(beta=0.3, max_iters=10, init="zeros")
        _, report = reconstruct(img, fan32, cfg, ground_truth=truth)
        path = tmp_path / "recon.txt"
        save_report(report, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(report.loss_history)
        first, last = lines[0].split(), lines[-1].split()
        assert len(first) == 5
        assert float(last[1]) < float(first[1])
        assert report.final_metrics is not None
        assert report.final_metrics.psnr > 0
