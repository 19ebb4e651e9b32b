import contextlib
import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panoray import _pool, reconstructor
from panoray.backproject import aggregate_rho, crossing_counts, image_candidates
from panoray.errors import DimsError
from panoray.ray_geometry import GeometryConfig, build_fan, extract_rays
from panoray.reconstructor import (
    ReconConfig,
    _dot,
    _mip_term,
    _projections,
    gradient,
    loss,
    reconstruct,
    save_report,
)
from panoray.renderer import _MIP_AXES, RenderConfig, SimPXImage, mip, render_simpx
from panoray.volume import DensityVolume, make_phantom

MIP_AXES = ("axial", "coronal", "sagittal")


@pytest.fixture(scope="module")
def fan8():
    # small fan over an 8x8 axial grid
    return build_fan(GeometryConfig(width=64), bounds=(8, 8))


@pytest.fixture(scope="module")
def fan32():
    return build_fan(GeometryConfig(width=128), bounds=(32, 32))


@st.composite
def small_problems(draw):
    """A default-geometry fan of drawn width and sampling over a small drawn
    grid, a volume on it with densities in [0, 1], and MIP targets of
    another such volume or None."""
    nx, ny, nz = draw(st.integers(2, 16)), draw(st.integers(2, 16)), draw(st.integers(1, 6))
    fan = build_fan(GeometryConfig(width=draw(st.integers(20, 48)),
                                   n_samples=draw(st.integers(4, 60)),
                                   angle_scale=draw(st.sampled_from([0.5, 1.0, 2.0]))),
                    bounds=(nx, ny))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    truth = DensityVolume(rng.uniform(0.0, draw(st.sampled_from([0.3, 1.0])), (nz, ny, nx)))
    other = DensityVolume(rng.uniform(0.0, 1.0, (nz, ny, nx)))
    mips = {ax: mip(other, ax) for ax in MIP_AXES} if draw(st.booleans()) else None
    return fan, truth, mips


def allocating_reconstruct(y, fan, cfg, mips):
    """The solver loop as it was written before it reused buffers: fresh
    slice-major float32 arrays for every trial and step difference, with the
    loss, the gradient and the step's dots at each estimate computed as the
    solver computes them, from the estimate in float32 state layout, in
    the layout the solver picks for these MIP targets. Returns the volume,
    the loss history and the count of each line-search event."""
    op = fan.operator()
    lay = reconstructor._state_layout(op, mips)
    nx, ny = fan.bounds
    dims = (y.shape[0], ny, nx)

    def loss_at(x):
        total, mse_img, mse_mip, _, _ = reconstructor._loss_terms(
            lay, lay.to_state(x), y, mips, fan, cfg.beta, cfg.lambda1)
        return total, (mse_img, mse_mip)

    def gradient_at(x):
        state = lay.to_state(x)
        *_, pred, projs = reconstructor._loss_terms(lay, state, y, mips, fan, cfg.beta,
                                                    cfg.lambda1)
        return lay.from_state(reconstructor._gradient(lay, state, y, mips, fan, cfg.beta,
                                                      cfg.lambda1, pred, projs))

    if cfg.init == "zeros":
        x = np.zeros(dims, dtype=np.float32)
    else:
        cands = image_candidates(y, fan, cfg.beta).astype(np.float32)
        x = np.clip(op.crossed.from_state(op.crossed.ray_mean_state(cands)), 0.0, 1.0)
    assert x.dtype == np.float32
    total, (mse_img, mse_mip) = loss_at(x)
    history = [(0, total, mse_img, mse_mip, 0.0)]
    events = {"backtrack": 0, "doubling": 0, "exhausted": 0}
    step = cfg.step_size
    prev_x = prev_grad = None
    for it in range(1, cfg.max_iters + 1):
        if total == 0.0:
            break
        grad = gradient_at(x)
        if prev_x is None:
            step = cfg.step_size
        else:
            # the solver's dots: chunked, over the whole state
            dx = lay.to_state(x - prev_x)
            dg = lay.to_state(grad - prev_grad)
            curv = _dot(dx, dg)
            if curv > 1e-30:
                step = min(1e6, max(1e-12, _dot(dx, dx) / curv))
            else:
                step = min(1e6, 2.0 * step)
                events["doubling"] += 1
        for _ in range(reconstructor._MAX_HALVINGS + 1):
            trial = np.clip(x - step * grad, 0.0, 1.0)
            t_total, (t_img, t_mip) = loss_at(trial)
            if t_total < total:
                break
            step *= reconstructor._BACKTRACK
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
    assert x.dtype == np.float32
    return x.astype(np.float64), history, events


def max_halvings(n):
    """Patches the line search to at most n halvings, or leaves it for None."""
    if n is None:
        return contextlib.nullcontext()
    return mock.patch.object(reconstructor, "_MAX_HALVINGS", n)


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


    @pytest.mark.parametrize("fn", [loss, gradient, reconstruct])
    @pytest.mark.parametrize("axis", MIP_AXES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mip_target(self, fan8, fn, axis, bad):
        # loss returned NaN, gradient non-finite values, and reconstruct
        # built the rho initialization before failing on a non-finite loss
        truth = make_phantom("sphere-set", (4, 8, 8), seed=0)
        cfg = ReconConfig(beta=0.3, max_iters=2)
        y = render_for(fan8, truth, cfg.beta).pixels
        mips = {ax: mip(truth, ax).copy() for ax in MIP_AXES}
        mips[axis][1, 2] = bad
        with pytest.raises(ValueError, match=f"{axis} MIP target must be finite"):
            if fn is reconstruct:
                reconstruct(y, fan8, cfg, target_mips=mips)
            else:
                fn(truth, y, mips, fan8, cfg)

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
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_estimate(self, fan8, fn, bad):
        # loss returned NaN with a matmul RuntimeWarning; any finite value,
        # inside [0, 1] or not, is taken, since finite differences step freely
        est = np.full((4, 8, 8), 0.2)
        y = np.full((4, 64), 0.2)
        est[1, 3, 4] = -1e3
        assert np.all(np.isfinite(fn(est, y, None, fan8, ReconConfig())[0]))
        est[1, 3, 4] = bad
        with pytest.raises(ValueError, match="estimate densities must be finite"):
            fn(est, y, None, fan8, ReconConfig())

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
    @pytest.mark.parametrize("name", ["lambda1", "step_size", "beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, name, value):
        # each of these used to be accepted and failed later, if at all
        with pytest.raises(ValueError, match=name):
            ReconConfig(**{name: value})

    def test_tol_rejects_only_nan(self):
        with pytest.raises(ValueError, match="tol"):
            ReconConfig(tol=np.nan)
        for tol in (np.inf, -np.inf, -1.0, 0.0):
            assert ReconConfig(tol=tol).tol == tol

    @pytest.mark.parametrize("value", [0, 2.5, True, "2"])
    def test_max_iters_is_an_integer(self, value):
        # 2.5 failed inside range(); True ran one iteration
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            ReconConfig(max_iters=value)
        assert ReconConfig(max_iters=np.int64(2)).max_iters == 2


class TestWorkspace:
    # each case exercises the loop's branches: (phantom seed, config kwargs,
    # line-search halvings or None for the solver's own, line-search events
    # the reference loop must see)
    CASES = {
        "backtrack-and-doubling": (2, dict(beta=2.0, lambda1=1000.0, step_size=0.01), None,
                                   ("backtrack", "doubling")),
        "exhausted": (0, dict(beta=0.3, lambda1=10.0, step_size=0.01), 0, ("exhausted",)),
        # starts on the box's lower face, so the trials are clipped there
        "clamped-exhausted": (0, dict(beta=0.3, lambda1=10.0, step_size=0.03, init="zeros"),
                              0, ("exhausted",)),
        "zeros-init": (1, dict(beta=0.3, lambda1=10.0, init="zeros"), None, ("backtrack",)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_allocating_loop(self, fan8, case):
        seed, kwargs, halvings, want_events = self.CASES[case]
        truth = make_phantom("sphere-set", (8, 8, 8), seed=seed)
        cfg = ReconConfig(max_iters=25, **kwargs)
        y = render_for(fan8, truth, cfg.beta).pixels
        mips = {ax: mip(truth, ax) for ax in MIP_AXES}
        y_before = y.copy()
        mips_before = {ax: m.copy() for ax, m in mips.items()}

        with max_halvings(halvings):
            want_vol, want_history, events = allocating_reconstruct(y, fan8, cfg, mips)
            vol, report = reconstruct(y, fan8, cfg, target_mips=mips)
        for name in want_events:
            assert events[name] > 0, (case, events)
        assert len(want_history) > 4  # buffers rotate more than once
        assert np.array_equal(vol.data, want_vol)
        assert report.loss_history == want_history
        assert np.array_equal(y, y_before)
        for ax in MIP_AXES:
            assert np.array_equal(mips[ax], mips_before[ax])


class TestWorkspaceProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        nz=st.integers(2, 6),
        beta=st.floats(0.05, 2.0),
        lambda1=st.sampled_from([0.0]) | st.floats(0.0, 1000.0),
        step_size=st.floats(1e-3, 10.0),
        halvings=st.integers(0, 3),
        init=st.sampled_from(["rho", "zeros"]),
        with_mips=st.booleans(),
        max_iters=st.integers(1, 25),
    )
    def test_matches_allocating_loop(self, fan8, seed, nz, beta, lambda1, step_size,
                                     halvings, init, with_mips, max_iters):
        truth = make_phantom("sphere-set", (nz, 8, 8), seed=seed)
        cfg = ReconConfig(beta=beta, lambda1=lambda1, step_size=step_size, init=init,
                          max_iters=max_iters)
        y = render_for(fan8, truth, beta).pixels
        mips = {ax: mip(truth, ax) for ax in MIP_AXES} if with_mips else None
        with max_halvings(halvings):
            want_vol, want_history, _ = allocating_reconstruct(y, fan8, cfg, mips or {})
            vol, report = reconstruct(y, fan8, cfg, target_mips=mips)
        assert np.array_equal(vol.data, want_vol)
        assert report.loss_history == want_history
        assert report.iterations_run == len(want_history) - 1
        # every accepted iterate lowers the loss
        totals = [row[1] for row in report.loss_history]
        assert all(b < a for a, b in zip(totals, totals[1:]))


class TestStopReason:
    # one case per exit of the loop: (target, config kwargs, line-search
    # halvings or None for the solver's own)
    CASES = {
        "zero_loss": ("zeros", dict(init="zeros"), None),
        "line_search": ("spheres", dict(step_size=100.0), 0),
        # a target outside the model's range: the loss levels off above 0
        "tol": ("random", dict(init="zeros", lambda1=0.0, max_iters=500), None),
        "max_iters": ("spheres", dict(tol=0.0, max_iters=5), None),
    }

    @pytest.mark.parametrize("reason", sorted(CASES))
    def test_each_exit(self, fan8, reason):
        kind, kwargs, halvings = self.CASES[reason]
        cfg = ReconConfig(beta=0.3, **kwargs)
        if kind == "zeros":
            y = np.zeros((4, fan8.n_rays))
        elif kind == "random":
            y = np.random.default_rng(1).uniform(0.0, 0.5, (2, fan8.n_rays))
        else:
            y = render_for(fan8, make_phantom("sphere-set", (4, 8, 8), seed=0), cfg.beta)
        with max_halvings(halvings):
            _, report = reconstruct(y, fan8, cfg)
        assert report.stop_reason == reason
        totals = [row[1] for row in report.loss_history]
        n = report.iterations_run
        assert len(report.format_lines()) == len(totals) == n + 1
        if reason == "zero_loss":
            assert n == 0 and totals == [0.0]
        elif reason == "line_search":
            assert n == 0  # the first step overshoots and may not be halved
        elif reason == "tol":
            assert n < cfg.max_iters
            assert (totals[-2] - totals[-1]) / totals[-2] < cfg.tol
        else:
            assert n == cfg.max_iters

    @pytest.mark.parametrize("max_iters", [1, 2])
    def test_zero_loss_reached_by_a_step(self, fan8, max_iters):
        # the target is the opacity of 1.0 on every covered voxel, with the
        # line sums of the solver's float32 state, so the first step from
        # zeros, clipped at 1.0, fits it exactly; with max_iters=1 the loop
        # ends right after that step, not at its check
        fit = (crossing_counts(fan8, (3, 8, 8)) > 0).astype(np.float32)
        op = fan8.operator()
        y = -np.expm1(-0.3 * fan8.delta * op.full.forward_state(op.full.to_state(fit)))
        cfg = ReconConfig(beta=0.3, init="zeros", step_size=1e6, max_iters=max_iters)
        _, report = reconstruct(y, fan8, cfg)
        assert report.iterations_run == 1
        assert report.loss_history[-1][1] == 0.0
        assert report.stop_reason == "zero_loss"


class TestStateDtype:
    def test_float32_mip_solve_builds_no_float64_table(self):
        # a fresh fan, whose tables no other test has built, and the target
        # rendered through another: a MIP solve runs in the full layout and
        # builds each of its tables straight in float32
        cfg = GeometryConfig(width=64)
        fan = build_fan(cfg, bounds=(8, 8))
        truth = make_phantom("sphere-set", (4, 8, 8), seed=0)
        y = render_for(build_fan(cfg, bounds=(8, 8)), truth, 0.3).pixels
        mips = {ax: mip(truth, ax) for ax in MIP_AXES}
        reconstruct(y, fan, ReconConfig(beta=0.3, max_iters=3), target_mips=mips)
        assert set(fan.operator().full._tables) == {
            (kind, np.dtype(np.float32)) for kind in ("rows", "cols", "pattern")}

    def test_back_projection_builds_no_float64_table(self):
        # a fresh fan, whose tables no other test has built: aggregate_rho
        # builds the crossed layout's A^T tiles and pattern straight in
        # float32, and no others
        fan = build_fan(GeometryConfig(width=64), bounds=(8, 8))
        y = np.random.default_rng(0).uniform(0.0, 0.9, (4, fan.n_rays))
        aggregate_rho(fan, image_candidates(y, fan, 0.3), (4, 8, 8))
        op = fan.operator()
        assert op.crossed is not op.full and not op.full._tables
        assert set(op.crossed._tables) == {
            (kind, np.dtype(np.float32)) for kind in ("cols", "pattern")}

    @settings(max_examples=40, deadline=None)
    @given(small_problems())
    def test_first_iterate_is_aggregate_rho(self, problem):
        # the solver starts from aggregate_rho's rho, bit for bit, in the
        # crossed layout without MIP targets and in the full one with them
        fan, truth, mips = problem
        cfg = ReconConfig(beta=0.3, max_iters=1)
        y = render_for(fan, truth, cfg.beta).pixels
        want = aggregate_rho(fan, image_candidates(y, fan, cfg.beta), truth.dims).rho
        op = fan.operator()
        lay = reconstructor._state_layout(op, mips or {})
        starts = []
        real = lay.ray_mean_state

        def spy(c):
            # a copy: the solver writes over its iterate's buffer
            result = real(c)
            starts.append(result.copy())
            return result
        with mock.patch.object(lay, "ray_mean_state", spy):
            reconstruct(y, fan, cfg, target_mips=mips)
        assert len(starts) == 1
        got = lay.from_state(starts[0])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_solver_state_is_float32_and_public_path_float64(self, fan8):
        # the solver's volumes are float32 state-layout buffers; the public
        # loss and gradient run the same cores on float64 ones
        op = fan8.operator()
        seen = []

        def spy(name):
            stack = contextlib.ExitStack()
            for lay in {id(lay): lay for lay in (op.full, op.crossed)}.values():
                real = getattr(lay, name)

                def call(arg, *args, real=real, **kwargs):
                    result = real(arg, *args, **kwargs)
                    seen.append((name, (arg if name == "forward_state" else result).dtype))
                    return result
                stack.enter_context(mock.patch.object(lay, name, call))
            return stack

        truth = make_phantom("sphere-set", (4, 8, 8), seed=0)
        mips = {ax: mip(truth, ax) for ax in MIP_AXES}
        cfg = ReconConfig(beta=0.3, max_iters=3)
        y = render_for(fan8, truth, cfg.beta).pixels
        with spy("forward_state"), spy("adjoint_state"), spy("ray_mean_state"):
            vol, report = reconstruct(y, fan8, cfg, target_mips=mips)
            assert report.iterations_run == 3
            assert {name for name, _ in seen} == {"forward_state", "adjoint_state",
                                                  "ray_mean_state"}
            assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
            # the result skips the range check; the checking constructor
            # takes its data as it is
            assert vol.data.dtype == np.float32 and not vol.data.flags.writeable
            assert DensityVolume(vol.data).data is vol.data
            seen.clear()
            total, parts = loss(truth, y, mips, fan8, cfg)
            g = gradient(truth, y, mips, fan8, cfg)
        assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}
        assert all(type(v) is float for v in (total, *parts))
        assert g.dtype == np.float64

    def test_public_path_widens_a_float32_estimate(self, fan8):
        # a float32 phantom, as a volume or as its array, is widened before
        # the float64 cores: the same loss and gradient bits as its float64
        # widening
        truth = make_phantom("sphere-set", (4, 8, 8), seed=0)
        wide = DensityVolume(truth.data.astype(np.float64))
        assert truth.data.dtype == np.float32
        mips = {ax: mip(truth, ax) for ax in MIP_AXES}
        cfg = ReconConfig(beta=0.3)
        y = render_for(fan8, truth, cfg.beta).pixels
        est = 0.5 * truth.data  # a float32 estimate off the truth
        for narrow, widened in ((truth, wide), (est, est.astype(np.float64))):
            assert loss(narrow, y, mips, fan8, cfg) == loss(widened, y, mips, fan8, cfg)
            g = gradient(narrow, y, mips, fan8, cfg)
            assert g.dtype == np.float64
            assert np.array_equal(g.view(np.uint64),
                                  gradient(widened, y, mips, fan8, cfg).view(np.uint64))


class TestMemory:
    def test_peak_below_six_volumes(self):
        # in volumes of the float32 truth: the solver's four float32
        # workspace volumes are anonymous mappings, which tracemalloc does
        # not trace; the operator's block buffers, the float32 result and
        # its scoring stay within three
        dims = (64, 128, 128)
        fan = build_fan(GeometryConfig(width=128), bounds=(128, 128))
        truth = make_phantom("jaw-arch", dims, seed=1)
        img = render_for(fan, truth, beta=0.02)
        lay = fan.operator().crossed
        for kind in ("rows", "cols", "pattern"):
            lay._table(kind, np.float32)  # the solver's tables, built once per fan, outside it
        cfg = ReconConfig(beta=0.02, max_iters=5)
        tracemalloc.start()
        try:
            _, report = reconstruct(img, fan, cfg, ground_truth=truth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations_run == 5
        assert peak < 3 * truth.data.nbytes


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

    @settings(max_examples=40, deadline=None)
    @given(small_problems(), st.sampled_from(["rho", "zeros"]))
    def test_monotone_loss_in_the_box(self, problem, init):
        # from either start, with or without MIP targets: the totals never
        # increase, every state the loss is taken at (the start and each
        # trial) lies in [0, 1], and the report is consistent
        fan, truth, mips = problem
        cfg = ReconConfig(beta=0.3, init=init, max_iters=8)
        y = render_for(fan, truth, cfg.beta).pixels
        bounds = []
        real = reconstructor._loss_terms

        def spy(lay, state, *args):
            bounds.append((state.min(), state.max()))
            return real(lay, state, *args)
        with mock.patch.object(reconstructor, "_loss_terms", spy):
            vol, report = reconstruct(y, fan, cfg, target_mips=mips)
        totals = [row[1] for row in report.loss_history]
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        assert bounds and all(0.0 <= lo and hi <= 1.0 for lo, hi in bounds)
        assert vol.data.min() >= 0.0 and vol.data.max() <= 1.0
        assert report.stop_reason in ("zero_loss", "line_search", "tol", "max_iters")
        assert len(report.loss_history) == report.iterations_run + 1

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

    @pytest.mark.parametrize("raw", [False, True])
    def test_truth_dims_checked_before_the_solve(self, fan32, raw):
        # a truth of other dims was found only when the result was scored,
        # after every iteration had run
        img = np.full((4, fan32.n_rays), 0.2)
        truth = make_phantom("sphere-set", (5, 32, 32), seed=2)
        terms = mock.patch.object(reconstructor, "_loss_terms",
                                  wraps=reconstructor._loss_terms)
        with terms as spy, pytest.raises(DimsError, match="truth volume dims"):
            reconstruct(img, fan32, ReconConfig(beta=0.3, max_iters=50),
                        ground_truth=truth.data if raw else truth)
        assert spy.call_count == 0

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


@functools.cache
def square_fan(n):
    return build_fan(GeometryConfig(width=64), bounds=(n, n))


def brute_mip_term(est, grad, ax, r, tie_tol):
    """The MIP term of one axis column by column: grad (slice-major) gets
    r / count on each of a column's count voxels within tie_tol of its
    maximum. Returns the counts."""
    cols = np.moveaxis(est, ax, -1)
    out = np.moveaxis(grad, ax, -1)  # a view: writes land in grad
    counts = np.zeros(cols.shape[:-1], dtype=np.int64)
    for idx in np.ndindex(counts.shape):
        col = cols[idx]
        tied = [k for k in range(len(col)) if col[k] >= col.max() - tie_tol]
        counts[idx] = len(tied)
        for k in tied:
            out[idx + (k,)] += r[idx] / len(tied)
    return counts


class TestStateLayout:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([8, 16]), st.integers(2, 9), st.sampled_from([0.0, 1e-3, 0.1]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_mip_term_matches_brute_force(self, n, nz, tie_tol, coarse, seed):
        # coarse volumes hold few distinct values, so columns have exact ties
        op = square_fan(n).operator()
        rng = np.random.default_rng(seed)
        est = (rng.integers(0, 4, (nz, n, n)) / 4.0 if coarse
               else rng.uniform(0.0, 1.0, (nz, n, n)))
        want = rng.uniform(-1.0, 1.0, (nz, n, n))
        lay = op.full
        state, grad = lay.to_state(est), lay.to_state(want)
        band = np.empty(state.shape, dtype=bool)
        projs = _projections(lay, state, MIP_AXES)
        for axis in MIP_AXES:
            ax = _MIP_AXES[axis]
            proj = projs[axis]
            assert proj.flags.c_contiguous
            assert np.array_equal(proj, est.max(axis=ax))
            r = 20.0 * (proj - rng.uniform(0.0, 1.0, proj.shape))
            counts = _mip_term(lay, state, grad, axis, proj, r, tie_tol, band)
            assert np.array_equal(counts, brute_mip_term(est, want, ax, r, tie_tol))
            assert np.array_equal(lay.from_state(grad), want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mip_counts_with_planted_ties(self, dtype):
        # every column holds exact ties to its maximum and near-ties within
        # tie_tol; one axial column ties over all 300 slices, more than a
        # uint8 count could hold. The counts equal a whole-volume count of
        # the voxels at or above each column's rounded threshold
        n, nz, tie_tol = 8, 300, 1e-3
        lay = square_fan(n).operator().full
        rng = np.random.default_rng(12)
        est = rng.integers(0, 3, (nz, n, n)) / 2.0
        est -= 5e-4 * rng.integers(0, 2, est.shape)
        est[:, 0, 0] = 1.0
        est = est.astype(dtype)
        state = lay.to_state(est)
        grad, band = lay.buffer(nz, dtype), np.empty(state.shape, dtype=bool)
        projs = _projections(lay, state, MIP_AXES)
        for axis in MIP_AXES:
            ax = _MIP_AXES[axis]
            proj = projs[axis]
            floor = np.expand_dims((proj - tie_tol).astype(dtype), ax)
            want = np.count_nonzero(est >= floor, axis=ax)
            counts = _mip_term(lay, state, grad, axis, proj, np.ones(proj.shape), tie_tol, band)
            assert counts.dtype == np.int64 and np.array_equal(counts, want)
            assert np.mean(want > 1) > 0.5
            if axis == "axial":
                assert counts[0, 0] == nz

    @pytest.mark.parametrize("init", ["rho", "zeros"])
    def test_voxels_no_ray_crosses_end_at_zero(self, fan8, init):
        # without MIP targets no voxel off the crossed support gets a
        # gradient, so the solve leaves each at exactly 0; MIP targets move
        # some of them, so their solve holds every voxel
        crossed = fan8.operator().counts > 0
        assert not crossed.all()
        truth = DensityVolume(np.random.default_rng(3).uniform(0.2, 0.8, (4, 8, 8)))
        cfg = ReconConfig(beta=0.3, init=init, max_iters=10)
        y = render_for(fan8, truth, cfg.beta).pixels
        vol, report = reconstruct(y, fan8, cfg)
        assert report.iterations_run == 10
        assert vol.data[:, crossed].any()
        assert not np.signbit(vol.data).any() and np.all(vol.data[:, ~crossed] == 0.0)
        mips = {ax: mip(truth, ax) for ax in MIP_AXES}
        assert reconstruct(y, fan8, cfg, target_mips=mips)[0].data[:, ~crossed].any()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_public_loss_and_gradient_equal_the_full_layout(self, seed):
        # without MIP targets the public loss and gradient run in the
        # crossed layout; a voxel no ray crosses reaches no line sum, so any
        # volume, with values off the crossed voxels and outside [0, 1],
        # gets the full layout's bits
        fan = square_fan(32)
        full = fan.operator().full
        assert reconstructor._state_layout(fan.operator(), {}).size < full.size
        rng = np.random.default_rng(seed)
        est = rng.uniform(-0.5, 1.5, (5, 32, 32))
        y = rng.uniform(0.0, 0.9, (5, fan.n_rays))
        cfg = ReconConfig(beta=0.3)
        state = full.to_state(est)
        total, mse_img, mse_mip, pred, projs = reconstructor._loss_terms(
            full, state, y, {}, fan, cfg.beta, cfg.lambda1)
        assert loss(est, y, None, fan, cfg) == (total, (mse_img, mse_mip))
        want = full.from_state(reconstructor._gradient(full, state, y, {}, fan, cfg.beta,
                                                       cfg.lambda1, pred, projs))
        assert gradient(est, y, None, fan, cfg).tobytes() == want.tobytes()

    def test_fan_that_crosses_no_voxel(self):
        # every ray ends before the grid: the crossed layout is the full one,
        # which the solve runs in, and no init leaves 0
        fan = extract_rays([(-60.0, -60.0), (-40.0, -60.0)], [10.0], width=4, bounds=(8, 8),
                           n_samples=5)
        op = fan.operator()
        assert fan.n_rays == 4 and not op.counts.any() and op.crossed is op.full
        assert reconstructor._state_layout(op, {}) is op.full
        y = np.full((3, fan.n_rays), 0.5)
        for init in ("rho", "zeros"):
            vol, report = reconstruct(y, fan, ReconConfig(init=init, max_iters=3))
            assert vol.dims == (3, 8, 8) and not vol.data.any()
            assert report.stop_reason == "line_search"

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([8, 16]), st.integers(2, 9), st.sampled_from(["rho", "zeros"]),
           st.booleans(), st.integers(0, 2**16))
    def test_reconstruct_bit_identical_at_any_thread_count(self, n, nz, init, with_mips,
                                                           seed):
        fan = square_fan(n)
        truth = DensityVolume(np.random.default_rng(seed).uniform(0.0, 0.6, (nz, n, n)))
        cfg = ReconConfig(beta=0.3, lambda1=10.0, init=init, max_iters=8)
        y = render_for(fan, truth, cfg.beta).pixels
        mips = {ax: mip(truth, ax) for ax in MIP_AXES} if with_mips else None
        with mock.patch.object(_pool.os, "cpu_count", return_value=3):
            runs = [reconstruct(y, fan, cfg, target_mips=mips, threads=threads)
                    for threads in (1, 2, 3)]
        (want_vol, want_report), *others = runs
        assert want_report.iterations_run > 0
        for vol, report in others:
            assert vol.data.tobytes() == want_vol.data.tobytes()
            assert report.loss_history == want_report.loss_history

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([8, 16]), st.integers(2, 9), st.floats(0.05, 1.0),
           st.sampled_from([0.0, 10.0]), st.integers(0, 2**32 - 1))
    def test_gradient_matches_central_differences(self, n, nz, beta, lambda1, seed):
        # a tie band of 0 routes each MIP residual to its column's maximum; picks
        # keep every column's maximizer unchanged under a +-h step, where
        # the objective is smooth
        fan = square_fan(n)
        rng = np.random.default_rng(seed)
        est = rng.uniform(0.1, 0.9, (nz, n, n))
        target = rng.uniform(0.0, 0.5, (nz, fan.n_rays))
        mips = ({axis: rng.uniform(0.0, 1.0, est.max(axis=_MIP_AXES[axis]).shape)
                 for axis in MIP_AXES} if lambda1 else None)
        cfg = ReconConfig(beta=beta, lambda1=lambda1)
        h = 1e-4
        with mock.patch.object(reconstructor, "_MIP_TIE_TOL", 0.0):
            g = gradient(est, target, mips, fan, cfg)
            stable = np.abs(g) > 1e-3 * np.abs(g).max()
            for ax in _MIP_AXES.values() if mips else ():
                top = np.sort(est, axis=ax)
                first, second = np.take(top, [-1], axis=ax), np.take(top, [-2], axis=ax)
                stable &= np.where(est == first, first - second, first - est) > 2 * h
            picks = np.argwhere(stable)
            picks = picks[rng.choice(len(picks), min(6, len(picks)), replace=False)]
            for z, yy, xx in picks:
                ep, em = est.copy(), est.copy()
                ep[z, yy, xx] += h
                em[z, yy, xx] -= h
                fd = (loss(ep, target, mips, fan, cfg)[0]
                      - loss(em, target, mips, fan, cfg)[0]) / (2 * h)
                assert g[z, yy, xx] == pytest.approx(fd, rel=1e-4)
