"""The worker pool: its thread rule, its cap, and block order under
contention; the integer rule for grid sizes that shares its checks; and the
rule for real-valued settings."""

import math
import os
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from panoray import _pool
from panoray.backproject import aggregate_rho, crossing_counts
from panoray.errors import DimsError
from panoray.metrics import evaluate, ssim
from panoray.ray_geometry import (
    GeometryConfig,
    build_fan,
    default_curve_for_grid,
    extract_rays,
    make_centers,
)
from panoray.reconstructor import ReconConfig, reconstruct
from panoray.renderer import RenderConfig
from panoray.volume import make_phantom

BAD_THREADS = [0, -1, 1.5, 2.0, True, "2", None]


class TestWorkerCount:
    def test_capped_by_cpus_and_blocks(self):
        # computed only: no thread is started for a huge request
        cpus = os.cpu_count() or 1
        assert _pool.worker_count(10**6, 10**9) == cpus
        assert _pool.worker_count(10**6, 1) == 1
        assert _pool.worker_count(10**6, 0) == 1
        assert _pool.worker_count(1, 10**9) == 1
        with mock.patch.object(_pool.os, "cpu_count", return_value=None):
            assert _pool.worker_count(10**6, 10**9) == 1
        with mock.patch.object(_pool.os, "cpu_count", return_value=64):
            assert _pool.worker_count(10**6, 10**9) == 64
            assert _pool.worker_count(3, 10**9) == 3
            assert _pool.worker_count(10**6, 5) == 5

    def test_cpu_count_unread_for_one_worker(self):
        # run_blocks asks for a worker count on every call
        with mock.patch.object(_pool.os, "cpu_count", return_value=64) as cpus:
            assert _pool.worker_count(1, 10**9) == 1
            assert _pool.worker_count(10**6, 1) == 1
            assert _pool.worker_count(10**6, 0) == 1
            assert _pool.run_blocks(lambda k, _: k * k, range(4), 1) == [0, 1, 4, 9]
            a = np.random.default_rng(3).uniform(0, 1, (3, 8, 8))
            assert ssim(a, a, threads=1) == 100.0
            cpus.assert_not_called()

    def test_numpy_integers_accepted(self):
        assert _pool.worker_count(np.int64(1), 4) == 1

    @pytest.mark.parametrize("threads", BAD_THREADS)
    def test_rejects_non_integers_and_values_below_one(self, threads):
        # checked before the block count can settle on one worker
        for n_blocks in (4, 1, 0):
            with pytest.raises(ValueError, match="threads must be an integer >= 1"):
                _pool.worker_count(threads, n_blocks)


class TestCheckReal:
    @pytest.mark.parametrize("bound", ["", "> 0", ">= 0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_rejected(self, bound, value):
        with pytest.raises(ValueError, match="^step must be finite"):
            _pool.check_real("step", value, bound)

    def test_unbounded_takes_any_finite_value(self):
        for value in (-1e300, -1.5, 0.0, 2, np.float32(3.5), 1e300):
            _pool.check_real("offset", value)

    def test_strict_bound(self):
        _pool.check_real("delta", 5e-324, "> 0")
        for value in (0.0, -0.0, -1.0):
            with pytest.raises(ValueError, match=r"^delta must be finite and > 0, got "):
                _pool.check_real("delta", value, "> 0")

    def test_non_strict_bound(self):
        for value in (0.0, -0.0, 0, 5e-324, 1e300):
            _pool.check_real("lambda1", value, ">= 0")
        for value in (-5e-324, -1.0):
            with pytest.raises(ValueError, match=r"^lambda1 must be finite and >= 0, got "):
                _pool.check_real("lambda1", value, ">= 0")

    def test_message_shows_the_value(self):
        with pytest.raises(ValueError, match=r"^threshold must be finite, got nan$"):
            _pool.check_real("threshold", math.nan)


class TestRunBlocks:
    def test_serial_starts_no_thread(self):
        seen = []
        got = _pool.run_blocks(lambda item, buf: seen.append(threading.current_thread())
                               or item * 2, range(5), 1)
        assert got == [0, 2, 4, 6, 8]
        assert set(seen) == {threading.current_thread()}

    def test_worker_error_is_raised(self):
        def task(item, _):
            if item == 3:
                raise RuntimeError("block 3")
            return item

        with mock.patch.object(_pool.os, "cpu_count", return_value=4):
            with pytest.raises(RuntimeError, match="block 3"):
                _pool.run_blocks(task, range(8), 4)

    def test_more_workers_than_cores(self):
        # eight workers on any machine, switching threads every microsecond:
        # every item runs once, results come back in item order, and no
        # worker's buffer is written by another worker between two reads
        n_items, n_workers = 400, 8
        runs = [0] * n_items
        lock = threading.Lock()

        def task(item, buf):
            buf[0] = item
            time.sleep(0)  # let other workers run before reading back
            owner = buf[0]
            with lock:
                runs[item] += 1
            return owner

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(_pool.os, "cpu_count", return_value=n_workers):
                got = _pool.run_blocks(task, range(n_items), n_workers,
                                       lambda: np.empty(1, dtype=np.int64))
        finally:
            sys.setswitchinterval(interval)
        assert got == list(range(n_items))
        assert runs == [1] * n_items


def _entry_points():
    """One call per public entry point that takes threads."""
    fan = build_fan(GeometryConfig(width=32), bounds=(8, 8))
    op = fan.operator()
    vol = np.full((2, 8, 8), 0.25)
    img = np.full((2, fan.n_rays), 0.1)
    return {
        "forward": lambda t: op.forward(vol, threads=t),
        "ssim": lambda t: ssim(vol, vol, threads=t),
        "evaluate": lambda t: evaluate(vol, vol, threads=t),
        "reconstruct": lambda t: reconstruct(img, fan, ReconConfig(max_iters=1), threads=t),
        "RenderConfig": lambda t: RenderConfig(threads=t),
    }


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_checks_threads(name):
    call = ENTRY_POINTS[name]
    call(1)
    call(np.int64(3))
    for threads in BAD_THREADS:
        with pytest.raises(ValueError, match="threads must be an integer >= 1"):
            call(threads)


def _sized_entry_points():
    """Per entry point: a call with one grid size n, and a valid n."""
    fan = build_fan(GeometryConfig(width=64), bounds=(32, 32))
    centers = make_centers(default_curve_for_grid(32, 32))
    schedule = GeometryConfig().schedule()
    return {
        "build_fan": (lambda n: build_fan(GeometryConfig(width=64), bounds=(n, 32)), 32),
        "extract_rays": (lambda n: extract_rays(centers, schedule, width=64, bounds=(n, 32)), 32),
        "crossing_counts": (lambda n: crossing_counts(fan, (n, 32, 32)), 2),
        "aggregate_rho": (lambda n: aggregate_rho(fan, np.zeros((2, 64)), (n, 32, 32)), 2),
        "make_phantom": (lambda n: make_phantom("uniform:0.5", (n, 8, 8)), 2),
    }


SIZED_ENTRY_POINTS = _sized_entry_points()


@pytest.mark.parametrize("name", sorted(SIZED_ENTRY_POINTS))
def test_every_sized_entry_point_checks_sizes(name):
    # fractional sizes used to be truncated: bounds (32.7, 32.2) built a
    # (32, 32) fan whose samples reached x = 32.6, past its own grid
    call, size = SIZED_ENTRY_POINTS[name]
    call(size)
    call(np.int64(size))
    for bad in (size + 0.7, float(size), True):
        with pytest.raises(ValueError, match="must be integers"):
            call(bad)
    with pytest.raises(DimsError, match="must be positive"):
        call(0)
