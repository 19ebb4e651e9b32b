"""Independent blocks of work on a few threads.

The public forward projection and SSIM split their work into blocks
(blocks of slices, single slices) that read shared inputs, write disjoint
outputs and carry no state from one block to the next. So a block's result
does not depend on which worker runs it or when, and the output is
bit-identical at any thread count. numpy releases the interpreter lock
inside its gathers, matmuls and ufunc loops, which is where the blocks
spend their time. The solver's projections and back-projection run on the
calling thread, each core in one pass over its whole state volume (see
fan_operator).
"""

from __future__ import annotations

import math
import os
import threading
from numbers import Integral

from .errors import DimsError


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_int(name: str, value, minimum: int = 1) -> None:
    """ValueError unless value is an integer (not a bool) >= minimum; the
    one rule for every count: threads, widths, sample counts, iterations."""
    if not _is_int(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_real(name: str, value, bound: str = "") -> None:
    """ValueError unless value is finite and, for bound "> 0" or ">= 0",
    meets it; the one rule for every real-valued setting: steps, spacings,
    attenuation scales, curve values, thresholds. NaN fails every
    comparison, so it fails this rule too."""
    low = {"": -math.inf < value, "> 0": 0 < value, ">= 0": 0 <= value}[bound]
    if not (low and value < math.inf):
        raise ValueError(f"{name} must be finite{' and ' + bound if bound else ''}, got {value}")


def check_sizes(what: str, sizes, n: int) -> tuple[int, ...]:
    """A grid's n sizes as ints, by check_int's rule: ValueError unless each
    is an integer (not a bool), DimsError unless there are n of them and
    each is >= 1."""
    sizes = tuple(sizes)
    if len(sizes) != n:
        raise DimsError(f"{what} must be {n} sizes, got {sizes}")
    if not all(_is_int(s) for s in sizes):
        raise ValueError(f"{what} must be integers, got {sizes}")
    if min(sizes) < 1:
        raise DimsError(f"{what} must be positive, got {sizes}")
    return tuple(int(s) for s in sizes)


def worker_count(threads, n_blocks: int) -> int:
    """Workers for n_blocks blocks: min(threads, os.cpu_count(), n_blocks), at
    least 1. The CPU count is read only when more than one worker could run."""
    check_int("threads", threads)
    n = min(int(threads), n_blocks)
    if n <= 1:
        return 1
    return min(n, os.cpu_count() or 1)


def run_blocks(task, items, threads, scratch=lambda: None) -> list:
    """[task(item, buffers) for item in items] on worker_count(threads,
    len(items)) threads; one worker runs serially and starts no pool.

    Each worker calls scratch() once, at its first item, for buffers of its
    own and passes them to every task it runs. Workers take the next item
    as they free up; the results are in item order whichever worker ran
    each."""
    n = worker_count(threads, len(items))
    if n == 1:
        buffers = scratch()
        return [task(item, buffers) for item in items]
    local = threading.local()

    def work(item):
        if not hasattr(local, "buffers"):
            local.buffers = scratch()
        return task(item, local.buffers)

    # imported here: it adds about 10 ms to the package's import time,
    # which callers that never start a pool need not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(n) as pool:
        return list(pool.map(work, items))
