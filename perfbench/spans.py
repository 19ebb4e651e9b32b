"""In-memory span recorder for traced benchmark runs.

Spans are recorded around calls into panoray's public functions by
replacing each function on the module that defines it, so calls from one
module into another (cli -> reconstructor.reconstruct ->
backproject.aggregate_rho) nest as parent and child spans. Only the thread
that created the tracer records; calls made from the package's worker
threads pass straight through, so spans always nest properly.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time

ROOT_KINDS = ("pass", "setup", "probe")


class Tracer:
    """Records spans (name, start, end, parent, run id) while `active`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self._stack: list[int] = []
        self._run: str | None = None
        self._owner = threading.get_ident()
        self._patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; yields its record (attributes may be added)."""
        if not self.active or threading.get_ident() != self._owner:
            yield {}
            return
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self._run,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    @contextlib.contextmanager
    def root(self, kind: str, index: int, active: bool):
        """A top-level span for one set-up, pass or probe round; its
        children share the run id `<kind>-<index>`."""
        self.active = active
        self._run = f"{kind}-{index}"
        try:
            with self.span(kind) as rec:
                yield rec
        finally:
            self.active = False
            self._run = None

    def wrap(self, module, fname: str, attrs=None) -> None:
        """Replace module.fname with a recording wrapper named
        `<module>.<fname>`; attrs(args, kwargs, result) adds span fields."""
        original = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                if attrs is not None and "name" in rec:
                    rec.update(attrs(args, kwargs, result))
                return result

        setattr(module, fname, traced)
        self._patched.append((module, fname, original))

    def unwrap_all(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


class Summary:
    """Per-name aggregates over a list of recorded spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s["name"], []).append(i)

    def durations(self, name: str) -> list[float]:
        return [self.spans[i]["end"] - self.spans[i]["start"] for i in self.by_name.get(name, [])]

    def median_ms(self, name: str) -> float:
        d = self.durations(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def median_self_ms(self, name: str) -> float:
        own = [self.self_s[i] for i in self.by_name.get(name, [])]
        return 1e3 * statistics.median(own) if own else 0.0

    def attr(self, name: str, key: str) -> list:
        return [self.spans[i][key] for i in self.by_name.get(name, []) if key in self.spans[i]]

    def calls_per_root(self, name: str) -> int:
        """Calls within one root span of the first kind (pass, then set-up,
        then probe) in which the name occurs."""
        runs = {self.spans[i]["run"] for i in self.by_name.get(name, [])}
        for kind in ROOT_KINDS:
            first = next((s["run"] for s in self.spans
                          if s["parent"] is None and s["name"] == kind and s["run"] in runs), None)
            if first is not None:
                return sum(1 for i in self.by_name[name] if self.spans[i]["run"] == first)
        return 0

    def in_root(self, run: str, name: str) -> list[int]:
        return [i for i in self.by_name.get(name, []) if self.spans[i]["run"] == run]
