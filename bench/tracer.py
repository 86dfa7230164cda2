"""Spans around calls into marsdust layers, recorded from outside the package.

``Tracer.patch_function`` replaces a function at every ``marsdust.*`` module
binding that refers to it (``from .raster import load_image`` makes a second
binding that patching ``marsdust.raster`` alone would miss), and
``Tracer.patch_method`` replaces a class attribute.  ``Tracer.restore`` puts
the originals back.

Each span records its name, thread id, parent span, start and end.  The
parent is the enclosing span on the same thread or, for work on a pool
thread, the benchmark's stage span.  A span's self time is its duration
minus the time of its same-thread children.  Spans stay in memory until the
benchmark aggregates them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "tid", "parent", "stage", "start", "end", "child_s", "cpu_s")

    def __init__(self, name, tid, parent, stage):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.stage = stage
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.cpu_s = 0.0  # thread CPU time; taken for top-level pool-thread spans only

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Stage:
    """One CLI invocation, timed on the benchmark's own thread."""

    __slots__ = ("name", "jobs", "start", "end")

    def __init__(self, name, jobs):
        self.name = name
        self.jobs = jobs
        self.start = 0.0
        self.end = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stages: list[Stage] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.bindings: dict[str, list[str]] = {}
        self.main_tid = threading.get_ident()
        self.stage: Stage | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def begin_stage(self, name: str, jobs: int) -> None:
        self.stage = Stage(name, jobs)
        self.stage.start = time.perf_counter()

    def end_stage(self) -> None:
        self.stage.end = time.perf_counter()
        self.stages.append(self.stage)
        self.stage = None

    def timed(self, fn, name, after=None):
        """A stand-in for ``fn`` that records span ``name`` (a string, or a
        callable of the call's arguments) around each call, then calls
        ``after(span_name, args, kwargs, result)``.  Used directly for
        callables the program creates at run time (the autodiff backward
        closures), and by the patch methods for everything else."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            stack = self.stack()
            tid = threading.get_ident()
            pool_top = not stack and tid != self.main_tid
            span = Span(span_name, tid, stack[-1] if stack else self.stage, self.stage)
            stack.append(span)
            cpu = time.thread_time() if pool_top else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if pool_top:
                    span.cpu_s = time.thread_time() - cpu
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                self.spans.append(span)
            if after is not None:
                after(span_name, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch_function(self, fn, name, after=None) -> list[str]:
        """Replace ``fn`` at every marsdust module binding; return the modules."""
        traced = self.timed(fn, name, after)
        found = []
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "marsdust" or modname.startswith("marsdust.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, traced)
                    self._patches.append((module, attr, fn))
                    found.append(modname)
        self.bindings[f"{fn.__module__}.{fn.__qualname__}"] = found
        return found

    def patch_method(self, cls, attr: str, name, after=None) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self.timed(raw.__func__, name, after))
        else:
            traced = self.timed(raw, name, after)
        setattr(cls, attr, traced)
        self._patches.append((cls, attr, raw))
        self.bindings[f"{cls.__module__}.{cls.__qualname__}.{attr}"] = [cls.__module__]

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span.name] += 1
        return totals

    def coverage(self) -> float:
        """Share of summed stage wall during which some layer span was open."""
        by_stage = defaultdict(list)
        for span in self.spans:
            if span.stage is not None:
                by_stage[id(span.stage)].append((span.start, span.end))
        covered = wall = 0.0
        for stage in self.stages:
            wall += stage.wall
            last = stage.start
            for start, end in sorted(by_stage[id(stage)]):
                start, end = max(start, last), min(end, stage.end)
                if end > start:
                    covered += end - start
                    last = end
        return covered / wall if wall else 0.0

    def pool_ratios(self) -> tuple[float, float]:
        """Wall time and thread CPU time of top-level pool-thread spans, each
        over jobs x stage wall, summed over the stages run with several jobs.

        A pool thread waiting for the interpreter lock inside a span counts as
        busy in the first ratio but uses no CPU, so the second one shows how
        far the lock serialises the pool."""
        pooled = [s for s in self.stages if s.jobs > 1]
        ids = {id(s) for s in pooled}
        top = [span for span in self.spans
               if span.tid != self.main_tid and span.parent is span.stage
               and id(span.stage) in ids]
        capacity = sum(s.jobs * s.wall for s in pooled)
        if not capacity:
            return 0.0, 0.0
        return (sum(span.duration for span in top) / capacity,
                sum(span.cpu_s for span in top) / capacity)
