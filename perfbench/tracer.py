"""Spans recorded from outside the program, by patching module attributes.

A :class:`Tracer` replaces attributes that callers look up at call time
(``module.function`` or ``Class.method``) with wrappers that record one
:class:`Span` per call, and puts every original back on :meth:`restore`.
Nothing in ``src/`` knows it is traced. Timed runs patch nothing.

Three kinds of span:

* ``layer``: a call into a ``repro`` layer. It runs under its own Spark
  job group, so its job ids can be read back from the status tracker;
  the caller's group is restored when it returns.
* ``llm``: a public ``SimulatedLLM`` method (no Spark work).
* ``action``: a DataFrame action, i.e. time the driver was blocked on
  Spark. Actions nested in another action (``first`` -> ``take`` ->
  ``collect``) are recorded once, as the outermost call.

Self time (:func:`self_times`) is a span's duration minus the part of it
that its ``layer`` and ``llm`` children cover. Action children are not
subtracted: blocking on Spark is part of the caller's own work, reported
separately as Spark time.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

_JOB_GROUP = "spark.jobGroup.id"


@dataclass
class Span:
    id: int
    name: str
    kind: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run: str = ""
    group: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus covered child time."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None and s.kind != "action":
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(kids.get(s.id, []), s.start, s.end)
            for s in spans}


class Tracer:
    """Records spans in memory; optionally tags Spark jobs per span.

    ``spark_context`` may be ``None`` (no job groups), which is what the
    unit tests use for pure-Python spans.
    """

    def __init__(self, spark_context=None) -> None:
        self.sc = spark_context
        self.spans: list[Span] = []
        self.run = ""
        #: characters of the prompts rendered, per run id
        self.prompt_chars: dict[str, int] = {}
        #: wall time spent in the wrappers' own bookkeeping, per run id
        self.overhead: dict[str, float] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str, kind: str) -> tuple[Span, str | None]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, kind, 0.0,
                    parent=parent.id if parent else None, run=self.run)
        prev = None
        if self.sc is not None and kind == "layer":
            prev = self.sc.getLocalProperty(_JOB_GROUP)
            span.group = f"perfbench-{span.id}"
            self.sc.setLocalProperty(_JOB_GROUP, span.group)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span, prev

    def _close(self, span: Span, prev: str | None) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.group is not None:
            self.sc.setLocalProperty(_JOB_GROUP, prev)

    @contextmanager
    def span(self, name: str, kind: str = "layer"):
        span, prev = self._open(name, kind)
        try:
            yield span
        finally:
            self._close(span, prev)

    def _in_action(self) -> bool:
        return bool(self._stack) and self._stack[-1].kind == "action"

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        own = attr in vars(owner)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def wrap(self, owner, attr: str, name: str, kind: str = "layer",
             on_result=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``on_result(span, args, result)`` may copy counts from the call
        into ``span.attrs``.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if kind == "action" and self._in_action():
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            span, prev = self._open(name, kind)
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                self._close(span, prev)
            if on_result is not None:
                on_result(span, args, result)
            self._charge(span.run, (t1 - t0) + (time.perf_counter() - t2))
            return result

        self._patch(owner, attr, wrapper)

    def count_chars(self, owner, attr: str) -> None:
        """Count the characters of every string ``owner.attr`` returns."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = time.perf_counter()
            self.prompt_chars[self.run] = (
                self.prompt_chars.get(self.run, 0) + len(result))
            self._charge(self.run, time.perf_counter() - t0)
            return result

        self._patch(owner, attr, wrapper)

    def _charge(self, run: str, seconds: float) -> None:
        self.overhead[run] = self.overhead.get(run, 0.0) + seconds

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- Spark jobs ----------------------------------------------------

    def job_counts(self) -> dict[int, int]:
        """Spark jobs run under each span's own group (not its children's)."""
        if self.sc is None:
            return {}
        tracker = self.sc.statusTracker()
        return {s.id: len(tracker.getJobIdsForGroup(s.group))
                for s in self.spans if s.group is not None}
