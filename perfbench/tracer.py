"""Span recorder and class-level call wrapping for the traced benchmark run.

The traced run measures the program from outside: :class:`Instrumented`
replaces selected public methods *on their classes* with wrappers that
open a span around the original call, and puts the originals back on
exit. Patching the class rather than the instance is what makes this
work on slotted classes such as ``OracleView`` and ``GossipMembership``,
whose instances reject new attributes.

A span is named ``<layer>.<call>``. Each recorded span keeps its name,
start, end and the index of its parent span; :meth:`Tracer.write_jsonl`
writes them out after the run. Self time (a span's duration minus the
time its child spans cover) is accumulated per layer as spans close, so
the per-layer self times of a traced interval add up to the time spent
inside instrumented calls.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = ["Instrumented", "Probe", "Tracer"]

ROOT = "<root>"
"""Parent name recorded for spans opened outside any other span."""


class Tracer:
    """In-memory span store with per-layer self-time accounting.

    Attributes:
        spans: ``[name, start, end, parent_index]`` per recorded span
            (``parent_index`` is -1 for a top-level span).
        self_s: Self seconds per layer.
        total_s: Inclusive seconds per ``(span name, parent span name)``.
        calls: Calls per span name.
        counters: Free-form counts harvested from call results.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        # open frames: [name, start, child seconds, span index]
        self._stack: list[list[Any]] = []

    def enter(self, name: str) -> None:
        """Open a span named ``name``."""
        start = time.perf_counter()
        index = len(self.spans)
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append([name, start, None, parent])
        self._stack.append([name, start, 0.0, index])

    def exit(self) -> None:
        """Close the innermost open span."""
        name, start, child, index = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        self.spans[index][2] = end
        self.self_s[name.split(".", 1)[0]] += duration - child
        parent = self._stack[-1][0] if self._stack else ROOT
        self.total_s[(name, parent)] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def seconds(self, name: str, parent: str | None = None) -> float:
        """Inclusive seconds of span ``name`` (only under ``parent`` when
        given)."""
        return sum(
            s for (n, p), s in self.total_s.items() if n == name and (parent is None or p == parent)
        )

    def write_jsonl(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                out.write("\n")


@dataclass(frozen=True)
class Probe:
    """One method to wrap.

    Attributes:
        cls: The class whose attribute is replaced.
        method: Attribute name, defined on ``cls`` itself (plain method
            or classmethod).
        span: Span name, ``<layer>.<call>``.
        harvest: Optional ``(tracer, args, kwargs, result)`` callback run
            after the call returns, outside the span, to read counts off
            the call's arguments or result.
    """

    cls: type
    method: str
    span: str
    harvest: Callable[[Tracer, tuple, dict, Any], None] | None = None


class Instrumented:
    """Context manager that installs ``probes`` into their classes for
    the duration of a ``with`` block, reporting to ``tracer``."""

    def __init__(self, tracer: Tracer, probes: list[Probe]) -> None:
        self.tracer = tracer
        self.probes = probes
        self._saved: list[tuple[type, str, Any]] = []

    def __enter__(self) -> Tracer:
        try:
            for probe in self.probes:
                original = probe.cls.__dict__[probe.method]
                self._saved.append((probe.cls, probe.method, original))
                setattr(probe.cls, probe.method, _wrap(self.tracer, probe, original))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)


def _wrap(tracer: Tracer, probe: Probe, original: Any) -> Any:
    is_classmethod = isinstance(original, classmethod)
    func = original.__func__ if is_classmethod else original
    span, harvest = probe.span, probe.harvest

    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(span)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.exit()
        if harvest is not None:
            harvest(tracer, args, kwargs, result)
        return result

    return classmethod(wrapper) if is_classmethod else wrapper
