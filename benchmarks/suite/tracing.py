"""Span recorder for the traced benchmark run.

Layer boundaries are wrapped from outside: a traced call is an
instance attribute shadowing the bound method, the technique of
``repro.perf.StepProfiler``, so an object nobody wrapped is exactly as
constructed and the untraced run pays nothing.  Layers the benchmark
calls directly are timed at the call site with :meth:`Tracer.span`.

Every span records its name, start, end, parent span and operation id.
Spans stay in memory and are written as JSONL when the run ends.  A
span's self time is its duration minus the time its child spans cover,
so the self times of one operation add up to the operation's duration.
The wrappers only read the clock; they never touch any RNG, so a traced
run produces the same outputs as an untraced one.

Times come from :func:`time.perf_counter`, which on Linux reads the
system-wide monotonic clock, so spans reported by a child process
(:meth:`Tracer.add_span`) line up with the parent's.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "WorkloadProxy"]


class Tracer:
    """Spans of one traced round: ``[name, start, end, parent, op]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.ops: list[str] = []
        self._open: list[int] = []
        self._op = -1

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._open.append(index)
        return index

    def _exit(self, index: int, start: float, end: float) -> None:
        self._open.pop()
        span = self.spans[index]
        span[1] = start
        span[2] = end

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block at the call site as one span."""
        index = self._enter(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(index, start, perf_counter())

    @contextmanager
    def operation(self, label: str, root: str) -> Iterator[None]:
        """One benchmark operation: a root span named ``root`` whose
        spans all carry the operation id of ``label``."""
        self.ops.append(label)
        self._op = len(self.ops) - 1
        try:
            with self.span(root):
                yield
        finally:
            self._op = -1

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere as a child of the open span."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent, self._op])

    def wrap(self, obj: Any, method: str, name: str) -> None:
        """Shadow ``obj.method`` with a traced instance attribute."""
        original = getattr(obj, method)
        enter = self._enter
        leave = self._exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = enter(name)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                leave(index, start, perf_counter())

        setattr(obj, method, traced)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict[tuple[int, str], list[float]]:
        """``(op, name) -> [self seconds, calls]`` over all spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[tuple[int, str], list[float]] = {}
        for index, (name, start, end, _, op) in enumerate(self.spans):
            entry = totals.setdefault((op, name), [0.0, 0])
            entry[0] += end - start - covered[index]
            entry[1] += 1
        return totals

    def write_jsonl(self, path: Path) -> None:
        """One line naming the operations, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"ops": self.ops}) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class WorkloadProxy:
    """Traced stand-in for a frozen QoS workload: ``rate`` is a span,
    every other attribute is read from the wrapped workload."""

    def __init__(self, workload: Any, tracer: Tracer, name: str) -> None:
        self._workload = workload
        self._rate: Callable[..., Any] = workload.rate
        self._tracer = tracer
        self._name = name

    def rate(self, *args: Any, **kwargs: Any) -> Any:
        with self._tracer.span(self._name):
            return self._rate(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._workload, name)
