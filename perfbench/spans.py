"""Spans around the calls into each pulsestab layer, recorded from outside.

`Tracer.install` wraps the public functions listed in TRACED and rebinds
every module-level reference to them inside the `pulsestab` package, so
calls made between modules (cli -> spectra -> discretization, ...) pass
through the wrapper.  Each call records a span: name, layer, start, end and
the span that caused it.  Spans stay in memory until the benchmark ends.
Worker threads of the scan pool have no enclosing span of their own, so
their outermost spans hang from the command span that is open.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# layer -> public functions timed in that layer.  A name missing from its
# module stops the traced run: a renamed function must be renamed here too,
# or its layer would lose its spans and read as faster.
TRACED = {
    "waves": ("resolve_wave_parameters", "sample_wave"),
    "discretization": (
        "build_grid",
        "assemble_system_operator_L",
        "assemble_tilde_L",
        "assemble_JL",
        "assemble_scalar_operator",
    ),
    "spectra": ("stability_verdict", "discrete_spectrum_tilde_L", "unstable_modes_JL"),
    "index_count": (
        "critical_ratio_bisection",
        "case1_index_closed_form",
        "case2_index",
        "general_index_numeric",
        "kdv_index_numeric",
        "hill_index_numeric",
    ),
}


@dataclass
class Span:
    span_id: int
    name: str  # "<layer>.<function>"
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    thread: int = 0
    matrix_bytes: int = 0  # size of an assembled operator's entries, if any
    evaluations: int = 0  # index evaluations a bisection reports, if any
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span = Span(next(self._ids), name, layer, parent, time.perf_counter(),
                        thread=threading.get_ident())
            self.spans.append(span)
        stack.append(span.span_id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def command(self, name: str):
        """A CLI command's span: the root of the spans below it."""
        span = self.begin(name, "cli")
        self._root = span.span_id
        try:
            yield span
        finally:
            self.end(span)
            self._root = None

    def _wrap(self, name: str, layer: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span)
            span.matrix_bytes = int(getattr(getattr(result, "entries", None), "nbytes", 0))
            span.evaluations = int(getattr(result, "evaluations", 0))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pulsestab" or key.startswith("pulsestab."))]
        missing = [f"pulsestab.{layer}.{name}" for layer, names in TRACED.items()
                   for name in names
                   if getattr(sys.modules.get(f"pulsestab.{layer}"), name, None) is None]
        if missing:
            raise LookupError(f"traced functions not found: {', '.join(missing)}")
        for layer, names in TRACED.items():
            home = sys.modules[f"pulsestab.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def finish(self) -> None:
        """Fill in each span's self time: its duration minus the part of it
        that its children cover (children of one span may overlap when they
        run on pool threads)."""
        children: dict[int | None, list[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        for span in self.spans:
            covered = covered_seconds(
                [(c.start, c.end) for c in children[span.span_id]], span.start, span.end)
            span.self_s = (span.end - span.start) - covered

    def as_records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def covered_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
