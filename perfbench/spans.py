"""Spans around the benchmark's calls into the layers, and the per-layer
metrics derived from them.

A span is [name, start_s, end_s, parent, op, attrs]: ``parent`` indexes the
enclosing span (-1 at top level), ``op`` is the operation the call served
(-1 outside the timed rounds) and ``attrs`` holds sizes read off the
call's arguments or result.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc

MB = 1e6

#: per-layer metric -> (unit, span names it reads, how it reads them)
LAYER_METRICS = {
    "mathieu.solve_calls": ("count", ("mathieu.solve",), "count"),
    "mathieu.solve_ms": ("ms", ("mathieu.solve",), "ms"),
    "mathieu.window_sum": ("count", ("mathieu.solve",), "window"),
    "phase_space.build_calls": ("count", ("phase_space.build",), "count"),
    "phase_space.build_ms": ("ms", ("phase_space.build",), "ms"),
    "phase_space.moments_ms": ("ms", ("phase_space.moments",), "ms"),
    "phase_space.density_ms": ("ms", ("phase_space.density",), "ms"),
    "phase_space.support_sum": ("count", ("phase_space.build",), "support"),
    "fock.states": ("count", ("fock.coherent", "fock.squeezed", "fock.embed"), "count"),
    "fock.coherent_ms": ("ms", ("fock.coherent",), "ms"),
    "fock.squeezed_ms": ("ms", ("fock.squeezed",), "ms"),
    "fock.embed_ms": ("ms", ("fock.embed",), "ms"),
    "fock.grid_mb": ("MB", ("fock.coherent", "fock.squeezed", "fock.embed"), "grid_mb"),
    "fock.alloc_peak_mb": ("MB", ("fock.coherent", "fock.squeezed", "fock.embed"), "alloc_peak_mb"),
    "noise.analyze_calls": ("count", ("noise.analyze",), "count"),
    "noise.analyze_ms": ("ms", ("noise.analyze",), "ms"),
    "noise.alloc_peak_mb": ("MB", ("noise.analyze",), "alloc_peak_mb"),
    "noise.fit_ms": ("ms", ("noise.fit",), "ms"),
    "noise.rho_bars_ms": ("ms", ("noise.rho_bars",), "ms"),
    "optics.parse_ms": ("ms", ("optics.parse",), "ms"),
    "optics.reflect_calls": ("count", ("optics.reflect",), "count"),
    "optics.reflect_ms": ("ms", ("optics.reflect",), "ms"),
    "optics.layer_steps": ("count", ("optics.reflect",), "layer_steps"),
    "cli.import_ms": ("ms", ("cli.import",), "ms"),
    "cli.state_ms": ("ms", ("cli.state",), "ms"),
    "cli.sweep_ms": ("ms", ("cli.sweep",), "ms"),
    "cli.density_ms": ("ms", ("cli.density",), "ms"),
    "cli.ellipsometry_ms": ("ms", ("cli.ellipsometry",), "ms"),
    "cli.mathieu_table_ms": ("ms", ("cli.mathieu_table",), "ms"),
    "cli.output_bytes": ("count", ("cli.state", "cli.sweep", "cli.density",
                                   "cli.ellipsometry", "cli.mathieu_table"), "output_bytes"),
}

#: spans outside the timed operations that still feed a metric (one per round)
ROUND_PROBES = ("cli.import",)


class Tracer:
    """In-memory span recorder; ``wrap`` turns a layer function into a traced one."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _end(self, span: list, attrs: dict | None) -> None:
        span[2] = time.perf_counter()
        span[5] = attrs
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block that is not a single call (an operation)."""
        span = self._begin(name)
        try:
            yield
        finally:
            self._end(span, None)

    def wrap(self, name: str, fn, attrs=None, alloc: bool = False):
        """Traced version of ``fn``.

        ``attrs(args, result)`` returns the sizes to keep on the span.  With
        ``alloc`` the span also records the tracemalloc peak of the call;
        tracemalloc runs only inside such spans, so it slows nothing else.
        """
        def traced(*args, **kwargs):
            started = alloc and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            span = self._begin(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                info = attrs(args, result) if attrs is not None else {}
                return result
            finally:
                self._end(span, info)
                if started:
                    if info is not None:
                        info["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
        return traced

    def write(self, path: str, header: dict) -> None:
        """Header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list[list], rounds: int) -> dict:
    """Per-layer metrics per timed round.

    Times, counts and sizes are summed over the run and divided by the
    number of rounds; every round repeats the same operations, so counts
    come out as exact integers.  The ``alloc_peak_mb`` metrics are the
    largest single-call peak of the run instead.
    """
    by_name: dict[str, list[list]] = {}
    for span in spans:
        if span[4] >= 0 or span[0] in ROUND_PROBES:
            by_name.setdefault(span[0], []).append(span)
    out = {}
    for metric, (unit, names, how) in LAYER_METRICS.items():
        chosen = [s for n in names for s in by_name.get(n, ())]
        if how == "count":
            value = len(chosen) / rounds
        elif how == "ms":
            value = sum(s[2] - s[1] for s in chosen) * 1e3 / rounds
        elif how == "alloc_peak_mb":
            value = max((s[5][how] for s in chosen if s[5]), default=0.0)
        else:
            value = sum(s[5][how] for s in chosen if s[5]) / rounds
        if unit == "count":
            value = int(round(value)) if float(value).is_integer() else value
        out[metric] = {"value": value, "unit": unit}
    return out
