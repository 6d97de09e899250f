"""Spans around the package's layer boundaries, recorded from outside.

The package is not edited: ``Tracer.installed()`` replaces each public entry
point at the name its caller resolves (for example ``magcurves.sweep.integrate``,
the binding ``run_sweep``'s cells call) with a wrapper that records a span,
and puts the originals back on exit.  Spans are kept in memory and written
out once, at the end of the run.

Pool workers of ``sweep --jobs 2`` record into their own copy of the tracer,
which is lost, so traced sweeps run with ``--jobs 1``.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import dataclass, field

from magcurves import cli, sweep, verify
from magcurves.errors import DivergenceError


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)
    error: str | None = None


def _integrate_counts(args, result):
    cfg = args[1]
    return {"steps": int(round(cfg.t_end / cfg.step))}


def _samples_of_arg0(args, result):
    return {"samples": len(args[0])}


def _samples_of_times(args, result):
    return {"samples": len(args[1])}


def _write_counts(args, result):
    return {"rows": len(args[0]), "bytes": os.path.getsize(args[1])}


def _read_counts(args, result):
    return {"rows": len(result)}


def _rows_of_arg0(args, result):
    return {"rows": len(args[0])}


def _cells_of_result(args, result):
    return {"cells": len(result)}


# (module, attribute, span name, counter): every binding through which the
# CLI reaches a layer.  ``verify.run_all`` resolves the suites in its own
# module, ``run_sweep``'s cells resolve ``integrate`` and
# ``frenet_apparatus`` in ``magcurves.sweep``.
ENTRY_POINTS = [
    (cli, "main", "cli.main", None),
    (cli, "integrate", "dynamics.integrate", _integrate_counts),
    (sweep, "integrate", "dynamics.integrate", _integrate_counts),
    (verify, "integrate", "dynamics.integrate", _integrate_counts),
    (cli, "frenet_apparatus", "frenet.apparatus", _samples_of_arg0),
    (sweep, "frenet_apparatus", "frenet.apparatus", _samples_of_arg0),
    (verify, "frenet_apparatus", "frenet.apparatus", _samples_of_arg0),
    (cli, "classify_trajectory", "classify.trajectory", None),
    (verify, "classify_trajectory", "classify.trajectory", None),
    (cli, "sample_case_a", "closed_form.sample", _samples_of_times),
    (cli, "sample_case_b", "closed_form.sample", _samples_of_times),
    (verify, "sample_case_a", "closed_form.sample", _samples_of_times),
    (cli, "residual", "closed_form.residual", None),
    (verify, "residual", "closed_form.residual", None),
    (cli, "write_trajectory", "io.write", _write_counts),
    (cli, "read_trajectory", "io.read", _read_counts),
    (cli, "run_sweep", "sweep.run", _cells_of_result),
    (cli, "write_sweep_csv", "sweep.write_csv", _rows_of_arg0),
    (verify, "structure_suite", "verify.structure", None),
    (verify, "connection_suite", "verify.connection", None),
    (verify, "curve_suite", "verify.curves", None),
    (verify, "classification_suite", "verify.classification", None),
]


class Tracer:
    """In-memory span recorder; ``op`` tags the benchmark operation that
    caused each span, so the spans of one operation share an identifier."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1].id if self._stack else None,
                        self.op, name, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in ENTRY_POINTS]
        try:
            for (mod, attr, name, counter), (_, _, fn) in zip(ENTRY_POINTS, originals):
                setattr(mod, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_ns(self) -> list[int]:
        """Span duration minus the time its direct children cover.  Children
        of one span run one after another, so their durations add up."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end_ns - span.start_ns
        return [s.end_ns - s.start_ns - c for s, c in zip(self.spans, child)]

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, busy_s (inclusive), self_s, summed counts
        and the number of DivergenceError exits."""
        out: dict[str, dict] = {}
        for span, self_ns in zip(self.spans, self.self_ns()):
            agg = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                             "divergences": 0})
            agg["calls"] += 1
            agg["busy_s"] += (span.end_ns - span.start_ns) * 1e-9
            agg["self_s"] += self_ns * 1e-9
            agg["divergences"] += span.error == DivergenceError.__name__
            for key, value in span.counts.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([{**vars(s), "self_ns": n} for s, n in zip(self.spans, self.self_ns())],
                      fh)
            fh.write("\n")
