"""Spans recorded from outside the program, at the calls into each layer.

The CLI binds its collaborators at import (``from .simulator import
run_simulation`` and so on) and ``estimators`` reaches ``models`` through
the module, so a layer boundary is patched where its caller looks the name
up.  Each wrapped call records a span: name, start, end, the span that was
open when it began (its cause) and a few counts taken from its arguments
and result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

CLI = "cli"
RUN_SIMULATION = "simulator.run_simulation"
SWEEP_HISTOGRAM = "simulator.build_sweep_histogram"
CALIBRATION = "cli.calibration"
WRITE_HISTOGRAM = "histio.write_histogram"
READ_HISTOGRAM = "histio.read_histogram"
ESTIMATE_CUSTOM = "estimators.estimate_custom"
FOLD = "estimators.fold_gate_histogram"
CLASSICAL = "estimators.classical"
DERIVE_ALL = "estimators.derive_all"
INVERT_SECOND = "models.invert_second"
FIT_CURVE = "fitting.fit_curve"


def _first(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


def _sim_counts(args, kwargs, trace):
    cfg = _first(args, kwargs, "cfg")
    return {
        "gates": int(cfg.n_gates),
        "avalanches": int(trace.n_clicks) + int(trace.hidden_avalanches),
        "dropped_spawns": int(getattr(trace, "dropped_spawns", 0)),
    }


def _scan_counts(args, kwargs, hist):
    trace = _first(args, kwargs, "trace")
    return {"clicks_scanned": int(len(trace.click_gates)), "triggers": int(hist.c0)}


def _written_bytes(args, kwargs, _result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _read_bytes(args, kwargs, _result):
    return {"bytes": os.path.getsize(_first(args, kwargs, "path"))}


def _fit_counts(_args, _kwargs, fit):
    return {"iterations": int(fit.iterations), "not_converged": int(not fit.converged)}


# (name the CLI module looks up, span name, counts taken from the call)
_CLI_TARGETS = (
    ("run_simulation", RUN_SIMULATION, _sim_counts),
    ("build_sweep_histogram", SWEEP_HISTOGRAM, _scan_counts),
    ("_calibrate_mu", CALIBRATION, None),
    ("write_histogram", WRITE_HISTOGRAM, _written_bytes),
    ("read_histogram", READ_HISTOGRAM, _read_bytes),
    ("estimate_custom", ESTIMATE_CUSTOM, None),
    ("fold_gate_histogram", FOLD, None),
    ("estimate_bethune", CLASSICAL, None),
    ("estimate_yuan", CLASSICAL, None),
    ("estimate_coincidence", CLASSICAL, None),
    ("derive_all", DERIVE_ALL, None),
    ("fit_curve", FIT_CURVE, _fit_counts),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; patches nothing while it is not."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter() - self._t0)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str = CLI):
        """Span of one CLI command; the layer spans inside it are its children."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, module, attr, name, counter) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, self._wrap(fn, name, counter))

    def install(self, cli_module, models_module) -> None:
        for attr, name, counter in _CLI_TARGETS:
            self._patch(cli_module, attr, name, counter)
        self._patch(models_module, "invert_second", INVERT_SECOND, None)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "name": s.name,
                "start_s": s.start,
                "end_s": s.end,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round from the recorded spans.

    busy_s is a span's whole duration, children included; cli.self_s is
    the command spans' duration less their direct children.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / rounds

    def busy(name):
        return sum(s.duration for s in by_name[name]) / rounds

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name]) / rounds

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    cli_self = sum(s.duration - child_time[s.id] for s in by_name[CLI]) / rounds
    calibration_ids = {s.id for s in by_name[CALIBRATION]}
    cal_sims = sum(1 for s in by_name[RUN_SIMULATION] if s.parent in calibration_ids)

    m: dict[str, tuple[float, str]] = {}
    sim, scan = RUN_SIMULATION, SWEEP_HISTOGRAM
    m[f"{sim}.calls"] = (calls(sim), "count")
    m[f"{sim}.gates"] = (total(sim, "gates"), "count")
    m[f"{sim}.avalanches"] = (total(sim, "avalanches"), "count")
    m[f"{sim}.busy_s"] = (busy(sim), "s")
    m[f"{sim}.ns_per_avalanche"] = (per(busy(sim), total(sim, "avalanches"), 1e9), "ns")
    m[f"{sim}.dropped_spawns"] = (total(sim, "dropped_spawns"), "count")
    m[f"{scan}.calls"] = (calls(scan), "count")
    m[f"{scan}.clicks_scanned"] = (total(scan, "clicks_scanned"), "count")
    m[f"{scan}.triggers"] = (total(scan, "triggers"), "count")
    m[f"{scan}.busy_s"] = (busy(scan), "s")
    m[f"{scan}.ns_per_click"] = (per(busy(scan), total(scan, "clicks_scanned"), 1e9), "ns")
    m[f"{CALIBRATION}.sims"] = (cal_sims / rounds, "count")
    m[f"{CALIBRATION}.busy_s"] = (busy(CALIBRATION), "s")
    for io in (WRITE_HISTOGRAM, READ_HISTOGRAM):
        m[f"{io}.calls"] = (calls(io), "count")
        m[f"{io}.bytes"] = (total(io, "bytes"), "B")
        m[f"{io}.busy_s"] = (busy(io), "s")
        m[f"{io}.mb_per_s"] = (per(total(io, "bytes"), busy(io), 1e-6), "MB/s")
    for name in (ESTIMATE_CUSTOM, FOLD, CLASSICAL):
        m[f"{name}.busy_s"] = (busy(name), "s")
    for name in (DERIVE_ALL, INVERT_SECOND):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.us_per_call"] = (per(busy(name), calls(name), 1e6), "us")
    m[f"{FIT_CURVE}.calls"] = (calls(FIT_CURVE), "count")
    m[f"{FIT_CURVE}.busy_s"] = (busy(FIT_CURVE), "s")
    m[f"{FIT_CURVE}.iterations"] = (total(FIT_CURVE, "iterations"), "count")
    m[f"{FIT_CURVE}.not_converged"] = (total(FIT_CURVE, "not_converged"), "count")
    m["cli.self_s"] = (cli_self, "s")
    return m
