"""Histogram data models, bin merging, normalization and file I/O.

The file format is a plain UTF-8 text table shared by the simulator and by
oscilloscope exports: ``# key = value`` metadata lines (mandatory keys
``bin_width_ns``, ``sweep_ns``, ``c0``) followed by one ``bin_start_ns,count``
record per line with integer fields.  Writing then reading a histogram is a
bit-exact identity on the counts.

Gate-folded histograms share the format: ``kind = gate`` marks them, the
period takes the place of the sweep, ``c0`` is 0, and ``gates_per_period``,
``acquisition_gates`` and ``tau_s_ns`` carry the period structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DegenerateDataError",
    "HistogramFormatError",
    "GateHistogram",
    "SweepHistogram",
    "merge_bins",
    "read_histogram",
    "write_histogram",
]

_MANDATORY_KEYS = ("bin_width_ns", "sweep_ns", "c0")


class HistogramFormatError(ValueError):
    """A histogram file violates the on-disk format or an invariant."""


class DegenerateDataError(RuntimeError):
    """The histogram cannot support the requested estimate."""


@dataclass
class SweepHistogram:
    """Binned click counts relative to a trigger click.

    The trigger bin count ``c0`` is carried separately from ``bins``; the
    binned counts start at the first offset after the trigger.
    """

    bin_width: float  # seconds
    sweep: float  # seconds
    bins: np.ndarray  # integer counts
    c0: int
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.bins = np.asarray(self.bins, dtype=np.int64)
        if self.bin_width <= 0 or self.sweep <= 0:
            raise HistogramFormatError("bin_width and sweep must be positive")
        if self.bins.ndim != 1 or len(self.bins) == 0:
            raise HistogramFormatError("bins must be a non-empty 1-d array")
        if abs(len(self.bins) * self.bin_width - self.sweep) > self.bin_width:
            raise HistogramFormatError(
                f"{len(self.bins)} bins of {self.bin_width} s do not cover "
                f"a {self.sweep} s sweep"
            )
        if np.any(self.bins < 0):
            raise HistogramFormatError("negative bin count")
        if self.c0 < 0:
            raise HistogramFormatError("c0 must be >= 0")

    @property
    def bin_starts(self) -> np.ndarray:
        """Left edge of every bin, in seconds after the trigger."""
        return np.arange(len(self.bins)) * self.bin_width

    def total_counts(self) -> int:
        return int(self.bins.sum())


@dataclass
class GateHistogram:
    """Click counts folded onto one analysis period of the gate grid.

    ``bins`` spans ``gates_per_period * bins_per_gate`` sub-gate bins so gate
    boundaries stay resolvable.  ``acquisition_gates`` is the total number of
    gates observed and ``tau_s`` the statistical dead time used to convert
    counts into live rates.
    """

    bins: np.ndarray
    bin_width: float  # seconds
    period: float  # seconds, one analysis period
    gates_per_period: int
    acquisition_gates: int
    tau_s: float = 0.0
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.bins = np.asarray(self.bins, dtype=np.int64)
        if self.gates_per_period < 1:
            raise DegenerateDataError("gates_per_period must be >= 1")
        if len(self.bins) % self.gates_per_period != 0:
            raise DegenerateDataError(
                f"{len(self.bins)} bins do not resolve "
                f"{self.gates_per_period} gates"
            )
        if abs(len(self.bins) * self.bin_width - self.period) > self.bin_width:
            raise DegenerateDataError("bins * bin_width must equal the period")

    @property
    def bins_per_gate(self) -> int:
        return len(self.bins) // self.gates_per_period

    @property
    def f_g(self) -> float:
        return self.gates_per_period / self.period

    @property
    def total_counts(self) -> int:
        return int(self.bins.sum())

    @property
    def live_time(self) -> float:
        """Acquisition time minus the dead time spent after each click."""
        duration = self.acquisition_gates / self.f_g
        live = duration - self.total_counts * self.tau_s
        if live <= 0.0:
            raise DegenerateDataError("dead time exceeds the acquisition time")
        return live

    def gate_counts(self) -> np.ndarray:
        """Counts aggregated per gate within the period."""
        return self.bins.reshape(self.gates_per_period, self.bins_per_gate).sum(
            axis=1
        )

    def illuminated_gate(self) -> int:
        """Index of the gate with maximal counts, taken as illuminated."""
        return int(np.argmax(self.gate_counts()))


def merge_bins(h: SweepHistogram, factor: int) -> SweepHistogram:
    """Merge consecutive bins by an integer factor, conserving all counts."""
    if factor < 1:
        raise HistogramFormatError(f"merge factor must be >= 1, got {factor}")
    if len(h.bins) % factor != 0:
        raise HistogramFormatError(
            f"{len(h.bins)} bins are not divisible by factor {factor}"
        )
    if factor == 1:
        return replace(h, bins=h.bins.copy(), meta=dict(h.meta))
    merged = h.bins.reshape(-1, factor).sum(axis=1)
    return SweepHistogram(
        bin_width=h.bin_width * factor,
        sweep=h.sweep,
        bins=merged,
        c0=h.c0,
        meta=dict(h.meta),
    )


def _format_ns(value_s: float) -> str:
    ns = value_s * 1e9
    rounded = round(ns)
    if abs(ns - rounded) < 1e-6:
        return str(int(rounded))
    return repr(ns)


def write_histogram(h: SweepHistogram | GateHistogram, path: str | Path) -> None:
    """Write the text-table format; deterministic byte-for-byte per input."""
    if isinstance(h, GateHistogram):
        span, c0 = h.period, 0
        meta = {
            "kind": "gate",
            "gates_per_period": str(h.gates_per_period),
            "acquisition_gates": str(h.acquisition_gates),
            "tau_s_ns": f"{h.tau_s * 1e9:.6g}",
            **h.meta,
        }
    else:
        span, c0, meta = h.sweep, h.c0, h.meta
    lines = [
        f"# bin_width_ns = {_format_ns(h.bin_width)}",
        f"# sweep_ns = {_format_ns(span)}",
        f"# c0 = {c0}",
    ]
    for key in sorted(meta):
        if key in _MANDATORY_KEYS:
            continue
        lines.append(f"# {key} = {meta[key]}")
    width_ns = h.bin_width * 1e9
    for i, count in enumerate(h.bins):
        lines.append(f"{round(i * width_ns)},{int(count)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_histogram(path: str | Path) -> SweepHistogram | GateHistogram:
    """Parse the text-table format; raises with a line number on bad input.

    A file with ``kind = gate`` metadata comes back as a ``GateHistogram``.
    """
    meta: dict[str, str] = {}
    starts: list[int] = []
    counts: list[int] = []
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if not body:
                continue
            if "=" not in body:
                raise HistogramFormatError(
                    f"{path}:{lineno}: metadata line without '=': {raw!r}"
                )
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise HistogramFormatError(
                f"{path}:{lineno}: expected 'bin_start_ns,count', got {raw!r}"
            )
        try:
            start = int(fields[0])
            count = int(fields[1])
        except ValueError as exc:
            raise HistogramFormatError(
                f"{path}:{lineno}: non-integer field in {raw!r}"
            ) from exc
        if count < 0:
            raise HistogramFormatError(
                f"{path}:{lineno}: negative count {count}"
            )
        starts.append(start)
        counts.append(count)

    for key in _MANDATORY_KEYS:
        if key not in meta:
            raise HistogramFormatError(f"{path}: missing mandatory key {key!r}")
    if not counts:
        raise HistogramFormatError(f"{path}: histogram has no bins")

    try:
        width_ns = float(meta["bin_width_ns"])
        sweep = float(meta["sweep_ns"]) * 1e-9
        c0 = int(meta["c0"])
    except ValueError as exc:
        raise HistogramFormatError(f"{path}: malformed mandatory metadata: {exc}") from exc
    bin_width = width_ns * 1e-9
    for i, start in enumerate(starts):
        if abs(start - i * width_ns) > 0.5:
            raise HistogramFormatError(
                f"{path}: bin {i} starts at {start} ns, expected "
                f"{i * width_ns:.0f} ns"
            )
    extra = {k: v for k, v in meta.items() if k not in _MANDATORY_KEYS}
    # the sweep container's layout checks apply to gate files as well
    hist = SweepHistogram(
        bin_width=bin_width,
        sweep=sweep,
        bins=np.array(counts, dtype=np.int64),
        c0=c0,
        meta=extra,
    )
    if extra.get("kind") != "gate":
        return hist
    del extra["kind"]
    try:
        gates = int(extra.pop("gates_per_period"))
        acq = int(extra.pop("acquisition_gates"))
        tau_s = float(extra.pop("tau_s_ns", "0")) * 1e-9
    except (KeyError, ValueError) as exc:
        raise DegenerateDataError(f"{path}: incomplete gate metadata: {exc}") from exc
    return GateHistogram(
        bins=hist.bins,
        bin_width=bin_width,
        period=sweep,
        gates_per_period=gates,
        acquisition_gates=acq,
        tau_s=tau_s,
        meta=extra,
    )
