"""Histogram data models, bin merging, normalization and file I/O.

The file format is a plain UTF-8 text table shared by the simulator and by
oscilloscope exports: ``# key = value`` metadata lines (mandatory keys
``bin_width_ns``, ``sweep_ns``, ``c0``) and one ``bin_start_ns,count`` record
per line, fields read with ``int()``; blank lines are skipped, ``#`` lines may
appear anywhere, and the first bad line is named.  Writing then reading is a
bit-exact identity on the counts; the writer's own form is read in a few
whole-file array passes, any other file line by line, with the same result.

Gate-folded histograms share the format: ``kind = gate`` marks them, the
period takes the place of the sweep, ``c0`` is 0, and ``gates_per_period``,
``acquisition_gates`` and ``tau_s_ns`` carry the period structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
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
_BLOCK = 512  # records formatted or parsed at once, bounding the strings held


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
    lines += [f"# {key} = {meta[key]}" for key in sorted(meta) if key not in _MANDATORY_KEYS]
    # rint rounds half to even, as round() does, on the same IEEE product
    starts = np.rint(np.arange(len(h.bins)) * (h.bin_width * 1e9)).astype(np.int64)
    pairs = np.column_stack((starts, h.bins))
    blocks = (pairs[i : i + _BLOCK] for i in range(0, len(pairs), _BLOCK))
    records = "".join("%d,%d\n" * len(b) % tuple(b.ravel().tolist()) for b in blocks)
    Path(path).write_text("\n".join(lines) + "\n" + records, encoding="utf-8")


def _line_fault(text: str) -> str | None:
    """What is wrong with one stripped line, as a message template, or None."""
    if text.startswith("#"):
        body = text[1:].strip()
        return "metadata line without '=': {raw!r}" if body and "=" not in body else None
    fields = text.split(",")
    if len(fields) != 2:
        return "expected 'bin_start_ns,count', got {raw!r}"
    try:
        start, count = int(fields[0]), int(fields[1])
    except ValueError:
        return "non-integer field in {raw!r}"
    if count < 0:
        return f"negative count {count}"
    if not (-(2**63) <= start < 2**63 and count < 2**63):
        return "field out of int64 range in {raw!r}"
    return None


def _records(rows: list[str]) -> np.ndarray | None:
    """The records as ``(start, count)`` int64 pairs, or None if one is malformed."""
    values = np.empty((len(rows), 2), dtype=np.int64)
    for i in range(0, len(rows), _BLOCK):
        block = rows[i : i + _BLOCK]
        if list(map(str.count, block, repeat(","))).count(1) != len(block):
            return None
        fields = ",".join(block).split(",")
        try:
            values[i : i + _BLOCK] = np.array(fields, dtype=np.int64).reshape(-1, 2)
        except (ValueError, OverflowError):
            return None
    return None if np.any(values[:, 1] < 0) else values


def _writer_form(data: bytes) -> tuple[list[str], np.ndarray] | None:
    """Notes and records of a file in the writer's own form, else None.

    That form is ASCII with ``LF`` line ends only: the ``#`` lines first, then
    ``start,count`` records whose fields have 1 to 18 digits (so below 2**63)
    and a final line end.  Such a file is checked and converted in a few
    array passes; any other file, well formed or not, is left to the
    line-by-line path.
    """
    if not data.isascii() or b"\r" in data:
        return None
    end = 0
    while data.startswith(b"#", end):
        end = data.find(b"\n", end) + 1
        if not end:
            return None
    head = data[:end]
    notes = head.decode("ascii").splitlines()
    # a separator other than \n would make two lines where the file has one
    if len(notes) != head.count(b"\n") or not data.endswith(b"\n", end):
        return None
    if any(map(_line_fault, notes)):
        return None
    text = np.frombuffer(data, dtype=np.uint8, offset=end)
    seps = np.flatnonzero((text - ord("0")) > 9)  # uint8 wraps below '0'
    kinds = text[seps]
    if (
        len(seps) % 2
        or np.any(kinds[0::2] != ord(","))
        or np.any(kinds[1::2] != ord("\n"))
    ):
        return None
    spans = np.diff(seps, prepend=-1)  # digits in each field, plus one
    if spans.min() < 2 or spans.max() > 19:
        return None
    del seps, kinds, spans
    body = data[end:].replace(b"\n", b",")
    values = np.fromstring(body, dtype=np.int64, sep=",")
    return notes, values.reshape(-1, 2)


def _line_by_line(data: bytes, path: str | Path) -> tuple[list[str], np.ndarray]:
    """Notes and records of any file in the format; raises at the first bad line."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise HistogramFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    stripped = list(map(str.strip, lines))
    rows = [text for text in stripped if text and text[0] != "#"]
    notes = [text for text in stripped if text[:1] == "#"]
    values = _records(rows)
    if values is None or any(map(_line_fault, notes)):
        i = next(i for i, text in enumerate(stripped) if text and _line_fault(text))
        fault = _line_fault(stripped[i]).format(raw=lines[i])
        raise HistogramFormatError(f"{path}:{i + 1}: {fault}")
    return notes, values


def read_histogram(path: str | Path) -> SweepHistogram | GateHistogram:
    """Parse the text-table format; raises with a line number on bad input.

    A file with ``kind = gate`` metadata comes back as a ``GateHistogram``.
    """
    data = Path(path).read_bytes()
    notes, values = _writer_form(data) or _line_by_line(data, path)
    del data  # free the file's bytes before the grid check
    entries = (note[1:].partition("=") for note in notes)
    meta = {key.strip(): value.strip() for key, sep, value in entries if sep}

    for key in _MANDATORY_KEYS:
        if key not in meta:
            raise HistogramFormatError(f"{path}: missing mandatory key {key!r}")
    if not len(values):
        raise HistogramFormatError(f"{path}: histogram has no bins")

    try:
        width_ns = float(meta["bin_width_ns"])
        sweep = float(meta["sweep_ns"]) * 1e-9
        c0 = int(meta["c0"])
    except ValueError as exc:
        raise HistogramFormatError(f"{path}: malformed mandatory metadata: {exc}") from exc
    for key, value in (("bin_width_ns", width_ns), ("sweep_ns", sweep)):
        if not np.isfinite(value):
            raise HistogramFormatError(f"{path}: {key} = {meta[key]} is not a finite number")
    starts = values[:, 0]
    off_grid = np.flatnonzero(np.abs(starts - np.arange(len(starts)) * width_ns) > 0.5)
    if off_grid.size:
        i = int(off_grid[0])
        raise HistogramFormatError(
            f"{path}: bin {i} starts at {starts[i]} ns, expected {i * width_ns:.0f} ns"
        )
    extra = {k: v for k, v in meta.items() if k not in _MANDATORY_KEYS}
    # the sweep container's layout checks apply to gate files as well
    hist = SweepHistogram(
        bin_width=width_ns * 1e-9, sweep=sweep, bins=values[:, 1].copy(), c0=c0, meta=extra
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
        bins=hist.bins, bin_width=hist.bin_width, period=sweep, gates_per_period=gates,
        acquisition_gates=acq, tau_s=tau_s, meta=extra,
    )
