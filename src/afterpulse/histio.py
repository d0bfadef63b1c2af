"""Histogram data models and file I/O.

The file format is a plain UTF-8 text table shared by the simulator and by
oscilloscope exports: ``# key = value`` metadata lines (mandatory keys
``bin_width_ns``, ``sweep_ns``, ``c0``) and one ``bin_start_ns,count`` record
per line, fields read with ``int()``; blank lines are skipped, ``#`` lines may
appear anywhere, and the first bad line is named.  Writing then reading is a
bit-exact identity on the counts.  The writer formats the records in a few
array passes over the bins and always ends lines in ``\n``; that form is read
in a few whole-file array passes, any other file in one pass over its lines.
A sweep file's optional ``tau_s_ns`` (> 0), ``rate_hz`` (>= 0) and ``f_l_hz``
(> 0, its period no shorter than the sweep) become the ``SweepHistogram``
fields ``tau_s``, ``rate`` and ``f_l``, None where absent, which the
container holds to the same ranges.

Gate-folded histograms share the format: ``kind = gate`` marks them, the
period takes the place of the sweep, ``c0`` is 0, and ``gates_per_period``,
``acquisition_gates`` (integers >= 1) and ``tau_s_ns`` (>= 0, default 0) carry
the period structure.  Optional ``f_g_hz`` and ``f_l_hz`` must give a whole
``f_g/f_l`` equal to ``gates_per_period``; each defaults to agree with it.
The reader checks every one of these keys, and ``rate_hz`` (>= 0) of either
kind, naming the file and the key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DegenerateDataError",
    "HistogramFormatError",
    "GateHistogram",
    "SweepHistogram",
    "read_histogram",
    "write_histogram",
]

_MANDATORY_KEYS = ("bin_width_ns", "sweep_ns", "c0")


class HistogramFormatError(ValueError):
    """A histogram file violates the on-disk format or an invariant."""


class DegenerateDataError(RuntimeError):
    """The histogram cannot support the requested estimate."""


def _layout(bins, width: float, span: float, name: str, error: type[Exception]) -> np.ndarray:
    """``bins`` as int64 counts, checked to be bins of ``width`` s that cover
    the ``span`` s of a ``name``; raises ``error`` at the first fault."""
    bins = np.asarray(bins, dtype=np.int64)
    if not (0.0 < width < math.inf and 0.0 < span < math.inf):
        raise error(
            f"bin_width and {name} must be finite and positive, got {width!r} and {span!r}"
        )
    if bins.ndim != 1 or len(bins) == 0:
        raise error("bins must be a non-empty 1-d array")
    if abs(len(bins) * width - span) > width:
        raise error(f"{len(bins)} bins of {width} s do not cover a {span} s {name}")
    if np.any(bins < 0):
        raise error("negative bin count")
    return bins


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
    # the dead time (s), click rate and laser rate (Hz); None where the source
    # does not record them, as in an instrument export
    tau_s: float | None = None
    rate: float | None = None
    f_l: float | None = None

    def __post_init__(self) -> None:
        self.bins = _layout(self.bins, self.bin_width, self.sweep, "sweep", HistogramFormatError)
        if self.c0 < 0:
            raise HistogramFormatError("c0 must be >= 0")
        # the reader's ranges for tau_s_ns, rate_hz and f_l_hz
        for name, zero_ok in (("tau_s", False), ("rate", True), ("f_l", False)):
            value = getattr(self, name)
            if value is not None and not (0.0 <= value < math.inf and (zero_ok or value > 0.0)):
                raise DegenerateDataError(
                    f"{name} must be finite and {'>=' if zero_ok else '>'} 0, got {value!r}"
                )
        # a sweep of one whole laser period is allowed, up to float noise
        if self.f_l is not None and self.sweep * self.f_l > 1.0 + 1e-9:
            raise DegenerateDataError(
                f"sweep_ns = {self.sweep * 1e9:g} outlasts the laser period of f_l_hz = "
                f"{self.f_l!r}: the next pulse's clicks would be counted as afterpulses"
            )

    @property
    def bin_starts(self) -> np.ndarray:
        """Left edge of every bin, in seconds after the trigger."""
        return np.arange(len(self.bins)) * self.bin_width


@dataclass
class GateHistogram:
    """Click counts folded onto one analysis period of the gate grid.

    ``bins`` spans ``gates_per_period * bins_per_gate`` bins: the simulator's
    fold has one per gate, and an instrument file may resolve each gate into
    several.  The estimators read only ``gate_counts()``, the per-gate sums.
    ``acquisition_gates`` is the total number of gates observed and
    ``tau_s`` the statistical dead time used to convert counts into live
    rates.
    """

    bins: np.ndarray
    bin_width: float  # seconds
    period: float  # seconds, one analysis period
    gates_per_period: int
    acquisition_gates: int
    tau_s: float = 0.0
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gates_per_period < 1:
            raise DegenerateDataError("gates_per_period must be >= 1")
        if self.acquisition_gates < 1:
            raise DegenerateDataError("acquisition_gates must be >= 1")
        if not 0.0 <= self.tau_s < math.inf:
            raise DegenerateDataError(f"tau_s must be finite and >= 0, got {self.tau_s!r}")
        self.bins = _layout(self.bins, self.bin_width, self.period, "period", DegenerateDataError)
        if len(self.bins) % self.gates_per_period != 0:
            raise DegenerateDataError(
                f"{len(self.bins)} bins do not resolve "
                f"{self.gates_per_period} gates"
            )

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
            "tau_s_ns": _format_ns(h.tau_s),
            **h.meta,
        }
    else:
        span, c0 = h.sweep, h.c0
        typed = (("tau_s_ns", h.tau_s, _format_ns), ("rate_hz", h.rate, repr),
                 ("f_l_hz", h.f_l, repr))
        meta = {**h.meta, **{key: fmt(float(v)) for key, v, fmt in typed if v is not None}}
    lines = [
        f"# bin_width_ns = {_format_ns(h.bin_width)}",
        f"# sweep_ns = {_format_ns(span)}",
        f"# c0 = {c0}",
    ]
    lines += [f"# {key} = {meta[key]}" for key in sorted(meta) if key not in _MANDATORY_KEYS]
    if h.bins.min(initial=0) < 0:  # bins is a mutable array: checked where written
        raise HistogramFormatError(f"negative count {h.bins.min()} in the bins")
    # rint rounds half to even, as round() does, on the same IEEE product
    starts = np.rint(np.arange(len(h.bins)) * (h.bin_width * 1e9)).astype(np.int64)
    head = "\n".join(lines) + "\n"
    Path(path).write_bytes(head.encode("utf-8") + _format_records(starts, h.bins))


def _format_records(starts: np.ndarray, counts: np.ndarray) -> bytes:
    """``start,count\\n`` lines of two non-negative integer columns: a byte matrix
    of zero-padded digits, ``,`` and ``\\n``, its leading zeros masked out."""
    fields = []
    for col in (starts, counts):
        top = int(col.max(initial=0))
        fields.append((col.astype(np.uint32) if top < 2**32 else col, len(str(top))))
    rows = np.empty((len(starts), sum(width for _, width in fields) + 2), dtype=np.uint8)
    keep = np.ones(rows.shape, dtype=bool)
    last = -2  # the column of a field's last digit, right before its separator
    for (col, width), sep in zip(reversed(fields), "\n,"):
        rows[:, last + 1] = ord(sep)
        for j in range(last, last - width, -1):
            quotient = col // 10
            rows[:, j] = col - quotient * 10 + ord("0")
            if j != last:
                keep[:, j] = col > 0  # a digit of the value, not a leading zero
            col = quotient
        last -= width + 1
    return rows[keep].tobytes()


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
    # the first field has seps[0] digits, each later one its span less one
    spans = seps[1:] - seps[:-1]
    if not 1 <= seps[0] <= 18 or spans.min() < 2 or spans.max() > 19:
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
    notes, rows = [], []
    for i, raw in enumerate(lines):
        text = raw.strip()
        if not text:
            continue
        fault = _line_fault(text)
        if fault:
            raise HistogramFormatError(f"{path}:{i + 1}: {fault.format(raw=raw)}")
        (notes if text[0] == "#" else rows).append(text)
    fields = ",".join(rows).split(",") if rows else []
    return notes, np.array(fields, dtype=np.int64).reshape(-1, 2)


def _meta_float(meta: dict[str, str], key: str, path: str | Path) -> float:
    """A finite number from the metadata; raises naming the file and the key."""
    try:
        value = float(meta[key])
    except ValueError as exc:
        raise DegenerateDataError(
            f"{path}: metadata {key} = {meta[key]!r} is not a number"
        ) from exc
    if not math.isfinite(value):
        raise DegenerateDataError(f"{path}: metadata {key} = {value!r} is not finite")
    return value


def _as_gate(hist: SweepHistogram, meta: dict[str, str], typed: dict, path) -> GateHistogram:
    """The gate histogram of a ``kind = gate`` file, its gate keys checked."""
    del meta["kind"]
    counts = []
    for key in ("gates_per_period", "acquisition_gates"):
        if key not in meta:
            raise DegenerateDataError(f"{path}: incomplete gate metadata: {key!r}")
        text = meta.pop(key)
        counts.append(int(text) if text.isdecimal() else 0)
        if counts[-1] < 1:
            raise DegenerateDataError(f"{path}: {key} = {text!r} is not an integer >= 1")
    gates, acq = counts
    f_g = _meta_float(meta, "f_g_hz", path) if "f_g_hz" in meta else gates / hist.sweep
    ratio = f_g / typed.get("f_l", f_g / gates)
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-6:
        raise DegenerateDataError(
            f"{path}: f_g must be an integer multiple of f_l (f_g/f_l = {ratio!r})"
        )
    if gates != round(ratio):
        raise DegenerateDataError(
            f"{path}: histogram has {gates} gates per period, f_g/f_l = {round(ratio)}"
        )
    return GateHistogram(
        bins=hist.bins, bin_width=hist.bin_width, period=hist.sweep, gates_per_period=gates,
        acquisition_gates=acq, tau_s=typed.get("tau_s", 0.0), meta=meta,
    )


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
        sweep_ns = float(meta["sweep_ns"])
        c0 = int(meta["c0"])
    except ValueError as exc:
        raise HistogramFormatError(f"{path}: malformed mandatory metadata: {exc}") from exc
    for key, value in (("bin_width_ns", width_ns), ("sweep_ns", sweep_ns)):
        if not np.isfinite(value):
            raise HistogramFormatError(f"{path}: {key} = {meta[key]} is not a finite number")
        if not value > 0.0:
            raise HistogramFormatError(f"{path}: {key} = {meta[key]} is not positive")
    starts = values[:, 0]
    off_grid = np.flatnonzero(np.abs(starts - np.arange(len(starts)) * width_ns) > 0.5)
    if off_grid.size:
        i = int(off_grid[0])
        raise HistogramFormatError(
            f"{path}: bin {i} starts at {starts[i]} ns, expected {i * width_ns:.0f} ns"
        )
    extra = {k: v for k, v in meta.items() if k not in _MANDATORY_KEYS}
    gate = extra.get("kind") == "gate"
    # the model inputs, in s and Hz; a fold may have no dead time and keeps its rates as text
    typed = {}
    for name, key, per_unit, zero_ok in (
        ("tau_s", "tau_s_ns", 1e9, gate), ("rate", "rate_hz", 1, True), ("f_l", "f_l_hz", 1, False),
    ):
        if key in extra:
            value = _meta_float(extra, key, path)
            if value < 0.0 or not (zero_ok or value):
                problem = "negative" if zero_ok else "not positive"
                raise DegenerateDataError(f"{path}: metadata {key} = {extra[key]} is {problem}")
            typed[name] = value / per_unit  # so that 200 ns reads back as 2e-07
            if not gate or name == "tau_s":
                del extra[key]
    # the sweep container's layout checks apply to gate files as well
    try:
        hist = SweepHistogram(
            bin_width=width_ns / 1e9, sweep=sweep_ns / 1e9, bins=values[:, 1].copy(), c0=c0,
            meta=extra, **({} if gate else typed),
        )
    except DegenerateDataError as exc:
        raise DegenerateDataError(f"{path}: {exc}") from None
    return _as_gate(hist, extra, typed, path) if gate else hist
