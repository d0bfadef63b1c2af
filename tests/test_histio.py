"""Tests for the histogram container, bin merging and file round trips.

The file reader and writer work on whole arrays; ``reference_read`` and
``reference_write`` below are the line-by-line definitions they are checked
against, on hypothesis-drawn files (derandomized, so every run sees the same
files), on one hand-written file per malformed kind, and on files one step
off the writer's own form, which the reader takes in whole-file array passes.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afterpulse import cli, histio
from afterpulse.histio import (
    DegenerateDataError,
    GateHistogram,
    HistogramFormatError,
    SweepHistogram,
    read_histogram,
    write_histogram,
)
from paper_models import merge_bins


NAN, INF = float("nan"), float("inf")


def make_hist(bins, bin_width=10e-9, c0=100, **meta):
    bins = np.asarray(bins, dtype=np.int64)
    return SweepHistogram(
        bin_width=bin_width,
        sweep=bin_width * len(bins),
        bins=bins,
        c0=c0,
        meta={k: str(v) for k, v in meta.items()},
    )


class TestContainer:
    def test_rejects_negative_counts(self):
        with pytest.raises(HistogramFormatError):
            make_hist([1, -2, 3])

    def test_rejects_inconsistent_sweep(self):
        with pytest.raises(HistogramFormatError):
            SweepHistogram(bin_width=1e-9, sweep=1e-6, bins=np.ones(5, int), c0=1)

    def test_bin_starts(self):
        h = make_hist([0, 0, 0, 0])
        assert np.allclose(h.bin_starts, [0, 10e-9, 20e-9, 30e-9])

    @pytest.mark.parametrize("bin_width,sweep", [
        (NAN, NAN), (NAN, 1e-9), (1e-9, NAN), (INF, INF), (INF, 1e-9), (0.0, 1e-9),
    ])
    def test_refuses_a_width_or_sweep_that_is_not_finite_and_positive(self, bin_width, sweep):
        with pytest.raises(HistogramFormatError) as info:
            SweepHistogram(bin_width=bin_width, sweep=sweep, bins=[1], c0=0)
        assert str(info.value) == (
            f"bin_width and sweep must be finite and positive, "
            f"got {bin_width!r} and {sweep!r}"
        )

    @pytest.mark.parametrize("fields,message", [
        # once accepted, and written to a file that read_histogram refused
        ({"f_l": NAN, "tau_s": -1.0, "rate": -5.0}, "tau_s must be finite and > 0, got -1.0"),
        ({"tau_s": 0.0}, "tau_s must be finite and > 0, got 0.0"),
        ({"tau_s": NAN}, "tau_s must be finite and > 0, got nan"),
        ({"rate": -5.0}, "rate must be finite and >= 0, got -5.0"),
        ({"rate": INF}, "rate must be finite and >= 0, got inf"),
        ({"f_l": 0.0}, "f_l must be finite and > 0, got 0.0"),
        ({"f_l": NAN}, "f_l must be finite and > 0, got nan"),
        ({"f_l": -1e4}, "f_l must be finite and > 0, got -10000.0"),
    ])
    def test_refuses_what_the_reader_refuses_in_a_file(self, fields, message):
        with pytest.raises(DegenerateDataError) as info:
            SweepHistogram(1e-9, 2e-9, [3, 5], 0, **fields)
        assert str(info.value) == message

    def test_accepts_a_zero_rate(self):
        h = SweepHistogram(1e-9, 2e-9, [3, 5], 0, tau_s=1e-9, rate=0.0, f_l=1e4)
        assert (h.tau_s, h.rate, h.f_l) == (1e-9, 0.0, 1e4)


def make_gate(bins=(3, 5), **fields):
    """A two-gate fold; ``fields`` override its constructor arguments."""
    args = dict(bins=bins, bin_width=1e-9, period=2e-9, gates_per_period=2,
                acquisition_gates=1000, tau_s=0.2e-6)
    return GateHistogram(**{**args, **fields})


class TestGateContainer:
    """The fold refuses what the reader refuses in a gate file."""

    @pytest.mark.parametrize("fields,message", [
        ({"bins": [-3, 5]}, "negative bin count"),
        ({"acquisition_gates": 0}, "acquisition_gates must be >= 1"),
        ({"acquisition_gates": -5}, "acquisition_gates must be >= 1"),
        ({"tau_s": float("nan")}, "tau_s must be finite and >= 0, got nan"),
        ({"tau_s": float("inf")}, "tau_s must be finite and >= 0, got inf"),
        ({"tau_s": -2e-7}, "tau_s must be finite and >= 0, got -2e-07"),
        ({"bins": [-3, 5], "acquisition_gates": 0, "tau_s": float("nan")}, None),
    ])
    def test_refuses(self, fields, message):
        with pytest.raises(DegenerateDataError) as info:
            make_gate(**fields)
        assert message is None or str(info.value) == message

    @pytest.mark.parametrize("bin_width,period", [
        (NAN, NAN), (NAN, 2e-9), (1e-9, NAN), (INF, 2e-9), (INF, INF), (-1e-9, 2e-9),
    ])
    def test_refuses_a_width_or_period_that_is_not_finite_and_positive(self, bin_width, period):
        with pytest.raises(DegenerateDataError) as info:
            make_gate(bin_width=bin_width, period=period)
        assert str(info.value) == (
            f"bin_width and period must be finite and positive, "
            f"got {bin_width!r} and {period!r}"
        )

    @pytest.mark.parametrize("bins", [[[3], [5]], []], ids=["2-d", "empty"])
    def test_refuses_bins_that_are_not_a_non_empty_1d_array(self, bins):
        with pytest.raises(DegenerateDataError) as info:
            make_gate(bins=bins)
        assert str(info.value) == "bins must be a non-empty 1-d array"

    def test_accepts_zero_dead_time_and_one_gate(self):
        h = make_gate(tau_s=0.0, acquisition_gates=1, bins=[0, 0])
        assert (h.tau_s, h.acquisition_gates, h.total_counts) == (0.0, 1, 0)


@pytest.mark.parametrize("make", [make_hist, make_gate], ids=["sweep", "gate"])
def test_writer_refuses_a_negative_count_set_after_construction(tmp_path, make):
    h = make([3, 5])
    h.bins[1] = -3
    path = tmp_path / "neg.csv"
    with pytest.raises(HistogramFormatError, match="^negative count -3 in the bins$"):
        write_histogram(h, path)
    assert not path.exists()


class TestMergeBins:
    def test_identity(self):
        h = make_hist(np.arange(10))
        m = merge_bins(h, 1)
        assert np.array_equal(m.bins, h.bins)
        assert m.bin_width == h.bin_width

    def test_merge_conserves_totals(self):
        rng = np.random.default_rng(3)
        h = make_hist(rng.integers(0, 50, size=2500))
        m = merge_bins(h, 10)
        assert len(m.bins) == 250
        assert m.bin_width == pytest.approx(100e-9)
        assert int(m.bins.sum()) == int(h.bins.sum())
        assert m.c0 == h.c0
        # block sums match exactly
        assert np.array_equal(m.bins, h.bins.reshape(250, 10).sum(axis=1))

    def test_divisibility_error(self):
        h = make_hist(np.arange(10))
        with pytest.raises(HistogramFormatError):
            merge_bins(h, 3)


class TestFileRoundTrip:
    def test_write_read_identity(self, tmp_path):
        rng = np.random.default_rng(11)
        h = make_hist(
            rng.integers(0, 1000, size=2500),
            c0=4321,
            seed=42,
            source="simulator",
        )
        path = tmp_path / "hist.csv"
        write_histogram(h, path)
        back = read_histogram(path)
        assert np.array_equal(back.bins, h.bins)
        assert back.c0 == h.c0
        assert back.bin_width == pytest.approx(h.bin_width)
        assert back.sweep == pytest.approx(h.sweep)
        assert back.meta["seed"] == "42"
        assert back.meta["source"] == "simulator"

    @pytest.mark.parametrize("fields", [
        {}, {"tau_s": 123.4567891e-9, "rate": 1234.5678, "f_l": 1e4}, {"tau_s": 2e-7},
        {"rate": 0.0, "f_l": 4e4},
    ], ids=["none", "all", "dead-time", "rates-at-one-period"])
    def test_model_inputs_read_back(self, tmp_path, fields):
        # the dead time, click rate and laser rate come back as written, or
        # None where not written, and the rest of the metadata with them
        h = replace(make_hist(np.arange(2500), seed=42, source="simulator"), **fields)
        path = tmp_path / "hist.csv"
        write_histogram(h, path)
        back = read_histogram(path)
        want_tau = None if h.tau_s is None else pytest.approx(h.tau_s, rel=1e-15, abs=0.0)
        assert (back.tau_s, back.rate, back.f_l) == (want_tau, h.rate, h.f_l)
        assert back.meta == h.meta == {"seed": "42", "source": "simulator"}

    @pytest.mark.parametrize("width", [2e-7, 3e-7, 7e-7])
    def test_whole_ns_widths_read_back_exactly(self, tmp_path, width):
        # 200 ns times 1e-9 is 2.0000000000000002e-07; 200 ns / 1e9 is 2e-07
        h = make_hist(np.arange(7), bin_width=width)
        path = tmp_path / "hist.csv"
        write_histogram(h, path)
        back = read_histogram(path)
        assert (back.bin_width, back.sweep) == (h.bin_width, h.sweep)

    def test_write_is_deterministic(self, tmp_path):
        h = make_hist([1, 2, 3], c0=7, b="2", a="1")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_histogram(h, p1)
        write_histogram(h, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_negative_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# bin_width_ns = 10\n# sweep_ns = 30\n# c0 = 5\n0,1\n10,-3\n20,0\n"
        )
        with pytest.raises(HistogramFormatError, match=":5"):
            read_histogram(path)

    def test_non_integer_field_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "# bin_width_ns = 10\n# sweep_ns = 20\n# c0 = 5\n0,1\n10,2.5\n"
        )
        with pytest.raises(HistogramFormatError, match=":5"):
            read_histogram(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# bin_width_ns = 10\n# sweep_ns = 20\n# c0 = 5\n")
        with pytest.raises(HistogramFormatError, match="no bins"):
            read_histogram(path)

    def test_missing_mandatory_key(self, tmp_path):
        path = tmp_path / "nok.csv"
        path.write_text("# bin_width_ns = 10\n0,1\n")
        with pytest.raises(HistogramFormatError, match="mandatory"):
            read_histogram(path)

    @pytest.mark.parametrize(
        "record", ["10,99999999999999999999", "99999999999999999999,2", "10,9223372036854775808"]
    )
    def test_int64_overflow_reports_line(self, tmp_path, capsys, record):
        path = tmp_path / "big.csv"
        path.write_text(f"# bin_width_ns = 10\n# sweep_ns = 30\n# c0 = 5\n0,1\n{record}\n20,0\n")
        with pytest.raises(HistogramFormatError, match=":5: field out of int64 range"):
            read_histogram(path)
        code = cli.main(["estimate", "--hist", str(path), "--method", "custom"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"afterpulse: {path}:5: ")

    @pytest.mark.parametrize("key", ["bin_width_ns", "sweep_ns"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_mandatory_metadata_is_named(self, tmp_path, capsys, key, value):
        meta = {"bin_width_ns": "10", "sweep_ns": "10", "c0": "5", key: value}
        path = tmp_path / "nonfinite.csv"
        path.write_text("".join(f"# {k} = {v}\n" for k, v in meta.items()) + "0,1\n")
        message = f"{path}: {key} = {value} is not a finite number"
        with pytest.raises(HistogramFormatError) as info:
            read_histogram(path)
        assert str(info.value) == message
        assert outcome(reference_read, path) == ("error", message)
        code = cli.main(["estimate", "--hist", str(path), "--method", "custom"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"afterpulse: {message}\n"

    @pytest.mark.parametrize(
        "key,value",
        [("bin_width_ns", "0"), ("bin_width_ns", "-10"), ("sweep_ns", "-5"), ("sweep_ns", "-0")],
    )
    def test_non_positive_mandatory_metadata_is_named(self, tmp_path, capsys, key, value):
        # one bin at 0 is on the grid of any width
        meta = {"bin_width_ns": "10", "sweep_ns": "10", "c0": "5", key: value}
        path = tmp_path / "nonpositive.csv"
        path.write_text("".join(f"# {k} = {v}\n" for k, v in meta.items()) + "0,1\n")
        message = f"{path}: {key} = {value} is not positive"
        with pytest.raises(HistogramFormatError) as info:
            read_histogram(path)
        assert str(info.value) == message
        assert outcome(reference_read, path) == ("error", message)
        code = cli.main(["estimate", "--hist", str(path), "--method", "custom"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"afterpulse: {message}\n"


class TestGateFiles:
    def make_gate(self, **meta):
        return GateHistogram(
            bins=np.arange(20),
            bin_width=0.32e-9,
            period=6.4e-9,
            gates_per_period=2,
            acquisition_gates=1_000_000,
            tau_s=0.2e-6,
            meta=meta,
        )

    def test_write_read_identity(self, tmp_path):
        h = self.make_gate(f_g_hz="312500000.0", seed="3")
        path = tmp_path / "gate.csv"
        write_histogram(h, path)
        text = path.read_text()
        assert "# kind = gate\n" in text and "# c0 = 0\n" in text
        back = read_histogram(path)
        assert isinstance(back, GateHistogram)
        assert np.array_equal(back.bins, h.bins)
        # the default absolute tolerance, 1e-12, would hide a six-digit writer
        assert back.bin_width == pytest.approx(h.bin_width, rel=1e-15, abs=0.0)
        assert back.period == pytest.approx(h.period, rel=1e-15, abs=0.0)
        assert (back.gates_per_period, back.acquisition_gates) == (2, 1_000_000)
        assert back.tau_s == pytest.approx(h.tau_s, rel=1e-15, abs=0.0)
        assert back.meta == h.meta

    def test_dead_time_keeps_every_digit(self, tmp_path):
        # six significant digits would write 123.457
        h = replace(self.make_gate(), tau_s=123.4567891e-9)
        path = tmp_path / "gate.csv"
        write_histogram(h, path)
        assert read_histogram(path).tau_s == pytest.approx(h.tau_s, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("tau_s", [2e-7, 3e-7, 7e-7])
    def test_whole_ns_dead_time_reads_back_exactly(self, tmp_path, tau_s):
        h = replace(self.make_gate(), tau_s=tau_s)
        path = tmp_path / "gate.csv"
        write_histogram(h, path)
        assert read_histogram(path).tau_s == tau_s

    def test_sorted_metadata_with_structure_keys(self, tmp_path):
        path = tmp_path / "gate.csv"
        write_histogram(self.make_gate(source="simulator"), path)
        keys = [ln[2:].split(" = ")[0] for ln in path.read_text().splitlines()[3:8]]
        assert keys == sorted(keys)
        assert set(keys) == {
            "acquisition_gates", "gates_per_period", "kind", "source", "tau_s_ns",
        }

    def test_incomplete_metadata_is_degenerate(self, tmp_path):
        path = tmp_path / "gate.csv"
        write_histogram(self.make_gate(), path)
        path.write_text(path.read_text().replace("# gates_per_period = 2\n", ""))
        with pytest.raises(DegenerateDataError, match="incomplete gate metadata"):
            read_histogram(path)

    def fifty_gate_file(self, tmp_path, f_l_hz):
        """A 50-gate fold of the 312.5 MHz gate grid with the given laser rate."""
        path = tmp_path / "gate.csv"
        meta = {"f_g_hz": repr(312.5e6), "f_l_hz": repr(f_l_hz)}
        write_histogram(GateHistogram(
            bins=np.arange(500), bin_width=0.32e-9, period=160e-9, gates_per_period=50,
            acquisition_gates=10**6, tau_s=0.2e-6, meta=meta,
        ), path)
        return path

    def test_non_integer_ratio_rejected(self, tmp_path):
        path = self.fifty_gate_file(tmp_path, 312.5e6 / 49.5)
        with pytest.raises(DegenerateDataError, match="integer multiple") as info:
            read_histogram(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_laser_rate_must_match_the_folded_period(self, tmp_path):
        # a 50-gate fold with f_l = f_g/2 in its metadata is refused rather
        # than scaled by the wrong period
        path = self.fifty_gate_file(tmp_path, 312.5e6 / 2)
        with pytest.raises(DegenerateDataError, match="gates per period") as info:
            read_histogram(path)
        assert str(info.value).startswith(f"{path}: ")
        assert read_histogram(self.fifty_gate_file(tmp_path, 312.5e6 / 50)).gates_per_period == 50


# ---------------------------------------------------------------------------
# Differential checks against line-by-line reference implementations


def reference_write(h, path):
    """One formatted record per bin, as the format defines them."""

    def ns(value_s):
        value = value_s * 1e9
        return str(int(round(value))) if abs(value - round(value)) < 1e-6 else repr(value)

    if isinstance(h, GateHistogram):
        span, c0 = h.period, 0
        meta = {
            "kind": "gate",
            "gates_per_period": str(h.gates_per_period),
            "acquisition_gates": str(h.acquisition_gates),
            "tau_s_ns": ns(h.tau_s),
            **h.meta,
        }
    else:
        span, c0, meta = h.sweep, h.c0, h.meta

    lines = [f"# bin_width_ns = {ns(h.bin_width)}", f"# sweep_ns = {ns(span)}", f"# c0 = {c0}"]
    for key in sorted(meta):
        if key not in ("bin_width_ns", "sweep_ns", "c0"):
            lines.append(f"# {key} = {meta[key]}")
    width_ns = h.bin_width * 1e9
    for i, count in enumerate(h.bins):
        lines.append(f"{round(i * width_ns)},{int(count)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_read(path):
    """Parse a sweep-histogram file one line at a time, raising at the first bad line."""
    meta, starts, counts = {}, [], []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if not body:
                continue
            if "=" not in body:
                raise HistogramFormatError(f"{path}:{lineno}: metadata line without '=': {raw!r}")
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise HistogramFormatError(
                f"{path}:{lineno}: expected 'bin_start_ns,count', got {raw!r}"
            )
        try:
            start, count = int(fields[0]), int(fields[1])
        except ValueError:
            raise HistogramFormatError(f"{path}:{lineno}: non-integer field in {raw!r}")
        if count < 0:
            raise HistogramFormatError(f"{path}:{lineno}: negative count {count}")
        if not (-(2**63) <= start < 2**63 and count < 2**63):
            raise HistogramFormatError(f"{path}:{lineno}: field out of int64 range in {raw!r}")
        starts.append(start)
        counts.append(count)
    for key in ("bin_width_ns", "sweep_ns", "c0"):
        if key not in meta:
            raise HistogramFormatError(f"{path}: missing mandatory key {key!r}")
    if not counts:
        raise HistogramFormatError(f"{path}: histogram has no bins")
    raw = {key: meta.pop(key) for key in ("bin_width_ns", "sweep_ns", "c0")}
    try:
        width_ns = float(raw["bin_width_ns"])
        sweep_ns = float(raw["sweep_ns"])
        c0 = int(raw["c0"])
    except ValueError as exc:
        raise HistogramFormatError(f"{path}: malformed mandatory metadata: {exc}")
    for key, value in (("bin_width_ns", width_ns), ("sweep_ns", sweep_ns)):
        if not np.isfinite(value):
            raise HistogramFormatError(f"{path}: {key} = {raw[key]} is not a finite number")
        if value <= 0.0:
            raise HistogramFormatError(f"{path}: {key} = {raw[key]} is not positive")
    for i, start in enumerate(starts):
        if abs(start - i * width_ns) > 0.5:
            raise HistogramFormatError(
                f"{path}: bin {i} starts at {start} ns, expected {i * width_ns:.0f} ns"
            )
    return SweepHistogram(
        bin_width=width_ns / 1e9, sweep=sweep_ns / 1e9, bins=counts, c0=c0, meta=meta
    )


def outcome(read, path):
    """What reading ``path`` gives: the histogram's content, or the error."""
    try:
        h = read(path)
    except HistogramFormatError as exc:
        return "error", str(exc)
    return "ok", h.bins.tolist(), h.bin_width, h.sweep, h.c0, h.meta


WIDTHS_NS = ["1", "10", "0.32", repr(1 / 30), "2.5"]
# record variants, from the bin's grid start s and its count c
RECORDS = {
    "plain": lambda s, c: f"{s},{c}",
    "signed": lambda s, c: f"{s:+d},+{c}",
    "padded": lambda s, c: f"  {s} ,\t{c:06d}  ",
    "underscored": lambda s, c: f"{s:_d},{c * 1000:_d}",
    "arabic-indic digits": lambda s, c: f"{s},\u0661\u0662",
    "int64 max": lambda s, c: f"{s},{2**63 - 1}",
    "one field": lambda s, c: f"{s}",
    "three fields": lambda s, c: f"{s},{c},0",
    "empty field": lambda s, c: f"{s},",
    "decimal point": lambda s, c: f"{s},{c}.0",
    "word": lambda s, c: f"{s},many",
    "hex": lambda s, c: f"0x{s:x},{c}",
    "trailing note": lambda s, c: f"{s},{c} # note",
    "negative": lambda s, c: f"{s},-{c + 1}",
    "negative beyond int64": lambda s, c: f"{s},-{2**64}",
    "off grid": lambda s, c: f"{s + 3},{c}",
    "count beyond int64": lambda s, c: f"{s},{2**63}",
    "start beyond int64": lambda s, c: f"{2**70},{c}",
    "start below int64": lambda s, c: f"{-(2**63) - 1},{c}",
}
VALID_RECORDS = ["plain", "signed", "padded", "underscored", "arabic-indic digits", "int64 max"]
NOTES = [
    "", "   ", "\t", "#", "  #  ", "# seed = 3", "#source=simulator", "# a = b = c",
    "# no equals sign", "  # x", "# = empty key",
]


HEADER_NOTES = [note for note in NOTES if note.startswith("#")]


@st.composite
def histogram_files(draw):
    """Text of a sweep-histogram file, well formed or with a few faults.

    Two draws in five are in the writer's own form, the reader's whole-file
    path: the header first, ``plain`` records, ``\\n`` line ends.
    """
    canonical = draw(st.integers(0, 4)) < 2
    width = draw(st.sampled_from(WIDTHS_NS))
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 600, 1100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 1000, n)
    if canonical:
        kinds = ["plain"]
    else:
        kinds = draw(st.lists(st.sampled_from(sorted(RECORDS)), min_size=1, max_size=3))
        kinds = [k if k in VALID_RECORDS or draw(st.integers(0, 2)) == 0 else "plain" for k in kinds]
    variant = rng.choice(kinds, n) if n else []
    lines = [RECORDS[k](round(i * float(width)), int(c)) for i, (k, c) in enumerate(zip(variant, counts))]
    sweep = n * float(width) * draw(st.sampled_from([1, 1, 1, 2]))
    header = [f"# bin_width_ns = {width}", f"# sweep_ns = {sweep!r}", "# c0 = 7"]
    if draw(st.integers(0, 9)) == 0:
        del header[draw(st.integers(0, 2))]
    if draw(st.integers(0, 9)) == 0:
        header.append("# c0 = seven")
    if canonical:
        notes = draw(st.lists(st.sampled_from(HEADER_NOTES), max_size=3))
        return "\n".join(header + notes + lines) + "\n"
    # the metadata may sit anywhere, blank lines and notes between records
    for note in header + draw(st.lists(st.sampled_from(NOTES), max_size=6)):
        lines.insert(draw(st.integers(0, len(lines))), note)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=histogram_files())
def test_reader_matches_line_by_line_reference(tmp_path, text):
    path = tmp_path / "drawn.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_histogram, path) == outcome(reference_read, path)


MALFORMED = {
    **{kind: f"0,1\n{RECORDS[kind](10, 4)}\n20,2\n" for kind in RECORDS if kind not in VALID_RECORDS},
    "metadata without '='": "0,1\n# sweep_ns 30\n20,2\n",
    "no bins": "\n# note = 1\n",
}


@pytest.mark.parametrize("body", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_each_malformed_kind_matches_reference(tmp_path, body, newline):
    path = tmp_path / "bad.csv"
    text = "# bin_width_ns = 10\n\n# sweep_ns = 30\n# c0 = 5\n" + body
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    got = outcome(read_histogram, path)
    assert got[0] == "error"
    assert got == outcome(reference_read, path)


WRITER_FORM = "# bin_width_ns = 10\n# sweep_ns = 30\n# c0 = 5\n# seed = 3\n0,1\n10,2\n20,3\n"
# (file text, whether it is in the writer's own form); each pins one edge
NEAR_WRITER_FORM = {
    "writer form": (WRITER_FORM, True),
    "18-digit count": (WRITER_FORM.replace("10,2\n", f"10,{10**18 - 1}\n"), True),
    "leading zeros": (WRITER_FORM.replace("10,2\n", "010,002\n"), True),
    "19-digit count": (WRITER_FORM.replace("10,2\n", f"10,{2**63 - 1}\n"), False),
    "19-digit zero-padded count": (WRITER_FORM.replace("10,2\n", f"10,{2:019d}\n"), False),
    "note after the records": (WRITER_FORM + "# source = scope\n", False),
    "note between the records": (WRITER_FORM.replace("10,2\n", "10,2\n# x = 1\n"), False),
    "blank last line": (WRITER_FORM + "\n", False),
    "blank line before the records": (WRITER_FORM.replace("# seed = 3\n", "# seed = 3\n\n"), False),
    "no final newline": (WRITER_FORM[:-1], False),
    "padded record": (WRITER_FORM.replace("10,2\n", "10, 2\n"), False),
    "signed count": (WRITER_FORM.replace("10,2\n", "10,+2\n"), False),
    "one field": (WRITER_FORM.replace("10,2\n", "10\n"), False),
    "three fields": (WRITER_FORM.replace("10,2\n", "10,2,0\n"), False),
    "empty field": (WRITER_FORM.replace("10,2\n", "10,\n"), False),
    "header line without '='": (WRITER_FORM.replace("# seed = 3", "# seed 3"), False),
    "NEL in a header line": (WRITER_FORM.replace("# seed = 3", "# seed = 3\x85# b = 4"), False),
    "LS in a header line": (WRITER_FORM.replace("# seed = 3", "# seed = 3\u2028# b = 4"), False),
    "NEL making a record": (WRITER_FORM.replace("# seed = 3", "# seed = 3\x8510,2"), False),
    "VT in a header line": (WRITER_FORM.replace("# seed = 3", "# seed = 3\x0b# b = 4"), False),
    "FF in a header line": (WRITER_FORM.replace("# seed = 3", "# seed = 3\x0c# b = 4"), False),
    "FS in a header line": (WRITER_FORM.replace("# seed = 3", "# seed = 3\x1c0,1"), False),
    "CRLF": (WRITER_FORM.replace("\n", "\r\n"), False),
    "CR in a header line": (WRITER_FORM.replace("# seed = 3", "# seed = 3\r# b = 4"), False),
    "18-digit first start": (WRITER_FORM.replace("3\n0,1\n", f"3\n{10**18 - 1},1\n"), True),
    "19-digit first start": (WRITER_FORM.replace("3\n0,1\n", f"3\n{10**18},1\n"), False),
    "empty first start": (WRITER_FORM.replace("3\n0,1\n", "3\n,1\n"), False),
}


@pytest.mark.parametrize("text,fast", NEAR_WRITER_FORM.values(), ids=NEAR_WRITER_FORM.keys())
def test_near_writer_form_matches_reference(tmp_path, text, fast):
    path = tmp_path / "near.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (histio._writer_form(path.read_bytes()) is not None) == fast
    assert outcome(read_histogram, path) == outcome(reference_read, path)


def test_writer_output_takes_the_whole_file_path(tmp_path, monkeypatch):
    def no_line_by_line(data, path):
        raise AssertionError("the line-by-line parser ran")

    monkeypatch.setattr(histio, "_line_by_line", no_line_by_line)
    rng = np.random.default_rng(5)
    bins = rng.integers(0, 10**6, 25_000)
    bins[-1] = 10**18 - 1
    sweep = make_hist(bins, bin_width=1e-9, c0=12, seed=3)
    gate = GateHistogram(
        bins=bins[:20_000], bin_width=0.32e-9, period=6.4e-6, gates_per_period=2000,
        acquisition_gates=10**6, tau_s=0.2e-6, meta={"f_g_hz": "312500000.0"},
    )
    for h in (sweep, gate):
        path = tmp_path / "out.csv"
        write_histogram(h, path)
        back = read_histogram(path)
        assert type(back) is type(h)
        assert np.array_equal(back.bins, h.bins)
        assert back.meta == h.meta


def test_non_utf8_file_is_named(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(WRITER_FORM.replace("# seed = 3", "# source = caf\xe9").encode("latin-1"))
    with pytest.raises(HistogramFormatError) as info:
        read_histogram(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid continuation byte)"


@pytest.mark.parametrize("missing", ["bin_width_ns", "sweep_ns", "c0"])
def test_missing_key_matches_reference(tmp_path, missing):
    path = tmp_path / "nokey.csv"
    header = "".join(f"# {k} = 10\n" for k in ("bin_width_ns", "sweep_ns", "c0") if k != missing)
    path.write_text(header + "0,1\n")
    got = outcome(read_histogram, path)
    assert got == ("error", f"{path}: missing mandatory key {missing!r}")
    assert got == outcome(reference_read, path)


def writer_matches_reference(tmp_path, bins, width_ns):
    """Write ``bins`` as a sweep and as a two-gate fold with the writer and the
    reference formatter, and check the two files of each are byte-identical."""
    n_bins = len(bins)
    width = width_ns * 1e-9
    sweep = SweepHistogram(bin_width=width, sweep=width * n_bins, bins=bins, c0=9, meta={"seed": "3"})
    gate = GateHistogram(
        bins=np.repeat(bins, 2)[: 2 * n_bins],
        bin_width=width,
        period=width * 2 * n_bins,
        gates_per_period=2,
        acquisition_gates=10**6,
        tau_s=0.2e-6,
        meta={"f_g_hz": "312500000.0"},
    )
    for h in (sweep, gate):
        write_histogram(h, tmp_path / "new.csv")
        reference_write(h, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("width_ns", [1.0, 10.0, 0.32, 1 / 30])
@pytest.mark.parametrize("n_bins", [1, 511, 512, 513, 2500])
def test_writer_matches_reference_formatter(tmp_path, width_ns, n_bins):
    rng = np.random.default_rng(n_bins)
    bins = rng.integers(0, 10**6, n_bins)
    bins[0] = 2**63 - 1
    writer_matches_reference(tmp_path, bins, width_ns)


# each count is the widest in its file, so it sets its column's digit width,
# and the uint32 narrowing is taken or not on either side of 2**32
EDGE_COUNTS = [9, 10, 2**32 - 1, 2**32, 10**18 - 1, 10**18, 2**63 - 1]
EDGE_BINS = {
    "all zero": np.zeros(300, dtype=np.int64),
    "single zero bin": [0],
    "single bin": [7],
    **{f"count {c} at bin 2": [3, 0, c, 1, 0] for c in EDGE_COUNTS},
    "every edge count": np.repeat([0] + EDGE_COUNTS, 3),
}


@pytest.mark.parametrize("width_ns", [1.0, 0.32])
@pytest.mark.parametrize("bins", EDGE_BINS.values(), ids=EDGE_BINS.keys())
def test_writer_matches_reference_formatter_at_digit_edges(tmp_path, bins, width_ns):
    writer_matches_reference(tmp_path, np.asarray(bins, dtype=np.int64), width_ns)


def test_writer_matches_reference_where_starts_gain_a_digit(tmp_path):
    # 0.5 ns bins put ties at 9.5, 99.5 and 999.5 ns, where the start gains a digit
    bins = np.arange(2002) % 11
    writer_matches_reference(tmp_path, bins, 0.5)
    lines = (tmp_path / "new.csv").read_text().splitlines()
    assert {len(ln.split(",")[0]) for ln in lines if ln[0] != "#"} == {1, 2, 3, 4}


@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    counts=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=600),
    width_ns=st.sampled_from([1.0, 10.0, 0.32, 1 / 30]),
)
def test_writer_property(tmp_path, counts, width_ns):
    bins = np.array(counts, dtype=np.int64)
    writer_matches_reference(tmp_path, bins, width_ns)
    h = make_hist(bins, bin_width=width_ns * 1e-9, c0=11)
    write_histogram(h, tmp_path / "back.csv")
    back = read_histogram(tmp_path / "back.csv")
    assert np.array_equal(back.bins, bins) and back.c0 == 11
