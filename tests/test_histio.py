"""Tests for the histogram container, bin merging and file round trips.

The file reader and writer work on whole arrays; ``reference_read`` and
``reference_write`` below are the line-by-line definitions they are checked
against, on hypothesis-drawn files (derandomized, so every run sees the same
files), on one hand-written file per malformed kind, and on files one step
off the writer's own form, which the reader takes in whole-file array passes.
"""

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
    merge_bins,
    read_histogram,
    write_histogram,
)


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
        assert back.bin_width == pytest.approx(h.bin_width)
        assert back.period == pytest.approx(h.period)
        assert (back.gates_per_period, back.acquisition_gates) == (2, 1_000_000)
        assert back.tau_s == pytest.approx(h.tau_s)
        assert back.meta == h.meta

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


# ---------------------------------------------------------------------------
# Differential checks against line-by-line reference implementations


def reference_write(h, path):
    """One formatted record per bin, as the format defines them."""
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

    def ns(value_s):
        value = value_s * 1e9
        return str(int(round(value))) if abs(value - round(value)) < 1e-6 else repr(value)

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
    for i, start in enumerate(starts):
        if abs(start - i * width_ns) > 0.5:
            raise HistogramFormatError(
                f"{path}: bin {i} starts at {start} ns, expected {i * width_ns:.0f} ns"
            )
    return SweepHistogram(
        bin_width=width_ns * 1e-9, sweep=sweep_ns * 1e-9, bins=counts, c0=c0, meta=meta
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
}


@pytest.mark.parametrize("text,fast", NEAR_WRITER_FORM.values(), ids=NEAR_WRITER_FORM.keys())
def test_near_writer_form_matches_reference(tmp_path, text, fast):
    path = tmp_path / "near.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (histio._writer_form(path.read_bytes()) is not None) == fast
    assert outcome(read_histogram, path) == outcome(reference_read, path)


def test_writer_output_takes_the_whole_file_path(tmp_path, monkeypatch):
    def no_line_by_line(rows):
        raise AssertionError("the line-by-line record parser ran")

    monkeypatch.setattr(histio, "_records", no_line_by_line)
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


@pytest.mark.parametrize("width_ns", [1.0, 10.0, 0.32, 1 / 30])
@pytest.mark.parametrize("n_bins", [1, 511, 512, 513, 2500])
def test_writer_matches_reference_formatter(tmp_path, width_ns, n_bins):
    rng = np.random.default_rng(n_bins)
    bins = rng.integers(0, 10**6, n_bins)
    bins[0] = 2**63 - 1
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
