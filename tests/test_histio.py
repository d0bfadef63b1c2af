"""Tests for the histogram container, bin merging and file round trips."""

import numpy as np
import pytest

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
        assert m.total_counts() == h.total_counts()
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
