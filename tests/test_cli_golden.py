"""Byte-identity guard for the command-line interface.

Small seeded runs of every command, with each command's stdout, its
``--out`` file and its exit code pinned by sha256.  The digests were
recorded on the pure-numpy kernel path; the numba path consumes the same
random stream, so they hold there too.  A refactor that keeps behaviour
keeps every digest; a deliberate change of the random stream (such as a
new gate-loop algorithm) re-records them on purpose.

The four entries that print ``p2`` (``estimate-custom``, ``compare-lt``,
``compare-lt-ar`` and ``sweep-deadtime``) were re-recorded when the
second-order inversion moved from a bisection stopped at a 1e-12 bracket to
the closed-form cubic root: each ``p2`` moved by at most 4.4e-13 (towards
the exact root, which the closed form meets to within 5e-16), and the
dead-time fit rows computed from those ``p2`` moved with them.  No other
printed field changed.

``sweep-deadtime`` was re-recorded again when its calibration runs moved
onto the measurement's own seed and gate count, so that the accepted run
is the printed row.  The target rate is now the first row's own rate, not
that of a separate run, and the printed rates moved from 1933-2083 Hz
(7.7 % apart) to 2142-2175 Hz, all within 2 % of the first row; every
``mu``, estimate and fit row moved with them.  No other entry changed.

Commands run in-process through ``cli.main`` inside a temporary working
directory and take relative paths, because ``simulate`` echoes its
``--out`` path and error messages name their input files.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from afterpulse.cli import main

CONFIG = """\
[detector]
afterpulse_probability = {q}
[source]
laser_frequency_hz = {f_l}
mean_photons = 1.0
[deadtime]
scheme = {scheme}
[run]
n_gates = {n_gates}
seed = 5
[histogram]
sweep_s = {sweep}
[estimation]
dcr_window_start_s = {window_start}
dcr_window_end_s = {window_end}
"""


def config(path, *, q=0.1, f_l=1e4, scheme="lt-ar", n_gates=20_000_000,
           sweep=25e-6, window=(20e-6, 25e-6)):
    Path(path).write_text(
        CONFIG.format(
            q=q, f_l=f_l, scheme=scheme, n_gates=n_gates, sweep=sweep,
            window_start=window[0], window_end=window[1],
        )
    )
    return path


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run(*argv):
    """(exit code, stdout, stderr) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def step(record, name, argv, out_file=None):
    """Run one command and record its exit code, stdout and --out digests."""
    code, out, err = run(*argv)
    record[name] = (code, sha(out), sha(Path(out_file).read_bytes()) if out_file else None)
    return code, out, err


def case_sweep_histogram():
    record = {}
    config("sweep.ini")
    step(record, "simulate-sweep", ["simulate", "--config", "sweep.ini", "--out", "h.csv"], "h.csv")
    step(record, "estimate-custom", ["estimate", "--hist", "h.csv", "--method", "custom"])
    return record


def case_gate_histograms():
    record = {}
    config("half.ini", f_l=156.25e6, n_gates=2_000_000)
    config("fiftieth.ini", f_l=6.25e6, n_gates=5_000_000)
    config("sweep.ini", n_gates=2_000_000)
    for name in ("half", "fiftieth"):
        step(record, f"simulate-gate-{name}-lit",
             ["simulate", "--config", f"{name}.ini", "--out", f"{name}-lit.csv", "--kind", "gate"],
             f"{name}-lit.csv")
        step(record, f"simulate-gate-{name}-dark",
             ["simulate", "--config", f"{name}.ini", "--out", f"{name}-dark.csv", "--kind", "gate",
              "--seed", 77],
             f"{name}-dark.csv")
    step(record, "estimate-bethune",
         ["estimate", "--hist", "half-lit.csv", "--method", "bethune", "--dark", "half-dark.csv"])
    for method in ("yuan", "coincidence"):
        step(record, f"estimate-{method}",
             ["estimate", "--hist", "fiftieth-lit.csv", "--method", method,
              "--dark", "fiftieth-dark.csv"])
    run("simulate", "--config", "sweep.ini", "--out", "s.csv")
    _, _, err = step(record, "estimate-sweep-as-dark",
                     ["estimate", "--hist", "half-lit.csv", "--method", "bethune", "--dark", "s.csv"])
    assert "s.csv: not a gate histogram" in err
    Path("cut.csv").write_text(
        "".join(ln for ln in Path("half-dark.csv").read_text().splitlines(True)
                if not ln.startswith("# acquisition_gates"))
    )
    _, _, err = step(record, "estimate-incomplete-gate-metadata",
                     ["estimate", "--hist", "half-lit.csv", "--method", "bethune", "--dark", "cut.csv"])
    assert "cut.csv: incomplete gate metadata" in err
    return record


def case_compare(scheme):
    record = {}
    # the sweep stays shorter than the 20 us laser period, so that the next
    # pulse's click never lands in the baseline window
    config("cmp.ini", q=0.2, f_l=5e4, scheme=scheme, n_gates=2_000_000,
           sweep=18e-6, window=(13e-6, 18e-6))
    step(record, f"compare-{scheme}",
         ["compare", "--config", "cmp.ini", "--mu", "1,3", "--out", "cmp.csv"], "cmp.csv")
    return record


def case_sweep_deadtime():
    record = {}
    config("swp.ini", q=0.15, n_gates=200_000_000)
    step(record, "sweep-deadtime",
         ["sweep-deadtime", "--config", "swp.ini", "--tau", "0.5e-6,1e-6,2e-6,5e-6",
          "--scheme", "both", "--out", "swp.csv"], "swp.csv")
    return record


def case_fit():
    record = {}
    Path("fit.csv").write_text(
        "tau_us,p_ap\n0.5,0.17\n1,0.145\n2,0.11\n4,0.067\n8,0.028\n12,0.016\n16,0.012\n"
    )
    step(record, "fit", ["fit", "--data", "fit.csv", "--law", "both"])
    return record


CASES = {
    "sweep-histogram": case_sweep_histogram,
    "gate-histograms": case_gate_histograms,
    "compare-lt": lambda: case_compare("lt"),
    "compare-lt-ar": lambda: case_compare("lt-ar"),
    "sweep-deadtime": case_sweep_deadtime,
    "fit": case_fit,
}

# name -> (exit code, sha256 of stdout, sha256 of the --out file or None)
GOLDEN = {
    "compare-lt": (0, "3b91316dcaa7fb175e762d211286dac9b4c702afaa0c91709d2a9aede077488b", "3b91316dcaa7fb175e762d211286dac9b4c702afaa0c91709d2a9aede077488b"),
    "compare-lt-ar": (0, "1a68f89bdbb842f67c9ad78c21fbddac87df36a60434671c99e449457e393ae4", "1a68f89bdbb842f67c9ad78c21fbddac87df36a60434671c99e449457e393ae4"),
    "estimate-bethune": (0, "811abc6a90cf1bcc0734e9e39c054d535e879b7b6b15f689c77f122cde9d46c8", None),
    "estimate-coincidence": (0, "c77e6c9aac28335fb7818b9f71c15afb868af82bde065b63a31474bee5100b0d", None),
    "estimate-custom": (0, "da03d24ed1d08bb28fd0d573955d8b20c0a288c752b134bbf86c92132155d057", None),
    "estimate-incomplete-gate-metadata": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "estimate-sweep-as-dark": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "estimate-yuan": (0, "a5505b9b4719e0e2117a39500cd567ee0b6acb5f74a369bee2a18161ebb1eb7a", None),
    "fit": (0, "a9b18b84bb702adf054f938354b1a05b60090c8bef57f5ef9750f7c0175df1c9", None),
    "simulate-gate-fiftieth-dark": (0, "f99cd07ed40bd06ba0587462823b558746145f742c0e9a16199d1e8bd2f2ce37", "4f4d94167e58966f5b5afb79f9d2cbadef9a68c74cc51ecf449516f430134f2c"),
    "simulate-gate-fiftieth-lit": (0, "f5ba6d16587537098cf0b8897f539b4818d537acb928f18408d77bd550f1d2c6", "cf80aff6bdfe90551bce0ea784c3e1956d34b2edb5223e7a9636a06154633384"),
    "simulate-gate-half-dark": (0, "4965a21f97e04be4a4a03d88f035e7e8d2f98dd089a710f529482c593b2294d2", "8e55a00fff83e7e3866754c9a7b5a7ba7c6286ba60705ad19b44e51b26405578"),
    "simulate-gate-half-lit": (0, "49070ec0135441e5b5dd0f5f85692edee11f31749ef0d77d75cbde23793e9650", "67355be16e31004a6c2962d1e80dbe1e080e9cc6de7ccda2671d1e8dad96b55e"),
    "simulate-sweep": (0, "1d5d051c50e68cd7eea7c102466f3dbf1ae155cebf9012a02d012f80c39c6094", "b1086c6d4b55fa62e22a048e80bb95caac7b17aa83828495d7e6664a47b17c7e"),
    "sweep-deadtime": (0, "72f29a48dfaa1f49906e986afcda9676cca4a8bb100e45e0a66bbc53377128be", "e6674ad4be88accd2843b1f6d4f1bc77b4db589d43559904d5b97e216592554e"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = CASES[case]()
    assert record == {name: GOLDEN[name] for name in record}
