"""Byte-identity guard for the command-line interface.

Small seeded runs of every command, with each command's stdout, its
``--out`` file and its exit code pinned by sha256, on the one plain-Python
kernel.  A refactor that keeps behaviour keeps every digest; a deliberate
change of the random stream (such as a new gate-loop algorithm) re-records
them on purpose.

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

All entries that simulate were re-recorded once more, for two changes of
the random stream together.  The gate loop skips dead windows (the
active-reset hold-off is jumped over, a latch window visits only the
photon fires that fill a trap), keeps the avalanches' trap marks as a
geometric count and queues releases in a heap; it draws different numbers
for the same distributions, and ``tests/test_kernel_oracle.py`` checks
those against a brute-force simulator.  And every run a command makes now
takes its seed from ``simulator.stream`` instead of an offset of the base
seed (``+101*k``, ``+7919``, ``+1000+j``).  Every printed estimate moved
within its Monte Carlo noise; ``fit`` and the two error entries did not
change.

``estimate-custom`` was re-recorded when the reader began to divide ns
metadata by 1e9 instead of multiplying it by 1e-9, so that ``tau_s_ns =
200`` reads back as 2e-07, not 2.0000000000000002e-07.  Only the last digit
of ``P_ap`` moved (2.6252587675882362e-05 to 2.625258767588236e-05).  The
gate-file entries read the same dead time but print the same bytes, so they
were not re-recorded.

``sweep-deadtime`` was re-recorded when each row's first run moved to the
pulse energy that the previous row's sweep histogram predicts, read from
the new dead time on, and each scheme's first row to the first row's
energy.  Every ``mu`` after the first moved, and with it each row's run,
rate and estimates; the rates now span 2146.9-2167.2 Hz (they were
2142.2-2195.3 Hz), and the fit rows moved with the ``p2``.  No other entry
changed.

``sweep-deadtime`` was re-recorded when the rate calibration loop was
removed: each row now runs once, at the pulse energy its predecessor
predicts (each scheme's first row at the first row's), and prints that
run's own rate, with no rerun to bring it within 2 % of the target.  Every
row after the first moved, with its ``mu``, rate and estimates, and the fit
rows moved with the ``p2``; the rates now span 2051.6-2300.0 Hz (they were
2146.9-2167.2 Hz), within the counting noise of each run's 1,300-1,500
clicks.  No other entry changed.

``compare-lt`` and ``compare-lt-ar`` were re-recorded when Yuan's method
and the coincidence method began to share one lit/dark pair per pulse
energy, run on Yuan's streams.  Only the two ``coincidence`` rows of each
table moved, within their Monte Carlo noise (``lt``: 0.1977 to 0.1942 at
``mu`` = 1 and 0.2045 to 0.1977 at ``mu`` = 3; ``lt-ar``: 0.1439 to 0.1456
and 0.1090 to 0.1138).  No other entry changed.

The four ``simulate-gate-*`` ``--out`` digests were re-recorded when the
fold moved from 10 bins per gate, with every click in the central one, to
one bin per gate.  The files hold the same per-gate counts in a tenth of
the records; their stdout and the ``estimate-bethune``, ``estimate-yuan``
and ``estimate-coincidence`` entries did not change.

The ``simulate-sweep`` ``--out`` digest was re-recorded when the simulator
began to write its laser rate, ``f_l_hz``, into the sweep metadata, so that
``estimate --method custom`` can refuse a sweep longer than the laser
period.  The file gained that one line; ``estimate-custom`` did not change.

The config-schema digest and the ``simulate-sweep`` ``--out`` digest were
re-recorded when the ``[deadtime] ramp`` key and ``DeadTimeScheme.ramp``
were removed: a step recovery is a longer hold-off, and a linear ramp is
the only one left.  The schema lost that key.  In the sweep file only the
``config_sha1`` line changed, because it hashes ``repr(SimConfig)``, which
no longer shows ``ramp='linear'``; every bin, every other metadata line and
every other entry held.

``compare-lt`` and ``sweep-deadtime`` were re-recorded when the latched
scheme moved from the event loop to windows in numpy: each window grows its
avalanches one generation at a time and registers its clicks by a dead-time
selection over them, so it draws different numbers for the same
distributions.  Every ``lt`` row moved within its Monte Carlo noise.  The
``lt-ar`` rows of ``sweep-deadtime`` after the first moved too, because
each runs at the pulse energy that puts it at the rate of the first
``lt`` row; the ``lt-ar`` click trains themselves are bit-identical, and
``compare-lt-ar`` did not change.

Commands run in-process through ``cli.main`` inside a temporary working
directory and take relative paths, because ``simulate`` echoes its
``--out`` path and error messages name their input files.

The ``--help`` page of the program and of each command, and the config
schema, are pinned the same way.  Help text wraps at the terminal width,
so it is taken at ``COLUMNS=80``; argparse lays it out differently from
one Python minor version to the next, so its digests hold on Python 3.11
only.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from afterpulse import cli
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
    "compare-lt": (0, "1173f54daa4cb389ee2e2d8e3b662052349c25a64d3e6b266691b19dce23b36c", "1173f54daa4cb389ee2e2d8e3b662052349c25a64d3e6b266691b19dce23b36c"),
    "compare-lt-ar": (0, "8dd8ef629ffba10de2eecdbdb01d3265d180fc665e2261d153db06a600194e2f", "8dd8ef629ffba10de2eecdbdb01d3265d180fc665e2261d153db06a600194e2f"),
    "estimate-bethune": (0, "91a62e57e5b4ae0b940260a4bd074b50220dbbd4d2023006884403387f4b5863", None),
    "estimate-coincidence": (0, "a667e02e91871680317b86ad6b1883a5e1c69bd03348acae525eb43a8a87bb65", None),
    "estimate-custom": (0, "298a365d49dbf6a719d906c69f31f575df450ca8b54b1f960bce43f3b6a27f63", None),
    "estimate-incomplete-gate-metadata": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "estimate-sweep-as-dark": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "estimate-yuan": (0, "e05909f9ce384438f6746214a781d2c63aa94c36dc7dc7fa0e41cb263cb14add", None),
    "fit": (0, "a9b18b84bb702adf054f938354b1a05b60090c8bef57f5ef9750f7c0175df1c9", None),
    "simulate-gate-fiftieth-dark": (0, "2beb1fd68c6503011167dd552f39bdb547b8e520e489fe80f0d5c0ef304424c9", "4582d2a64ca953812e44b42008d04a65fcd323692b2611511fde64c80de4dc5f"),
    "simulate-gate-fiftieth-lit": (0, "cba8500eea878366a55e0162cfda91c5809e1363e941d5d625004f3a3995439d", "36911ec30df275dafbc096b00f5aec6f5abaf655c62e1ca6207e32d3c7fe9366"),
    "simulate-gate-half-dark": (0, "ce161cceb3b94f074e76f1da9944315ed86ac12c36c8393404da936423bd845b", "b208815a9192513965d29e5f0f9c5b199670b1122eb2142aa2c7c3c108dfed49"),
    "simulate-gate-half-lit": (0, "6d450b0ba9e85f083ebeaf26beb8120e5b59ba10ced686b10c80fd98ec583629", "81a18cb234526449db306538dd10732feeadc82bfeeb32c5bb03253f119dd365"),
    "simulate-sweep": (0, "4610f624415c938a41b41c83140714f0db6e071e0d5a6943ca2796b8738d8a7b", "b4cd762cc01a5f16126e4ccfbda14865f4f4e1ea7a858387aeec08ce58dc0741"),
    "sweep-deadtime": (0, "d3a83894243980de41390a86d1c6ebbc7d84e1af1ecbe3e9a73a8f9f5dcfa548", "e4e58d829ffe678b41f544b341db8dae0ae2e3994a537448a220af23d742c577"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = CASES[case]()
    assert record == {name: GOLDEN[name] for name in record}


# argv before --help -> sha256 of the help page printed at 80 columns
HELP_GOLDEN = {
    "": "f6d00a771be92220b832ae4b6c2750596e237971318b93450dc9b51ba58cbca7",
    "simulate": "bbbb886a9557e8b234d4909d705e37f0faa85e7b81da71a0434bc5ae4acb0fe9",
    "estimate": "ea2f58ddf54a3978239b1834bf2cd65cfe8241c076f113e0ce2799b257f6c284",
    "compare": "a37bf1baf2953ee4581ec2c866cf1a89e069ff2b8a57c05943f1b16895135223",
    "sweep-deadtime": "a04fec841acdc2accd12e98c715b35ae0f792a1f198ed243f620707c3c5526d9",
    "fit": "5aa4e91ca62c01b7ecba98f6b2b380ff6e51a66e6a343b706f51508f76c7e697",
}
SCHEMA_GOLDEN = "645abd7d4b48f5601e36f2fa5a19a8b3fe80ef947834e0fdc3b2bbe475da2c4f"


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse's help layout changes between Python minor versions; "
    "the digests are those of Python 3.11, which CI and the benchmark use",
)
@pytest.mark.parametrize("command", sorted(HELP_GOLDEN))
def test_help_bytes_unchanged(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(*command.split(), "--help")
    assert (code, sha(out)) == (0, HELP_GOLDEN[command])


def test_config_schema_unchanged():
    assert sha(repr(cli._SCHEMA)) == SCHEMA_GOLDEN
