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

Every entry that runs the active-reset scheme, the default, was
re-recorded when its gate loop began to draw the photon and dark fires
ahead, window by window, and to chase each click's first fire past its
hold-off: it draws different numbers for the same distributions, which
``tests/test_kernel_oracle.py`` checks against a brute-force simulator.
Every printed estimate moved within its Monte Carlo noise.  In the same
change the fit moved from numpy to Python floats, so that its digits no
longer follow numpy's SIMD paths: ``fit`` was re-recorded with it, and
the ``lt`` fit rows of ``sweep-deadtime`` moved in their 12th to 16th
digit.  ``compare-lt`` and the two error entries did not change.

``compare-lt`` was re-recorded when each latched window grew to four
blocks of draws from one: the windows end at other gates, so the latched
scheme draws its numbers in another order.  Only the ``bethune``, ``yuan``
and ``coincidence`` rows moved, within their Monte Carlo noise (over
seeds 1-30 of the same config ``yuan`` at ``mu`` = 3 reads 0.123 with an
SD of 0.021; it went from 0.1737 to 0.1215).  The ``custom`` rows, the
active-reset trains and every other entry held.

Every entry that simulates was re-recorded when the gate loop moved from
its own xorshift64* stream to numpy's PCG64, and ``simulator.stream`` from
two splitmix64 rounds to numpy's ``SeedSequence``: every click train moved.
Over seeds 101-130 of the same configs, every printed estimate and fit
parameter moved by less than 2.5 standard deviations of the difference of
two seeds; the largest was ``compare-lt-ar``'s ``coincidence`` row at
``mu`` = 3, 0.1078 to 0.1185 (SD 0.0031 a seed).  ``fit`` and the two error
entries did not change.

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
    "compare-lt": (0, "f0a55791302b26cf768c4dc3af229fbdde683579f27e831a21ea7c5bff054ff3", "f0a55791302b26cf768c4dc3af229fbdde683579f27e831a21ea7c5bff054ff3"),
    "compare-lt-ar": (0, "bed4155a7f09ade16d2755b8ab32161204b14caf2e143d2b919c7f6462a45f96", "bed4155a7f09ade16d2755b8ab32161204b14caf2e143d2b919c7f6462a45f96"),
    "estimate-bethune": (0, "349e5491f09f0d94846dc04bdce0b317b702e5086fd7d0a53cc41bd3bd9709c7", None),
    "estimate-coincidence": (0, "f836a9aa7a02180cb8f65f08666f8e858a36b7805839a0a9d4de513e95e2d6f1", None),
    "estimate-custom": (0, "f578fddd2903a65c6effc9ea1e18af9746b58084449a1febd2b83326b30bef7e", None),
    "estimate-incomplete-gate-metadata": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "estimate-sweep-as-dark": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "estimate-yuan": (0, "44561ca99fc1fdb21224675bc4a787378609327bbcd2eb27a3d2cc1b9b996161", None),
    "fit": (0, "d437df39cb5fd7b3e68299ead4241b525bc4d6cdba846ab95d92318c38927672", None),
    "simulate-gate-fiftieth-dark": (0, "adfa45a6d04ff83c3d460f4c10afceb59e3b077736e0baba80d58ee025fcf6c7", "cef085357d95845ec71902ab6e05f035bcd02706b9a16c6e614d4ef552d6aeb8"),
    "simulate-gate-fiftieth-lit": (0, "8988fda0292b733e70bfa2b3cb71a1c70bdb4e96aa7cf68b3d037292074bfcda", "2ab8ea2250697bbe96b99811dad189fa653dd12bed149386048ce3d32dea5514"),
    "simulate-gate-half-dark": (0, "07cd5d04ba76c9c62acb507dd7fc37a15401961d1b28d0b31f8420946486d651", "6f1f7f11642567ec8730356ebbe04657110d5bd9e15c8b7de10519663e3f5a52"),
    "simulate-gate-half-lit": (0, "1612e352d5b29eae2ff2ed2a3c0880ba1526431a401789ed2307f849333c135a", "893b4eae4d857789865dfba60fd40251e890ffda0105d34a9529d30936b25743"),
    "simulate-sweep": (0, "c80c3e74d894234cd2b181bde0bcef5e1d6ec9e7b97e6085d8e015b6321b786f", "9b2ecf886c676b298ea8ebbe42fe9d1b609a29172be33de2338bcd5ba5501a9b"),
    "sweep-deadtime": (0, "98942bbf220cd3b594cdfdc3766426ce78a0686029f5e38991a54d943e49a7ab", "57c52701d9623e23b664664aef63ae2fe9d672882258d05baae63b628faafeae"),
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
