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
    "compare-lt": (0, "8086f3afd9684329698a42ce95d972c3360d18334227e2af34282c765d68d493", "8086f3afd9684329698a42ce95d972c3360d18334227e2af34282c765d68d493"),
    "compare-lt-ar": (0, "2c68b63c2167bebf898aacc612bc2fb1d569b8b4f0a6b501689bff5463e322f8", "2c68b63c2167bebf898aacc612bc2fb1d569b8b4f0a6b501689bff5463e322f8"),
    "estimate-bethune": (0, "7eb497bfbb2fe42a4d360fe88666b0f5a6eba39b7b8d11bd74a074aa3ddb62cb", None),
    "estimate-coincidence": (0, "07b3a4f00c73491bac33597a8457c5dbb36e7d12cf2938a5a4e6ee4861ae2779", None),
    "estimate-custom": (0, "25d2c96bb93fb6eac406b9d5738033aeb7b696f2a4e2715b774502d982752016", None),
    "estimate-incomplete-gate-metadata": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "estimate-sweep-as-dark": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", None),
    "estimate-yuan": (0, "471ecb8839796556418708e2cc84b7b5745fddf15d4edf8468b422cb3388f0de", None),
    "fit": (0, "d437df39cb5fd7b3e68299ead4241b525bc4d6cdba846ab95d92318c38927672", None),
    "simulate-gate-fiftieth-dark": (0, "2564216038a438788591e9c303a9b9c2a065dd70956b8ed5acddd7ac6d89e37b", "29ec738419eac9b3dc091e4e84fda432a5170eb387582b018ff0152c949f7205"),
    "simulate-gate-fiftieth-lit": (0, "2bba5850e8af2f73f7a5c6ae00b7b666e1eda0d6401754c628ce2fef486c531a", "c72764b32173a864a0677ff45869bc5b37c50f7b20a1276e40ca68b17917fe89"),
    "simulate-gate-half-dark": (0, "1d0bbccaee52ab361010e7691875c5870786f81abf26529eecbca2e81b309a3a", "5d7294e38f419d6d5c891fa336407a5be36685453a2047e92ab42ea59fec946f"),
    "simulate-gate-half-lit": (0, "edeed5cac2b6927dcb56e08e552581d170bb54805b6e2e347d226350a676a687", "f6770576c3d75a9e635eb77f24f885f29b798fef74d2289435fb0f5b8d9b88e1"),
    "simulate-sweep": (0, "6a5b684837261c25ac7e97d0308b4d7133d228ab7fbf1dece8a994e81b176316", "d625108fcbc44f04a44d08ad7b27a967b581f244a0b5616e4b24de140c8b8bda"),
    "sweep-deadtime": (0, "244b41ff39fbf387c6fe98b78a481aa81954a94824eb8df0c74292e616cfc44e", "fcb206d968412be9f604a3a2a3b7bdbb2656c3f7f405322881ce40606d29f855"),
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
