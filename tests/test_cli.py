"""End-to-end tests of the command-line interface.

Commands run in-process through ``cli.main`` for speed; one test drives the
console entry through a subprocess as well.
"""

import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from afterpulse import cli
from afterpulse.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
)
from afterpulse.estimators import SweepCounts
from afterpulse.histio import DegenerateDataError, Histogram, read_histogram, write_histogram
from afterpulse.simulator import (
    ClickTrace,
    SchemeKind,
    SimulationConfigError,
    _span_gates,
    build_sweep_histogram,
    run_simulation,
    stream,
)

BASE_CONFIG = """\
[detector]
gate_frequency_hz = 312.5e6
pde = 0.2
dcr_hz = 100.0
afterpulse_probability = 0.10
detrap_time_s = 1e-6

[source]
laser_frequency_hz = 1e4
mean_photons = 1.0

[deadtime]
scheme = lt-ar
latch_time_s = 0.2e-6
hold_time_s = 0.2e-6
recovery_time_s = 0.0

[run]
n_gates = 50000000
seed = 5

[histogram]
sweep_s = 25e-6
bin_width_s = 10e-9
"""


# 2e6 gates at a 50 kHz laser, with a sweep shorter than the 20 us laser
# period, so that the next pulse's click never lands in the baseline window
SHORT_SWEEP = (
    BASE_CONFIG.replace("n_gates = 50000000", "n_gates = 2000000")
    .replace("laser_frequency_hz = 1e4", "laser_frequency_hz = 5e4")
    .replace("sweep_s = 25e-6", "sweep_s = 18e-6")
    + "[estimation]\ndcr_window_start_s = 13e-6\ndcr_window_end_s = 18e-6\n"
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG)
    return path


def run_cli(capsys, *argv):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigLoading:
    def test_defaults_fill_missing_sections(self, tmp_path):
        path = tmp_path / "tiny.ini"
        path.write_text("[run]\nn_gates = 1000\nseed = 3\n")
        cfg = load_config(path)
        assert cfg[("detector", "gate_frequency_hz")] == 312.5e6
        assert cli.sim_config(cfg).n_gates == 1000

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nn_gates = 10\nturbo = yes\n")
        with pytest.raises(Exception, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[laser]\npower = 1\n")
        with pytest.raises(Exception, match="unknown section"):
            load_config(path)

    def test_non_integral_int_key_rejected(self, tmp_path):
        path = tmp_path / "frac.ini"
        path.write_text("[run]\nn_gates = 1.5\n")
        with pytest.raises(ConfigError, match="n_gates"):
            load_config(path)
        path.write_text("[run]\nn_gates = 2e8\n")
        assert load_config(path)[("run", "n_gates")] == 200_000_000

    @pytest.mark.parametrize("text,message", [
        ("[run]\nn_gates = ten\n", "key 'n_gates' in [run]: cannot parse 'ten'"),
        ("[run]\nseed = 0x10\n", "key 'seed' in [run]: cannot parse '0x10'"),
        ("[detector]\npde = high\n", "key 'pde' in [detector]: cannot parse 'high'"),
        ("n_gates = 10\n", "File contains no section headers"),
    ], ids=["int", "hex-int", "float", "no-section"])
    def test_unparsable_text_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    @pytest.mark.parametrize("seed", [12345678901234567, 2**63 - 1])
    def test_a_seed_past_2_to_the_53_is_read_exactly(self, tmp_path, capsys, seed):
        # an int key is not read through a float, which would round it
        path, out = tmp_path / "seed.ini", tmp_path / "h.csv"
        path.write_text(f"[run]\nn_gates = 1000\nseed = {seed}\n")
        code, _, err = run_cli(capsys, "simulate", "--config", path, "--out", out)
        assert (code, err) == (EXIT_OK, "")
        assert f"# seed = {seed}\n" in out.read_text()

    def test_a_seed_of_2_to_the_63_is_refused(self, tmp_path, capsys):
        path = tmp_path / "seed.ini"
        path.write_text(f"[run]\nn_gates = 1000\nseed = {2**63}\n")
        code, out, err = run_cli(capsys, "simulate", "--config", path, "--out", tmp_path / "h.csv")
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"got {2**63}" in err

    def test_zero_gates_rejected_at_load(self, tmp_path, capsys):
        path = tmp_path / "zero.ini"
        path.write_text("[run]\nn_gates = 0\n")
        code, _, err = run_cli(
            capsys, "simulate", "--config", path, "--out", path.parent / "h.csv"
        )
        assert code == EXIT_CONFIG
        assert "n_gates" in err

    @pytest.mark.parametrize(
        "command, extra",
        [("simulate", ()), ("compare", ("--mu", "1")), ("sweep-deadtime", ("--tau", "1e-6"))],
    )
    def test_unknown_scheme_rejected(self, tmp_path, capsys, command, extra):
        path = tmp_path / "bogus.ini"
        path.write_text("[deadtime]\nscheme = bogus\n")
        code, out, err = run_cli(
            capsys, command, "--config", path, "--out", tmp_path / "o.csv", *extra
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert str(path) in err and "[deadtime]" in err and "'scheme'" in err
        assert all(kind.value in err for kind in SchemeKind)
        assert "Traceback" not in err


    @pytest.mark.parametrize("ramp", ["step", "linear"])
    @pytest.mark.parametrize(
        "command, extra",
        [("simulate", ()), ("compare", ("--mu", "1")), ("sweep-deadtime", ("--tau", "1e-6"))],
    )
    def test_ramp_key_refused(self, tmp_path, capsys, monkeypatch, ramp, command, extra):
        # a step recovery is a longer hold_time_s, and a linear one is the
        # only ramp, so no key chooses between them
        runs = []
        monkeypatch.setattr(cli, "run_simulation", runs.append)
        path = tmp_path / "ramp.ini"
        path.write_text(
            BASE_CONFIG.replace("recovery_time_s = 0.0", f"recovery_time_s = 0.0\nramp = {ramp}")
        )
        code, out, err = run_cli(
            capsys, command, "--config", path, "--out", tmp_path / "o.csv", *extra
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"afterpulse: {path}: unknown key 'ramp' in [deadtime]\n"
        assert runs == []

    def test_readme_sample_config_loads_as_the_defaults(self, tmp_path):
        # the README's sample config shows every key with its default, so a
        # key documented there and gone from the schema fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0], encoding="utf-8")
        assert load_config(path) == {
            (section, key): default
            for section, keys in cli._SCHEMA.items()
            for key, (_, default) in keys.items()
        }


class TestSimulate:
    def test_end_to_end_and_determinism(self, config_path, tmp_path, capsys):
        out1 = tmp_path / "h1.csv"
        out2 = tmp_path / "h2.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--config", config_path, "--out", out1
        )
        assert code == EXIT_OK
        assert "clicks = " in out and "hidden_avalanches = " in out
        assert "live_time_s = " in out
        code, _, _ = run_cli(
            capsys, "simulate", "--config", config_path, "--out", out2
        )
        assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, config_path, tmp_path, capsys):
        out1 = tmp_path / "h1.csv"
        out2 = tmp_path / "h2.csv"
        run_cli(capsys, "simulate", "--config", config_path, "--out", out1)
        run_cli(
            capsys,
            "simulate",
            "--config",
            config_path,
            "--out",
            out2,
            "--seed",
            99,
        )
        assert out1.read_bytes() != out2.read_bytes()

    def test_gate_kind_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "gate.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--config",
            config_path,
            "--out",
            out,
            "--kind",
            "gate",
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert "# kind = gate" in text
        assert "# gates_per_period = 31250" in text


class TestEstimate:
    def test_custom_full_bundle_row(self, config_path, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        run_cli(capsys, "simulate", "--config", config_path, "--out", hist)
        code, out, _ = run_cli(
            capsys, "estimate", "--hist", hist, "--method", "custom"
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "method,p_exp,p_s,p1,p2,P_ap"
        fields = row.split(",")
        assert fields[0] == "custom"
        values = [float(x) for x in fields[1:]]
        assert all(np.isfinite(values))

    def test_custom_reads_the_dead_time_metadata_exactly(
        self, config_path, tmp_path, capsys, monkeypatch
    ):
        # the 0.2 us hold-off is written as tau_s_ns = 200 and read as 2e-07
        hist = tmp_path / "h.csv"
        run_cli(capsys, "simulate", "--config", config_path, "--out", hist)
        assert "# tau_s_ns = 200\n" in hist.read_text()
        seen = []
        real = cli.derive_all
        monkeypatch.setattr(
            cli, "derive_all", lambda p_exp, rate, tau_s: seen.append(tau_s) or real(p_exp, rate, tau_s)
        )
        code, _, err = run_cli(capsys, "estimate", "--hist", hist, "--method", "custom")
        assert code == EXIT_OK, err
        assert seen == [2e-07]

    def test_classical_method_on_gate_file(self, config_path, tmp_path, capsys):
        lit = tmp_path / "lit.csv"
        dark = tmp_path / "dark.csv"
        bethune_cfg = tmp_path / "bethune.ini"
        bethune_cfg.write_text(
            BASE_CONFIG.replace("laser_frequency_hz = 1e4", "laser_frequency_hz = 156.25e6")
            .replace("n_gates = 50000000", "n_gates = 20000000")
        )
        dark_cfg = tmp_path / "dark.ini"
        dark_cfg.write_text(
            bethune_cfg.read_text().replace("mean_photons = 1.0", "mean_photons = 0.0")
        )
        run_cli(
            capsys, "simulate", "--config", bethune_cfg, "--out", lit, "--kind", "gate"
        )
        run_cli(
            capsys,
            "simulate",
            "--config",
            dark_cfg,
            "--out",
            dark,
            "--kind",
            "gate",
            "--seed",
            77,
        )
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--hist",
            lit,
            "--method",
            "bethune",
            "--dark",
            dark,
        )
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "method,P_ap"
        assert row.startswith("bethune,")

    def test_yuan_with_non_integer_frequency_ratio_fails(
        self, config_path, tmp_path, capsys
    ):
        hist = tmp_path / "g.csv"
        run_cli(
            capsys, "simulate", "--config", config_path, "--out", hist, "--kind", "gate"
        )
        # corrupt the laser frequency so f_g / f_l is not an integer
        hist.write_text(
            hist.read_text().replace("# f_l_hz = 10000.0", "# f_l_hz = 9750.0")
        )
        code, _, err = run_cli(
            capsys,
            "estimate",
            "--hist",
            hist,
            "--method",
            "yuan",
            "--dark",
            hist,
        )
        assert code == EXIT_NUMERIC
        assert "integer multiple" in err

    def test_coincidence_on_dark_only_histogram(self, tmp_path, capsys):
        cfg = tmp_path / "dark.ini"
        cfg.write_text(
            BASE_CONFIG.replace("laser_frequency_hz = 1e4", "laser_frequency_hz = 6.25e6")
            .replace("afterpulse_probability = 0.10", "afterpulse_probability = 0.0")
            .replace("dcr_hz = 100.0", "dcr_hz = 3000.0")
            .replace("n_gates = 50000000", "n_gates = 100000000")
        )
        dark_cfg = tmp_path / "darkonly.ini"
        dark_cfg.write_text(
            cfg.read_text().replace("mean_photons = 1.0", "mean_photons = 0.0")
        )
        lit = tmp_path / "lit.csv"
        dark = tmp_path / "dark.csv"
        run_cli(capsys, "simulate", "--config", cfg, "--out", lit, "--kind", "gate")
        run_cli(
            capsys,
            "simulate",
            "--config",
            dark_cfg,
            "--out",
            dark,
            "--kind",
            "gate",
            "--seed",
            31,
        )
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--hist",
            lit,
            "--method",
            "coincidence",
            "--dark",
            dark,
        )
        assert code == EXIT_OK
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert abs(value) < 0.05

    def test_custom_method_on_gate_file_fails(self, config_path, tmp_path, capsys):
        hist = tmp_path / "g.csv"
        run_cli(
            capsys, "simulate", "--config", config_path, "--out", hist, "--kind", "gate"
        )
        code, _, err = run_cli(
            capsys, "estimate", "--hist", hist, "--method", "custom"
        )
        assert code == EXIT_NUMERIC
        assert "needs a sweep histogram" in err

    def test_missing_file_is_config_error(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--hist", "/nonexistent.csv", "--method", "custom"
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("key,option", [("tau_s_ns", "--tau-s"), ("rate_hz", "--rate")])
    def test_custom_needs_option_or_metadata(self, tmp_path, capsys, key, option):
        path = tmp_path / "in.csv"
        path.write_text(
            "".join(ln for ln in sweep_file().splitlines(True) if not ln.startswith(f"# {key} "))
        )
        code, out, err = run_cli(capsys, "estimate", "--method", "custom", "--hist", path)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == f"afterpulse: {path}: custom method needs {option} or {key} metadata\n"

    def test_negative_rate_is_refused(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text(sweep_file())
        code, out, err = run_cli(
            capsys, "estimate", "--method", "custom", "--hist", path, "--rate", "-5",
            "--window-start", "20e-9", "--window-end", "30e-9",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "afterpulse: --rate must be >= 0, got -5.0\n"

    @pytest.mark.parametrize("value", ["0", "-2e-7"])
    def test_dead_time_out_of_range_names_the_option(self, tmp_path, capsys, value):
        path = tmp_path / "in.csv"
        path.write_text(sweep_file())
        code, out, err = run_cli(
            capsys, "estimate", "--method", "custom", "--hist", path, f"--tau-s={value}",
            "--window-start", "20e-9", "--window-end", "30e-9",
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"afterpulse: --tau-s must be > 0, got {float(value)!r}\n"

    @pytest.mark.parametrize("meta,argv,sources,problem", [
        ({}, ["--tau-s", "1e-3"], "tau_s from --tau-s, rate from rate_hz",
         "tau_s = 0.001 must be below the sweep 3e-08"),
        ({}, ["--tau-s", "2.5e-8"], "tau_s from --tau-s, rate from rate_hz",
         "tau_s = 2.5e-08 must be below the baseline window start 2e-08"),
        ({"tau_s_ns": "25"}, [], "tau_s from tau_s_ns, rate from rate_hz",
         "tau_s = 2.5e-08 must be below the baseline window start 2e-08"),
        ({}, ["--rate", "1e12"], "tau_s from tau_s_ns, rate from --rate",
         "rate * tau_s must be below 1 + p_exp (got 10000.0 vs 1.4)"),
    ], ids=["tau-past-sweep", "tau-in-window", "tau-metadata-in-window", "rate"])
    def test_refusal_names_the_file_and_the_sources(
        self, tmp_path, capsys, meta, argv, sources, problem
    ):
        # the estimator's own message, after the file and where tau_s and the rate came from
        path = tmp_path / "in.csv"
        path.write_text(sweep_file(**meta))
        code, out, err = run_cli(
            capsys, "estimate", "--method", "custom", "--hist", path, *argv,
            "--window-start", "20e-9", "--window-end", "30e-9",
        )
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err.startswith(f"afterpulse: {path} ({sources}): {problem}")

    @pytest.mark.parametrize(
        "key,value,problem",
        [("tau_s_ns", "-200", "-200 is not positive"), ("tau_s_ns", "0", "0 is not positive"),
         ("rate_hz", "-5.0", "-5.0 is negative")],
    )
    def test_metadata_out_of_range_names_file_and_key(self, tmp_path, capsys, key, value, problem):
        path = tmp_path / "in.csv"
        path.write_text(sweep_file(**{key: value}))
        code, out, err = run_cli(
            capsys, "estimate", "--method", "custom", "--hist", path,
            "--window-start", "20e-9", "--window-end", "30e-9",
        )
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == f"afterpulse: {path}: metadata {key} = {problem}\n"

    @pytest.mark.parametrize("key,value", [
        ("tau_s_ns", "x"), ("tau_s_ns", "0"), ("rate_hz", "fast"), ("rate_hz", "-5.0"),
        ("f_l_hz", "x"), ("f_l_hz", "0"),
    ])
    def test_a_bad_key_is_refused_even_beside_both_options(self, tmp_path, capsys, key, value):
        # the file's keys are checked where it is read, as a gate file's are:
        # --tau-s and --rate take the place of a key, they do not hide a bad one
        path = tmp_path / "in.csv"
        path.write_text(sweep_file(**{key: value}))
        code, out, err = run_cli(
            capsys, "estimate", "--method", "custom", "--hist", path, "--tau-s", "2e-9",
            "--rate", "1000", "--window-start", "20e-9", "--window-end", "30e-9",
        )
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err.startswith(f"afterpulse: {path}: metadata {key} = ")


class TestCompare:
    def test_table_structure_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "small.ini"
        cfg.write_text(BASE_CONFIG.replace("n_gates = 50000000", "n_gates = 20000000"))
        out1 = tmp_path / "cmp1.csv"
        code, stdout, _ = run_cli(
            capsys,
            "compare",
            "--config",
            cfg,
            "--mu",
            "0.5,1",
            "--out",
            out1,
        )
        assert code == EXIT_OK
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "method,mu,p_exp,p_s,p1,p2,P_ap"
        assert len(lines) == 1 + 4 * 2  # four methods, two pulse energies
        methods = {ln.split(",")[0] for ln in lines[1:]}
        assert methods == {"custom", "bethune", "yuan", "coincidence"}
        out2 = tmp_path / "cmp2.csv"
        run_cli(capsys, "compare", "--config", cfg, "--mu", "0.5,1", "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_mu_gives_one_row_per_method(self, tmp_path, capsys):
        cfg = tmp_path / "small.ini"
        cfg.write_text(BASE_CONFIG.replace("n_gates = 50000000", "n_gates = 10000000"))
        out = tmp_path / "cmp.csv"
        code, _, _ = run_cli(
            capsys, "compare", "--config", cfg, "--mu", "1", "--out", out
        )
        assert code == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 1 + 4

    def test_no_afterpulsing_gives_near_zero_everywhere(self, tmp_path, capsys):
        cfg = tmp_path / "null.ini"
        cfg.write_text(
            BASE_CONFIG.replace("afterpulse_probability = 0.10", "afterpulse_probability = 0.0")
            .replace("n_gates = 50000000", "n_gates = 100000000")
        )
        out = tmp_path / "cmp.csv"
        code, _, _ = run_cli(
            capsys, "compare", "--config", cfg, "--mu", "1", "--out", out
        )
        assert code == EXIT_OK
        for line in out.read_text().strip().splitlines()[1:]:
            fields = line.split(",")
            estimate = float(fields[6]) if fields[6] else float(fields[5])
            assert abs(estimate) < 0.02, line


    def test_largest_seed_runs(self, tmp_path, capsys):
        # every run's seed is a named stream of the base seed, so no
        # offset can push it past 63 bits
        cfg = tmp_path / "small.ini"
        cfg.write_text(
            BASE_CONFIG.replace("n_gates = 50000000", "n_gates = 2000000")
            .replace("laser_frequency_hz = 1e4", "laser_frequency_hz = 5e4")
            .replace("sweep_s = 25e-6", "sweep_s = 18e-6")
            + "[estimation]\ndcr_window_start_s = 13e-6\ndcr_window_end_s = 18e-6\n"
        )
        out = tmp_path / "cmp.csv"
        code, _, err = run_cli(
            capsys, "compare", "--config", cfg, "--mu", "1", "--seed", 2**63 - 1,
            "--out", out,
        )
        assert code == EXIT_OK, err
        assert len(out.read_text().strip().splitlines()) == 1 + 4

    def test_folded_rows_match_estimate_on_simulated_gate_files(self, tmp_path, capsys):
        # compare runs one lit/dark pair per fold layout and pulse energy i:
        # f_g / 2 for Bethune, on the stream (seed, "bethune", i), and f_g / 50
        # for Yuan and coincidence, on Yuan's stream (seed, "yuan", i).  The
        # dark run takes its lit run's "dark" stream.  A gate file stores the
        # dead time and the period in ns; at 312.5 MHz both read back as the
        # same floats for these layouts, and both commands print through one
        # writer, so estimate's P_ap is compare's text
        seed = 11
        config = SHORT_SWEEP.replace("afterpulse_probability = 0.10", "afterpulse_probability = 0.2")
        path = tmp_path / "cmp.ini"
        path.write_text(config)
        table = tmp_path / "cmp.csv"
        code, _, err = run_cli(
            capsys, "compare", "--config", path, "--mu", "1,3", "--seed", seed, "--out", table
        )
        assert code == EXIT_OK, err
        rows = {
            (f[0], f[1]): f[6] for f in (ln.split(",") for ln in table.read_text().splitlines()[1:])
        }
        for method, gates, streams in (
            ("bethune", 2, "bethune"), ("yuan", 50, "yuan"), ("coincidence", 50, "yuan")
        ):
            laser = config.replace("laser_frequency_hz = 5e4", f"laser_frequency_hz = {312.5e6 / gates!r}")
            for i, mu in enumerate(("1.0", "3.0")):
                lit_seed = stream(seed, streams, i)
                for name, photons, run_seed in (
                    ("lit", mu, lit_seed),
                    ("dark", "0.0", stream(lit_seed, "dark", 0)),
                ):
                    ini = tmp_path / f"{name}.ini"
                    ini.write_text(laser.replace("mean_photons = 1.0", f"mean_photons = {photons}"))
                    code, _, err = run_cli(
                        capsys, "simulate", "--config", ini, "--out", tmp_path / f"{name}.csv",
                        "--kind", "gate", "--seed", run_seed,
                    )
                    assert code == EXIT_OK, err
                code, out, err = run_cli(
                    capsys, "estimate", "--hist", tmp_path / "lit.csv", "--method", method,
                    "--dark", tmp_path / "dark.csv",
                )
                assert code == EXIT_OK, err
                header, row = out.splitlines()
                name, value = row.split(",")
                assert (header, name) == ("method,P_ap", method)
                assert value == rows[(method, mu)]

    def test_one_lit_dark_pair_per_fold_layout(self, tmp_path, capsys, monkeypatch):
        # per pulse energy: one custom run, a lit and a dark run at Bethune's
        # two gates per period, and one lit/dark pair at 50 gates per period
        # that Yuan and coincidence both read
        runs = []
        real = cli.run_simulation
        monkeypatch.setattr(cli, "run_simulation", lambda sim: runs.append(sim) or real(sim))
        pairs = {"estimate_yuan": [], "estimate_coincidence": []}
        for name, seen in pairs.items():
            def recorded(lit, dark, *args, _seen=seen, _real=getattr(cli, name), **kwargs):
                _seen.append((lit, dark))
                return _real(lit, dark, *args, **kwargs)

            monkeypatch.setattr(cli, name, recorded)
        path = tmp_path / "cmp.ini"
        path.write_text(SHORT_SWEEP.replace("n_gates = 2000000", "n_gates = 1000000"))
        code, _, err = run_cli(
            capsys, "compare", "--config", path, "--mu", "1,3", "--out", tmp_path / "cmp.csv"
        )
        assert code == EXIT_OK, err
        assert len(runs) == 10
        yuan, coincidence = pairs.values()
        assert len(yuan) == len(coincidence) == 2
        for (y_lit, y_dark), (c_lit, c_dark) in zip(yuan, coincidence):
            assert y_lit is c_lit and y_dark is c_dark
        assert yuan[0][0] is not yuan[1][0]

    def test_estimators_are_looked_up_at_each_call(self, tmp_path, capsys, monkeypatch):
        # a wrapper set on the cli module after import must see every call
        calls = dict.fromkeys(("estimate_bethune", "estimate_yuan", "estimate_coincidence"), 0)
        for name in calls:
            def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        path = tmp_path / "cmp.ini"
        path.write_text(SHORT_SWEEP.replace("n_gates = 2000000", "n_gates = 1000000"))
        code, _, err = run_cli(
            capsys, "compare", "--config", path, "--mu", "1", "--out", tmp_path / "cmp.csv"
        )
        assert code == EXIT_OK, err
        assert calls == dict.fromkeys(calls, 1)


    def test_empty_mu_list_rejected(self, tmp_path, capsys, monkeypatch):
        runs = []
        real = cli.run_simulation
        monkeypatch.setattr(cli, "run_simulation", lambda sim: runs.append(sim) or real(sim))
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "cmp.csv"
        code, stdout, err = run_cli(capsys, "compare", "--config", cfg, "--mu", ",", "--out", out)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert "--mu" in err
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize("scheme,tau", [("lt", 20e-6), ("lt-ar", 21e-6)])
    def test_dead_time_in_the_baseline_window_refused_before_any_run(
        self, tmp_path, capsys, monkeypatch, scheme, tau
    ):
        # a dead time at or past the default 20 us window start would make
        # the afterpulse region the window itself
        runs = []
        monkeypatch.setattr(cli, "run_simulation", runs.append)
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            BASE_CONFIG.replace("scheme = lt-ar", f"scheme = {scheme}")
            .replace("latch_time_s = 0.2e-6", f"latch_time_s = {tau!r}")
            .replace("hold_time_s = 0.2e-6", f"hold_time_s = {tau!r}")
        )
        out = tmp_path / "cmp.csv"
        code, stdout, err = run_cli(capsys, "compare", "--config", cfg, "--mu", "1", "--out", out)
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == (
            f"afterpulse: {cfg}: [deadtime]: dead time tau_s = {tau!r} must stay below the "
            "baseline window start, [estimation] dcr_window_start_s = 2e-05\n"
        )
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize("config,mu,row", [
        # 3e6 gates at a 10 kHz laser hold about 100 pulses: at mu = 0.1
        # about one seed in seven registers none of them
        ("[run]\nn_gates = 3000000\n", 0.1, "custom, mu = 0.1"),
        (BASE_CONFIG, 0.0, "custom, mu = 0.0"),
    ], ids=["few-pulses", "no-light"])
    def test_a_refused_custom_row_is_named(self, tmp_path, capsys, config, mu, row):
        cfg = tmp_path / "c.ini"
        cfg.write_text(config)
        seed = first_seed_without_a_trigger(cfg, mu)
        out = tmp_path / "cmp.csv"
        code, stdout, err = run_cli(capsys, "compare", "--config", cfg, "--mu", mu,
                                    "--seed", seed, "--out", out)
        assert (code, stdout) == (EXIT_NUMERIC, "")
        assert err == f"afterpulse: {row}: histogram has no trigger counts\n"
        assert not out.exists()


def first_seed_without_a_trigger(path, mu):
    """The first seed of 1 to 50 whose ``compare`` custom row at ``mu``
    registers no trigger under the config at ``path``."""
    cfg = load_config(path)
    base = cli.sim_config(cfg)
    for seed in range(1, 51):
        trace = run_simulation(replace(base, mu=mu, seed=stream(seed, "custom", 0)))
        if cli._sweep_histogram(cfg, trace).c0 == 0:
            return seed
    raise AssertionError(f"every seed of 1 to 50 registers a trigger at mu = {mu}")


def record_traces(monkeypatch):
    """Wrap ``cli.run_simulation``; each run's trace is appended to the returned list."""
    traces = []
    real = cli.run_simulation

    def run(sim):
        traces.append(real(sim))
        return traces[-1]

    monkeypatch.setattr(cli, "run_simulation", run)
    return traces


def assert_rows_share_the_first_rows_rate(traces, seed):
    """Every run's click count is within 4 combined Poisson errors of the first's."""
    n0 = traces[0].n_clicks
    for trace in traces[1:]:
        n = trace.n_clicks
        assert abs(n - n0) <= 4 * math.sqrt(n + n0), (seed, n0, [t.n_clicks for t in traces])


class TestSweepDeadtime:
    def test_largest_seed_runs(self, tmp_path, capsys):
        cfg = tmp_path / "small.ini"
        cfg.write_text(BASE_CONFIG.replace("n_gates = 50000000", "n_gates = 20000000"))
        out = tmp_path / "swp.csv"
        code, _, err = run_cli(
            capsys, "sweep-deadtime", "--config", cfg, "--tau", "0.5e-6,1e-6,2e-6",
            "--scheme", "lt-ar", "--seed", 2**63 - 1, "--out", out,
        )
        assert code == EXIT_OK, err
        assert len(out.read_text().strip().splitlines()) == 1 + 3

    def test_fewer_than_four_dead_times_write_rows_and_refuse_each_fit(self, tmp_path, capsys):
        # three rows are a table but too few points for a three-parameter
        # fit: each refused law is a stderr line, and stdout is the header
        cfg = tmp_path / "small.ini"
        cfg.write_text(BASE_CONFIG.replace("n_gates = 50000000", "n_gates = 20000000"))
        out = tmp_path / "swp.csv"
        code, stdout, err = run_cli(
            capsys, "sweep-deadtime", "--config", cfg, "--tau", "0.5e-6,1e-6,2e-6",
            "--scheme", "lt-ar", "--out", out,
        )
        assert code == EXIT_OK, err
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,tau_s,mu,rate_hz,p_exp,p_s,p2"
        assert [ln.split(",")[:2] for ln in lines[1:]] == [
            ["lt-ar", "5e-07"], ["lt-ar", "1e-06"], ["lt-ar", "2e-06"]
        ]
        assert stdout == "scheme,law,a,b,c,rss,iterations,converged\n"
        assert err == (
            "lt-ar,power,,,,,,need at least 4 points, got 3\n"
            "lt-ar,exponential,,,,,,need at least 4 points, got 3\n"
        )

    def test_lt_exceeds_lt_ar_at_short_dead_times(self, tmp_path, capsys):
        # the 50 us sweep puts the baseline window past the 20 us point, so
        # that every row is a measurement
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            BASE_CONFIG.replace("afterpulse_probability = 0.10", "afterpulse_probability = 0.15")
            .replace("n_gates = 50000000", "n_gates = 4000000000")
            .replace("sweep_s = 25e-6", "sweep_s = 50e-6")
            + "[estimation]\ndcr_window_start_s = 40e-6\ndcr_window_end_s = 50e-6\n"
        )
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys,
            "sweep-deadtime",
            "--config",
            cfg,
            "--tau",
            "0.5e-6,1e-6,2e-6,5e-6,10e-6,20e-6",
            "--scheme",
            "both",
            "--out",
            out,
        )
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "scheme,tau_s,mu,rate_hz,p_exp,p_s,p2"
        data = {}
        for row in rows[1:]:
            fields = row.split(",")
            data[(fields[0], float(fields[1]))] = float(fields[4])  # p_exp
        for tau in (0.5e-6, 1e-6, 2e-6):
            assert data[("lt", tau)] >= data[("lt-ar", tau)]
        # at 20 us both schemes have lost nearly every carrier
        assert abs(data[("lt", 20e-6)] - data[("lt-ar", 20e-6)]) < 0.01
        # fit block: scheme,law rows with finite rss
        fit_lines = stdout.strip().splitlines()
        assert fit_lines[0] == "scheme,law,a,b,c,rss,iterations,converged"
        assert len(fit_lines) == 1 + 4  # two schemes x two laws
        for row in fit_lines[1:]:
            fields = row.split(",")
            assert np.isfinite(float(fields[5]))
            assert fields[7] in ("True", "False")

    def test_every_row_runs_once_near_the_first_rows_rate(self, tmp_path, capsys, monkeypatch):
        # the default config: each row is one run at the pulse energy that
        # its predecessor predicts, and prints that run's own rate.  A row's
        # click count is within counting noise of the first row's: 4
        # standard errors of the difference of two Poisson counts
        traces = record_traces(monkeypatch)
        cfg = tmp_path / "default.ini"
        cfg.write_text("[run]\n")
        out = tmp_path / "sweep.csv"
        for seed in (1, 2, 3):
            traces.clear()
            code, _, err = run_cli(
                capsys, "sweep-deadtime", "--config", cfg, "--tau", "0.5e-6,1e-6,2e-6,5e-6,10e-6,15e-6",
                "--scheme", "both", "--seed", seed, "--out", out,
            )
            assert code == EXIT_OK, err
            assert "warning" not in err
            assert len(traces) == 12
            rates = [float(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
            assert rates == [trace.rate for trace in traces]
            assert_rows_share_the_first_rows_rate(traces, seed)

    def test_each_row_starts_where_its_predecessor_puts_the_rate(
        self, tmp_path, capsys, monkeypatch
    ):
        # at the benchmark's 2.5e9 gates the rate's counting noise is near
        # 0.8 %, small enough to show a start rule that misses the target
        traces = record_traces(monkeypatch)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text("[run]\nn_gates = 2500000000\n")
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep-deadtime", "--config", cfg, "--tau", "0.5e-6,1e-6,2e-6,5e-6,10e-6,15e-6",
            "--scheme", "both", "--seed", 2, "--out", out,
        )
        assert code == EXIT_OK, err
        assert len(out.read_text().splitlines()) == 1 + 12
        assert len(traces) == 12
        assert_rows_share_the_first_rows_rate(traces, 2)

    @pytest.mark.parametrize("kind", ["lt", "lt-ar"])
    def test_rows_run_the_circuit_simulate_builds(self, tmp_path, capsys, monkeypatch, kind):
        # each row's first run has the scheme that simulate builds from the
        # same file with the latch and the hold-off both set to the row's tau
        runs = []
        real = cli.run_simulation
        monkeypatch.setattr(cli, "run_simulation", lambda sim: runs.append(sim) or real(sim))
        deadtime = (
            "scheme = lt-ar\nlatch_time_s = 0.2e-6\nhold_time_s = 0.2e-6\n"
            "recovery_time_s = 0.0\n"
        )
        assert deadtime in SHORT_SWEEP

        def config(tau):
            return SHORT_SWEEP.replace(
                deadtime,
                f"scheme = {kind}\nlatch_time_s = {tau!r}\nhold_time_s = {tau!r}\n"
                "recovery_time_s = 0.1e-6\n",
            )

        path = tmp_path / "sweep.ini"
        path.write_text(config(0.2e-6))
        taus = (0.5e-6, 1e-6)
        code, _, err = run_cli(
            capsys, "sweep-deadtime", "--config", path, "--tau", ",".join(map(repr, taus)),
            "--scheme", kind, "--out", tmp_path / "sweep.csv",
        )
        assert code == EXIT_OK, err
        first = {}
        for sim in runs:
            first.setdefault(sim.seed, sim)
        seed = load_config(path)[("run", "seed")]
        for j, tau in enumerate(taus):
            path.write_text(config(tau))
            expected = cli.sim_config(load_config(path)).scheme
            assert first[stream(seed, "sweep", j)].scheme == expected

    def test_tau_inside_baseline_window_rejected(self, tmp_path, capsys):
        # with the default 20-25 us window the afterpulse region at 20 us
        # would be the window itself
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys,
            "sweep-deadtime",
            "--config",
            cfg,
            "--tau",
            "0.5e-6,1e-6,2e-6,5e-6,10e-6,20e-6",
            "--out",
            out,
        )
        assert code == EXIT_CONFIG
        assert "baseline window" in err
        assert not out.exists()

    def test_dead_time_checked_before_any_run(self, tmp_path, capsys, monkeypatch):
        # a row's dead time is its tau: 21 us reaches into the 20-25 us
        # baseline window, and the 1 us row before it does not run either
        runs = []
        monkeypatch.setattr(cli, "run_simulation", runs.append)
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG)
        out = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep-deadtime", "--config", cfg, "--tau", "1e-6,21e-6", "--out", out,
        )
        assert code == EXIT_CONFIG
        assert "row lt, tau = 2.1e-05" in err
        assert "baseline window start" in err
        assert runs == []
        assert not out.exists()

    def test_a_refused_row_is_named(self, tmp_path, capsys):
        # no light, no trigger: the first row's sweep histogram is refused
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG.replace("mean_photons = 1.0", "mean_photons = 0.0"))
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            capsys, "sweep-deadtime", "--config", cfg, "--tau", "1e-6,2e-6",
            "--scheme", "lt-ar", "--out", out,
        )
        assert (code, stdout) == (EXIT_NUMERIC, "")
        assert err == "afterpulse: lt-ar, tau_s = 1e-06: histogram has no trigger counts\n"
        assert not out.exists()

    def test_empty_scheme_list_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG)
        code, _, err = run_cli(
            capsys,
            "sweep-deadtime",
            "--config",
            cfg,
            "--tau",
            "1e-6",
            "--scheme",
            "none",
            "--out",
            tmp_path / "x.csv",
        )
        assert code == EXIT_CONFIG

    def test_non_increasing_tau_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(BASE_CONFIG)
        code, _, _ = run_cli(
            capsys,
            "sweep-deadtime",
            "--config",
            cfg,
            "--tau",
            "2e-6,1e-6",
            "--out",
            tmp_path / "x.csv",
        )
        assert code == EXIT_CONFIG


class TestSweepPastTheNextPulse:
    """A sweep longer than the laser period is refused before any run."""

    COMMANDS = {
        "simulate": ["simulate", "--kind", "sweep"],
        "compare": ["compare", "--mu", "0.1,1"],
        "sweep-deadtime": ["sweep-deadtime", "--tau", "0.5e-6,1e-6"],
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_refused(self, tmp_path, capsys, monkeypatch, argv):
        # a 25 us sweep at a 100 kHz laser: the clicks of the pulses 10 us
        # and 20 us after the trigger would be summed as afterpulses
        runs = []
        monkeypatch.setattr(cli, "run_simulation", runs.append)
        path = tmp_path / "run.ini"
        path.write_text(BASE_CONFIG.replace("laser_frequency_hz = 1e4", "laser_frequency_hz = 1e5"))
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, *argv, "--config", path, "--out", out)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err.startswith("afterpulse: ")
        assert "[histogram] sweep_s" in err and "[source] laser_frequency_hz" in err
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    def test_a_sweep_of_one_laser_period_runs(self, tmp_path, capsys, argv):
        # the benchmark's dense-compare config: a 20 us sweep at a 50 kHz
        # laser spans 6250 gates, one whole laser period
        path = tmp_path / "run.ini"
        path.write_text(
            "[detector]\nafterpulse_probability = 0.2\n[source]\nlaser_frequency_hz = 5e4\n"
            "[histogram]\nsweep_s = 20e-6\n"
            "[estimation]\ndcr_window_start_s = 15e-6\ndcr_window_end_s = 20e-6\n"
            "[run]\nn_gates = 2000000\n"
        )
        sim = cli.sim_config(load_config(path))
        assert _span_gates(20e-6, sim.f_g) == sim.gates_per_pulse == 6250
        code, _, err = run_cli(capsys, *argv, "--config", path, "--out", tmp_path / "out.csv")
        assert code == EXIT_OK, err

    def test_sweep_file_records_the_laser_rate(self, config_path, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", config_path, "--out", hist)
        assert code == EXIT_OK, err
        assert "# f_l_hz = 10000.0\n" in hist.read_text()

    def test_estimate_refuses_a_file_whose_sweep_outlasts_the_laser_period(
        self, config_path, tmp_path, capsys
    ):
        # a 25 us sweep whose file records a 100 kHz laser, as an
        # instrument that takes a sweep past the next pulse would write it;
        # read, it would print a p2 three times too low with exit 0.
        # Without f_l_hz, as in an instrument export, the file is read as
        # before
        sim = replace(cli.sim_config(load_config(config_path)), n_gates=2_000_000)
        hist = build_sweep_histogram(run_simulation(sim), 25e-6, 10e-9)
        hist.f_l = 1e5  # set after construction, which would refuse it
        path = tmp_path / "h.csv"
        write_histogram(hist, path)
        assert "# f_l_hz = 100000.0\n" in path.read_text()
        code, out, err = run_cli(capsys, "estimate", "--hist", path, "--method", "custom")
        assert (code, out) == (EXIT_NUMERIC, "")
        assert str(path) in err and "sweep_ns = 25000" in err and "f_l_hz = 100000.0" in err
        hist.f_l = None
        write_histogram(hist, path)
        code, _, err = run_cli(capsys, "estimate", "--hist", path, "--method", "custom")
        assert code == EXIT_OK, err

    @pytest.mark.parametrize("laser, sweep", [("5e4", "20e-6"), ("86206.89655172414", "11.6e-6")])
    def test_estimate_reads_a_file_of_one_laser_period(self, tmp_path, capsys, laser, sweep):
        # a sweep of one whole period, as simulated and written: 20 us at
        # 50 kHz, and 11.6 us at f_g / 3625, whose sweep_ns read back times
        # f_l_hz is 1.0000000000000002
        path = tmp_path / "run.ini"
        path.write_text(
            f"[source]\nlaser_frequency_hz = {laser}\n[histogram]\nsweep_s = {sweep}\n"
            f"[estimation]\ndcr_window_start_s = 8e-6\ndcr_window_end_s = {sweep}\n"
            "[run]\nn_gates = 2000000\n"
        )
        hist = tmp_path / "h.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", path, "--out", hist)
        assert code == EXIT_OK, err
        code, _, err = run_cli(
            capsys, "estimate", "--hist", hist, "--method", "custom",
            "--window-start", "8e-6", "--window-end", sweep,
        )
        assert code == EXIT_OK, err

    @pytest.mark.parametrize("laser, sweep, refused", [
        ("5e4", "20e-6", False), ("86206.89655172414", "11.6e-6", False), ("1e5", "25e-6", True),
    ], ids=["20us-at-50kHz", "11.6us-at-f_g/3625", "25us-at-100kHz"])
    def test_the_three_refusals_agree(self, tmp_path, laser, sweep, refused):
        # the config check, the read file and build_sweep_histogram refuse
        # the same sweeps; 11.6 us times f_g/3625 is 1.0000000000000002
        path = tmp_path / "run.ini"
        path.write_text(
            f"[source]\nlaser_frequency_hz = {laser}\n[histogram]\nsweep_s = {sweep}\n"
            f"[estimation]\ndcr_window_start_s = 8e-6\ndcr_window_end_s = {sweep}\n"
        )
        cfg = load_config(path)
        sim = cli.sim_config(cfg)
        hist = Histogram(10e-9, float(sweep), np.ones(round(float(sweep) / 10e-9), int), 5)
        hist.f_l = sim.f_l  # set after construction, which would refuse a sweep too long
        write_histogram(hist, tmp_path / "h.csv")

        def refuses(call, error):
            try:
                call()
            except error as exc:
                return "outlasts the laser period" in str(exc)
            return False

        assert [
            refuses(lambda: cli._refuse_sweep_past_the_next_pulse(cfg, sim), ConfigError),
            refuses(lambda: read_histogram(tmp_path / "h.csv"), DegenerateDataError),
            refuses(lambda: build_sweep_histogram(ClickTrace(sim, np.zeros(1, int), 0),
                                                  float(sweep), 10e-9), DegenerateDataError),
        ] == [refused] * 3

    @pytest.mark.parametrize("value", ["0.0", "-50000.0", "nan"])
    def test_estimate_refuses_a_laser_rate_that_is_not_positive(self, tmp_path, capsys, value):
        path = tmp_path / "h.csv"
        write_histogram(Histogram(
            bin_width=10e-9, span=25e-6, bins=np.ones(2500, dtype=np.int64), c0=100,
            meta={"f_l_hz": value, "tau_s_ns": "200", "rate_hz": "1000.0"},
        ), path)
        code, _, err = run_cli(capsys, "estimate", "--hist", path, "--method", "custom")
        assert code == EXIT_NUMERIC
        assert str(path) in err and "f_l_hz" in err


class TestFit:
    def test_fit_from_table(self, tmp_path, capsys):
        xs = np.array([0.5, 1, 2, 4, 8, 12, 16, 20.0])
        ys = 0.2 * np.exp(-0.3 * xs) + 0.01
        table = "tau_us,p_ap\n" + "\n".join(f"{x},{y}" for x, y in zip(xs, ys))
        data = tmp_path / "fit.csv"
        data.write_text(table + "\n")
        code, out, _ = run_cli(capsys, "fit", "--data", data, "--law", "both")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "law,a,b,c,rss,iterations,converged"
        exp_row = [ln for ln in lines if ln.startswith("exponential,")][0]
        fields = exp_row.split(",")
        assert float(fields[1]) == pytest.approx(0.2, rel=1e-4)
        assert float(fields[2]) == pytest.approx(0.3, rel=1e-4)

    def test_a_table_without_a_header_keeps_its_first_row(self, tmp_path, capsys):
        rows = "0.5,0.17\n1,0.145\n2,0.11\n4,0.067\n8,0.028\n"
        outs = []
        for name, text in (("bare.csv", rows), ("headed.csv", "tau_us,p_ap\n" + rows)):
            (tmp_path / name).write_text(text)
            code, out, _ = run_cli(capsys, "fit", "--data", tmp_path / name, "--law", "both")
            assert code == EXIT_OK
            outs.append(out)
        assert outs[0] == outs[1]

    def test_bad_table_is_numeric_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("tau_us,p_ap\n1.0\n")
        code, _, _ = run_cli(capsys, "fit", "--data", data)
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize(
        "rows,law,message",
        [
            ("0,0.2\n1,0.1\n2,0.05\n4,0.02\n", "both",
             "law = power: power-law fits need strictly positive xs"),
            ("0,0.2\n1,0.1\n2,0.05\n4,0.02\n", "power",
             "law = power: power-law fits need strictly positive xs"),
            ("1,0.2\n2,0.1\n4,0.05\n", "exponential",
             "law = exponential: need at least 4 points, got 3"),
            ("", "both", "law = power: need at least 4 points, got 0"),
        ],
        ids=["zero-tau-both", "zero-tau-power", "three-rows", "header-only"],
    )
    def test_a_refused_law_prints_nothing_and_is_named(self, tmp_path, capsys, rows, law, message):
        # no table is printed before a refusal: stdout stays empty on exit 2
        data = tmp_path / "fit.csv"
        data.write_text("tau_us,p_ap\n" + rows)
        code, out, err = run_cli(capsys, "fit", "--data", data, "--law", law)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == f"afterpulse: {data}, {message}\n"

    @pytest.mark.parametrize("row", ["2,nan", "2,inf", "nan,0.1", "-inf,0.1"])
    def test_a_non_finite_field_is_named_by_its_line(self, tmp_path, capsys, row):
        data = tmp_path / "fit.csv"
        data.write_text(f"tau_us,p_ap\n1,0.2\n{row}\n4,0.05\n8,0.02\n")
        code, out, err = run_cli(capsys, "fit", "--data", data)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == f"afterpulse: {data}:3: non-finite field in {row!r}\n"


def sweep_file(**meta):
    """A three-bin sweep histogram, its metadata overridden by ``meta``."""
    keys = {"bin_width_ns": "10", "sweep_ns": "30", "c0": "5",
            "tau_s_ns": "10", "rate_hz": "1000.0", **meta}
    return "".join(f"# {k} = {v}\n" for k, v in keys.items()) + "0,1\n10,2\n20,0\n"


def gate_file(**meta):
    """A two-gate folded histogram, its metadata overridden by ``meta``."""
    keys = {"bin_width_ns": "1", "sweep_ns": "20", "c0": "0", "kind": "gate",
            "gates_per_period": "2", "acquisition_gates": "1000", **meta}
    bins = "".join(f"{i},{9 if i == 5 else 0}\n" for i in range(20))
    return "".join(f"# {k} = {v}\n" for k, v in keys.items()) + bins


class TestMalformedNumbers:
    """A number that does not parse is a named error, never a traceback."""

    @pytest.mark.parametrize(
        "text,argv,code,names",
        [
            ("tau_us,p_ap\n1,0.2\nabc,0.1\n", ["fit", "--data"], EXIT_NUMERIC, "in.csv:3"),
            ("tau_us,p_ap\n1,0.2\n2,x\n", ["fit", "--data"], EXIT_NUMERIC, "in.csv:3"),
            (sweep_file(bin_width_ns="ten"), ["estimate", "--method", "custom", "--hist"],
             EXIT_CONFIG, "in.csv"),
            (sweep_file(sweep_ns="3e1ns"), ["estimate", "--method", "custom", "--hist"],
             EXIT_CONFIG, "in.csv"),
            (sweep_file(c0="five"), ["estimate", "--method", "custom", "--hist"],
             EXIT_CONFIG, "in.csv"),
            (sweep_file(tau_s_ns="x"), ["estimate", "--method", "custom", "--hist"],
             EXIT_NUMERIC, "tau_s_ns"),
            (sweep_file(rate_hz="fast"), ["estimate", "--method", "custom", "--hist"],
             EXIT_NUMERIC, "rate_hz"),
            (gate_file(f_g_hz="abc"), ["estimate", "--method", "bethune", "--dark", "{in}",
                                       "--hist"], EXIT_NUMERIC, "f_g_hz"),
        ],
        ids=["fit-x", "fit-y", "bin-width", "sweep", "c0", "tau-s", "rate", "f-g"],
    )
    def test_named_error(self, tmp_path, capsys, text, argv, code, names):
        path = tmp_path / "in.csv"
        path.write_text(text)
        argv = [str(path) if a == "{in}" else a for a in argv]
        got, _, err = run_cli(capsys, *argv, path)
        assert got == code
        assert err.startswith("afterpulse: ") and names in err
        assert "Traceback" not in err


class TestGateMetadata:
    """A gate key out of its range is refused on reading, by file and key."""

    @pytest.mark.parametrize("method", ["bethune", "yuan", "coincidence"])
    @pytest.mark.parametrize("bad_file", ["lit", "dark"])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("tau_s_ns", "nan"), ("tau_s_ns", "inf"), ("tau_s_ns", "-200"),
            ("acquisition_gates", "0"), ("gates_per_period", "0"),
        ],
    )
    def test_names_file_and_key(self, tmp_path, capsys, method, bad_file, key, value):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(gate_file(**{key: value}))
        good.write_text(gate_file())
        lit, dark = (bad, good) if bad_file == "lit" else (good, bad)
        code, out, err = run_cli(
            capsys, "estimate", "--method", method, "--hist", lit, "--dark", dark
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith(f"afterpulse: {bad}: ")
        assert key in err

    def test_bethune_refuses_a_laser_rate_that_contradicts_the_fold(self, tmp_path, capsys):
        # a two-gate fold whose metadata puts 50 gates in a laser period
        lit, dark = tmp_path / "lit.csv", tmp_path / "dark.csv"
        lit.write_text(gate_file(f_g_hz="100000000.0", f_l_hz="2000000.0"))
        dark.write_text(gate_file())
        code, out, err = run_cli(
            capsys, "estimate", "--method", "bethune", "--hist", lit, "--dark", dark
        )
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err == f"afterpulse: {lit}: histogram has 2 gates per period, f_g/f_l = 50\n"


class TestFoldedRefusals:
    """A folded estimator's refusal names its row: the lit and the dark file
    under ``estimate``, the method and pulse energy under ``compare``."""

    EMPTY = gate_file().replace("5,9\n", "5,0\n")

    @pytest.mark.parametrize("method,lit,dark,extra,message", [
        ("coincidence", gate_file(), gate_file(gates_per_period="4"), (),
         "lit and dark histograms cover different period structures (2 vs 4 gates)"),
        ("bethune", EMPTY, gate_file(), (), "no counts in the illuminated histogram"),
        ("yuan", gate_file(), gate_file(), ("--ni-gate", "5"),
         "ni_gate_index must be in [1, 2), got 5"),
        ("yuan", EMPTY, gate_file(), (),
         "coincident rate does not exceed the designated gate rate"),
        ("coincidence", EMPTY, gate_file(), (), "no coincident counts"),
    ], ids=["periods", "bethune-counts", "yuan-gate", "yuan-rates", "coincidence-counts"])
    def test_estimate_names_both_files(self, tmp_path, capsys, method, lit, dark, extra,
                                       message):
        lit_path, dark_path = tmp_path / "lit.csv", tmp_path / "dark.csv"
        lit_path.write_text(lit)
        dark_path.write_text(dark)
        code, out, err = run_cli(capsys, "estimate", "--method", method, "--hist", lit_path,
                                 "--dark", dark_path, *extra)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == f"afterpulse: {lit_path} (dark {dark_path}): {message}\n"

    @pytest.mark.parametrize("method", ["bethune", "yuan", "coincidence"])
    def test_estimate_needs_a_dark_file(self, tmp_path, capsys, method):
        lit = tmp_path / "lit.csv"
        lit.write_text(gate_file())
        code, out, err = run_cli(capsys, "estimate", "--method", method, "--hist", lit)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"afterpulse: method '{method}' needs --dark HISTOGRAM\n"

    def test_compare_names_the_method_and_mu(self, tmp_path, capsys):
        # compare's Yuan runs fold 50 gates a period, so gate 50 is past it
        cfg = tmp_path / "c.ini"
        cfg.write_text(SHORT_SWEEP.replace("n_gates = 2000000", "n_gates = 1000000")
                       + "yuan_gate_index = 50\n")
        out = tmp_path / "cmp.csv"
        code, stdout, err = run_cli(capsys, "compare", "--config", cfg, "--mu", "1",
                                    "--out", out)
        assert (code, stdout) == (EXIT_NUMERIC, "")
        assert err == "afterpulse: yuan, mu = 1.0: ni_gate_index must be in [1, 50), got 50\n"
        assert not out.exists()


class TestNonUtf8Input:
    """A file that is not UTF-8 text is a named error, never a traceback."""

    @pytest.mark.parametrize(
        "data,argv,code",
        [
            (b"[run]\nn_gates = 1000 # caf\xe9\n", ["simulate", "--out", "{out}", "--config"],
             EXIT_CONFIG),
            (b"tau_us,p_ap\n1,0.2\n2,\xff\n", ["fit", "--data"], EXIT_NUMERIC),
            (sweep_file().encode() + b"30,\xff\n", ["estimate", "--method", "custom", "--hist"],
             EXIT_CONFIG),
        ],
        ids=["config", "fit-table", "histogram"],
    )
    def test_named_error(self, tmp_path, capsys, data, argv, code):
        path = tmp_path / "in.dat"
        path.write_bytes(data)
        out = tmp_path / "out.csv"
        argv = [str(out) if a == "{out}" else a for a in argv]
        got, _, err = run_cli(capsys, *argv, path)
        assert got == code
        assert err.startswith(f"afterpulse: {path}: not UTF-8 text")
        assert not out.exists()


class TestNonFiniteConfig:
    """NaN passes every range check, so a non-finite value is refused first."""

    @pytest.mark.parametrize(
        "section,key,field",
        [
            ("source", "mean_photons", "mu"),
            ("source", "laser_frequency_hz", "f_l"),
            ("detector", "pde", "pde"),
            ("detector", "afterpulse_probability", "p_ap_internal"),
            ("detector", "dcr_hz", "dcr_per_gate"),
            ("detector", "detrap_time_s", "tau_detrap"),
            ("detector", "gate_frequency_hz", "f_g"),
            ("deadtime", "latch_time_s", "tau_l"),
            ("deadtime", "hold_time_s", "tau_c"),
            ("deadtime", "recovery_time_s", "tau_er"),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_simulate_names_the_field(self, tmp_path, capsys, monkeypatch, section, key, field,
                                      value):
        runs = []
        real = cli.run_simulation
        monkeypatch.setattr(cli, "run_simulation", lambda cfg: runs.append(cfg) or real(cfg))
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nn_gates = 1000\nseed = 3\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", path, "--out", out)
        assert code == EXIT_CONFIG
        assert err == (
            f"afterpulse: {path}: key '{key}' in [{section}]: "
            f"must be a finite number, got {float(value)!r}\n"
        )
        assert runs == []
        assert not out.exists()
        # a library caller that skips the loader is refused by the simulator's field
        path.write_text("[run]\nn_gates = 1000\nseed = 3\n")
        cfg = cli.load_config(path)
        cfg[section, key] = float(value)
        with pytest.raises(SimulationConfigError) as info:
            cli.sim_config(cfg)
        assert str(info.value) == f"{field} must be a finite number, got {float(value)!r}"


class TestNonFiniteHistogramKey:
    """A non-finite sweep or bin width is refused at load, before any run."""

    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["compare", "--mu", "1"], ["sweep-deadtime", "--tau", "0.5e-6,1e-6"]],
        ids=["simulate", "compare", "sweep-deadtime"],
    )
    @pytest.mark.parametrize("key", ["sweep_s", "bin_width_s"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_names_file_and_key(self, tmp_path, capsys, monkeypatch, argv, key, value):
        runs = []
        real = cli.run_simulation
        monkeypatch.setattr(cli, "run_simulation", lambda cfg: runs.append(cfg) or real(cfg))
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nn_gates = 1000\nseed = 3\n[histogram]\n{key} = {value}\n")
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, *argv, "--config", path, "--out", out)
        assert code == EXIT_CONFIG
        assert stdout == ""
        assert err == (
            f"afterpulse: {path}: key '{key}' in [histogram]: "
            f"must be a finite number, got {float(value)!r}\n"
        )
        assert runs == []
        assert not out.exists()


class TestHistogramSettingsRefusedAtLoad:
    """A sweep, bin width or baseline window that no sweep histogram holds is
    refused at load, naming the file, the keys and the section, before any run."""

    COMMANDS = {
        "simulate": ["simulate"],
        "compare": ["compare", "--mu", "1"],
        "sweep-deadtime": ["sweep-deadtime", "--tau", "0.5e-6,1e-6"],
    }
    HISTOGRAM = "keys 'sweep_s' and 'bin_width_s' in [histogram]: need sweep_s > bin_width_s > 0"
    WINDOW = "keys 'dcr_window_start_s' and 'dcr_window_end_s' in [estimation]: window"
    CASES = {
        "sweep-zero": ("[histogram]\nsweep_s = 0\n", f"{HISTOGRAM}, got 0.0 and 1e-08"),
        "sweep-negative": (
            "[histogram]\nsweep_s = -25e-6\n", f"{HISTOGRAM}, got -2.5e-05 and 1e-08"
        ),
        "bin-width-zero": ("[histogram]\nbin_width_s = 0\n", f"{HISTOGRAM}, got 2.5e-05 and 0.0"),
        "bin-width-negative": (
            "[histogram]\nbin_width_s = -1e-8\n", f"{HISTOGRAM}, got 2.5e-05 and -1e-08"
        ),
        "bin-width-of-the-sweep": (
            "[histogram]\nbin_width_s = 25e-6\n", f"{HISTOGRAM}, got 2.5e-05 and 2.5e-05"
        ),
        "window-past-the-sweep": (
            "[estimation]\ndcr_window_end_s = 30e-6\n",
            f"{WINDOW} (2e-05, 3e-05) does not fit inside the 2.5e-05 s sweep",
        ),
        "window-at-the-sweep-end": (
            "[estimation]\ndcr_window_start_s = 25e-6\ndcr_window_end_s = 25.004e-6\n",
            f"{WINDOW} (2.5e-05, 2.5004e-05) selects no bins",
        ),
        "window-past-the-sweep-start": (
            "[estimation]\ndcr_window_start_s = 30e-6\ndcr_window_end_s = 35e-6\n",
            f"{WINDOW} (3e-05, 3.5e-05) does not fit inside the 2.5e-05 s sweep",
        ),
        "window-reversed": (
            "[estimation]\ndcr_window_start_s = 20e-6\ndcr_window_end_s = 15e-6\n",
            f"{WINDOW} (2e-05, 1.5e-05) does not fit inside the 2.5e-05 s sweep",
        ),
        "window-before-the-trigger": (
            "[estimation]\ndcr_window_start_s = -1e-6\n",
            f"{WINDOW} (-1e-06, 2.5e-05) does not fit inside the 2.5e-05 s sweep",
        ),
        "window-inside-one-bin": (
            "[estimation]\ndcr_window_start_s = 20.001e-6\ndcr_window_end_s = 20.002e-6\n",
            f"{WINDOW} (2.0001e-05, 2.0002e-05) selects no bins",
        ),
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_refused_at_load(self, tmp_path, capsys, monkeypatch, argv, case):
        settings, message = case
        runs = []
        monkeypatch.setattr(cli, "run_simulation", runs.append)
        path = tmp_path / "run.ini"
        path.write_text("[run]\nn_gates = 1000\nseed = 3\n" + settings)
        out = tmp_path / "out.csv"
        code, stdout, err = run_cli(capsys, *argv, "--config", path, "--out", out)
        assert (code, stdout) == (EXIT_CONFIG, "")
        assert err == f"afterpulse: {path}: {message}\n"
        assert runs == []
        assert not out.exists()


class TestNonFiniteEstimationInput:
    """An estimation input that is NaN or infinite is refused by its name."""

    @pytest.mark.parametrize(
        "option", ["--rate", "--tau-s", "--window-start", "--window-end"]
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_estimate_option(self, tmp_path, capsys, option, value):
        path = tmp_path / "in.csv"
        path.write_text(sweep_file())
        code, out, err = run_cli(
            capsys, "estimate", "--method", "custom", "--hist", path, option, value
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"afterpulse: {option} must be a finite number, got {float(value)!r}\n"

    @pytest.mark.parametrize("key", ["dcr_window_start_s", "dcr_window_end_s"])
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_compare_window_key(self, tmp_path, capsys, key, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nn_gates = 1000\nseed = 3\n[estimation]\n{key} = {value}\n")
        out = tmp_path / "table.csv"
        code, _, err = run_cli(capsys, "compare", "--config", path, "--mu", "1", "--out", out)
        assert code == EXIT_CONFIG
        assert err == (
            f"afterpulse: {path}: key '{key}' in [estimation]: "
            f"must be a finite number, got {float(value)!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("key", ["rate_hz", "tau_s_ns"])
    def test_metadata_value(self, tmp_path, capsys, key):
        path = tmp_path / "in.csv"
        path.write_text(sweep_file(**{key: "nan"}))
        code, _, err = run_cli(capsys, "estimate", "--method", "custom", "--hist", path)
        assert code == EXIT_NUMERIC
        assert err == f"afterpulse: {path}: metadata {key} = nan is not finite\n"


NEGATIVE_AP_WARNING = (
    "warning: afterpulse counts negative beyond 3 sigma; check tau_s and the baseline window\n"
)


class TestNegativeAfterpulseWarning:
    """A flagged custom estimate warns on stderr under every command that prints one."""

    def test_estimate(self, tmp_path, capsys):
        # a baseline window of 100 counts a bin after 20 empty bins: the
        # dark-subtracted afterpulse sum is far below zero
        path = tmp_path / "in.csv"
        bins = "".join(f"{10 * i},{100 if i >= 20 else 0}\n" for i in range(30))
        path.write_text(sweep_file(sweep_ns="300").replace("0,1\n10,2\n20,0\n", bins))
        code, out, err = run_cli(
            capsys, "estimate", "--method", "custom", "--hist", path,
            "--window-start", "200e-9", "--window-end", "300e-9",
        )
        assert code == EXIT_OK
        assert out.startswith("method,p_exp,p_s,p1,p2,P_ap\ncustom,")
        # the one row is named by its file and where tau_s and the rate came from
        row = f"{path} (tau_s from tau_s_ns, rate from rate_hz)"
        assert err == NEGATIVE_AP_WARNING.replace("warning: ", f"warning: {row}: ")

    @pytest.mark.parametrize("argv,rows", [
        (["compare", "--mu", "0.5,1"], ["custom, mu = 0.5", "custom, mu = 1.0"]),
        (["sweep-deadtime", "--tau", "0.5e-6,1e-6,2e-6", "--scheme", "lt-ar"],
         ["lt-ar, tau_s = 5e-07", "lt-ar, tau_s = 1e-06", "lt-ar, tau_s = 2e-06"]),
    ], ids=["compare", "sweep-deadtime"])
    def test_flagged_rows_warn_and_print_the_same(self, tmp_path, capsys, monkeypatch,
                                                  argv, rows):
        cfg = tmp_path / "small.ini"
        cfg.write_text(BASE_CONFIG.replace("n_gates = 50000000", "n_gates = 10000000"))
        out = tmp_path / "out.csv"
        command = [*argv, "--config", cfg, "--out", out]
        code, plain_out, plain_err = run_cli(capsys, *command)
        assert code == EXIT_OK, plain_err
        plain_file = out.read_bytes()

        monkeypatch.setattr(SweepCounts, "negative_ap_warning", property(lambda self: True))
        code, flagged_out, flagged_err = run_cli(capsys, *command)
        assert code == EXIT_OK
        assert (flagged_out, out.read_bytes()) == (plain_out, plain_file)
        # each row's warning names the row, once
        for row in rows:
            warning = NEGATIVE_AP_WARNING.replace("warning: ", f"warning: {row}: ")
            assert flagged_err.count(warning) == 1
            flagged_err = flagged_err.replace(warning, "")
        assert flagged_err == plain_err


class TestEntryPoint:
    def test_console_script_runs_without_numba(self, tmp_path, subprocess_env):
        import subprocess
        import sys

        cfg = tmp_path / "run.ini"
        cfg.write_text(BASE_CONFIG.replace("n_gates = 50000000", "n_gates = 5000000"))
        out = tmp_path / "h.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "afterpulse.cli",
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=subprocess_env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_runs_on_numpy_alone(self, tmp_path, subprocess_env):
        # numpy is the one runtime dependency: with the test extras blocked
        # and a numba whose import fails, every module imports and simulate
        # and estimate run
        import subprocess
        import sys

        cfg = tmp_path / "run.ini"
        cfg.write_text(SHORT_SWEEP)
        hist = tmp_path / "h.csv"
        stubs = tmp_path / "stubs"
        (stubs / "numba").mkdir(parents=True)
        (stubs / "numba" / "__init__.py").write_text(
            'raise RuntimeError("numba was imported")\n'
        )
        script = f"""
import importlib, pkgutil, sys
sys.path.insert(0, {str(stubs)!r})
for name in ("scipy", "hypothesis"):
    sys.modules[name] = None
import afterpulse
from afterpulse.cli import main
for info in pkgutil.iter_modules(afterpulse.__path__):
    importlib.import_module("afterpulse." + info.name)
assert main(["simulate", "--config", {str(cfg)!r}, "--out", {str(hist)!r}]) == 0
assert main(["estimate", "--method", "custom", "--hist", {str(hist)!r},
             "--window-start", "13e-6", "--window-end", "18e-6"]) == 0
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2] == "method,p_exp,p_s,p1,p2,P_ap"

    def test_usage_error_exits_one(self, subprocess_env):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "afterpulse.cli", "frobnicate"],
            capture_output=True,
            text=True,
            env=subprocess_env,
        )
        assert proc.returncode == 1
        assert "frobnicate" in proc.stderr


class TestSharedParser:
    """``cli.main`` builds its parser once per process; no call leaves state in it."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_leaves_nothing_behind(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SHORT_SWEEP)
        hist = tmp_path / "h.csv"
        assert run_cli(capsys, "simulate", "--config", cfg, "--out", hist)[0] == EXIT_OK
        argv = ("estimate", "--hist", hist, "--method", "custom",
                "--window-start", "13e-6", "--window-end", "18e-6")
        before = run_cli(capsys, *argv)
        assert before[0] == EXIT_OK
        code, out, err = run_cli(capsys, "estimate", "--hist", hist)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("usage: afterpulse estimate")
        assert run_cli(capsys, *argv) == before

    def test_an_option_given_once_does_not_persist(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(SHORT_SWEEP.replace("seed = 5", "seed = 3"))

        def simulate(name, *extra):
            out = tmp_path / name
            assert run_cli(capsys, "simulate", "--config", cfg, "--out", out, *extra)[0] == EXIT_OK
            return out.read_bytes()

        alone = simulate("alone.csv")
        seeded = simulate("seeded.csv", "--seed", "5")
        assert seeded != alone
        assert simulate("after.csv") == alone

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="help digests are those of Python 3.11"
    )
    def test_help_wraps_at_the_width_when_printed(self, monkeypatch):
        from test_cli_golden import HELP_GOLDEN, run, sha

        monkeypatch.setenv("COLUMNS", "40")
        getattr(cli.build_parser, "cache_clear", lambda: None)()  # the next call builds it
        cli.build_parser()
        monkeypatch.setenv("COLUMNS", "80")
        for command, digest in HELP_GOLDEN.items():
            code, out, _ = run(*command.split(), "--help")
            assert (code, sha(out)) == (0, digest), command
