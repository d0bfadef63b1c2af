"""End-to-end tests of the command-line interface.

Commands run in-process through ``cli.main`` for speed; one test drives the
console entry through a subprocess as well.
"""

from dataclasses import replace

import numpy as np
import pytest

from afterpulse.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    _calibrate_mu,
    load_config,
    main,
)
from afterpulse.simulator import DeadTimeScheme, SchemeKind, SimConfig

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
        assert cfg.sim_config().n_gates == 1000

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

    def test_zero_gates_rejected_at_load(self, tmp_path, capsys):
        path = tmp_path / "zero.ini"
        path.write_text("[run]\nn_gates = 0\n")
        code, _, err = run_cli(
            capsys, "simulate", "--config", path, "--out", path.parent / "h.csv"
        )
        assert code == EXIT_CONFIG
        assert "n_gates" in err


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

    def test_every_row_meets_the_first_rows_rate(self, tmp_path, capsys):
        # the default config: the accepted calibration run is the printed
        # row, so every row's rate is within 2 % of the first one's
        cfg = tmp_path / "default.ini"
        cfg.write_text("[run]\n")
        out = tmp_path / "sweep.csv"
        for seed in (1, 2, 3):
            code, _, err = run_cli(
                capsys,
                "sweep-deadtime",
                "--config",
                cfg,
                "--tau",
                "0.5e-6,1e-6,2e-6,5e-6,10e-6,15e-6",
                "--scheme",
                "both",
                "--seed",
                seed,
                "--out",
                out,
            )
            assert code == EXIT_OK
            assert "warning" not in err
            rates = [float(row.split(",")[3]) for row in out.read_text().splitlines()[1:]]
            assert len(rates) == 12
            for rate in rates:
                assert abs(rate - rates[0]) <= 0.02 * rates[0], (seed, rates)

    @pytest.mark.parametrize("target_hz", [1e6, 1e-3], ids=["above", "below"])
    def test_missed_calibration_is_flagged(self, target_hz, capsys):
        # a 10 kHz laser cannot reach 1 MHz, and 10 kHz of dark counts keep
        # the rate far above 1 mHz however weak the pulses
        base = SimConfig(
            scheme=DeadTimeScheme(SchemeKind.LT, tau_l=1e-6),
            n_gates=3_125_000,
            seed=3,
            dcr_per_gate=1e4 / 312.5e6,
        )
        mu, trace = _calibrate_mu(base, target_hz)
        # the best-effort run is still returned, with the mu that produced it
        assert trace.config == replace(base, mu=mu)
        err = capsys.readouterr().err
        assert f"missed the target {target_hz!r} Hz" in err
        assert "reached" in err

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

    def test_bad_table_is_numeric_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("tau_us,p_ap\n1.0\n")
        code, _, _ = run_cli(capsys, "fit", "--data", data)
        assert code == EXIT_NUMERIC


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
    def test_simulate_names_the_field(self, tmp_path, capsys, section, key, field, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nn_gates = 1000\nseed = 3\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", path, "--out", out)
        assert code == EXIT_CONFIG
        assert err == f"afterpulse: {field} must be a finite number, got {float(value)!r}\n"
        assert not out.exists()


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
