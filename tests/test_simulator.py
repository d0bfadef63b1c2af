"""Monte Carlo simulator behaviour: determinism, rates, dead time, schemes.

Statistical assertions run on seeded configurations sized so the checked
effect is many standard errors away from the alternative.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from afterpulse.estimators import estimate_custom
from afterpulse.histio import DegenerateDataError, read_histogram, write_histogram
from afterpulse.simulator import (
    ClickTrace,
    DeadTimeScheme,
    SchemeKind,
    SimConfig,
    SimulationConfigError,
    build_sweep_histogram,
    run_simulation,
)

F_G = 312.5e6
LT1US = DeadTimeScheme(SchemeKind.LT, tau_l=1e-6)


def base_cfg(**kw):
    defaults = dict(
        scheme=LT1US,
        n_gates=10_000_000,
        seed=101,
        f_g=F_G,
        f_l=1e4,
        mu=1.0,
        pde=0.2,
        dcr_per_gate=0.0,
        p_ap_internal=0.0,
        tau_detrap=1e-6,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def hand_made_trace(click_gates, **kw):
    """The given click train, as if ``base_cfg(**kw)`` had registered it."""
    return ClickTrace(base_cfg(**kw), np.array(click_gates, dtype=np.int64), 0)


class TestConfigValidation:
    def test_laser_must_divide_gate_frequency(self):
        with pytest.raises(SimulationConfigError):
            base_cfg(f_l=3e4)

    def test_laser_not_above_gate_frequency(self):
        with pytest.raises(SimulationConfigError):
            base_cfg(f_l=2 * F_G)

    def test_probability_bounds(self):
        with pytest.raises(SimulationConfigError):
            base_cfg(pde=1.5)
        with pytest.raises(SimulationConfigError):
            base_cfg(p_ap_internal=-0.1)

    def test_n_gates_positive(self):
        with pytest.raises(SimulationConfigError):
            base_cfg(n_gates=0)

    def test_scheme_validation(self):
        with pytest.raises(SimulationConfigError):
            DeadTimeScheme(SchemeKind.LT, tau_l=0.0)
        with pytest.raises(SimulationConfigError):
            DeadTimeScheme(SchemeKind.LT_AR, tau_l=1e-6, tau_c=0.0)
        with pytest.raises(SimulationConfigError, match=r"^tau_er must be >= 0, got -1e-09$"):
            DeadTimeScheme(SchemeKind.LT_AR, tau_l=1e-6, tau_c=1e-6, tau_er=-1e-9)

    @pytest.mark.parametrize("fields,message", [
        ({"f_g": 0.0}, "f_g and f_l must be positive"),
        ({"f_g": -F_G}, "f_g and f_l must be positive"),
        ({"f_l": 0.0}, "f_g and f_l must be positive"),
        ({"f_l": -1e4}, "f_g and f_l must be positive"),
        ({"tau_detrap": 0.0}, "tau_detrap must be > 0, got 0.0"),
        ({"tau_detrap": -1e-6}, "tau_detrap must be > 0, got -1e-06"),
    ])
    def test_out_of_range_config_value_named(self, fields, message):
        with pytest.raises(SimulationConfigError) as info:
            base_cfg(**fields)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "field", ["f_g", "f_l", "mu", "pde", "dcr_per_gate", "p_ap_internal", "tau_detrap"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_config_value_named(self, field, value):
        with pytest.raises(SimulationConfigError, match=f"^{field} must be a finite number"):
            base_cfg(**{field: value})

    @pytest.mark.parametrize("field", ["tau_l", "tau_c", "tau_er"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [SchemeKind.LT, SchemeKind.LT_AR])
    def test_non_finite_scheme_value_named(self, field, value, kind):
        times = {"tau_l": 1e-6, "tau_c": 1e-6, "tau_er": 0.0, field: value}
        with pytest.raises(SimulationConfigError, match=f"^{field} must be a finite number"):
            DeadTimeScheme(kind, **times)

    def test_tau_s(self):
        assert LT1US.tau_s == 1e-6
        s = DeadTimeScheme(SchemeKind.LT_AR, tau_l=1e-6, tau_c=2e-6)
        assert s.tau_s == 2e-6
        s = DeadTimeScheme(SchemeKind.LT_AR, tau_l=3e-6, tau_c=2e-6)
        assert s.tau_s == 3e-6
        # a linear ramp registers clicks from tau_c on
        s = DeadTimeScheme(SchemeKind.LT_AR, tau_l=1e-6, tau_c=2e-6, tau_er=1.5e-6)
        assert s.tau_s == 2e-6


class TestDeterminism:
    def test_same_seed_same_trace(self):
        cfg = base_cfg(p_ap_internal=0.2, dcr_per_gate=1e-6)
        t1 = run_simulation(cfg)
        t2 = run_simulation(cfg)
        assert np.array_equal(t1.click_gates, t2.click_gates)
        assert t1.hidden_avalanches == t2.hidden_avalanches

    def test_different_seed_differs(self):
        cfg = base_cfg(p_ap_internal=0.2, dcr_per_gate=1e-6)
        t1 = run_simulation(cfg)
        t2 = run_simulation(replace(cfg, seed=cfg.seed + 1))
        assert not np.array_equal(t1.click_gates, t2.click_gates)

    def test_thread_isolation(self):
        cfg = base_cfg(p_ap_internal=0.15, dcr_per_gate=5e-7, n_gates=5_000_000)
        reference = run_simulation(cfg).click_gates
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run_simulation, [cfg] * 4))
        for trace in results:
            assert np.array_equal(trace.click_gates, reference)


class TestClickSources:
    def test_noise_free_run_clicks_only_on_laser_gates(self):
        cfg = base_cfg(mu=1.0, n_gates=50_000_000)
        trace = run_simulation(cfg)
        assert trace.n_clicks > 0
        assert np.all(trace.click_gates % cfg.gates_per_pulse == 0)

    def test_afterpulses_need_a_parent_click(self):
        cfg = base_cfg(mu=0.0, p_ap_internal=0.5, n_gates=20_000_000)
        trace = run_simulation(cfg)
        assert trace.n_clicks == 0
        assert trace.hidden_avalanches == 0

    def test_registered_rate_matches_poisson_folding(self):
        # q=0, no saturation: laser-coincident click rate = f_l * (1-exp(-mu pde))
        n_pulses = 1_200_000
        cfg = base_cfg(n_gates=n_pulses * 31250, seed=5)
        trace = run_simulation(cfg)
        clicks = int((trace.click_gates % cfg.gates_per_pulse == 0).sum())
        p = cfg.p_photon
        se = math.sqrt(n_pulses * p * (1 - p))
        assert abs(clicks - n_pulses * p) <= 3 * se

    def test_dark_only_rate(self):
        cfg = base_cfg(mu=0.0, dcr_per_gate=1e-5, n_gates=50_000_000, seed=8)
        trace = run_simulation(cfg)
        expected = 1e-5 * cfg.n_gates
        assert abs(trace.n_clicks - expected) <= 4 * math.sqrt(expected)


class TestDeadTime:
    def test_min_spacing_lt(self):
        cfg = base_cfg(
            dcr_per_gate=1e-5, p_ap_internal=0.3, mu=1.0, n_gates=30_000_000
        )
        trace = run_simulation(cfg)
        gaps = np.diff(trace.click_gates)
        assert gaps.min() >= math.ceil(1e-6 * F_G - 1e-9)

    def test_min_spacing_lt_ar_uses_max_of_latch_and_hold(self):
        scheme = DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.5e-6, tau_c=2e-6)
        cfg = base_cfg(
            scheme=scheme, dcr_per_gate=1e-5, p_ap_internal=0.3, n_gates=30_000_000
        )
        trace = run_simulation(cfg)
        gaps = np.diff(trace.click_gates)
        assert gaps.min() >= math.ceil(2e-6 * F_G - 1e-9)

    def test_lt_hidden_avalanches_counted(self):
        # fast traps: releases land inside the latch window and fire unseen
        cfg = base_cfg(
            p_ap_internal=0.5, tau_detrap=0.1e-6, mu=1.0, n_gates=30_000_000
        )
        trace = run_simulation(cfg)
        assert trace.hidden_avalanches > 0

    def test_lt_ar_has_no_hidden_avalanches(self):
        scheme = DeadTimeScheme(SchemeKind.LT_AR, tau_l=1e-6, tau_c=1e-6)
        cfg = base_cfg(
            scheme=scheme,
            p_ap_internal=0.5,
            tau_detrap=0.1e-6,
            n_gates=30_000_000,
        )
        trace = run_simulation(cfg)
        assert trace.hidden_avalanches == 0

    def test_active_reset_suppresses_afterpulses_vs_latching(self):
        # same dead time, same trap physics: the latched scheme recycles
        # trapped carriers through hidden avalanches while active reset
        # drops them, so the measured afterpulse ratio is strictly larger
        # for the latched scheme
        common = dict(
            mu=0.1,
            pde=0.2,
            dcr_per_gate=100 / F_G,
            p_ap_internal=0.1,
            tau_detrap=1e-6,
            n_gates=40_000_000_000,
            seed=21,
        )
        lt = base_cfg(scheme=DeadTimeScheme(SchemeKind.LT, tau_l=1e-6), **common)
        ar = base_cfg(
            scheme=DeadTimeScheme(SchemeKind.LT_AR, tau_l=1e-6, tau_c=1e-6), **common
        )
        p_exp = {}
        for name, cfg in (("lt", lt), ("ar", ar)):
            trace = run_simulation(cfg)
            hist = build_sweep_histogram(trace, 25e-6, 10e-9)
            p_exp[name] = estimate_custom(hist, tau_s=cfg.scheme.tau_s).p_exp
        assert p_exp["lt"] > p_exp["ar"]


class TestEffectiveEfficiency:
    def test_first_registered_clicks_during_bias_recovery(self):
        # hold-off 7.5 us, recovery 2.5 us, latch 7.8 us: clicks appear from
        # 7.8 us on, before full recovery at 10 us, and the ramp suppresses
        # the early bins relative to the recovered region
        scheme = DeadTimeScheme(
            SchemeKind.LT_AR, tau_l=7.8e-6, tau_c=7.5e-6, tau_er=2.5e-6
        )
        cfg = base_cfg(
            scheme=scheme,
            p_ap_internal=0.5,
            tau_detrap=5e-6,
            n_gates=4_000_000_000,
            seed=13,
        )
        trace = run_simulation(cfg)
        hist = build_sweep_histogram(trace, 25e-6, 10e-9)
        starts = hist.bin_starts
        occupied = starts[hist.bins > 0]
        assert occupied.min() >= 7.8e-6 - 1e-12
        assert (occupied < 10e-6).any()
        # afterpulse density per bin, corrected for the exponential decay of
        # the release density between the two windows
        early = hist.bins[(starts >= 7.9e-6) & (starts < 8.4e-6)].mean()
        late = hist.bins[(starts >= 10.2e-6) & (starts < 10.7e-6)].mean()
        decay = math.exp(-(10.45e-6 - 8.15e-6) / cfg.tau_detrap)
        assert early < late * decay


class TestSweepHistogram:
    def test_dead_time_metadata_keeps_every_digit(self, tmp_path):
        # six significant digits would write 123.457
        tau_ns = 123.4567891
        trace = hand_made_trace([31250], scheme=DeadTimeScheme(SchemeKind.LT, tau_l=tau_ns * 1e-9))
        hist = build_sweep_histogram(trace, 25e-6, 10e-9)
        assert hist.tau_s == pytest.approx(tau_ns * 1e-9, rel=1e-15)
        write_histogram(hist, tmp_path / "sweep.csv")
        (line,) = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
                   if ln.startswith("# tau_s_ns = ")]
        assert float(line.split(" = ")[1]) == pytest.approx(tau_ns, rel=1e-15)
        assert read_histogram(tmp_path / "sweep.csv").tau_s == hist.tau_s

    def test_single_click_trace(self):
        trace = hand_made_trace([31250])
        hist = build_sweep_histogram(trace, 25e-6, 10e-9)
        assert hist.c0 == 1
        assert int(hist.bins.sum()) == 0

    def test_non_coincident_clicks_do_not_trigger(self):
        trace = hand_made_trace([17, 31250 + 11])
        hist = build_sweep_histogram(trace, 25e-6, 10e-9)
        assert hist.c0 == 0
        assert int(hist.bins.sum()) == 0

    def test_a_sweep_longer_than_the_laser_period_is_refused(self):
        # a 25 us sweep at a 100 kHz laser: the clicks of the pulses 10 us
        # and 20 us after the trigger would be binned as afterpulses
        m = 3125  # 100 kHz laser
        trace = hand_made_trace([0, m, 10 * m], f_l=1e5, n_gates=1_000_000)
        with pytest.raises(DegenerateDataError, match="outlasts the laser period"):
            build_sweep_histogram(trace, 25e-6, 10e-9)

    @pytest.mark.parametrize("sweep,bin_width", [(10e-9, 10e-9), (5e-9, 10e-9), (25e-6, 0.0)])
    def test_a_sweep_not_longer_than_its_bins_is_refused(self, sweep, bin_width):
        trace = hand_made_trace([0, 5])
        with pytest.raises(SimulationConfigError) as info:
            build_sweep_histogram(trace, sweep, bin_width)
        assert str(info.value) == (
            f"need sweep > bin_width > 0, got sweep={sweep!r}, bin_width={bin_width!r}"
        )

    @pytest.mark.parametrize("f_l, sweep", [(5e4, 20e-6), (86206.89655172414, 11.6e-6)])
    def test_a_sweep_of_one_laser_period_builds(self, f_l, sweep):
        # 20 us at 50 kHz, and 11.6 us at f_g / 3625: each sweep spans one
        # whole period, so every laser click triggers, and a click one
        # sweep after a trigger is not binned
        m = round(F_G / f_l)
        trace = hand_made_trace([0, 1, m, m + 2, 2 * m - 1, 3 * m], f_l=f_l, n_gates=10 * m)
        hist = build_sweep_histogram(trace, sweep, 10e-9)
        assert hist.c0 == 3
        assert int(hist.bins.sum()) == 3

    def test_dead_time_gap_bins_empty(self):
        cfg = base_cfg(
            dcr_per_gate=1e-5, p_ap_internal=0.2, mu=1.0, n_gates=100_000_000
        )
        trace = run_simulation(cfg)
        hist = build_sweep_histogram(trace, 25e-6, 10e-9)
        gap = hist.bins[hist.bin_starts < 1e-6 - 1e-12]
        # the last gap bin can hold the first allowed gate (ceil rounding)
        assert gap[:-1].sum() == 0

    def test_dark_only_bins_statistically_flat(self):
        # afterpulse-free detector: bins outside the dead-time gap hold
        # memoryless dark counts; Pearson statistic vs the uniform model
        # stays below the 1% critical value (normal approximation)
        cfg = base_cfg(
            dcr_per_gate=1e-4,
            mu=1.0,
            n_gates=1_600_000_000,
            seed=17,
        )
        trace = run_simulation(cfg)
        hist = build_sweep_histogram(trace, 25e-6, 100e-9)
        sel = hist.bins[hist.bin_starts >= 1.1e-6]
        expected = sel.mean()
        assert expected > 20  # enough per-bin statistics for the chi-square
        stat = float(((sel - expected) ** 2 / expected).sum())
        dof = len(sel) - 1
        crit = dof + 2.3263 * math.sqrt(2 * dof)  # one-sided 1%
        assert stat < crit

    def test_histogram_tail_consistent_with_dark_rate(self):
        cfg = base_cfg(
            dcr_per_gate=1e-5, mu=1.0, p_ap_internal=0.1, n_gates=400_000_000,
            seed=23,
        )
        trace = run_simulation(cfg)
        hist = build_sweep_histogram(trace, 25e-6, 10e-9)
        tail = hist.bins[hist.bin_starts >= 20e-6]
        gates_per_bin = 10e-9 * F_G
        expected_total = hist.c0 * cfg.dcr_per_gate * gates_per_bin * len(tail)
        assert abs(tail.sum() - expected_total) <= 4 * math.sqrt(expected_total)

    def test_monotone_suppression_with_hold_off(self):
        # longer active hold-off drops more carriers: p_exp non-increasing
        values = []
        for tau_c in (0.2e-6, 0.5e-6, 1e-6, 2e-6):
            scheme = DeadTimeScheme(SchemeKind.LT_AR, tau_l=tau_c, tau_c=tau_c)
            cfg = base_cfg(
                scheme=scheme,
                p_ap_internal=0.2,
                dcr_per_gate=100 / F_G,
                n_gates=8_000_000_000,
                seed=29,
            )
            trace = run_simulation(cfg)
            hist = build_sweep_histogram(trace, 25e-6, 10e-9)
            bundle = estimate_custom(hist, tau_s=scheme.tau_s)
            values.append((bundle.p_exp, bundle.c0))
        for (hi, c_hi), (lo, c_lo) in zip(values, values[1:]):
            slack = 3 * math.sqrt(hi / min(c_hi, c_lo))
            assert lo <= hi + slack

    def test_click_one_period_later_opens_next_sweep(self):
        # a 20 us sweep spans exactly one 50 kHz laser period (6250 gates,
        # 6250.000000000001 as a float product): the next pulse's click
        # opens a new sweep instead of landing in the last bin
        m = 6250
        trace = hand_made_trace([0, m], f_l=5e4, n_gates=1_000_000)
        hist = build_sweep_histogram(trace, 20e-6, 10e-9)
        assert hist.c0 == 2
        assert int(hist.bins.sum()) == 0


class TestReleaseQueue:
    def test_every_carrier_is_kept(self):
        # q = 1 and a photon on every pulse: each avalanche traps a carrier
        # and each release avalanches again, so the carrier born on pulse k
        # releases about (n - k m) / tau_detrap times before the run ends,
        # with up to about 960 carriers in flight.  A queue capped at 512
        # carriers registers about 4450 avalanches here.
        n, m = 200_000, 100
        detrap_gates = n / 4
        scheme = DeadTimeScheme(SchemeKind.LT, tau_l=10e-9)
        cfg = base_cfg(
            scheme=scheme,
            n_gates=n,
            seed=1,
            f_l=F_G / m,
            mu=1e4,
            p_ap_internal=1.0,
            tau_detrap=detrap_gates / F_G,
        )
        trace = run_simulation(cfg)
        starts = np.arange(0, n, m)
        expected = len(starts) + np.sum((n - starts) / detrap_gates)
        avalanches = trace.n_clicks + trace.hidden_avalanches
        # releases merging on one gate make the count a few percent short
        assert 0.9 * expected < avalanches <= expected + 4 * math.sqrt(expected)
