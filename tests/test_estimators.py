"""Tests for the four afterpulse estimators and the model-conversion bundle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from afterpulse.estimators import (
    DegenerateDataError,
    EstimateBundle,
    GateHistogram,
    dcr_baseline,
    derive_all,
    estimate_bethune,
    estimate_coincidence,
    estimate_custom,
    estimate_yuan,
    fold_gate_histogram,
)
from afterpulse.histio import SweepHistogram, merge_bins
from afterpulse.models import (
    ModelParams,
    first_order_forward,
    second_order_forward,
    simple_forward,
)
from afterpulse.simulator import (
    DeadTimeScheme,
    SchemeKind,
    SimConfig,
    build_sweep_histogram,
    run_simulation,
)

F_G = 312.5e6


def sim(f_l, mu, seed, n_gates, scheme=None, q=0.1, dcr=100 / F_G, tau_detrap=1e-6):
    scheme = scheme or DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.2e-6, tau_c=0.2e-6)
    cfg = SimConfig(
        scheme=scheme,
        n_gates=n_gates,
        seed=seed,
        f_l=f_l,
        mu=mu,
        pde=0.2,
        dcr_per_gate=dcr,
        p_ap_internal=q,
        tau_detrap=tau_detrap,
    )
    return run_simulation(cfg)


def gate_pair(f_l, mu, seed, n_gates, **kw):
    """Ilumination + matched dark gate histograms."""
    lit = fold_gate_histogram(sim(f_l, mu, seed, n_gates, **kw))
    dark = fold_gate_histogram(sim(f_l, 0.0, seed + 9000, n_gates, **kw))
    return lit, dark


class TestGateHistogram:
    def test_fold_structure(self):
        trace = sim(F_G / 50, 1.0, 3, 10_000_000)
        hist = fold_gate_histogram(trace)
        assert hist.gates_per_period == 50
        assert hist.bins_per_gate == 10
        assert len(hist.bins) == 500
        assert hist.total_counts == trace.n_clicks
        assert hist.illuminated_gate() == 0

    def test_live_time_excludes_dead_time(self):
        bins = np.zeros(20, dtype=np.int64)
        bins[5] = 1000
        hist = GateHistogram(
            bins=bins,
            bin_width=(1 / F_G) / 10,
            period=2 / F_G,
            gates_per_period=2,
            acquisition_gates=10_000_000,
            tau_s=1e-6,
        )
        duration = 10_000_000 / F_G
        assert hist.live_time == pytest.approx(duration - 1000 * 1e-6)

    def test_invalid_structures(self):
        with pytest.raises(DegenerateDataError):
            GateHistogram(
                bins=np.zeros(7, dtype=np.int64),
                bin_width=1e-9,
                period=7e-9,
                gates_per_period=2,
                acquisition_gates=100,
            )


class TestBethune:
    def test_requires_two_gate_structure(self):
        lit, dark = gate_pair(F_G / 50, 1.0, 1, 5_000_000)
        with pytest.raises(DegenerateDataError):
            estimate_bethune(lit, dark)

    def test_dark_only_input_is_consistent_with_zero(self):
        lit = fold_gate_histogram(sim(F_G / 2, 0.0, 11, 400_000_000, dcr=1e-5))
        dark = fold_gate_histogram(sim(F_G / 2, 0.0, 12, 400_000_000, dcr=1e-5))
        est = estimate_bethune(lit, dark)
        assert abs(est) < 0.01

    def test_intensity_sensitivity_under_latching(self):
        # hidden-avalanche recycling makes the measured ratio grow with the
        # laser intensity in the latched scheme
        scheme = DeadTimeScheme(SchemeKind.LT, tau_l=0.2e-6)
        lo = estimate_bethune(*gate_pair(F_G / 2, 0.1, 5, 200_000_000, scheme=scheme))
        hi = estimate_bethune(*gate_pair(F_G / 2, 1.0, 5, 200_000_000, scheme=scheme))
        assert hi > lo > 0


class TestYuan:
    def test_non_integer_ratio_rejected(self):
        lit, dark = gate_pair(F_G / 50, 1.0, 2, 5_000_000)
        with pytest.raises(DegenerateDataError):
            estimate_yuan(lit, dark, F_G, F_G / 49.5)

    def test_no_afterpulse_is_consistent_with_zero(self):
        lit, dark = gate_pair(F_G / 50, 1.0, 4, 400_000_000, q=0.0, dcr=1e-5)
        est = estimate_yuan(lit, dark, F_G, F_G / 50, ni_gate_index=40)
        assert abs(est) < 0.05  # scaled by f_g/f_l = 50, noise included

    def test_later_gate_gives_smaller_estimate(self):
        # release density decays over the gates after the trigger
        scheme = DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.1e-6, tau_c=0.1e-6)
        lit, dark = gate_pair(
            F_G / 50, 1.0, 6, 400_000_000, scheme=scheme, q=0.3, tau_detrap=0.05e-6
        )
        early = estimate_yuan(lit, dark, F_G, F_G / 50, ni_gate_index=33)
        late = estimate_yuan(lit, dark, F_G, F_G / 50, ni_gate_index=45)
        assert early > late > 0

    def test_intensity_sensitivity(self):
        lo = estimate_yuan(*gate_pair(F_G / 50, 0.1, 7, 500_000_000), F_G, F_G / 50)
        hi = estimate_yuan(*gate_pair(F_G / 50, 1.0, 7, 100_000_000), F_G, F_G / 50)
        assert abs(hi - lo) > 0.25 * max(abs(hi), abs(lo))


class TestCoincidence:
    def test_dark_only_noise_is_consistent_with_zero(self):
        lit, dark = gate_pair(F_G / 50, 1.0, 8, 400_000_000, q=0.0, dcr=1e-5)
        est = estimate_coincidence(lit, dark, F_G, F_G / 50)
        assert abs(est) < 0.01

    def test_all_coincident_clicks_give_exact_zero(self):
        # no dark counts, no afterpulses: every click sits in the laser gate
        lit, dark = gate_pair(F_G / 50, 1.0, 9, 50_000_000, q=0.0, dcr=0.0)
        assert estimate_coincidence(lit, dark, F_G, F_G / 50) == 0.0

    def test_intensity_sensitivity(self):
        values = [
            estimate_coincidence(
                *gate_pair(F_G / 50, mu, 10, n), F_G, F_G / 50
            )
            for mu, n in ((0.1, 500_000_000), (1.0, 100_000_000), (10.0, 50_000_000))
        ]
        spread = (max(values) - min(values)) / np.mean(values)
        assert spread > 0.25


@pytest.mark.parametrize("estimate", [estimate_yuan, estimate_coincidence])
def test_laser_rate_must_match_the_folded_period(estimate):
    # a 50-gate fold read with f_l = f_g/2, as a wrong f_l_hz metadata entry
    # would give it, is refused rather than scaled by the wrong period
    lit, dark = gate_pair(F_G / 50, 1.0, 2, 5_000_000)
    with pytest.raises(DegenerateDataError, match="gates per period"):
        estimate(lit, dark, F_G, F_G / 2)


def make_sweep(bins, bin_width=10e-9, c0=1000):
    bins = np.asarray(bins, dtype=np.int64)
    return SweepHistogram(
        bin_width=bin_width, sweep=bin_width * len(bins), bins=bins, c0=c0
    )


class TestDcrBaseline:
    def test_all_zero(self):
        h = make_sweep(np.zeros(2500))
        assert dcr_baseline(h, (20e-6, 25e-6)) == 0.0

    def test_flat_histogram(self):
        h = make_sweep(np.full(2500, 7))
        assert dcr_baseline(h, (20e-6, 25e-6)) == 7.0

    def test_empty_window_error(self):
        h = make_sweep(np.zeros(2500))
        with pytest.raises(DegenerateDataError):
            dcr_baseline(h, (30e-6, 40e-6))

    def test_simulated_tail_matches_dark_rate(self):
        trace = sim(1e4, 1.0, 31, 2_000_000_000, q=0.1, dcr=1e-5)
        h = build_sweep_histogram(trace, 25e-6, 10e-9)
        c_dcr = dcr_baseline(h, (20e-6, 25e-6))
        expected = h.c0 * 1e-5 * (10e-9 * F_G)
        n_bins = 500
        sigma = math.sqrt(expected / n_bins)
        assert abs(c_dcr - expected) <= 4 * sigma


class TestEstimateCustom:
    def test_flat_tail_gives_zero(self):
        # every post-dead-time bin equals the baseline: no afterpulse signal
        bins = np.full(2500, 5, dtype=np.int64)
        bins[:21] = 0  # dead-time gap, excluded from the sum
        h = make_sweep(bins)
        bundle = estimate_custom(h, tau_s=0.21e-6)
        assert bundle.c_ap == pytest.approx(0.0, abs=1e-9)
        assert bundle.p_exp == pytest.approx(0.0, abs=1e-12)
        assert not bundle.negative_ap_warning

    def test_requires_triggers(self):
        h = make_sweep(np.zeros(2500), c0=0)
        with pytest.raises(DegenerateDataError):
            estimate_custom(h, tau_s=0.21e-6)

    def test_rebinning_invariance(self):
        trace = sim(1e4, 1.0, 32, 400_000_000)
        h = build_sweep_histogram(trace, 25e-6, 10e-9)
        before = estimate_custom(h, tau_s=0.2e-6, window=(20e-6, 25e-6))
        merged = merge_bins(h, 10)
        after = estimate_custom(merged, tau_s=0.2e-6, window=(20e-6, 25e-6))
        assert after.p_exp == pytest.approx(before.p_exp, abs=1e-12)

    def test_recovers_model_prediction(self):
        # tau_s = 0.21 us quantizes to 66 gates; carriers releasing inside
        # are dropped by the active reset, the survivors cascade
        tau_s = 0.21e-6
        scheme = DeadTimeScheme(SchemeKind.LT_AR, tau_l=tau_s, tau_c=tau_s)
        trace = sim(1e4, 1.0, 33, 4_000_000_000, scheme=scheme)
        h = build_sweep_histogram(trace, 25e-6, 10e-9)
        bundle = estimate_custom(h, tau_s=tau_s)
        dead_gates = math.ceil(tau_s * F_G - 1e-9)
        x = 0.1 * math.exp(-(dead_gates - 1) / (1e-6 * F_G))
        predicted = x / (1.0 - x)
        sigma = math.sqrt(predicted / h.c0)
        assert abs(bundle.p_exp - predicted) <= 3.5 * sigma

    def test_tau_reaching_baseline_window_rejected(self):
        # the afterpulse region would be the baseline window itself, whose
        # dark-subtracted sum is identically zero
        h = make_sweep(np.full(2500, 5, dtype=np.int64))
        with pytest.raises(DegenerateDataError, match="baseline window"):
            estimate_custom(h, tau_s=20e-6, window=(20e-6, 25e-6))
        with pytest.raises(DegenerateDataError, match="baseline window"):
            estimate_custom(h, tau_s=22e-6, window=(20e-6, 25e-6))
        estimate_custom(h, tau_s=19.99e-6, window=(20e-6, 25e-6))

    def test_negative_warning_state(self):
        bins = np.zeros(2500, dtype=np.int64)
        bins[2000:] = 100  # inflated baseline window
        h = make_sweep(bins)
        bundle = estimate_custom(h, tau_s=0.21e-6)
        assert bundle.negative_ap_warning
        assert bundle.c_ap < 0

    def test_normalized_tails_agree_across_acquisition_lengths(self):
        # same process, different acquisition times: after trigger-count
        # normalization the dark-dominated tails coincide within noise
        tails = []
        for n_gates, seed in ((800_000_000, 41), (2_400_000_000, 42)):
            trace = sim(1e4, 1.0, seed, n_gates, q=0.1, dcr=1e-5)
            h = build_sweep_histogram(trace, 25e-6, 10e-9)
            c_dcr = dcr_baseline(h, (20e-6, 25e-6))
            norm = h.bins / (h.c0 - c_dcr)
            mask = h.bin_starts >= 20e-6
            mean_tail = norm[mask].mean()
            counts = h.bins[mask].sum()
            sigma = math.sqrt(max(counts, 1)) / (len(norm[mask]) * (h.c0 - c_dcr))
            tails.append((mean_tail, sigma))
        (m1, s1), (m2, s2) = tails
        assert abs(m1 - m2) <= 3 * math.hypot(s1, s2)


class TestDeriveAll:
    def test_zero_ratio(self):
        bundle = derive_all(0.0, rate=1e5, tau_s=1e-6)
        assert bundle.p_s == bundle.p1 == bundle.p2 == 0.0

    def test_negative_ratio_is_floored(self):
        # the model parameters sit at the floor; the measured ratio is kept
        bundle = derive_all(-0.01, rate=1e5, tau_s=1e-6)
        zero = derive_all(0.0, rate=1e5, tau_s=1e-6)
        assert bundle.p_exp == -0.01
        assert (bundle.p_s, bundle.p1, bundle.p2, bundle.p_universal) == (
            zero.p_s,
            zero.p1,
            zero.p2,
            zero.p_universal,
        )
        assert bundle.meta == zero.meta

    def test_bundle_is_immutable(self):
        bundle = derive_all(0.1, rate=1e5, tau_s=1e-6)
        with pytest.raises(AttributeError):
            bundle.p_exp = 0.2

    def test_low_busy_limit(self):
        bundle = derive_all(0.1, rate=1e-6, tau_s=1e-6)
        assert bundle.p_s == pytest.approx(0.1, abs=1e-9)
        assert bundle.p1 == pytest.approx(0.1 / 1.1, abs=1e-9)
        assert bundle.p2 == pytest.approx(bundle.p1, abs=1e-9)

    def test_bundle_round_trip_consistency(self):
        bundle = derive_all(0.15, rate=2e5, tau_s=1e-6)  # busy = 0.2
        p0 = bundle.meta["p0"]
        p_n = bundle.meta["p_n"]
        assert simple_forward(p0, bundle.p_s) == pytest.approx(p_n, abs=1e-9)
        assert first_order_forward(p0, ModelParams(bundle.p1)) == pytest.approx(
            p_n, abs=1e-9
        )
        assert second_order_forward(p0, ModelParams(bundle.p2)) == pytest.approx(
            p_n, abs=1e-9
        )

    def test_parameter_ordering_on_grid(self):
        for p_exp in np.linspace(0.01, 0.5, 8):
            for busy in np.linspace(0.01, 0.5, 8):
                bundle = derive_all(p_exp, rate=busy / 1e-6, tau_s=1e-6)
                assert bundle.p1 < p_exp < bundle.p_s
                assert bundle.p1 <= bundle.p2 <= bundle.p_s

    def test_markovian_null_all_estimators(self):
        # one spot check per estimator; the acceptance suite runs the
        # 10-seed campaign
        trace = sim(1e4, 1.0, 34, 400_000_000, q=0.0)
        h = build_sweep_histogram(trace, 25e-6, 10e-9)
        custom = estimate_custom(h, tau_s=0.2e-6)
        assert abs(custom.p_exp) < 0.01
        lit, dark = gate_pair(F_G / 2, 1.0, 35, 50_000_000, q=0.0, dcr=1e-5)
        assert abs(estimate_bethune(lit, dark)) < 0.01
