"""Acceptance suite: eleven numbered end-to-end criteria.

Each test asserts its criterion at the stated tolerance and prints one
``criterion N: PASS`` line (run with ``pytest -s`` to see them).  Monte
Carlo criteria run on frozen seeds with statistics sized so the asserted
effect sits many standard errors from the alternative.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from afterpulse.estimators import (
    derive_all,
    estimate_bethune,
    estimate_coincidence,
    estimate_custom,
    estimate_yuan,
)
from afterpulse.fitting import FitLaw, fit_curve
from afterpulse.histio import read_histogram, write_histogram
from afterpulse.models import invert_second, p_s_from_rate
from afterpulse.simulator import (
    DeadTimeScheme,
    SchemeKind,
    SimConfig,
    build_sweep_histogram,
    fold_gate_histogram,
    run_simulation,
    stream,
)
from paper_models import (
    ModelParams,
    ascending_branch_limit,
    exact_forward,
    first_order_forward,
    invert_simple,
    merge_bins,
    monotone_p0_limit,
    p0_from_observed,
    second_order_forward,
    simple_forward,
)

F_G = 312.5e6
GRID_P0 = np.round(np.arange(1, 21) * 0.05, 10)  # 0.05 .. 1.00
GRID_PAP = np.round(np.arange(1, 11) * 0.05, 10)  # 0.05 .. 0.50

HOLD_OFF = DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.2e-6, tau_c=0.2e-6, tau_er=0.0)


def _pass(number: int, detail: str = "") -> None:
    print(f"criterion {number}: PASS {detail}".rstrip())


def sim_config(n_gates, seed, f_l=1e4, mu=1.0, q=0.10, scheme=HOLD_OFF):
    return SimConfig(
        scheme=scheme,
        n_gates=n_gates,
        seed=seed,
        f_l=f_l,
        mu=mu,
        pde=0.2,
        dcr_per_gate=100.0 / F_G,
        p_ap_internal=q,
        tau_detrap=1e-6,
    )


def custom_pipeline(cfg, sweep=25e-6, window=(20e-6, 25e-6)):
    """Simulate, histogram, estimate; returns (trace, hist, model estimate)."""
    trace = run_simulation(cfg)
    hist = build_sweep_histogram(trace, sweep, 10e-9)
    counts = estimate_custom(hist, tau_s=cfg.scheme.tau_s, window=window)
    return trace, hist, derive_all(counts.p_exp, trace.rate, cfg.scheme.tau_s)


def classical_pipeline(method, mu, n_gates, seed, q=0.10, scheme=HOLD_OFF):
    f_l = F_G / 2 if method == "bethune" else F_G / 50
    lit_cfg = sim_config(n_gates, seed, f_l=f_l, mu=mu, q=q, scheme=scheme)
    dark_cfg = replace(lit_cfg, mu=0.0, seed=stream(seed, "dark", 0))
    lit_trace = run_simulation(lit_cfg)
    dark_trace = run_simulation(dark_cfg)
    lit = fold_gate_histogram(lit_trace)
    dark = fold_gate_histogram(dark_trace)
    if method == "bethune":
        value = estimate_bethune(lit, dark)
    elif method == "yuan":
        value = estimate_yuan(lit, dark)
    else:
        value = estimate_coincidence(lit, dark)
    return value, lit_trace


def union_by_enumeration(p0, p_ap, order_max):
    """Inclusion-exclusion over all non-empty subsets of the chain events."""
    probs = [p0 * p_ap**i for i in range(order_max + 1)]
    total = 0.0
    for r in range(1, len(probs) + 1):
        sign = 1.0 if r % 2 == 1 else -1.0
        for subset in itertools.combinations(probs, r):
            total += sign * math.prod(subset)
    return total


# --- shared Monte Carlo runs (module scope keeps the suite fast) ----------


@pytest.fixture(scope="module")
def closed_loop_run():
    cfg = sim_config(2_000_000_000, seed=4)
    return cfg, *custom_pipeline(cfg)


@pytest.fixture(scope="module")
def scheme_comparison_runs():
    seeds = range(800, 848)
    out = {}
    for tau, sweep, window in (
        (1e-6, 25e-6, (20e-6, 25e-6)),
        (20e-6, 50e-6, (40e-6, 50e-6)),
    ):
        per_scheme = {}
        for kind in (SchemeKind.LT, SchemeKind.LT_AR):
            scheme = (
                DeadTimeScheme(SchemeKind.LT, tau_l=tau)
                if kind == SchemeKind.LT
                else DeadTimeScheme(SchemeKind.LT_AR, tau_l=tau, tau_c=tau, tau_er=0.0)
            )
            runs = [
                custom_pipeline(
                    sim_config(3_000_000_000, s, q=0.15, scheme=scheme),
                    sweep=sweep,
                    window=window,
                )
                for s in seeds
            ]
            per_scheme[kind] = runs
        out[tau] = per_scheme
    return out


def test_criterion_01_model_oracle_equivalence():
    for p0 in GRID_P0:
        for p_ap in GRID_PAP:
            enum = union_by_enumeration(p0, p_ap, order_max=8)
            product = exact_forward(p0, ModelParams(p_ap, order_max=8))
            assert abs(product - enum) <= 1e-12, (p0, p_ap)
            params = ModelParams(p_ap, order_max=20)
            lo = second_order_forward(p0, params)
            mid = exact_forward(p0, params)
            hi = first_order_forward(p0, params)
            assert lo <= mid + 1e-15, (p0, p_ap)
            assert mid <= hi + 1e-15, (p0, p_ap)
    _pass(1, f"({len(GRID_P0) * len(GRID_PAP)} grid cells, order-8 enumeration)")


def test_criterion_02_model_comparison_shape():
    p0s = np.linspace(0.0, 1.0, 201)

    def max_gap(p_ap):
        params = ModelParams(p_ap, order_max=20)
        return max(
            abs(second_order_forward(p, params) - exact_forward(p, params))
            for p in p0s
        )

    assert max_gap(0.1) < max_gap(0.3)
    params3 = ModelParams(0.3, order_max=20)
    firsts = np.array([first_order_forward(p, params3) for p in p0s])
    seconds = np.array([second_order_forward(p, params3) for p in p0s])
    assert firsts.max() > 1.0
    assert np.all(seconds <= 1.0 + 1e-9)
    _pass(2, f"(gap at 0.1: {max_gap(0.1):.4f} < gap at 0.3: {max_gap(0.3):.4f})")


def test_criterion_03_inversion_round_trips():
    strict = ambiguous = skipped = 0
    for p0 in GRID_P0:
        for p_ap in GRID_PAP:
            params = ModelParams(p_ap)
            # base-probability recovery for each forward model
            cases = [
                ("simple", simple_forward(p0, p_ap)),
                ("first", first_order_forward(p0, params)),
                ("second", second_order_forward(p0, params)),
            ]
            for model, total in cases:
                if total > 1.0:
                    skipped += 1  # truncation artifact, not an observable
                    continue
                if model == "second" and p0 > monotone_p0_limit(p_ap) - 1e-9:
                    # two base probabilities share this observable; the
                    # smaller solution must reproduce it exactly
                    got = p0_from_observed(total, model, p_ap)
                    assert got <= p0 + 1e-9
                    assert (
                        abs(second_order_forward(got, params) - total) <= 1e-9
                    ), (p0, p_ap)
                    ambiguous += 1
                else:
                    got = p0_from_observed(total, model, p_ap)
                    assert abs(got - p0) <= 1e-9, (model, p0, p_ap)
                    strict += 1
            # afterpulse-parameter recovery through the second-order model
            if p0 >= 1.0:
                skipped += 1  # inversion domain is p0 in (0, 1)
                continue
            total = second_order_forward(p0, params)
            p_exp = total / p0 - 1.0
            if p_exp < 0.0:
                # extreme truncation artifact: the quadratic term pushes the
                # model below the no-afterpulse value, outside the inverter's
                # domain (measured ratios are non-negative)
                skipped += 1
                continue
            if p_ap > ascending_branch_limit(p0) - 1e-9:
                got = invert_second(p_exp, p0)
                assert got <= p_ap + 1e-9
                assert (
                    abs(second_order_forward(p0, ModelParams(got)) - total) <= 1e-9
                ), (p0, p_ap)
                ambiguous += 1
            else:
                got = invert_second(p_exp, p0)
                assert abs(got - p_ap) <= 1e-9, (p0, p_ap)
                strict += 1
    _pass(
        3,
        f"({strict} strict identities; {ambiguous} non-injective cells verified "
        f"by observable identity and smallest-root; {skipped} out-of-domain)",
    )


def test_criterion_04_rate_relation_identity():
    rng = np.random.default_rng(404)
    tau = 1e-6
    for _ in range(100):
        p_exp = rng.uniform(0.0, 0.5)
        busy = rng.uniform(0.0, 0.9 * (1.0 + p_exp))
        direct = p_s_from_rate(p_exp, busy / tau, tau)
        via_base = invert_simple(p_exp, busy / (1.0 + p_exp))
        assert abs(direct - via_base) <= 1e-12
        assert p_s_from_rate(p_exp, 0.0, tau) == p_exp
    _pass(4, "(100 random points, zero-busy limit exact)")


def test_criterion_05_simulator_estimator_closed_loop(closed_loop_run):
    cfg, trace, hist, bundle = closed_loop_run
    assert cfg.n_gates == 2_000_000_000
    assert hist.c0 > 0
    # the carriers released inside the 0.2 us hold-off are lost, so p2
    # expects q * exp(-tau_c / tau_detrap).  At 2e9 gates p2 has an SD of
    # about 0.0025 over seeds: 0.01 is 4 SD, and a kernel that kept the
    # carriers through the hold-off (p2 near q = 0.10) sits 7 SD away
    expected = cfg.p_ap_internal * math.exp(-cfg.scheme.tau_c / cfg.tau_detrap)
    assert abs(bundle.p2 - expected) <= 0.01
    _pass(5, f"(p2 = {bundle.p2:.4f} vs q exp(-tau_c/tau_detrap) = {expected:.4f}, c0 = {hist.c0})")


def test_criterion_06_intensity_robustness():
    mus = (0.1, 1.0, 10.0)
    custom = [
        custom_pipeline(sim_config(n, 600 + i, mu=mu))[2].p2
        for i, (mu, n) in enumerate(
            zip(mus, (6_400_000_000, 700_000_000, 160_000_000))
        )
    ]
    classical = {
        "bethune": [
            classical_pipeline("bethune", mu, n, 610 + i)[0]
            for i, (mu, n) in enumerate(
                zip(mus, (100_000_000, 30_000_000, 10_000_000))
            )
        ],
        "yuan": [
            classical_pipeline("yuan", mu, n, 620 + i)[0]
            for i, (mu, n) in enumerate(
                zip(mus, (500_000_000, 100_000_000, 50_000_000))
            )
        ],
        "coincidence": [
            classical_pipeline("coincidence", mu, n, 630 + i)[0]
            for i, (mu, n) in enumerate(
                zip(mus, (500_000_000, 100_000_000, 50_000_000))
            )
        ],
    }

    def rel_spread(values):
        return (max(values) - min(values)) / abs(float(np.mean(values)))

    custom_spread = rel_spread(custom)
    assert custom_spread < 0.25
    for name, values in classical.items():
        assert custom_spread < rel_spread(values), name
    detail = ", ".join(
        f"{k}: {rel_spread(v):.2f}" for k, v in classical.items()
    )
    _pass(6, f"(custom spread {custom_spread:.3f}; {detail})")


def test_criterion_07_markovian_null():
    # at q = 0 every method's campaign mean is 0 within 5 standard errors,
    # and a campaign that reads one value throughout (a method stuck at 0)
    # fails.  Over other seeds the four checks together fail 0.05 % of
    # campaigns with no defect.  The Bethune values are a few counts, skew
    # 1.2, and take 40 seeds: at 20 they alone failed 0.11 %.  Yuan reads
    # exactly 0 in 57 % of runs, so all 20 of its runs read 0 once in 1e5
    campaigns = {
        "custom": [
            custom_pipeline(sim_config(400_000_000, 700 + i, q=0.0))[2].p_exp
            for i in range(20)
        ],
        "bethune": [
            classical_pipeline("bethune", 1.0, 20_000_000, seed, q=0.0)[0]
            for seed in (*range(720, 740), *range(780, 800))
        ],
        "yuan": [
            classical_pipeline("yuan", 1.0, 50_000_000, 740 + i, q=0.0)[0]
            for i in range(20)
        ],
        "coincidence": [
            classical_pipeline("coincidence", 1.0, 50_000_000, 760 + i, q=0.0)[0]
            for i in range(20)
        ],
    }
    worst = {}
    for name, values in campaigns.items():
        values = np.asarray(values)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert se > 0.0, name
        assert abs(values.mean()) <= 5.0 * se, (name, values)
        worst[name] = float(abs(values.mean()) / se)
    detail = ", ".join(f"{k}: |mean|/se={v:.2f}" for k, v in worst.items())
    _pass(7, f"({detail})")


def test_criterion_08_scheme_separation(scheme_comparison_runs):
    def p_exps(runs):
        return np.array([bundle.p_exp for _, _, bundle in runs])

    short = scheme_comparison_runs[1e-6]
    lt = p_exps(short[SchemeKind.LT])
    ar = p_exps(short[SchemeKind.LT_AR])
    se = math.sqrt(lt.var(ddof=1) / len(lt) + ar.var(ddof=1) / len(ar))
    separation = (lt.mean() - ar.mean()) / se
    assert separation >= 5.0

    # at 20 us the schemes agree.  With no defect |t| passes 3.8 with
    # probability 3e-4 at 48 seeds a scheme (Student's t, about 94 degrees
    # of freedom); a 3-standard-error bound fails 0.27 % of streams at any
    # number of seeds
    long = scheme_comparison_runs[20e-6]
    lt20 = p_exps(long[SchemeKind.LT])
    ar20 = p_exps(long[SchemeKind.LT_AR])
    se20 = math.sqrt(lt20.var(ddof=1) / len(lt20) + ar20.var(ddof=1) / len(ar20))
    assert abs(lt20.mean() - ar20.mean()) <= 3.8 * se20
    _pass(
        8,
        f"(1 us: {separation:.1f} sigma apart; 20 us: "
        f"{abs(lt20.mean() - ar20.mean()) / se20:.2f} sigma)",
    )


def test_criterion_09_dead_time_invariants(closed_loop_run, scheme_comparison_runs):
    checked = 0
    runs = [closed_loop_run[1:]]
    for per_scheme in scheme_comparison_runs.values():
        for scheme_runs in per_scheme.values():
            runs.extend(scheme_runs)
    for trace, hist, _ in runs:
        tau_s = trace.config.scheme.tau_s
        gap = hist.bins[(hist.bin_starts + hist.bin_width) <= tau_s + 1e-15]
        assert gap.sum() == 0
        if trace.n_clicks > 1:
            min_gap_s = np.diff(trace.click_gates).min() / trace.config.f_g
            assert min_gap_s >= tau_s - 1e-12  # tau_l <= tau_s in both schemes
        checked += 1
    assert checked == 193  # closed loop + 2 dead times x 2 schemes x 48 seeds
    _pass(9, f"({checked} traces/histograms checked, exact assertions)")


def test_criterion_10_fit_recovery():
    xs_us = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0, 13.0, 16.0, 20.0])
    xs = xs_us * 1e-6
    cases = {
        FitLaw.EXPONENTIAL: np.array([0.3, 0.4, 0.02]),
        FitLaw.POWER_LAW: np.array([0.05, -0.8, 0.01]),
    }
    rates = {}
    for law, truth in cases.items():
        clean = (
            truth[0] * np.exp(-truth[1] * xs_us) + truth[2]
            if law is FitLaw.EXPONENTIAL
            else truth[0] * xs_us ** truth[1] + truth[2]
        )
        noiseless = fit_curve(xs, clean, law)
        got = np.array([noiseless.a, noiseless.b, noiseless.c])
        assert np.all(np.abs(got - truth) <= 1e-6 * np.abs(truth)), law
        ok = 0
        for rep in range(100):
            rng = np.random.default_rng(3000 + rep)
            ys = clean * (1.0 + 0.02 * rng.standard_normal(len(xs)))
            # weight by the known 2% relative counting error
            res = fit_curve(xs, ys, law, sigma=0.02 * np.abs(ys))
            got = np.array([res.a, res.b, res.c])
            if np.all(np.abs(got - truth) <= 0.10 * np.abs(truth)):
                ok += 1
        assert ok >= 90, (law, ok)
        rates[law] = ok
    _pass(
        10,
        "(noiseless 1e-6; noisy "
        + ", ".join(f"{k.value}: {v}/100" for k, v in rates.items())
        + ")",
    )


def test_criterion_11_file_round_trips(tmp_path, closed_loop_run, scheme_comparison_runs):
    hists = [closed_loop_run[2]]
    hists.append(scheme_comparison_runs[1e-6][SchemeKind.LT][0][1])
    hists.append(scheme_comparison_runs[20e-6][SchemeKind.LT_AR][3][1])
    for i, hist in enumerate(hists):
        path = tmp_path / f"h{i}.csv"
        write_histogram(hist, path)
        back = read_histogram(path)
        assert np.array_equal(back.bins, hist.bins)
        assert back.c0 == hist.c0
        assert back.meta == hist.meta
        merged = merge_bins(hist, 10)
        assert int(merged.bins.sum()) == int(hist.bins.sum())
        assert merged.c0 == hist.c0
    _pass(11, f"({len(hists)} histograms: write-read identity, merge conservation)")
