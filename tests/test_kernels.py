"""Kernel tests: the jitted and pure-numpy paths agree, and the helpers hold."""

import numpy as np
import pytest
from scipy import stats

from afterpulse import _kernels
from afterpulse.simulator import DeadTimeScheme, SchemeKind, SimConfig, gate_loop_args

needs_numba = pytest.mark.skipif(not _kernels.USING_NUMBA, reason="numba unavailable")


CONFIGS = [
    SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT, tau_l=1e-6),
        n_gates=2_000_000,
        seed=1,
        f_l=1e5,
        mu=0.5,
        dcr_per_gate=1e-6,
        p_ap_internal=0.2,
        tau_detrap=1e-6,
    ),
    SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.2e-6, tau_c=0.2e-6),
        n_gates=2_000_000,
        seed=7,
        f_l=312.5e6 / 2,
        mu=0.1,
        dcr_per_gate=3.2e-7,
        p_ap_internal=0.1,
        tau_detrap=0.5e-6,
    ),
    SimConfig(
        scheme=DeadTimeScheme(
            SchemeKind.LT_AR, tau_l=7.8e-6, tau_c=7.5e-6, tau_er=2.5e-6
        ),
        n_gates=5_000_000,
        seed=42,
        f_l=1e5,
        mu=2.0,
        dcr_per_gate=1e-6,
        p_ap_internal=0.3,
        tau_detrap=3e-6,
    ),
    # half-rate laser at mu = 10: nearly every gate of a latch window fires,
    # the thinned stream and about 30 pending releases are in play
    SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT, tau_l=0.2e-6),
        n_gates=500_000,
        seed=3,
        f_l=312.5e6 / 2,
        mu=10.0,
        dcr_per_gate=1e-6,
        p_ap_internal=0.2,
        tau_detrap=1e-6,
    ),
    SimConfig(
        scheme=DeadTimeScheme(
            SchemeKind.LT_AR, tau_l=0.2e-6, tau_c=0.5e-6, tau_er=0.3e-6, ramp="step"
        ),
        n_gates=2_000_000,
        seed=11,
        f_l=312.5e6 / 2,
        mu=1.0,
        dcr_per_gate=1e-6,
        p_ap_internal=0.2,
        tau_detrap=0.5e-6,
    ),
]
IDS = ["lt", "lt-ar-bethune", "lt-ar-ramp", "lt-dense", "lt-ar-step"]


@needs_numba
@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_jit_and_python_paths_bit_identical(cfg):
    args = gate_loop_args(cfg)
    clicks_j, hidden_j = _kernels.gate_loop_jit(*args)
    clicks_p, hidden_p = _kernels.gate_loop_python(*args)
    assert np.array_equal(clicks_j, clicks_p)
    assert hidden_j == hidden_p


@needs_numba
def test_sweep_scan_paths_agree():
    cfg = CONFIGS[0]
    clicks, _ = _kernels.gate_loop(*gate_loop_args(cfg))
    args = (clicks, cfg.gates_per_pulse, 25e-6 * cfg.f_g, 10e-9 * cfg.f_g, 2500)
    bins_j, c0_j = _kernels.sweep_scan(*args)
    bins_p, c0_p = _kernels._sweep_scan_impl(*args)
    assert np.array_equal(bins_j, bins_p)
    assert c0_j == c0_p


def test_python_path_deterministic():
    args = gate_loop_args(CONFIGS[0])
    out1 = _kernels.gate_loop_python(*args)
    out2 = _kernels.gate_loop_python(*args)
    assert np.array_equal(out1[0], out2[0])


def test_releases_on_one_gate_make_one_avalanche():
    # a photon on every 4th gate, q = 1 and a 2-gate mean detrap delay:
    # every avalanche queues a release 1, 2, 3, ... gates later, and the
    # chains from successive pulses release on the same gate about once in
    # nine gates.  With a one-gate dead time every avalanche registers, so
    # a gate with several releases must register once.
    cfg = SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT, tau_l=1 / 312.5e6),
        n_gates=40_000,
        seed=5,
        f_l=312.5e6 / 4,
        mu=1e4,
        p_ap_internal=1.0,
        tau_detrap=2 / 312.5e6,
    )
    clicks, hidden = _kernels.gate_loop_python(*gate_loop_args(cfg))
    assert hidden == 0
    assert np.all(np.diff(clicks) > 0)
    # every laser gate clicks, and so does about every other gate
    assert np.all(np.isin(np.arange(0, cfg.n_gates, 4), clicks))
    assert clicks.size > cfg.n_gates // 2


@pytest.mark.parametrize("n,p", [(7, 0.5), (100_000, 0.3), (10**9, 3e-7)])
def test_binomial_draws_follow_the_binomial(n, p):
    draws = []
    with np.errstate(over="ignore"):  # the generator's state wraps around
        s = _kernels._splitmix64(np.uint64(7))
        for _ in range(2000):
            s, x = _kernels._binomial(s, n, p)
            draws.append(x)
    # classes at the binomial's own quantiles
    edges = np.unique(stats.binom.ppf(np.linspace(0.05, 0.95, 10), n, p))
    observed = np.bincount(np.searchsorted(edges, draws), minlength=edges.size + 1)
    expected = np.diff(np.concatenate([[0.0], stats.binom.cdf(edges, n, p), [1.0]]))
    assert stats.chisquare(observed, expected * len(draws)).pvalue > 1e-4
