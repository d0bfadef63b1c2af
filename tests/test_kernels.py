"""Kernel tests: pinned click trains, the block stream against a scalar
reference, and the helpers."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats

from afterpulse import _kernels
from afterpulse.simulator import (
    DeadTimeScheme,
    SchemeKind,
    SimConfig,
    build_sweep_histogram,
    gate_loop_args,
    run_simulation,
)


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
    # a 0.5 us hold-off whose efficiency steps back after a 0.3 us recovery
    # is a 0.8 us hold-off: this train was pinned as that step
    SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.2e-6, tau_c=0.5e-6 + 0.3e-6),
        n_gates=2_000_000,
        seed=11,
        f_l=312.5e6 / 2,
        mu=1.0,
        dcr_per_gate=1e-6,
        p_ap_internal=0.2,
        tau_detrap=0.5e-6,
    ),
]
IDS = ["lt", "lt-ar-bethune", "lt-ar-ramp", "lt-dense", "lt-ar-long-hold"]

# 2**64 - 0x9E3779B97F4A7C15: splitmix64 maps this seed to the state 0,
# which the kernel replaces by the splitmix64 increment
ZERO_STATE_SEED = 0x61C8864680B583EB

# the CONFIGS plus edge cases, each with the sha256 of its click train's
# bytes followed by its hidden count in decimal
PINNED = {
    **dict(zip(IDS, CONFIGS)),
    "q0": dataclasses.replace(CONFIGS[1], p_ap_internal=0.0),
    "q1": dataclasses.replace(CONFIGS[0], n_gates=200_000, p_ap_internal=1.0),
    "p-photon-1": dataclasses.replace(CONFIGS[4], n_gates=200_000, mu=200.0),
    "laser-every-gate": dataclasses.replace(
        CONFIGS[3], n_gates=200_000, f_l=312.5e6, mu=0.05
    ),
    "no-dark": dataclasses.replace(CONFIGS[2], dcr_per_gate=0.0),
    "zero-state-seed": dataclasses.replace(CONFIGS[3], seed=ZERO_STATE_SEED),
    # deadtime-sweep's regime: a 10 kHz laser under active reset, with laser
    # clicks a period apart, four sweeps
    "lt-ar-10khz": SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.5e-6, tau_c=0.5e-6),
        n_gates=250_000_000,
        seed=16,
        f_l=1e4,
        mu=2.0,
        dcr_per_gate=3.2e-7,
        p_ap_internal=0.1,
        tau_detrap=1e-6,
    ),
}
DIGESTS = {
    "lt": "df2d9066313dff3c6647aa61c28b0bb72e83dd2fc823c883112440b98f89a3d9",
    "lt-ar-bethune": "b1132f762ee000912e6ba5e9311fca0d8128fe10b14f2498f136e9750474d1df",
    "lt-ar-ramp": "48e0438664c35ed8cfbcd21491125b25a06d01fdd4c98d1d5a58f1ce1a44baf3",
    "lt-dense": "e02d65907ad4e403d19fa589f59ee63e6505a3425bbbab6d86a6b002df7c23b6",
    "lt-ar-long-hold": "4d084b9a4c4c8247e904266f48f8abe06b2d3d2ad3d08d069e0a1b91ed121600",
    "q0": "cf279b212d8df360503ae58ed9b701c8a9f185ac281e92b70fb2d52cde16a3f9",
    "q1": "e5159325602239f6773dd9f2840112a4654c1e6162613c93e084fe5faf8f1cd2",
    "p-photon-1": "20d2c64234190c848406c64f822a691638a53a9fee10e24cd6f3c4eb00980ccb",
    "laser-every-gate": "3cb98a4be3a5f45854b5849805de110a6e59b3e59e4308c52667c185d85bcf5e",
    "no-dark": "8fed771ace66b87b07a7f55c2c20f9ebe92c9731c1698a8c630477ff5cac9744",
    "zero-state-seed": "8af42702b47d9b3ee73c46eabdbb257dd444f322d790f205a203cf4222226f67",
    "lt-ar-10khz": "0a0296a21df01d22b796763b1672f5a2016841d37f5381760ad6a3ec6af61174",
}
# the sha256 of the "lt-ar-10khz" run's sweep histogram (the CLI's 25 us
# sweep in 10 ns bins): its bins' bytes followed by c0 in decimal
SWEEP_DIGEST = "85be85eb864bc1296b357096cf3a59cc8900a61f87ba5182bbd5a979a8eecde5"


def test_python_path_deterministic():
    args = gate_loop_args(CONFIGS[0])
    out1 = _kernels.gate_loop(*args)
    out2 = _kernels.gate_loop(*args)
    assert np.array_equal(out1[0], out2[0])


def test_click_train_is_an_owned_int64_array():
    # no photons and no dark counts: no event at all, so no click
    silent = dataclasses.replace(CONFIGS[0], mu=0.0, dcr_per_gate=0.0)
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(silent))
    assert clicks.dtype == np.int64 and clicks.shape == (0,)
    assert hidden == 0
    # a train is never a view on the kernel's click buffer
    clicks, _ = _kernels.gate_loop(*gate_loop_args(CONFIGS[0]))
    assert clicks.size > 0
    assert clicks.flags.owndata and clicks.flags.writeable


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
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(cfg))
    assert hidden == 0
    assert np.all(np.diff(clicks) > 0)
    # every laser gate clicks, and so does about every other gate
    assert np.all(np.isin(np.arange(0, cfg.n_gates, 4), clicks))
    assert clicks.size > cfg.n_gates // 2


@pytest.mark.parametrize("n,p", [(7, 0.5), (100_000, 0.3), (10**9, 3e-7)])
def test_binomial_draws_follow_the_binomial(n, p):
    stream = _kernels._draws(_kernels._splitmix64(7))
    draws = [_kernels._binomial(stream, n, p) for _ in range(2000)]
    # classes at the binomial's own quantiles
    edges = np.unique(stats.binom.ppf(np.linspace(0.05, 0.95, 10), n, p))
    observed = np.bincount(np.searchsorted(edges, draws), minlength=edges.size + 1)
    expected = np.diff(np.concatenate([[0.0], stats.binom.cdf(edges, n, p), [1.0]]))
    assert stats.chisquare(observed, expected * len(draws)).pvalue > 1e-4


def _digest(clicks, hidden):
    h = hashlib.sha256(np.ascontiguousarray(clicks, dtype="<i8").tobytes())
    h.update(str(int(hidden)).encode("ascii"))
    return h.hexdigest()


def test_pinned_configs_cover_the_edge_cases():
    assert PINNED["p-photon-1"].p_photon == 1.0
    assert PINNED["laser-every-gate"].gates_per_pulse == 1
    assert _kernels._splitmix64(ZERO_STATE_SEED) == 0
    # the laser period outlasts the 25 us sweep, so every laser click triggers
    assert 1.0 / PINNED["lt-ar-10khz"].f_l > 25e-6


@pytest.mark.parametrize("name", list(PINNED))
def test_gate_loop_output_is_pinned(name):
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(PINNED[name]))
    assert clicks.dtype == np.int64
    assert _digest(clicks, hidden) == DIGESTS[name]


def test_sweep_histogram_is_pinned():
    hist = build_sweep_histogram(run_simulation(PINNED["lt-ar-10khz"]), 25e-6, 10e-9)
    assert hist.bins.dtype == np.int64
    assert _digest(hist.bins, hist.c0) == SWEEP_DIGEST


def _nudged_draw_pairs(toward):
    """``_kernels._draw_pairs`` with every log one ulp off, toward ``toward``."""
    draw_pairs = _kernels._draw_pairs

    def nudged(states):
        u, logs = zip(*draw_pairs(states))
        return zip(u, np.nextafter(logs, toward).tolist())

    return nudged


@pytest.mark.parametrize("toward", [np.inf, -np.inf], ids=["up", "down"])
def test_pinned_trains_hold_with_every_log_one_ulp_off(monkeypatch, toward):
    # numpy's log may differ from libm's in its last bit, and a train reads a
    # log only through int() or ceil() of a scaled value: no pinned train may
    # lean on the last bit of any log
    monkeypatch.setattr(_kernels, "_draw_pairs", _nudged_draw_pairs(toward))
    for name, cfg in PINNED.items():
        clicks, hidden = _kernels.gate_loop(*gate_loop_args(cfg))
        assert _digest(clicks, hidden) == DIGESTS[name], name
    hist = build_sweep_histogram(run_simulation(PINNED["lt-ar-10khz"]), 25e-6, 10e-9)
    assert _digest(hist.bins, hist.c0) == SWEEP_DIGEST


@pytest.mark.parametrize("n_draws,n_jumps", [(2000, 12), (4097, 14)])
def test_stream_start_up_makes_one_jump_per_doubling(monkeypatch, n_draws, n_jumps):
    # one jump for the first state, then one per doubling of the states
    # drawn (T^n of the first n), then one per full block of 4096
    _kernels._jump_tables()  # built once per process, by jumps of its own
    jump, calls = _kernels._jump, []

    def spy(tab, states):
        calls.append(len(states))
        return jump(tab, states)

    monkeypatch.setattr(_kernels, "_jump", spy)
    draws = _kernels._draws(_kernels._splitmix64(5))
    for _ in range(n_draws):
        next(draws)
    assert calls == [1] + [2**i for i in range(n_jumps - 1)]


def test_block_stream_draws_the_scalar_stream():
    # the scalar xorshift64* steps, on Python ints, against the block
    # stream: the doubling start-up (blocks of 1, 1, 2, ..., 2048 states) and
    # then three full blocks and a few draws of a fourth, so three full-block
    # edges.  The scalar log is numpy's of one element, which has the same
    # bits as inside a block
    mask = (1 << 64) - 1

    def step(s):
        s ^= s >> 12
        s = (s ^ (s << 25)) & mask
        s ^= s >> 27
        return s, (s * 0x2545F4914F6CDD1D) & mask

    def uniform(s):
        s, x = step(s)
        return s, float(x >> 11) * 2.0**-53

    def log_uniform(s, scale):
        s, x = step(s)
        return s, scale * float(np.log((float(x >> 12) + 0.5) * 2.0**-52))

    cap = 2**_kernels._BLOCK_LEVELS
    n_draws = cap + 3 * cap + 5
    scales = (-1.0, -3.7e3)
    scalar, block = [], []
    s = _kernels._splitmix64(2024)
    draws = _kernels._draws(s)
    for k in range(n_draws):
        kind = k % 3
        if kind == 0:
            s, a = uniform(s)
            b = next(draws)[0]
        else:
            s, a = log_uniform(s, scales[kind - 1])
            b = scales[kind - 1] * next(draws)[1]
        scalar.append(a)
        block.append(b)
    scalar, block = np.array(scalar), np.array(block)
    assert np.array_equal(scalar, block)
    assert np.all((scalar[0::3] >= 0.0) & (scalar[0::3] < 1.0))
    assert np.all(scalar[1::3] > 0.0) and np.all(scalar[2::3] > 0.0)
