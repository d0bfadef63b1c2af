"""Equivalence tests between the jitted and pure-numpy kernel paths."""

import numpy as np
import pytest

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
]


@needs_numba
@pytest.mark.parametrize("cfg", CONFIGS, ids=["lt", "lt-ar-bethune", "lt-ar-ramp"])
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
