"""Equivalence tests between the jitted and pure-numpy kernel paths."""

from dataclasses import replace

import numpy as np
import pytest

from afterpulse import _kernels
from afterpulse.simulator import DeadTimeScheme, SchemeKind, SimConfig, gate_loop_args

needs_numba = pytest.mark.skipif(
    not _kernels.HAVE_NUMBA, reason="numba unavailable or disabled"
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
]


@needs_numba
@pytest.mark.parametrize("cfg", CONFIGS, ids=["lt", "lt-ar-bethune", "lt-ar-ramp"])
def test_jit_and_python_paths_bit_identical(cfg):
    args = gate_loop_args(cfg)
    clicks_j, hidden_j, dropped_j = _kernels.gate_loop_jit(*args)
    clicks_p, hidden_p, dropped_p = _kernels.gate_loop_python(*args)
    assert np.array_equal(clicks_j, clicks_p)
    assert hidden_j == hidden_p
    assert dropped_j == dropped_p


@needs_numba
def test_sweep_scan_paths_agree():
    cfg = CONFIGS[0]
    clicks, _, _ = _kernels.gate_loop(*gate_loop_args(cfg))
    args = (clicks, cfg.gates_per_pulse, 25e-6 * cfg.f_g, 10e-9 * cfg.f_g, 2500)
    bins_j, c0_j = _kernels._sweep_scan_jit(*args)
    bins_p, c0_p = _kernels._sweep_scan_impl(*args)
    assert np.array_equal(bins_j, bins_p)
    assert c0_j == c0_p


def test_python_path_deterministic():
    args = gate_loop_args(CONFIGS[0])
    out1 = _kernels.gate_loop_python(*args)
    out2 = _kernels.gate_loop_python(*args)
    assert np.array_equal(out1[0], out2[0])


def test_disable_env_var_switches_default(subprocess_env):
    import pickle
    import subprocess
    import sys

    cfg = replace(CONFIGS[0], n_gates=200_000)
    code = (
        "import os; os.environ['AFTERPULSE_NO_NUMBA'] = '1'\n"
        "from afterpulse import _kernels\n"
        "assert not _kernels.USING_NUMBA\n"
        "assert not _kernels.HAVE_NUMBA\n"
        "import pickle\n"
        "from afterpulse.simulator import gate_loop_args\n"
        f"cfg = pickle.loads(bytes.fromhex({pickle.dumps(cfg).hex()!r}))\n"
        "clicks, hidden, dropped = _kernels.gate_loop(*gate_loop_args(cfg))\n"
        "print(clicks.tolist(), hidden, dropped)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env
    )
    assert proc.returncode == 0, proc.stderr
    # same draws through the in-process (possibly jitted) path
    clicks, hidden, dropped = _kernels.gate_loop(*gate_loop_args(cfg))
    assert proc.stdout.strip() == f"{clicks.tolist()} {hidden} {dropped}"
    assert len(clicks) > 0
