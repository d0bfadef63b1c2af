"""Discrete-event Monte Carlo of a sine-gated single-photon detector.

The detector is armed only on a periodic gate grid.  Laser pulses are
aligned to every ``f_g / f_l``-th gate and their Poisson photon statistics
are folded into a per-gate click probability ``1 - exp(-mu * pde)``.  Each
avalanche may fill a charge trap (probability ``p_ap_internal``) whose
carrier is released after an exponential delay and retriggers the armed
detector, producing afterpulses.  Two dead-time circuits are modelled:

* ``LT``    -- the comparator is latched for ``tau_l`` after a registered
  click, but the bias stays high, so avalanches keep growing unseen
  (counted as hidden) and keep refilling traps;
* ``LT_AR`` -- the bias is actively dropped for ``tau_c`` (no avalanches,
  pending carriers are lost) and detection efficiency recovers over
  ``tau_er`` after the bias is restored, optionally as a linear ramp.

Events are resolved on the gate grid; trap-release instants are continuous
but take effect at the next gate.  A run is deterministic for a fixed seed
and simulations with independent configs are safe to run concurrently.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from .histio import SweepHistogram

__all__ = [
    "SchemeKind",
    "DeadTimeScheme",
    "SimConfig",
    "ClickTrace",
    "SimulationConfigError",
    "run_simulation",
    "gate_loop_args",
    "build_sweep_histogram",
]


class SimulationConfigError(ValueError):
    """A simulation configuration violates an invariant."""


class SchemeKind(str, Enum):
    LT = "lt"
    LT_AR = "lt-ar"


@dataclass(frozen=True)
class DeadTimeScheme:
    """Dead-time circuit behaviour.

    ``tau_l`` is the comparator latching time.  For ``LT_AR``, ``tau_c`` is
    the active bias hold-off and ``tau_er`` the post-reset recovery
    interval; the efficiency ramps 0 -> 1 over [tau_c, tau_c + tau_er]
    (``ramp="linear"``) or jumps at tau_c (``ramp="step"``).
    """

    kind: SchemeKind
    tau_l: float
    tau_c: float = 0.0
    tau_er: float = 0.0
    ramp: str = "linear"

    def __post_init__(self) -> None:
        if self.tau_l <= 0.0:
            raise SimulationConfigError(f"tau_l must be > 0, got {self.tau_l!r}")
        if self.kind == SchemeKind.LT_AR:
            if self.tau_c <= 0.0:
                raise SimulationConfigError(
                    f"tau_c must be > 0 for {self.kind.value}, got {self.tau_c!r}"
                )
            if self.tau_er < 0.0:
                raise SimulationConfigError(
                    f"tau_er must be >= 0, got {self.tau_er!r}"
                )
        if self.ramp not in ("linear", "step"):
            raise SimulationConfigError(
                f"ramp must be 'linear' or 'step', got {self.ramp!r}"
            )

    @property
    def tau_s(self) -> float:
        """Statistical dead time: earliest possible click-to-click spacing."""
        if self.kind == SchemeKind.LT:
            return self.tau_l
        return max(self.tau_l, self.tau_c)


@dataclass(frozen=True)
class SimConfig:
    """Full detector + source description for one simulation run."""

    scheme: DeadTimeScheme
    n_gates: int
    seed: int
    f_g: float = 312.5e6
    f_l: float = 1e4
    mu: float = 1.0
    pde: float = 0.2
    dcr_per_gate: float = 0.0
    p_ap_internal: float = 0.0
    tau_detrap: float = 1e-6

    def __post_init__(self) -> None:
        if self.f_g <= 0 or self.f_l <= 0:
            raise SimulationConfigError("f_g and f_l must be positive")
        if self.f_l > self.f_g:
            raise SimulationConfigError(
                f"f_l = {self.f_l!r} must not exceed f_g = {self.f_g!r}"
            )
        ratio = self.f_g / self.f_l
        if abs(ratio - round(ratio)) > 1e-6:
            raise SimulationConfigError(
                f"f_g must be an integer multiple of f_l (f_g/f_l = {ratio!r})"
            )
        for name in ("mu", "pde", "dcr_per_gate", "p_ap_internal"):
            value = getattr(self, name)
            if value < 0.0:
                raise SimulationConfigError(f"{name} must be >= 0, got {value!r}")
        if self.pde > 1.0 or self.dcr_per_gate > 1.0 or self.p_ap_internal > 1.0:
            raise SimulationConfigError("probabilities must be <= 1")
        if self.tau_detrap <= 0.0:
            raise SimulationConfigError(
                f"tau_detrap must be > 0, got {self.tau_detrap!r}"
            )
        if self.n_gates < 1:
            raise SimulationConfigError(f"n_gates must be >= 1, got {self.n_gates}")
        if not 0 <= self.seed < 2**63:
            raise SimulationConfigError(
                f"seed must be a non-negative 63-bit integer, got {self.seed}"
            )

    @property
    def gates_per_pulse(self) -> int:
        return int(round(self.f_g / self.f_l))

    @property
    def p_photon(self) -> float:
        """Per-gate click probability on laser-aligned gates."""
        return -math.expm1(-self.mu * self.pde)

    @property
    def duration(self) -> float:
        return self.n_gates / self.f_g

    def config_digest(self) -> str:
        text = repr(self)
        return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


@dataclass
class ClickTrace:
    """Registered comparator clicks from one run, on the gate grid."""

    click_gates: np.ndarray
    f_g: float
    gates_per_pulse: int
    total_gates: int
    hidden_avalanches: int
    tau_s: float
    config: SimConfig | None = field(default=None, repr=False)

    @property
    def n_clicks(self) -> int:
        return int(len(self.click_gates))

    @property
    def duration(self) -> float:
        return self.total_gates / self.f_g

    @property
    def rate(self) -> float:
        """Total registered click rate over the run, in Hz."""
        return self.n_clicks / self.duration


def _span_gates(span: float, f_g: float) -> int:
    """Whole gates a time span covers, at least one, forgiving float noise."""
    return max(1, math.ceil(span * f_g - 1e-9))


def gate_loop_args(cfg: SimConfig) -> tuple:
    """Arguments of ``_kernels.gate_loop`` for one run, in gate units."""
    scheme = cfg.scheme
    is_lt = scheme.kind == SchemeKind.LT
    return (
        cfg.n_gates,
        cfg.gates_per_pulse,
        cfg.p_photon,
        cfg.dcr_per_gate,
        cfg.p_ap_internal,
        cfg.tau_detrap * cfg.f_g,
        is_lt,
        _span_gates(scheme.tau_s, cfg.f_g),
        scheme.tau_c * cfg.f_g,
        scheme.tau_er * cfg.f_g if not is_lt else 0.0,
        scheme.ramp == "step",
        np.uint64(cfg.seed),
    )


def run_simulation(cfg: SimConfig) -> ClickTrace:
    """Run one seeded simulation and return the registered click train."""
    scheme = cfg.scheme
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(cfg))
    return ClickTrace(
        click_gates=clicks,
        f_g=cfg.f_g,
        gates_per_pulse=cfg.gates_per_pulse,
        total_gates=cfg.n_gates,
        hidden_avalanches=int(hidden),
        tau_s=scheme.tau_s,
        config=cfg,
    )


def build_sweep_histogram(
    trace: ClickTrace,
    sweep: float,
    bin_width: float,
) -> SweepHistogram:
    """Collect oscilloscope-style sweeps from a click train.

    Each laser-coincident click outside an open window triggers a sweep of
    length ``sweep``; later clicks in the window are histogrammed at their
    offset with ``bin_width`` resolution.  The trigger itself is counted in
    ``c0`` only.
    """
    if not sweep > bin_width > 0.0:
        raise SimulationConfigError(
            f"need sweep > bin_width > 0, got sweep={sweep!r}, "
            f"bin_width={bin_width!r}"
        )
    n_bins = int(round(sweep / bin_width))
    bins, c0 = _kernels.sweep_scan(
        np.ascontiguousarray(trace.click_gates, dtype=np.int64),
        trace.gates_per_pulse,
        _span_gates(sweep, trace.f_g),
        bin_width * trace.f_g,
        n_bins,
    )
    meta = {
        "source": "simulator",
        "tau_s_ns": f"{trace.tau_s * 1e9:.6g}",
        "rate_hz": repr(trace.rate),
        "hidden_avalanches": str(trace.hidden_avalanches),
        "total_gates": str(trace.total_gates),
    }
    if trace.config is not None:
        meta["seed"] = str(trace.config.seed)
        meta["config_sha1"] = trace.config.config_digest()
    return SweepHistogram(
        bin_width=bin_width,
        sweep=sweep,
        bins=bins,
        c0=int(c0),
        meta=meta,
    )
