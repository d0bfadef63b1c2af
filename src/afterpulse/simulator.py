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
but take effect at the next gate.  The kernel (``_kernels``) skips the gates
where nothing can change, and skips dead windows exactly: an active-reset
hold-off is jumped over, with the carriers released inside it lost, and a
latch window visits only the photon fires that fill a trap, the dark fires
and the trap releases.  The non-trapping avalanches a latch window hides
are counted per run, so ``hidden_avalanches`` is a run total.  Pending
releases wait in a binary heap.  A run is deterministic for a fixed seed,
and simulations with independent configs are safe to run concurrently.
``stream`` derives the seeds of the several runs one command makes from
its one seed.

``build_sweep_histogram`` and ``fold_gate_histogram`` turn a run's
``ClickTrace`` into the two histogram kinds, reading the gate grid from the
``SimConfig`` the trace keeps.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .histio import GateHistogram, SweepHistogram

__all__ = [
    "SchemeKind",
    "DeadTimeScheme",
    "SimConfig",
    "ClickTrace",
    "SimulationConfigError",
    "run_simulation",
    "gate_loop_args",
    "build_sweep_histogram",
    "fold_gate_histogram",
    "stream",
]

BINS_PER_GATE = 10


class SimulationConfigError(ValueError):
    """A simulation configuration violates an invariant."""


def _require_finite(obj, *names: str) -> None:
    # NaN passes every < and <= check below, so it is refused first
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise SimulationConfigError(f"{name} must be a finite number, got {value!r}")


class SchemeKind(str, Enum):
    LT = "lt"
    LT_AR = "lt-ar"


@dataclass(frozen=True)
class DeadTimeScheme:
    """Dead-time circuit behaviour.

    ``tau_l`` is the comparator latching time.  For ``LT_AR``, ``tau_c`` is
    the active bias hold-off and ``tau_er`` the post-reset recovery
    interval; the efficiency ramps 0 -> 1 over [tau_c, tau_c + tau_er]
    (``ramp="linear"``) or jumps at tau_c + tau_er (``ramp="step"``).  Zero
    efficiency is the hold-off here, so a step extends the hold-off to
    tau_c + tau_er.
    """

    kind: SchemeKind
    tau_l: float
    tau_c: float = 0.0
    tau_er: float = 0.0
    ramp: str = "linear"

    def __post_init__(self) -> None:
        _require_finite(self, "tau_l", "tau_c", "tau_er")
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
        if self.ramp == "step":
            return max(self.tau_l, self.tau_c + self.tau_er)
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
        _require_finite(
            self, "f_g", "f_l", "mu", "pde", "dcr_per_gate", "p_ap_internal", "tau_detrap"
        )
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
    """Registered comparator clicks from one run of ``config``, on the gate grid."""

    config: SimConfig
    click_gates: np.ndarray
    hidden_avalanches: int

    @property
    def n_clicks(self) -> int:
        return int(len(self.click_gates))

    @property
    def rate(self) -> float:
        """Total registered click rate over the run, in Hz."""
        return self.n_clicks / self.config.duration


def stream(seed: int, purpose: str, index: int) -> int:
    """Seed of stream ``index`` of the named ``purpose`` under a run's seed.

    Two splitmix64 rounds, keyed by a hash of the purpose and by the index,
    turn any valid seed into a valid seed, and distinct streams of one seed
    into unrelated kernel streams: counter-based streams, after Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11).
    """
    digest = hashlib.blake2b(purpose.encode("utf-8"), digest_size=8).digest()
    key = np.uint64(int.from_bytes(digest, "little"))
    with np.errstate(over="ignore"):
        x = _kernels._splitmix64(np.uint64(seed) ^ key)
        x = _kernels._splitmix64(x ^ np.uint64(index))
    return int(x >> np.uint64(1))


def _span_gates(span: float, f_g: float) -> int:
    """Whole gates a time span covers, at least one, forgiving float noise."""
    return max(1, math.ceil(span * f_g - 1e-9))


def gate_loop_args(cfg: SimConfig) -> tuple:
    """Arguments of ``_kernels.gate_loop`` for one run, in gate units."""
    scheme = cfg.scheme
    is_lt = scheme.kind == SchemeKind.LT
    # a step ramp is carried by the hold-off (``DeadTimeScheme.tau_s``)
    ramped = not is_lt and scheme.ramp == "linear"
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
        scheme.tau_er * cfg.f_g if ramped else 0.0,
        np.uint64(cfg.seed),
    )


def run_simulation(cfg: SimConfig) -> ClickTrace:
    """Run one seeded simulation and return the registered click train."""
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(cfg))
    return ClickTrace(config=cfg, click_gates=clicks, hidden_avalanches=int(hidden))


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
    cfg = trace.config
    n_bins = int(round(sweep / bin_width))
    bins, c0 = _kernels.sweep_scan(
        np.ascontiguousarray(trace.click_gates, dtype=np.int64),
        cfg.gates_per_pulse,
        _span_gates(sweep, cfg.f_g),
        bin_width * cfg.f_g,
        n_bins,
    )
    meta = {
        "source": "simulator",
        "tau_s_ns": f"{cfg.scheme.tau_s * 1e9:.6g}",
        "rate_hz": repr(trace.rate),
        "hidden_avalanches": str(trace.hidden_avalanches),
        "total_gates": str(cfg.n_gates),
        "seed": str(cfg.seed),
        "config_sha1": cfg.config_digest(),
    }
    return SweepHistogram(
        bin_width=bin_width,
        sweep=sweep,
        bins=bins,
        c0=int(c0),
        meta=meta,
    )


def fold_gate_histogram(trace: ClickTrace) -> GateHistogram:
    """Fold a click train onto one laser period at sub-gate resolution.

    Clicks are resolved on the gate grid, so each lands in the central bin
    of its gate, one of ``BINS_PER_GATE``.  The metadata records the gate
    and laser rates, the click rate and the seed, as the histogram file
    format stores them.
    """
    cfg = trace.config
    m = cfg.gates_per_pulse
    gate_idx = (trace.click_gates % m).astype(np.int64)
    bin_idx = gate_idx * BINS_PER_GATE + BINS_PER_GATE // 2
    bins = np.bincount(bin_idx, minlength=m * BINS_PER_GATE).astype(np.int64)
    gate_time = 1.0 / cfg.f_g
    meta = {
        "source": "simulator",
        "f_g_hz": repr(cfg.f_g),
        "rate_hz": repr(trace.rate),
        "f_l_hz": repr(cfg.f_l),
        "seed": str(cfg.seed),
    }
    return GateHistogram(
        bins=bins,
        bin_width=gate_time / BINS_PER_GATE,
        period=m * gate_time,
        gates_per_period=m,
        acquisition_gates=cfg.n_gates,
        tau_s=cfg.scheme.tau_s,
        meta=meta,
    )
