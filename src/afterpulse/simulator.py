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
  pending carriers are lost) and detection efficiency recovers linearly
  over ``tau_er`` after the bias is restored; a step recovery is a longer
  hold-off.

Events are resolved on the gate grid; trap-release instants are continuous
but take effect at the next gate.  The kernel (``_kernels``, plain
Python over numpy's raw PCG64 outputs) skips the gates
where nothing can change.  Under ``LT_AR`` a hold-off only discards the
photon and dark fires inside it, so numpy draws them window by window and
one event loop takes the next fire or pending trap release: it drops the
carriers released inside the last hold-off, and from a fire it chases each
click's first fire past its hold-off; pending releases wait in a binary
heap.  Under ``LT`` the avalanches do not depend on the clicks, so numpy
grows them window by window and registers the clicks by a dead-time
selection over them: ``hidden_avalanches`` counts every avalanche the
latch hid.  A run is deterministic for a fixed seed, and simulations with
independent configs are safe to run concurrently.  ``stream`` derives the
seeds of the several runs one command makes from its one seed.

``build_sweep_histogram`` and ``fold_gate_histogram`` turn a run's
``ClickTrace`` into the two histogram kinds, reading the gate grid from the
``SimConfig`` the trace keeps.  The sweeps are scanned in numpy
(``_kernels.sweep_scan``), with no loop over the clicks.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .histio import Histogram

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
    interval; the efficiency ramps linearly 0 -> 1 over
    [tau_c, tau_c + tau_er].  Efficiency that jumps back at once after a
    recovery ``r`` is a hold-off of ``tau_c + r``.
    """

    kind: SchemeKind
    tau_l: float
    tau_c: float = 0.0
    tau_er: float = 0.0

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

    numpy's ``SeedSequence`` hashes the seed, with the purpose's key and
    the index as its spawn key, into a 63-bit seed: any valid seed gives a
    valid seed, and distinct streams of one seed unrelated PCG64 streams.
    """
    digest = hashlib.blake2b(purpose.encode("utf-8"), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    seq = np.random.SeedSequence(seed, spawn_key=(key, index))
    return int(seq.generate_state(1, np.uint64)[0]) >> 1


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
        0.0 if is_lt else scheme.tau_er * cfg.f_g,
        cfg.seed,
    )


def run_simulation(cfg: SimConfig) -> ClickTrace:
    """Run one seeded simulation and return the registered click train."""
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(cfg))
    return ClickTrace(config=cfg, click_gates=clicks, hidden_avalanches=int(hidden))


def build_sweep_histogram(trace: ClickTrace, sweep: float, bin_width: float) -> Histogram:
    """Collect oscilloscope-style sweeps from a click train.

    Each laser-coincident click triggers a sweep of length ``sweep``, at most
    one laser period (``Histogram`` raises ``DegenerateDataError`` on a
    longer one); later clicks in the window are histogrammed at their offset
    with ``bin_width`` resolution, and a click a whole sweep after the
    trigger is outside it.  The trigger itself is counted in ``c0`` only.
    The histogram carries the run's dead time, click rate and laser rate.
    """
    if not sweep > bin_width > 0.0:
        raise SimulationConfigError(
            f"need sweep > bin_width > 0, got sweep={sweep!r}, "
            f"bin_width={bin_width!r}"
        )
    cfg = trace.config
    bins, c0 = _kernels.sweep_scan(
        np.ascontiguousarray(trace.click_gates, dtype=np.int64),
        cfg.gates_per_pulse,
        _span_gates(sweep, cfg.f_g),
        bin_width * cfg.f_g,
        int(round(sweep / bin_width)),
    )
    meta = {
        "source": "simulator",
        "hidden_avalanches": str(trace.hidden_avalanches),
        "total_gates": str(cfg.n_gates),
        "seed": str(cfg.seed),
        "config_sha1": cfg.config_digest(),
    }
    return Histogram(
        bin_width=bin_width, span=sweep, bins=bins, c0=int(c0), meta=meta,
        tau_s=cfg.scheme.tau_s, rate=trace.rate, f_l=cfg.f_l,
    )


def fold_gate_histogram(trace: ClickTrace) -> Histogram:
    """Fold a click train onto one laser period, one bin per gate.

    Clicks are resolved on the gate grid, so a gate is the finest bin the
    fold has.  The fold carries the run's dead time, click rate and laser
    rate, and its metadata the gate rate and the seed.
    """
    cfg = trace.config
    m = cfg.gates_per_pulse
    gate_time = 1.0 / cfg.f_g
    return Histogram(
        bin_width=gate_time,
        span=m * gate_time,
        bins=np.bincount(trace.click_gates % m, minlength=m),
        meta={"source": "simulator", "f_g_hz": repr(cfg.f_g), "seed": str(cfg.seed)},
        tau_s=cfg.scheme.tau_s,
        rate=trace.rate,
        f_l=cfg.f_l,
        gates_per_period=m,
        acquisition_gates=cfg.n_gates,
    )
