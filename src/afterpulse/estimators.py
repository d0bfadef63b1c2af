"""Afterpulse probability estimators.

Three folded-histogram methods operate on gate-resolved count histograms
collected with and without illumination:

* Bethune     -- laser at half the gate rate; afterpulse rate read from the
                 non-illuminated gate of each pair,
* Yuan        -- laser at an integer sub-multiple of the gate rate;
                 afterpulse rate read from one designated gate after the
                 illuminated one, scaled by the gate-to-laser ratio,
* coincidence -- same setup, but the whole non-coincident count over a laser
                 period is used.

The sweep-histogram method measures the ratio of afterpulse counts (above
the dark baseline) to trigger counts, ``p_exp = C_ap / C0``, and converts it
into the lumped, first-order and second-order internal afterpulse
probabilities via the forward models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .histio import DegenerateDataError, GateHistogram, SweepHistogram
from .simulator import ClickTrace

__all__ = [
    "DegenerateDataError",
    "GateHistogram",
    "EstimateBundle",
    "fold_gate_histogram",
    "estimate_bethune",
    "estimate_yuan",
    "estimate_coincidence",
    "dcr_baseline",
    "estimate_custom",
    "derive_all",
]

BINS_PER_GATE = 10


@dataclass(frozen=True)
class EstimateBundle:
    """Sweep-histogram estimate and its model conversions."""

    p_exp: float
    c0: int = 0
    c_ap: float = 0.0
    c_dcr: float = 0.0
    p_s: float | None = None
    p1: float | None = None
    p2: float | None = None
    p_universal: float | None = None
    negative_ap_warning: bool = False
    meta: dict[str, float] = field(default_factory=dict)


def fold_gate_histogram(trace: ClickTrace) -> GateHistogram:
    """Fold a click train onto one laser period at sub-gate resolution.

    Clicks are resolved on the gate grid, so each lands in the central bin
    of its gate, one of ``BINS_PER_GATE``.  The metadata records the gate
    and laser rates, the click rate and the seed, as the histogram file
    format stores them.
    """
    m = trace.gates_per_pulse
    gate_idx = (trace.click_gates % m).astype(np.int64)
    bin_idx = gate_idx * BINS_PER_GATE + BINS_PER_GATE // 2
    bins = np.bincount(bin_idx, minlength=m * BINS_PER_GATE).astype(np.int64)
    gate_time = 1.0 / trace.f_g
    meta = {"source": "simulator", "f_g_hz": repr(trace.f_g), "rate_hz": repr(trace.rate)}
    if trace.config is not None:
        meta["f_l_hz"] = repr(trace.config.f_l)
        meta["seed"] = str(trace.config.seed)
    return GateHistogram(
        bins=bins,
        bin_width=gate_time / BINS_PER_GATE,
        period=m * gate_time,
        gates_per_period=m,
        acquisition_gates=trace.total_gates,
        tau_s=trace.tau_s,
        meta=meta,
    )


def _matched(lit: GateHistogram, dark: GateHistogram) -> None:
    if lit.gates_per_period != dark.gates_per_period:
        raise DegenerateDataError(
            "lit and dark histograms cover different period structures "
            f"({lit.gates_per_period} vs {dark.gates_per_period} gates)"
        )


def _period_ratio(lit: GateHistogram, f_g: float, f_l: float) -> float:
    """f_g/f_l, checked to be the histogram's whole gates per laser period."""
    ratio = f_g / f_l
    if abs(ratio - round(ratio)) > 1e-6:
        raise DegenerateDataError(
            f"f_g must be an integer multiple of f_l (f_g/f_l = {ratio!r})"
        )
    if lit.gates_per_period != round(ratio):
        raise DegenerateDataError(
            f"histogram has {lit.gates_per_period} gates per period, "
            f"f_g/f_l = {round(ratio)}"
        )
    return ratio


def estimate_bethune(lit: GateHistogram, dark: GateHistogram) -> float:
    """Afterpulse probability from a half-rate-laser two-gate histogram.

    (R_ni - R_dark) / R_de with R_ni the non-illuminated-gate rate, R_de the
    rate over both gates and R_dark the matching dark-gate rate.
    """
    if lit.gates_per_period != 2:
        raise DegenerateDataError(
            "the half-rate method needs exactly two gates per laser period, "
            f"got {lit.gates_per_period}"
        )
    _matched(lit, dark)
    ill = lit.illuminated_gate()
    ni = 1 - ill
    r_ni = lit.gate_counts()[ni] / lit.live_time
    r_de = lit.total_counts / lit.live_time
    r_dark = dark.gate_counts()[ni] / dark.live_time
    if r_de <= 0.0:
        raise DegenerateDataError("no counts in the illuminated histogram")
    return float((r_ni - r_dark) / r_de)


def estimate_yuan(
    lit: GateHistogram,
    dark: GateHistogram,
    f_g: float,
    f_l: float,
    ni_gate_index: int = 1,
) -> float:
    """Afterpulse probability from one designated post-trigger gate.

    (R_ni - R_dark) / (R_c_de - R_ni) * f_g / f_l, with R_ni the rate in the
    gate ``ni_gate_index`` places after the illuminated gate.  Later gates
    give smaller estimates because the afterpulse density decays with gate
    number.
    """
    ratio = _period_ratio(lit, f_g, f_l)
    _matched(lit, dark)
    m = lit.gates_per_period
    if not 1 <= ni_gate_index < m:
        raise DegenerateDataError(
            f"ni_gate_index must be in [1, {m}), got {ni_gate_index}"
        )
    ill = lit.illuminated_gate()
    ni = (ill + ni_gate_index) % m
    counts = lit.gate_counts()
    r_ni = counts[ni] / lit.live_time
    r_cde = counts[ill] / lit.live_time
    r_dark = dark.gate_counts()[ni] / dark.live_time
    if r_cde <= r_ni:
        raise DegenerateDataError(
            "coincident rate does not exceed the designated gate rate"
        )
    return float((r_ni - r_dark) / (r_cde - r_ni) * ratio)


def estimate_coincidence(
    lit: GateHistogram, dark: GateHistogram, f_g: float, f_l: float
) -> float:
    """Afterpulse probability from all non-coincident counts per laser period.

    (R_de - R_c_de - (1 - f_l/f_g) * R_dark) / R_c_de, with R_de the total
    rate over the period and R_dark the total dark rate.
    """
    _period_ratio(lit, f_g, f_l)
    _matched(lit, dark)
    ill = lit.illuminated_gate()
    r_de = lit.total_counts / lit.live_time
    r_cde = lit.gate_counts()[ill] / lit.live_time
    r_dark = dark.total_counts / dark.live_time
    if r_cde <= 0.0:
        raise DegenerateDataError("no coincident counts")
    return float((r_de - r_cde - (1.0 - f_l / f_g) * r_dark) / r_cde)


def _window_bins(h: SweepHistogram, window: tuple[float, float]) -> np.ndarray:
    start, end = window
    if not 0.0 <= start < end <= h.sweep + 0.5 * h.bin_width:
        raise DegenerateDataError(
            f"window {window!r} does not fit inside the {h.sweep!r} s sweep"
        )
    starts = h.bin_starts
    mask = (starts >= start - 1e-15) & (starts < end - 1e-15)
    if not mask.any():
        raise DegenerateDataError(f"window {window!r} selects no bins")
    return mask


def dcr_baseline(h: SweepHistogram, window: tuple[float, float]) -> float:
    """Average dark counts per bin over a late, afterpulse-free window."""
    mask = _window_bins(h, window)
    return float(h.bins[mask].mean())


def estimate_custom(
    h: SweepHistogram,
    tau_s: float,
    window: tuple[float, float] = (20e-6, 25e-6),
) -> EstimateBundle:
    """Afterpulse-to-trigger ratio from a sweep histogram.

    Sums the dark-subtracted counts of every bin from the end of the dead
    time to the end of the sweep and divides by the trigger count:
    p_exp = sum(C_i - C_dcr) / C0.  Bins inside (0, tau_s) are excluded, and
    ``tau_s`` must end before the baseline window starts.
    Per-bin differences are summed unclamped; a warning flag is set when
    the total is negative beyond 3 sigma of the dark-count noise.
    """
    if h.c0 <= 0:
        raise DegenerateDataError("histogram has no trigger counts")
    if not tau_s < h.sweep:
        raise DegenerateDataError(
            f"tau_s = {tau_s!r} must be below the sweep {h.sweep!r}"
        )
    if tau_s >= window[0]:
        raise DegenerateDataError(
            f"tau_s = {tau_s!r} must be below the baseline window start "
            f"{window[0]!r}; the afterpulse region would be the window itself"
        )
    c_dcr = dcr_baseline(h, window)
    ap_mask = h.bin_starts >= tau_s - 1e-15
    n_ap = int(ap_mask.sum())
    c_ap = float(h.bins[ap_mask].sum() - n_ap * c_dcr)
    p_exp = c_ap / h.c0

    n_dcr = int(_window_bins(h, window).sum())
    var = n_ap * c_dcr * (1.0 + n_ap / n_dcr)
    warn = bool(c_ap < -3.0 * math.sqrt(var)) if var > 0.0 else bool(c_ap < 0.0)
    return EstimateBundle(
        p_exp=p_exp,
        c0=h.c0,
        c_ap=c_ap,
        c_dcr=c_dcr,
        negative_ap_warning=warn,
    )


def derive_all(p_exp: float, rate: float, tau_s: float) -> EstimateBundle:
    """Convert a measured ratio into every model's afterpulse parameter.

    The busy fraction R*tau gives the total click probability per dead-time
    window, from which the base probability is p0 = R*tau / (1 + p_exp).
    Fills the lumped (p_s), first-order (p1), second-order (p2, closed-form
    cubic root) parameters and the model-independent afterpulse click
    probability.  A dark-dominated histogram can give a slightly negative
    ratio: the model parameters are computed at the physical floor of zero
    while ``p_exp`` is reported as measured.
    """
    floored = max(p_exp, 0.0)
    exp = models.ExperimentalAfterpulse(p_exp=floored, rate=rate, tau_s=tau_s)
    p_n = rate * tau_s
    p0 = p_n / (1.0 + floored)
    if p0 >= 1.0:
        raise DegenerateDataError(f"busy fraction gives p0 = {p0!r} >= 1")
    p_s = models.p_s_from_rate(exp)
    return EstimateBundle(
        p_exp=p_exp,
        p_s=p_s,
        p1=models.invert_first(floored),
        p2=models.invert_second(floored, p0),
        p_universal=models.universal_p_ap(floored, p0),
        meta={"p0": p0, "p_n": p_n, "rate": rate, "tau_s": tau_s},
    )
