"""Afterpulse probability estimators.

Three folded-histogram methods operate on gate-resolved count histograms
collected with and without illumination:

* Bethune     -- laser at half the gate rate; afterpulse rate read from the
                 non-illuminated gate of each pair,
* Yuan        -- laser at an integer sub-multiple of the gate rate;
                 afterpulse rate read from one designated gate after the
                 illuminated one, scaled by the gates per laser period,
* coincidence -- same setup, but the whole non-coincident count over a laser
                 period is used.

The sweep-histogram method counts the triggers and the afterpulses above
the dark baseline (``estimate_custom`` returns ``SweepCounts``).  Their ratio
``p_exp = C_ap / C0`` becomes the lumped, first-order and second-order
internal afterpulse probabilities with the inversions of ``models``
(``derive_all`` returns ``ModelEstimate``).

Every method reads histograms only, of the one container ``Histogram``:
``simulator`` builds both kinds from a click train and ``histio`` reads them
from files.  A folded method refuses a sweep and the sweep method a fold.  A
folded method takes its gate-to-laser ratio ``f_g/f_l`` from the fold's
gates per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .histio import DegenerateDataError, Histogram

__all__ = [
    "SweepCounts",
    "ModelEstimate",
    "estimate_bethune",
    "estimate_yuan",
    "estimate_coincidence",
    "estimate_custom",
    "derive_all",
]


@dataclass(frozen=True)
class SweepCounts:
    """The counts of a sweep histogram that the custom method rests on.

    ``c0`` is the trigger count and ``c_ap`` the dark-subtracted sum of the
    ``n_ap`` bins from the dead time to the end of the sweep.  ``c_dcr`` is
    the mean count of the ``n_dcr`` bins of the baseline window.
    """

    c0: int
    c_ap: float
    c_dcr: float
    n_ap: int
    n_dcr: int

    @property
    def p_exp(self) -> float:
        """The afterpulse-to-trigger ratio C_ap / C0."""
        return self.c_ap / self.c0

    @property
    def negative_ap_warning(self) -> bool:
        """Whether C_ap lies below zero by more than 3 sigma of the bins outside the window."""
        # the window's bins cancel in C_ap; without other bins C_ap is 0 up to rounding
        n_out = self.n_ap - self.n_dcr
        var = n_out * self.c_dcr * (1.0 + n_out / self.n_dcr)
        return bool(n_out > 0 and self.c_ap < -3.0 * math.sqrt(var))


@dataclass(frozen=True)
class ModelEstimate:
    """A ratio ``p_exp`` with its busy fraction ``p_n``, base click probability
    ``p0`` and the parameters of each model that ``derive_all`` fills in."""

    p_exp: float
    p0: float
    p_n: float
    p_s: float
    p1: float
    p2: float
    p_universal: float


def _gates(h: Histogram) -> int:
    """The gates per period of a fold; a sweep is refused."""
    if h.gates_per_period is None:
        raise DegenerateDataError("the folded methods need a gate histogram, not a sweep histogram")
    return h.gates_per_period


def _matched(lit: Histogram, dark: Histogram) -> int:
    """The gates per period that the lit and dark folds share."""
    if _gates(lit) != _gates(dark):
        raise DegenerateDataError(
            "lit and dark histograms cover different period structures "
            f"({lit.gates_per_period} vs {dark.gates_per_period} gates)"
        )
    return lit.gates_per_period


def estimate_bethune(lit: Histogram, dark: Histogram) -> float:
    """Afterpulse probability from a half-rate-laser two-gate histogram.

    (R_ni - R_dark) / R_de with R_ni the non-illuminated-gate rate, R_de the
    rate over both gates and R_dark the matching dark-gate rate.
    """
    if _gates(lit) != 2:
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


def estimate_yuan(lit: Histogram, dark: Histogram, ni_gate_index: int = 1) -> float:
    """Afterpulse probability from one designated post-trigger gate.

    (R_ni - R_dark) / (R_c_de - R_ni) * m, with m = f_g/f_l the gates per
    laser period and R_ni the rate in the gate ``ni_gate_index`` places
    after the illuminated gate.  Later gates give smaller estimates because
    the afterpulse density decays with gate number.
    """
    m = _matched(lit, dark)
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
    return float((r_ni - r_dark) / (r_cde - r_ni) * m)


def estimate_coincidence(lit: Histogram, dark: Histogram) -> float:
    """Afterpulse probability from all non-coincident counts per laser period.

    (R_de - R_c_de - (1 - 1/m) * R_dark) / R_c_de, with m = f_g/f_l the gates
    per laser period, R_de the total rate over the period and R_dark the
    total dark rate.
    """
    m = _matched(lit, dark)
    ill = lit.illuminated_gate()
    r_de = lit.total_counts / lit.live_time
    r_cde = lit.gate_counts()[ill] / lit.live_time
    r_dark = dark.total_counts / dark.live_time
    if r_cde <= 0.0:
        raise DegenerateDataError("no coincident counts")
    return float((r_de - r_cde - (1.0 - 1.0 / m) * r_dark) / r_cde)


def _window_bins(h: Histogram, window: tuple[float, float]) -> np.ndarray:
    start, end = window
    if not 0.0 <= start < end <= h.span + 0.5 * h.bin_width:
        raise DegenerateDataError(
            f"window {window!r} does not fit inside the {h.span!r} s sweep"
        )
    starts = h.bin_starts
    mask = (starts >= start - 1e-15) & (starts < end - 1e-15)
    if not mask.any():
        raise DegenerateDataError(f"window {window!r} selects no bins")
    return mask


def _dead_time_in_the_window(tau_s: float, window_start: float) -> bool:
    """Whether the dead time ends at or past the baseline window start."""
    return tau_s >= window_start


def estimate_custom(
    h: Histogram,
    tau_s: float,
    window: tuple[float, float] = (20e-6, 25e-6),
) -> SweepCounts:
    """The trigger, afterpulse and baseline counts of a sweep histogram.

    Sums the dark-subtracted counts of every bin from the end of the dead
    time to the end of the sweep, C_ap = sum(C_i - C_dcr), for the ratio
    p_exp = C_ap / C0.  Bins inside (0, tau_s) are excluded, and ``tau_s``
    must end before the baseline window starts.  Per-bin differences are
    summed unclamped.  A fold is refused.
    """
    if h.gates_per_period is not None:
        raise DegenerateDataError("the custom method needs a sweep histogram, not a gate histogram")
    if h.c0 <= 0:
        raise DegenerateDataError("histogram has no trigger counts")
    if not tau_s < h.span:
        raise DegenerateDataError(
            f"tau_s = {tau_s!r} must be below the sweep {h.span!r}"
        )
    if _dead_time_in_the_window(tau_s, window[0]):
        raise DegenerateDataError(
            f"tau_s = {tau_s!r} must be below the baseline window start "
            f"{window[0]!r}; the afterpulse region would be the window itself"
        )
    dcr_mask = _window_bins(h, window)
    c_dcr = float(h.bins[dcr_mask].mean())
    ap_mask = h.bin_starts >= tau_s - 1e-15
    n_ap = int(ap_mask.sum())
    c_ap = float(h.bins[ap_mask].sum() - n_ap * c_dcr)
    n_dcr = int(dcr_mask.sum())
    return SweepCounts(c0=h.c0, c_ap=c_ap, c_dcr=c_dcr, n_ap=n_ap, n_dcr=n_dcr)


def derive_all(p_exp: float, rate: float, tau_s: float) -> ModelEstimate:
    """Convert a measured ratio into every model's afterpulse parameter.

    The busy fraction p_n = R*tau gives the total click probability per
    dead-time window, from which the base probability is
    p0 = p_n / (1 + p_exp); ``models.p_s_from_rate`` refuses a busy fraction
    that would put p0 at 1 or above.  Fills the lumped (p_s), first-order
    (p1), second-order (p2, closed-form cubic root) parameters and the
    model-independent afterpulse click probability.  A dark-dominated
    histogram can give a slightly negative ratio: the model parameters are
    computed at the physical floor of zero while ``p_exp`` is kept.
    """
    floored = max(p_exp, 0.0)
    p_s = models.p_s_from_rate(floored, rate, tau_s)
    p_n = rate * tau_s
    p0 = p_n / (1.0 + floored)
    return ModelEstimate(
        p_exp=p_exp, p0=p0, p_n=p_n, p_s=p_s, p1=models.invert_first(floored),
        p2=models.invert_second(floored, p0), p_universal=models.universal_p_ap(floored, p0),
    )
