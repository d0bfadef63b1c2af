"""Reference computations the benchmark checks the program against.

Nothing here imports ``afterpulse``: the model identities, the histogram
file parser and the counting errors are written from the definitions, so a
fault in the program's own models or estimators cannot also hide in the
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def second_order_root(p_exp: float, p0: float) -> float | None:
    """Smallest root in [0, 1) of (1-p^2) - p0*p = (1+p_exp)(1-p)^2(1+p).

    Expanded, f(p) = (1+e)p^3 - e p^2 + (p0-1-e)p + e with e = p_exp.
    f(0) = e >= 0 and f falls until its positive critical point, so the
    smallest root, if any, lies between 0 and that point.  Returns None
    when f stays positive there (the model cannot reach p_exp).
    """
    e = p_exp
    if e == 0.0:
        return 0.0
    a3, a2, a1 = 1.0 + e, -e, p0 - 1.0 - e

    def f(p: float) -> float:
        return ((a3 * p + a2) * p + a1) * p + e

    disc = 4.0 * a2 * a2 - 12.0 * a3 * a1
    p_min = min((-2.0 * a2 + math.sqrt(disc)) / (6.0 * a3), 1.0)
    if f(p_min) > 0.0:
        return None
    lo, hi = 0.0, p_min
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-17:
            break
    return 0.5 * (lo + hi)


def close(got: float, want: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(got - want) <= abs_ + rel * abs(want)


def model_row_problems(
    p_exp: float,
    p0: float,
    *,
    p_s: float,
    p2: float,
    p1: float | None = None,
) -> list[str]:
    """Check one printed row of model conversions against the definitions.

    The program floors a negative ratio at zero before converting it, so
    every derived figure must then read exactly 0.  Otherwise
    p1 = p_exp/(1+p_exp), p_s = p_exp/(1-p0) (the lumped model with the
    busy fraction written through p0) and p2 is the smallest root of the
    second-order model.
    """
    out = []
    if p_exp <= 0.0:
        for name, value in (("p_s", p_s), ("p1", p1), ("p2", p2)):
            if value is not None and value != 0.0:
                out.append(f"{name} = {value!r} for floored p_exp = {p_exp!r}")
        return out
    if p1 is not None and not close(p1, p_exp / (1.0 + p_exp)):
        out.append(f"p1 = {p1!r}, want p_exp/(1+p_exp) = {p_exp / (1.0 + p_exp)!r}")
    if not close(p_s, p_exp / (1.0 - p0)):
        out.append(f"p_s = {p_s!r}, want p_exp/(1-p0) = {p_exp / (1.0 - p0)!r}")
    root = second_order_root(p_exp, p0)
    if root is None:
        out.append(f"second-order model has no root for p_exp={p_exp!r}, p0={p0!r}")
    elif not close(p2, root, rel=1e-9, abs_=1e-11):
        out.append(f"p2 = {p2!r}, want smallest cubic root {root!r}")
    return out


@dataclass
class SweepFile:
    """A sweep histogram as parsed from its text file."""

    meta: dict[str, str]
    counts: np.ndarray
    bin_width_ns: float
    c0: int

    @property
    def n_bins(self) -> int:
        return len(self.counts)


def parse_sweep_file(text: str) -> SweepFile:
    """Parse the ``# key = value`` / ``start_ns,count`` text format."""
    meta: dict[str, str] = {}
    starts: list[int] = []
    counts: list[int] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise ValueError(f"metadata line without '=': {line!r}")
            meta[key.strip()] = value.strip()
        elif line.strip():
            start, count = line.split(",")
            starts.append(int(start))
            counts.append(int(count))
    width = float(meta["bin_width_ns"])
    expect = np.round(np.arange(len(starts)) * width)
    if not np.array_equal(np.array(starts, dtype=np.float64), expect):
        raise ValueError("bin starts are not consecutive multiples of the bin width")
    return SweepFile(
        meta=meta,
        counts=np.array(counts, dtype=np.int64),
        bin_width_ns=width,
        c0=int(meta["c0"]),
    )


@dataclass
class AfterpulseSum:
    """Dark-subtracted afterpulse count of one or more sweep histograms."""

    c_ap: float = 0.0
    c0: int = 0
    var: float = 0.0

    @property
    def p_exp(self) -> float:
        return self.c_ap / self.c0

    @property
    def sigma(self) -> float:
        """Counting error of p_exp: Poisson counts in the afterpulse region
        plus the error of the subtracted baseline."""
        return math.sqrt(self.var) / self.c0

    def add(self, other: "AfterpulseSum") -> None:
        self.c_ap += other.c_ap
        self.c0 += other.c0
        self.var += other.var


def afterpulse_sum(h: SweepFile, tau_ns: float, window_ns: tuple[float, float]) -> AfterpulseSum:
    """C_ap = sum of bins from tau on, less n * mean(baseline window)."""
    starts = np.arange(h.n_bins) * h.bin_width_ns
    ap = starts >= tau_ns - 1e-6
    win = (starts >= window_ns[0] - 1e-6) & (starts < window_ns[1] - 1e-6)
    n_ap, n_win = int(ap.sum()), int(win.sum())
    c_dcr = float(h.counts[win].mean())
    region = float(h.counts[ap].sum())
    return AfterpulseSum(
        c_ap=region - n_ap * c_dcr,
        c0=h.c0,
        var=region + n_ap * n_ap * c_dcr / n_win,
    )


def sweep_row_sigma(
    p_exp: float,
    *,
    mu: float,
    pde: float,
    rate_hz: float,
    tau_s: float,
    n_gates: float,
    f_g: float,
    f_l: float,
    dcr_hz: float,
    sweep_s: float,
    window_s: tuple[float, float],
) -> float:
    """Counting error of one sweep-deadtime row, from the run's parameters.

    The trigger count is taken as the laser pulses that find the detector
    live and click, C0 ~ n_pulses * (1 - exp(-mu*pde)) * (1 - R*tau), less
    a fifth so the error errs large.  The variance adds the afterpulse
    counts, the dark counts in the afterpulse region and the error of the
    subtracted baseline.
    """
    n_pulses = n_gates * f_l / f_g
    c0 = 0.8 * n_pulses * -math.expm1(-mu * pde) * max(1.0 - rate_hz * tau_s, 0.0)
    region_s = sweep_s - tau_s
    window_len = window_s[1] - window_s[0]
    dark = c0 * dcr_hz * region_s
    var = c0 * max(p_exp, 0.0) + dark * (1.0 + region_s / window_len)
    return math.sqrt(var) / c0


def yuan_sigma(value: float, *, n_gates: float, mu: float, pde: float, dead_gates: int, period_gates: int) -> float:
    """Counting error of a Yuan estimate from its designated-gate counts.

    The estimate is about period * N_ni / N_c, with N_c the coincident
    clicks.  A click leaves ceil(dead/period) - 1 following pulses dead, so
    a fraction 1 / (1 + k p) of pulses is live; N_c is taken a fifth below
    that so the error errs large.  At least one designated-gate count is
    assumed, so an estimate of zero still carries an error.
    """
    p = -math.expm1(-mu * pde)
    k_dead = -(-dead_gates // period_gates) - 1
    n_c = 0.8 * (n_gates / period_gates) * p / (1.0 + k_dead * p)
    n_ni = max(value * n_c / period_gates, 1.0)
    return period_gates * math.sqrt(n_ni) / n_c
