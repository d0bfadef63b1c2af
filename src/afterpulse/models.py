"""Click-probability models for detectors with self-retriggering (afterpulsing).

A detector click can release a trapped carrier that triggers a later click,
which can in turn trigger another one, and so on.  This module provides the
forward models that map the base (photon / dark) click probability ``p0`` and
the per-click afterpulse probability ``p_ap`` to the total click probability,
at several truncation levels:

* ``simple_forward``       -- single lumped afterpulse term,
* ``first_order_forward``  -- geometric chain, first order in ``p0``,
* ``second_order_forward`` -- adds the second-order pair correction,
* ``exact_forward``        -- union of all chain orders up to a cutoff.

It also provides the inversions used to recover model parameters from
measured histogram ratios (``p_exp``), count rates and dead times.  Every
one is in closed form: the forward models are rational, so inverting the
second-order model for ``p_ap`` is the smallest root in [0, 1) of a cubic
(trigonometric Cardano), and solving any model for ``p0`` is the smaller
root of a quadratic.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DomainError",
    "NoRootError",
    "ModelParams",
    "ExperimentalAfterpulse",
    "simple_forward",
    "first_order_forward",
    "second_order_forward",
    "geometric_sums",
    "exact_forward",
    "invert_simple",
    "invert_first",
    "invert_second",
    "p_s_from_rate",
    "universal_p_ap",
    "p0_from_observed",
    "ascending_branch_limit",
    "monotone_p0_limit",
]

MODEL_NAMES = ("simple", "first", "second")

# how far a polynomial value or a root may stray past a boundary by rounding
_ROUNDING = 1e-12


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class NoRootError(RuntimeError):
    """The requested inversion target is not reachable by the model."""


def _smallest_unit_root(a: float, b: float, c: float) -> float | None:
    """Smallest root in [0, 1) of f(x) = x^3 + a x^2 + b x + c, or None.

    Trigonometric Cardano on the depressed cubic t^3 + p t + q, x = t - a/3.
    A cosine argument past +-1 leaves one real root, unless f lies within
    ``_ROUNDING`` of zero at the critical point where the other two would
    meet: that is a double root blurred by rounding.  A single real root
    gives None, because neither cubic solved here has one in [0, 1): the
    second-order cubic is positive at 0 and falls to -inf, so its single
    root is negative, and the branch-limit cubic always has three.
    """
    shift = a / 3.0
    p = b - a * shift
    if p >= 0.0:
        return None  # f is monotone
    q = c + shift * (2.0 * shift * shift - b)
    m = 2.0 * math.sqrt(-p / 3.0)
    x = 3.0 * q / (p * m)
    if abs(x) > 1.0:
        crit = -0.5 * math.copysign(m, x) - shift
        if abs(((crit + a) * crit + b) * crit + c) > _ROUNDING:
            return None
        x = math.copysign(1.0, x)
    phi = math.acos(x) / 3.0
    roots = [m * math.cos(phi - 2.0 * math.pi * k / 3.0) - shift for k in range(3)]
    inside = [r for r in roots if 0.0 <= r < 1.0]
    return min(inside) if inside else None


def _smaller_root(a: float, b: float, c: float) -> float:
    """Smaller root of a x^2 - b x + c = 0 (a >= 0, b > 0, c >= 0).

    Written as 2c / (b + sqrt(b^2 - 4ac)) to avoid cancellation.  A
    minimum above zero by no more than ``_ROUNDING`` is a double root
    blurred by rounding.
    """
    disc = b * b - 4.0 * a * c
    if disc < -4.0 * a * _ROUNDING:
        raise NoRootError(f"{a!r} x^2 - {b!r} x + {c!r} has no real root")
    return 2.0 * c / (b + math.sqrt(max(disc, 0.0)))


def _check_unit(name: str, value: float, *, open_top: bool = False) -> None:
    if not 0.0 <= value <= 1.0 or (open_top and value >= 1.0):
        top = "1)" if open_top else "1]"
        raise DomainError(f"{name} must be in [0, {top}, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Internal afterpulse probability and chain-truncation depth."""

    p_ap: float
    order_max: int = 20

    def __post_init__(self) -> None:
        _check_unit("p_ap", self.p_ap, open_top=True)
        if self.order_max < 1:
            raise DomainError(f"order_max must be >= 1, got {self.order_max}")


@dataclass(frozen=True)
class ExperimentalAfterpulse:
    """Measured afterpulse ratio together with the rate/dead-time context.

    ``p_exp`` is the afterpulse-to-trigger count ratio from a sweep
    histogram, ``rate`` the total registered click rate and ``tau_s`` the
    statistical dead time.  ``rate * tau_s`` is the busy fraction used to
    reconstruct the base click probability.
    """

    p_exp: float
    rate: float
    tau_s: float

    def __post_init__(self) -> None:
        if self.p_exp < 0.0:
            raise DomainError(f"p_exp must be >= 0, got {self.p_exp!r}")
        if self.rate < 0.0:
            raise DomainError(f"rate must be >= 0, got {self.rate!r}")
        if self.tau_s <= 0.0:
            raise DomainError(f"tau_s must be > 0, got {self.tau_s!r}")
        if self.rate * self.tau_s >= 1.0 + self.p_exp:
            raise DomainError(
                "rate * tau_s must be below 1 + p_exp "
                f"(got {self.rate * self.tau_s!r} vs {1.0 + self.p_exp!r})"
            )


def simple_forward(p0: float, p_s: float) -> float:
    """Total click probability with one lumped afterpulse term.

    P = p0 * (1 + p_s - p0 * p_s); the afterpulse event has probability
    p0 * p_s and is combined with the base click as a union.
    """
    _check_unit("p0", p0)
    _check_unit("p_s", p_s)
    return p0 * (1.0 + p_s - p0 * p_s)


def first_order_forward(p0: float, params: ModelParams) -> float:
    """Total click probability keeping only terms linear in p0.

    Returns p0 / (1 - p_ap).  The value is returned unclamped: results
    above 1 are truncation artifacts and the caller flags them as
    out-of-range rather than clipping (``value > 1``).
    """
    _check_unit("p0", p0)
    return p0 / (1.0 - params.p_ap)


def second_order_forward(p0: float, params: ModelParams) -> float:
    """Total click probability including the quadratic pair correction."""
    _check_unit("p0", p0)
    s1, s2 = geometric_sums(params.p_ap)
    return p0 * s1 - p0 * p0 * s2


def geometric_sums(p_ap: float) -> tuple[float, float]:
    """Closed forms of the chain sums over afterpulse orders.

    s1 = sum_{i>=0} p^i = 1 / (1 - p)
    s2 = sum_{j>i>=0} p^(i+j) = p / ((1 - p)^2 (1 + p))
    """
    _check_unit("p_ap", p_ap, open_top=True)
    one_minus = 1.0 - p_ap
    s1 = 1.0 / one_minus
    s2 = p_ap / (one_minus * one_minus * (1.0 + p_ap))
    return s1, s2


def exact_forward(p0: float, params: ModelParams) -> float:
    """Probability of the union of all chain events up to ``order_max``.

    Chain event i (the i-th order afterpulse, i=0 being the base click) has
    probability p0 * p_ap^i and the events are independent, so the union is
    1 - prod_i (1 - p0 * p_ap^i), equal to the full inclusion-exclusion
    expansion but computable in O(order_max).
    """
    _check_unit("p0", p0)
    prod = 1.0
    term = p0
    for _ in range(params.order_max + 1):
        prod *= 1.0 - term
        term *= params.p_ap
    return 1.0 - prod


def invert_simple(p_exp: float, p0: float) -> float:
    """Lumped afterpulse parameter from the measured ratio: p_exp / (1 - p0)."""
    if p_exp < 0.0:
        raise DomainError(f"p_exp must be >= 0, got {p_exp!r}")
    _check_unit("p0", p0)
    if p0 >= 1.0:
        raise DomainError("invert_simple is singular at p0 = 1")
    return p_exp / (1.0 - p0)


def invert_first(p_exp: float) -> float:
    """First-order afterpulse parameter: p_exp / (1 + p_exp)."""
    if p_exp < 0.0:
        raise DomainError(f"p_exp must be >= 0, got {p_exp!r}")
    return p_exp / (1.0 + p_exp)


def ascending_branch_limit(p0: float) -> float:
    """Largest p_ap up to which ``second_order_forward`` rises with p_ap.

    For fixed p0 the second-order model increases in p_ap while
    p0 < (1 - p)(1 + p)^2 / (1 + p + 2 p^2) and bends down beyond.  The
    returned value is the crossover point, the root in [0, 1) of
    p^3 + (1 + 2 p0) p^2 - (1 - p0) p - (1 - p0); inversions are unique
    only on [0, limit].  At p0 = 0 the model rises on all of [0, 1) and
    the limit is 1.
    """
    _check_unit("p0", p0)
    root = _smallest_unit_root(1.0 + 2.0 * p0, p0 - 1.0, p0 - 1.0)
    return 1.0 if root is None else root


def invert_second(p_exp: float, p0: float) -> float:
    """Second-order afterpulse parameter, in closed form.

    Solves second_order_forward(p0, p) = p0 * (1 + p_exp) for p.  With
    e = p_exp that is the cubic (1 + e) p^3 - e p^2 + (p0 - 1 - e) p + e = 0,
    whose smallest root in [0, 1) lies on the ascending branch of the model
    and is the physically meaningful one.  At p0 = 0 the cubic factors as
    (p^2 - 1)((1 + e) p - e) and the root is the first-order value.  Raises
    NoRootError when the target exceeds the branch maximum.
    """
    if p_exp < 0.0:
        raise DomainError(f"p_exp must be >= 0, got {p_exp!r}")
    _check_unit("p0", p0, open_top=True)
    if p_exp == 0.0:
        return 0.0
    target = p0 * (1.0 + p_exp)
    if target > 1.0 + 1e-12:
        raise DomainError(
            f"p0 * (1 + p_exp) = {target!r} exceeds 1; inputs inconsistent"
        )
    lead = 1.0 + p_exp
    root = _smallest_unit_root(-p_exp / lead, (p0 - lead) / lead, p_exp / lead)
    if root is None:
        raise NoRootError(
            f"second-order model with p0={p0!r} never reaches {target!r}"
        )
    return root


def p_s_from_rate(exp: ExperimentalAfterpulse) -> float:
    """Lumped afterpulse parameter direct from rate and dead time.

    p_s = p_exp (1 + p_exp) / (1 + p_exp - R tau); reduces to p_exp as
    R tau -> 0.
    """
    busy = exp.rate * exp.tau_s
    if busy == 0.0:
        return exp.p_exp
    return exp.p_exp * (1.0 + exp.p_exp) / (1.0 + exp.p_exp - busy)


def universal_p_ap(p_exp: float, p0: float) -> float:
    """Model-independent afterpulse click probability p_exp * p0 / (1 - p0)."""
    if p_exp < 0.0:
        raise DomainError(f"p_exp must be >= 0, got {p_exp!r}")
    _check_unit("p0", p0)
    if p0 >= 1.0:
        raise DomainError("universal_p_ap is singular at p0 = 1")
    return p_exp * p0 / (1.0 - p0)


def monotone_p0_limit(p_ap: float) -> float:
    """Largest p0 up to which ``second_order_forward`` rises with p0."""
    _check_unit("p_ap", p_ap, open_top=True)
    if p_ap == 0.0:
        return 1.0
    return min(1.0, (1.0 - p_ap * p_ap) / (2.0 * p_ap))


def p0_from_observed(p_total: float, model: str, p_ap: float) -> float:
    """Base click probability solving the chosen forward model.

    ``model`` is one of ``"simple"``, ``"first"``, ``"second"``.  The simple
    model p_ap p0^2 - (1 + p_ap) p0 + p_total = 0 and the second-order model
    s2 p0^2 - s1 p0 + p_total = 0 are quadratics in p0; the smaller root,
    which lies on the rising branch, is returned.
    """
    _check_unit("p_total", p_total)
    _check_unit("p_ap", p_ap, open_top=True)
    if model == "first":
        return p_total * (1.0 - p_ap)
    if model == "simple":
        return _smaller_root(p_ap, 1.0 + p_ap, p_total)
    if model == "second":
        s1, s2 = geometric_sums(p_ap)
        p0 = _smaller_root(s2, s1, p_total)
        if p0 > 1.0 + _ROUNDING:
            raise NoRootError(
                f"second-order model with p_ap={p_ap!r} never reaches "
                f"{p_total!r} for p0 <= 1"
            )
        return min(p0, 1.0)
    raise DomainError(f"unknown model {model!r}, expected one of {MODEL_NAMES}")
