"""The paper's forward click-probability models, the oracle of the tests.

A detector click can release a trapped carrier that triggers a later click,
which can in turn trigger another one, and so on.  The forward models map
the base (photon / dark) click probability ``p0`` and the per-click
afterpulse probability ``p_ap`` to the total click probability, at several
truncation levels:

* ``simple_forward``       -- single lumped afterpulse term,
* ``first_order_forward``  -- geometric chain, first order in ``p0``,
* ``second_order_forward`` -- adds the second-order pair correction,
* ``exact_forward``        -- union of all chain orders up to a cutoff.

No command prints a number from them: the inversions ``afterpulse.models``
keeps are checked against them, and ``p0_from_observed`` solves each model
for ``p0`` in closed form (the smaller root of a quadratic).  ``merge_bins``
coarsens a sweep histogram, for the tests of count conservation and of
estimates that must not depend on the bin width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from afterpulse.histio import Histogram, HistogramFormatError
from afterpulse.models import (
    _ROUNDING,
    DomainError,
    NoRootError,
    _check_unit,
    _smallest_unit_root,
)

MODEL_NAMES = ("simple", "first", "second")


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


@dataclass(frozen=True)
class ModelParams:
    """Internal afterpulse probability and chain-truncation depth."""

    p_ap: float
    order_max: int = 20

    def __post_init__(self) -> None:
        _check_unit("p_ap", self.p_ap, open_top=True)
        if self.order_max < 1:
            raise DomainError(f"order_max must be >= 1, got {self.order_max}")


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


def merge_bins(h: Histogram, factor: int) -> Histogram:
    """Merge consecutive bins by an integer factor, conserving all counts."""
    if factor < 1:
        raise HistogramFormatError(f"merge factor must be >= 1, got {factor}")
    if len(h.bins) % factor != 0:
        raise HistogramFormatError(
            f"{len(h.bins)} bins are not divisible by factor {factor}"
        )
    merged = h.bins.reshape(-1, factor).sum(axis=1)
    return Histogram(
        bin_width=h.bin_width * factor,
        span=h.span,
        bins=merged,
        c0=h.c0,
        meta=dict(h.meta),
    )
