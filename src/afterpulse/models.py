"""Click-probability model inversions for detectors with afterpulsing.

A detector click can release a trapped carrier that triggers a later click,
which can in turn trigger another one, and so on.  The paper's forward
models map the base (photon / dark) click probability ``p0`` and the
per-click afterpulse probability ``p_ap`` to the total click probability;
the second-order one, with the chain sums s1 = 1 / (1 - p) and
s2 = p / ((1 - p)^2 (1 + p)), is P = p0 s1 - p0^2 s2.

This module holds the inversions that ``estimators.derive_all`` uses to
recover model parameters from a measured histogram ratio (``p_exp``), the
count rate and the dead time.  Each takes floats, refuses an input outside
its domain with ``DomainError`` and is in closed form: inverting the
second-order model for ``p_ap`` is the smallest root in [0, 1) of a cubic
(trigonometric Cardano).  The forward models themselves are the tests'
oracle, in ``tests/paper_models.py``.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "NoRootError",
    "invert_first",
    "invert_second",
    "p_s_from_rate",
    "universal_p_ap",
]

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
    gives None, because neither cubic solved with it has one in [0, 1): the
    second-order cubic is positive at 0 and falls to -inf, so its single
    root is negative, and the branch-limit cubic of ``tests/paper_models.py``
    always has three.
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


def _check_unit(name: str, value: float, *, open_top: bool = False) -> None:
    if not 0.0 <= value <= 1.0 or (open_top and value >= 1.0):
        top = "1)" if open_top else "1]"
        raise DomainError(f"{name} must be in [0, {top}, got {value!r}")


def invert_first(p_exp: float) -> float:
    """First-order afterpulse parameter: p_exp / (1 + p_exp)."""
    if p_exp < 0.0:
        raise DomainError(f"p_exp must be >= 0, got {p_exp!r}")
    return p_exp / (1.0 + p_exp)


def invert_second(p_exp: float, p0: float) -> float:
    """Second-order afterpulse parameter, in closed form.

    Solves the second-order model p0 s1(p) - p0^2 s2(p) = p0 (1 + p_exp)
    for p.  With e = p_exp that is the cubic
    (1 + e) p^3 - e p^2 + (p0 - 1 - e) p + e = 0, whose smallest root in
    [0, 1) lies on the ascending branch of the model and is the physically
    meaningful one.  At p0 = 0 the cubic factors as (p^2 - 1)((1 + e) p - e)
    and the root is the first-order value.  Raises NoRootError when the
    target exceeds the branch maximum.
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


def p_s_from_rate(p_exp: float, rate: float, tau_s: float) -> float:
    """Lumped afterpulse parameter direct from rate and dead time.

    p_s = p_exp (1 + p_exp) / (1 + p_exp - R tau); reduces to p_exp as
    R tau -> 0.  The busy fraction R tau must stay below 1 + p_exp, so that
    the base click probability R tau / (1 + p_exp) stays below 1.
    """
    if p_exp < 0.0:
        raise DomainError(f"p_exp must be >= 0, got {p_exp!r}")
    if rate < 0.0:
        raise DomainError(f"rate must be >= 0, got {rate!r}")
    if tau_s <= 0.0:
        raise DomainError(f"tau_s must be > 0, got {tau_s!r}")
    busy = rate * tau_s
    if busy >= 1.0 + p_exp:
        raise DomainError(f"rate * tau_s must be below 1 + p_exp (got {busy!r} vs {1.0 + p_exp!r})")
    if busy == 0.0:
        return p_exp
    return p_exp * (1.0 + p_exp) / (1.0 + p_exp - busy)


def universal_p_ap(p_exp: float, p0: float) -> float:
    """Model-independent afterpulse click probability p_exp * p0 / (1 - p0)."""
    if p_exp < 0.0:
        raise DomainError(f"p_exp must be >= 0, got {p_exp!r}")
    _check_unit("p0", p0)
    if p0 >= 1.0:
        raise DomainError("universal_p_ap is singular at p0 = 1")
    return p_exp * p0 / (1.0 - p0)
