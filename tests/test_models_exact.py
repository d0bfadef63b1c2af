"""Closed-form model inversions against an exact-arithmetic oracle.

Each defining polynomial is evaluated in ``fractions.Fraction`` at the
float inputs, so the oracle itself carries no rounding.  A computed root
``r`` lies within ``tol`` of a true root when the polynomial changes sign
across ``[r - tol, r + tol]``; the direction of the change also shows that
the root is the smallest one.  Next to a double root (the peak of a branch)
the root itself is ill-conditioned, so there the check is that the root
reproduces its target.
"""

from fractions import Fraction

import numpy as np
import pytest

from afterpulse.models import NoRootError, invert_second
from paper_models import (
    ModelParams,
    ascending_branch_limit,
    monotone_p0_limit,
    p0_from_observed,
    second_order_forward,
)

TOL = 1e-13  # root accuracy away from a branch peak
TARGET_TOL = 1e-12  # target accuracy next to a branch peak
NEAR_PEAK = 1e-3

GRID_P0 = [float(x) for x in np.linspace(0.0, 0.99, 45)]
GRID_PAP = [float(x) for x in np.linspace(0.0, 0.95, 39)]


def exact_forward(p0, p_ap):
    """second_order_forward in exact arithmetic."""
    p0, p = Fraction(p0), Fraction(p_ap)
    s1 = 1 / (1 - p)
    s2 = p / ((1 - p) ** 2 * (1 + p))
    return p0 * s1 - p0 * p0 * s2


def second_cubic(e, p0):
    """(1 + e) p^3 - e p^2 + (p0 - 1 - e) p + e; positive at 0."""
    e, p0 = Fraction(e), Fraction(p0)
    return lambda x: (1 + e) * x**3 - e * x**2 + (p0 - 1 - e) * x + e


def peak_cubic(p0):
    """p^3 + (1 + 2 p0) p^2 - (1 - p0) p - (1 - p0); negative at 0."""
    p0 = Fraction(p0)
    return lambda x: x**3 + (1 + 2 * p0) * x**2 - (1 - p0) * x - (1 - p0)


def p0_quadratic(p_total, p_ap):
    """s2 p0^2 - s1 p0 + p_total with exact s1, s2; positive at 0."""
    p, t = Fraction(p_ap), Fraction(p_total)
    s1 = 1 / (1 - p)
    s2 = p / ((1 - p) ** 2 * (1 + p))
    return lambda x: s2 * x * x - s1 * x + t


def falls_across(f, r, tol=TOL):
    """f goes from positive to negative within tol of r."""
    r, tol = Fraction(r), Fraction(tol)
    return f(r - tol) > 0 > f(r + tol)


def second_order_cells():
    """(p0, p_exp) from forward runs, the non-injective region included."""
    for p0 in GRID_P0[1:]:
        for p_ap in GRID_PAP[1:]:
            total = second_order_forward(p0, ModelParams(p_ap))
            p_exp = total / p0 - 1.0
            if 0.0 <= p_exp and total <= 1.0:
                yield p0, p_ap, p_exp


def test_invert_second_matches_exact_root():
    strict = near_peak = beyond_peak = 0
    for p0, p_ap, p_exp in second_order_cells():
        peak = ascending_branch_limit(p0)
        got = invert_second(p_exp, p0)
        beyond_peak += p_ap > peak
        if abs(got - peak) > NEAR_PEAK:
            assert falls_across(second_cubic(p_exp, p0), got), (p0, p_ap, got)
            strict += 1
        else:
            target = Fraction(p0) * (1 + Fraction(p_exp))
            assert abs(exact_forward(p0, got) - target) <= TARGET_TOL, (p0, p_ap)
            near_peak += 1
    assert strict > 1000 and near_peak > 0 and beyond_peak > 100


@pytest.mark.parametrize("p_exp", [1e-9, 0.05, 0.2, 1.0, 7.0])
def test_invert_second_at_zero_base_probability(p_exp):
    # the cubic factors as (p^2 - 1)((1 + e) p - e): the first-order root
    got = invert_second(p_exp, 0.0)
    assert falls_across(second_cubic(p_exp, 0.0), got)
    assert abs(Fraction(got) - Fraction(p_exp) / (1 + Fraction(p_exp))) <= TOL


def test_invert_second_refuses_targets_past_the_peak():
    for p0 in GRID_P0[1:]:
        peak = ascending_branch_limit(p0)
        if peak >= 1.0 - NEAR_PEAK:
            continue
        top = second_order_forward(p0, ModelParams(peak)) / p0 - 1.0
        with pytest.raises(NoRootError):
            invert_second(top * (1.0 + 1e-6) + 1e-9, p0)


def test_ascending_branch_limit_matches_exact_root():
    for p0 in GRID_P0[1:]:
        got = ascending_branch_limit(p0)
        g = peak_cubic(p0)
        r, tol = Fraction(got), Fraction(TOL)
        assert g(r - tol) < 0 < g(r + tol), (p0, got)
    assert ascending_branch_limit(0.0) == 1.0


def test_p0_from_observed_second_matches_exact_root():
    strict = near_peak = 0
    for p_ap in GRID_PAP:
        cap = monotone_p0_limit(p_ap)
        for p0 in GRID_P0 + [1.0]:
            total = second_order_forward(p0, ModelParams(p_ap))
            if not 0.0 <= total <= 1.0:
                continue  # truncation artifacts, not observables
            got = p0_from_observed(total, "second", p_ap)
            if abs(got - cap) > NEAR_PEAK:
                assert falls_across(p0_quadratic(total, p_ap), got), (p0, p_ap)
                strict += 1
            else:
                assert abs(exact_forward(got, p_ap) - Fraction(total)) <= TARGET_TOL
                near_peak += 1
    assert strict > 1000 and near_peak > 0
