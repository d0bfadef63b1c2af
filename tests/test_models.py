"""Tests for the forward click-probability models and their inversions.

Expected values come from independent oracles computed here: explicit
inclusion-exclusion subset enumeration for the union model, truncated
series partial sums for the closed-form chain sums, and plain arithmetic
for the algebraic relations.
"""

import itertools
import math

import numpy as np
import pytest

from afterpulse.models import (
    DomainError,
    NoRootError,
    invert_first,
    invert_second,
    p_s_from_rate,
    universal_p_ap,
)
from paper_models import (
    ModelParams,
    ascending_branch_limit,
    exact_forward,
    first_order_forward,
    geometric_sums,
    invert_simple,
    monotone_p0_limit,
    p0_from_observed,
    second_order_forward,
    simple_forward,
)


def union_by_enumeration(p0: float, p_ap: float, order_max: int) -> float:
    """Oracle: P(union of chain events 0..order_max) by inclusion-exclusion.

    Walks all 2^(order_max+1) - 1 non-empty subsets; independent events, so
    the joint probability of a subset is the product of the members.
    """
    probs = [p0 * p_ap**i for i in range(order_max + 1)]
    total = 0.0
    for r in range(1, len(probs) + 1):
        sign = 1.0 if r % 2 == 1 else -1.0
        for subset in itertools.combinations(probs, r):
            total += sign * math.prod(subset)
    return total


def chain_sums_by_partial_series(p_ap: float, n_terms: int) -> tuple[float, float]:
    """Oracle: the two chain sums via direct truncated summation."""
    s1 = sum(p_ap**i for i in range(n_terms))
    s2 = sum(
        p_ap ** (i + j) for i in range(n_terms) for j in range(i + 1, n_terms)
    )
    return s1, s2


class TestForwardModels:
    def test_simple_no_afterpulse_returns_p0(self):
        assert simple_forward(0.5, 0.0) == 0.5

    def test_simple_saturates_at_certain_click(self):
        assert simple_forward(1.0, 0.3) == 1.0

    def test_simple_direct_value(self):
        # 0.2 * (1 + 0.1 - 0.2*0.1) = 0.216
        assert simple_forward(0.2, 0.1) == pytest.approx(0.216, abs=1e-12)

    def test_first_order_trivial(self):
        assert first_order_forward(0.3, ModelParams(0.0)) == 0.3

    def test_first_order_direct_value(self):
        assert first_order_forward(0.5, ModelParams(0.1)) == pytest.approx(
            0.55556, abs=1e-5
        )

    def test_first_order_overshoot_is_returned_unclamped(self):
        value = first_order_forward(0.9, ModelParams(0.3))
        assert value == pytest.approx(1.2857, abs=1e-4)
        assert value > 1.0  # the out-of-range flag is the value itself

    def test_second_order_trivial(self):
        assert second_order_forward(0.3, ModelParams(0.0)) == 0.3

    def test_second_order_direct_value(self):
        assert second_order_forward(0.5, ModelParams(0.1)) == pytest.approx(
            0.52750, abs=1e-5
        )

    def test_second_order_stays_below_one_where_first_overshoots(self):
        # exact: 1/0.7 - 0.3/(0.49 * 1.3) = 0.9576138...
        assert second_order_forward(1.0, ModelParams(0.3)) == pytest.approx(
            0.9576138, abs=1e-5
        )

    def test_second_never_above_first(self):
        for p0 in np.linspace(0.01, 1.0, 25):
            for p_ap in np.linspace(0.01, 0.5, 15):
                params = ModelParams(p_ap)
                assert second_order_forward(p0, params) <= first_order_forward(
                    p0, params
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            simple_forward(-0.1, 0.2)
        with pytest.raises(DomainError):
            simple_forward(0.1, 1.2)
        with pytest.raises(DomainError):
            ModelParams(p_ap=1.0)
        with pytest.raises(DomainError):
            ModelParams(p_ap=0.2, order_max=0)


class TestGeometricSums:
    def test_zero(self):
        assert geometric_sums(0.0) == (1.0, 0.0)

    def test_against_partial_sums(self):
        # term counts chosen so the truncation tail is below the tolerance
        # (at p=0.9 a 200-term tail is ~7e-9, too coarse for 1e-10)
        for p_ap, n in [(0.1, 60), (0.5, 60), (0.9, 400)]:
            s1_ref, s2_ref = chain_sums_by_partial_series(p_ap, n)
            s1, s2 = geometric_sums(p_ap)
            assert s1 == pytest.approx(s1_ref, abs=1e-10)
            assert s2 == pytest.approx(s2_ref, abs=1e-10)

    def test_frozen_values(self):
        s1, s2 = geometric_sums(0.1)
        assert s1 == pytest.approx(1.11111, abs=1e-5)
        assert s2 == pytest.approx(0.112233, abs=1e-5)
        s1, s2 = geometric_sums(0.5)
        assert s1 == pytest.approx(2.0, abs=1e-5)
        assert s2 == pytest.approx(1.33333, abs=1e-5)

    def test_domain(self):
        with pytest.raises(DomainError):
            geometric_sums(1.0)


class TestExactForward:
    def test_no_afterpulse(self):
        assert exact_forward(0.4, ModelParams(0.0, order_max=20)) == pytest.approx(
            0.4, abs=1e-15
        )

    def test_certain_base_click(self):
        assert exact_forward(1.0, ModelParams(0.3, order_max=20)) == 1.0

    def test_product_form_equals_subset_enumeration(self):
        for p0, p_ap, n in [(0.5, 0.1, 4), (0.3, 0.4, 6), (0.9, 0.25, 8)]:
            ref = union_by_enumeration(p0, p_ap, n)
            got = exact_forward(p0, ModelParams(p_ap, order_max=n))
            assert got == pytest.approx(ref, abs=1e-12)

    def test_bonferroni_sandwich(self):
        for p0 in np.linspace(0.05, 1.0, 20):
            for p_ap in np.linspace(0.05, 0.5, 10):
                params = ModelParams(p_ap, order_max=20)
                lo = second_order_forward(p0, params)
                hi = first_order_forward(p0, params)
                mid = exact_forward(p0, params)
                assert lo <= mid + 1e-12
                assert mid <= hi + 1e-12

    def test_monotone_in_p0_and_p_ap(self):
        p0s = np.linspace(0.01, 0.99, 30)
        params = ModelParams(0.2)
        vals = [exact_forward(p, params) for p in p0s]
        assert np.all(np.diff(vals) > 0)
        p_aps = np.linspace(0.0, 0.9, 30)
        vals = [exact_forward(0.5, ModelParams(p)) for p in p_aps]
        assert np.all(np.diff(vals) >= 0)

    def test_all_forwards_increase_in_p0(self):
        # the quadratic truncation is monotone in p0 only up to its peak
        # (1 - p^2) / (2 p); the grid stays inside every model's rising range
        p0s = np.linspace(0.01, 0.99, 50)
        for p_ap in (0.05, 0.2, 0.4):
            params = ModelParams(p_ap)
            cap = monotone_p0_limit(p_ap)
            inside = p0s[p0s < cap]
            for fwd in (
                lambda p: simple_forward(p, p_ap),
                lambda p: first_order_forward(p, params),
                lambda p: second_order_forward(p, params),
            ):
                vals = [fwd(p) for p in inside]
                assert np.all(np.diff(vals) > 0), p_ap

    def test_forwards_non_decreasing_in_p_ap(self):
        for p0 in (0.1, 0.5):
            for fwd in (
                lambda p0_, q: simple_forward(p0_, q),
                lambda p0_, q: first_order_forward(p0_, ModelParams(q)),
                lambda p0_, q: second_order_forward(p0_, ModelParams(q)),
            ):
                qs = np.linspace(0.0, 0.45, 30)
                vals = [fwd(p0, q) for q in qs]
                assert np.all(np.diff(vals) >= 0), p0

    def test_low_afterpulse_convergence(self):
        # model gaps at p_ap=0.1 are smaller than at p_ap=0.3 everywhere
        p0s = np.linspace(0.0, 1.0, 201)

        def max_gaps(p_ap):
            params = ModelParams(p_ap, order_max=20)
            gap_simple = max(
                abs(simple_forward(p, p_ap) - exact_forward(p, params)) for p in p0s
            )
            gap_second = max(
                abs(second_order_forward(p, params) - exact_forward(p, params))
                for p in p0s
            )
            return gap_simple, gap_second

        lo_simple, lo_second = max_gaps(0.1)
        hi_simple, hi_second = max_gaps(0.3)
        assert lo_simple < hi_simple
        assert lo_second < hi_second


class TestInversions:
    def test_invert_simple_values(self):
        assert invert_simple(0.1, 0.0) == 0.1
        assert invert_simple(0.1, 0.5) == pytest.approx(0.2, abs=1e-12)
        assert invert_simple(0.0, 0.3) == 0.0
        with pytest.raises(DomainError):
            invert_simple(0.1, 1.0)

    def test_invert_first_values(self):
        assert invert_first(0.0) == 0.0
        assert invert_first(0.15) == pytest.approx(0.13043, abs=1e-5)
        assert invert_first(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_invert_first_below_p_exp(self):
        for p_exp in [0.01, 0.1, 0.5, 2.0]:
            assert invert_first(p_exp) < p_exp

    def test_ordering_against_invert_simple(self):
        for p_exp in [0.05, 0.2, 0.4]:
            for p0 in [0.1, 0.5, 0.9]:
                assert invert_first(p_exp) < p_exp < invert_simple(p_exp, p0)

    def test_invert_second_zero(self):
        assert invert_second(0.0, 0.37) == 0.0

    @pytest.mark.parametrize("p0,p_true", [(0.2, 0.3), (0.05, 0.1)])
    def test_invert_second_round_trip(self, p0, p_true):
        forward = second_order_forward(p0, ModelParams(p_true))
        p_exp = forward / p0 - 1.0
        assert invert_second(p_exp, p0) == pytest.approx(p_true, abs=1e-9)

    def test_invert_second_no_root(self):
        # target beyond the rising-branch maximum of the model
        with pytest.raises(NoRootError):
            invert_second(5.0, 0.15)

    def test_second_order_is_not_injective_in_p_ap_for_large_p0(self):
        # the quadratic truncation bends down, so two afterpulse values can
        # give the same total probability; the inverter returns the smaller
        p0 = 0.95
        target = second_order_forward(p0, ModelParams(0.2))
        peak = ascending_branch_limit(p0)
        assert peak < 0.2
        recovered = invert_second(target / p0 - 1.0, p0)
        assert recovered < peak
        assert second_order_forward(p0, ModelParams(recovered)) == pytest.approx(
            target, abs=1e-12
        )


class TestRateRelations:
    def test_p_s_from_rate_zero_busy(self):
        assert p_s_from_rate(0.1, 0.0, 1e-6) == pytest.approx(0.1, abs=1e-15)

    def test_p_s_from_rate_direct_value(self):
        # R tau = 0.5
        assert p_s_from_rate(0.1, 5e5, 1e-6) == pytest.approx(0.18333, abs=1e-5)

    def test_p_s_from_rate_equals_invert_simple_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p_exp = rng.uniform(0.0, 0.5)
            busy = rng.uniform(0.0, 0.9 * (1.0 + p_exp))
            p0 = busy / (1.0 + p_exp)
            assert p_s_from_rate(p_exp, busy / 1e-6, 1e-6) == pytest.approx(
                invert_simple(p_exp, p0), abs=1e-12
            )

    def test_invariant_rejects_saturated_rate(self):
        with pytest.raises(DomainError):
            p_s_from_rate(0.1, 1.2e6, 1e-6)

    def test_universal_p_ap(self):
        assert universal_p_ap(0.1, 0.0) == 0.0
        assert universal_p_ap(0.1, 0.5) == pytest.approx(0.1, abs=1e-12)
        assert universal_p_ap(0.2, 0.25) == pytest.approx(0.06667, abs=1e-5)
        with pytest.raises(DomainError):
            universal_p_ap(0.1, 1.0)


class TestP0FromObserved:
    def test_first_order_cases(self):
        assert p0_from_observed(0.3, "first", 0.0) == 0.3
        assert p0_from_observed(0.55556, "first", 0.1) == pytest.approx(0.5, abs=1e-5)

    def test_second_order_case(self):
        assert p0_from_observed(0.52750, "second", 0.1) == pytest.approx(0.5, abs=1e-4)

    def test_round_trips_all_models(self):
        for p0 in np.linspace(0.05, 0.95, 10):
            for p_ap in [0.05, 0.2, 0.35]:
                params = ModelParams(p_ap)
                cases = [
                    ("simple", simple_forward(p0, p_ap)),
                    ("first", first_order_forward(p0, params)),
                    ("second", second_order_forward(p0, params)),
                ]
                for model, total in cases:
                    if total > 1.0:
                        continue  # first-order artifact, not invertible
                    assert p0_from_observed(total, model, p_ap) == pytest.approx(
                        p0, abs=1e-9
                    ), (model, p0, p_ap)

    def test_second_model_rising_branch_limit(self):
        # beyond the p0 peak the same observable is hit twice; the smaller
        # solution is returned and reproduces the observable exactly
        p_ap = 0.5
        cap = monotone_p0_limit(p_ap)
        assert cap == pytest.approx(0.75, abs=1e-12)
        p0_true = 0.85
        total = second_order_forward(p0_true, ModelParams(p_ap))
        recovered = p0_from_observed(total, "second", p_ap)
        assert recovered < cap
        assert second_order_forward(recovered, ModelParams(p_ap)) == pytest.approx(
            total, abs=1e-12
        )

    def test_no_valid_root(self):
        with pytest.raises(NoRootError):
            p0_from_observed(0.9, "second", 0.45)
        with pytest.raises(DomainError):
            p0_from_observed(0.3, "zeroth", 0.1)


class TestTypeInvariants:
    def test_experimental_afterpulse_validation(self):
        # a measured ratio with its rate and dead time, as p_s_from_rate takes them
        p_s_from_rate(0.1, 1e3, 1e-6)
        with pytest.raises(DomainError):
            p_s_from_rate(-0.1, 1e3, 1e-6)
        with pytest.raises(DomainError):
            p_s_from_rate(0.1, 1e3, 0.0)
