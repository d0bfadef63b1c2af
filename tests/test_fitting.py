"""Tests for the dead-time decay-law fits on synthetic curves."""

import warnings

import numpy as np
import pytest

from afterpulse.fitting import FitInputError, FitLaw, fit_curve, initial_guess

XS_US = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0, 13.0, 16.0, 20.0])
XS_S = XS_US * 1e-6

EXP_TRUTH = (0.3, 0.4, 0.02)  # a, b per us, c
POW_TRUTH = (0.05, -0.8, 0.01)


def exp_curve(a, b, c):
    return a * np.exp(-b * XS_US) + c


def pow_curve(a, b, c):
    return a * XS_US**b + c


class TestNoiselessRecovery:
    def test_exponential_exact(self):
        ys = exp_curve(*EXP_TRUTH)
        res = fit_curve(XS_S, ys, FitLaw.EXPONENTIAL)
        assert res.converged
        for got, true in zip((res.a, res.b, res.c), EXP_TRUTH):
            assert got == pytest.approx(true, rel=1e-6)
        assert res.rss < 1e-16

    def test_power_law_exact(self):
        ys = pow_curve(*POW_TRUTH)
        res = fit_curve(XS_S, ys, FitLaw.POWER_LAW)
        assert res.converged
        for got, true in zip((res.a, res.b, res.c), POW_TRUTH):
            assert got == pytest.approx(true, rel=1e-6)

    def test_constant_data(self):
        ys = np.full_like(XS_US, 0.1)
        res = fit_curve(XS_S, ys, FitLaw.EXPONENTIAL)
        assert abs(res.a) < 1e-6
        assert res.c == pytest.approx(0.1, abs=1e-9)
        assert res.rss < 1e-12

    def test_evaluate_round_trip(self):
        ys = exp_curve(*EXP_TRUTH)
        res = fit_curve(XS_S, ys, FitLaw.EXPONENTIAL)
        assert np.allclose(exp_curve(res.a, res.b, res.c), ys, atol=1e-9)


class TestInitialGuess:
    def test_exponential_within_factor_two(self):
        ys = exp_curve(*EXP_TRUTH)
        a0, b0, c0 = initial_guess(XS_S, ys, FitLaw.EXPONENTIAL)
        assert 0.5 * EXP_TRUTH[0] <= a0 <= 2.0 * EXP_TRUTH[0]
        assert 0.5 * EXP_TRUTH[1] <= b0 <= 2.0 * EXP_TRUTH[1]
        assert c0 <= EXP_TRUTH[2] + EXP_TRUTH[0]

    def test_two_distinct_values_no_blowup(self):
        ys = np.array([0.2, 0.1, 0.1, 0.1])
        guess = initial_guess(np.array([1, 2, 3, 4.0]) * 1e-6, ys, FitLaw.EXPONENTIAL)
        assert all(np.isfinite(guess))

    def test_increasing_data_power_law_positive_exponent(self):
        xs = np.array([1, 2, 4, 8.0]) * 1e-6
        ys = np.array([0.01, 0.02, 0.04, 0.08])
        a0, b0, c0 = initial_guess(xs, ys, FitLaw.POWER_LAW)
        assert b0 > 0
        res = fit_curve(xs, ys, FitLaw.POWER_LAW)
        assert np.isfinite(res.rss)


class TestNoiseRobustness:
    def test_exponential_2pct_noise_recovery(self):
        truth = np.array(EXP_TRUTH)
        clean = exp_curve(*EXP_TRUTH)
        ok = 0
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            ys = clean * (1.0 + 0.02 * rng.standard_normal(len(clean)))
            res = fit_curve(XS_S, ys, FitLaw.EXPONENTIAL)
            got = np.array([res.a, res.b, res.c])
            if np.all(np.abs(got - truth) <= 0.10 * np.abs(truth)):
                ok += 1
        assert ok >= 90

    def test_exponential_data_prefers_exponential_law(self):
        clean = exp_curve(*EXP_TRUTH)
        wins = 0
        for rep in range(100):
            rng = np.random.default_rng(2000 + rep)
            ys = clean * (1.0 + 0.02 * rng.standard_normal(len(clean)))
            rss_e = fit_curve(XS_S, ys, FitLaw.EXPONENTIAL).rss
            rss_p = fit_curve(XS_S, ys, FitLaw.POWER_LAW).rss
            if rss_e <= rss_p:
                wins += 1
        assert wins >= 90

    def test_fit_never_worse_than_initial_guess(self):
        rng = np.random.default_rng(5)
        clean = exp_curve(*EXP_TRUTH)
        for rep in range(20):
            ys = clean * (1.0 + 0.05 * rng.standard_normal(len(clean)))
            a0, b0, c0 = initial_guess(XS_S, ys, FitLaw.EXPONENTIAL)
            rss0 = float(np.sum((a0 * np.exp(-b0 * XS_US) + c0 - ys) ** 2))
            res = fit_curve(XS_S, ys, FitLaw.EXPONENTIAL)
            assert res.rss <= rss0 + 1e-15

    def test_sigma_weights_accepted(self):
        ys = exp_curve(*EXP_TRUTH)
        sigma = np.full_like(ys, 0.01)
        res = fit_curve(XS_S, ys, FitLaw.EXPONENTIAL, sigma=sigma)
        assert res.a == pytest.approx(EXP_TRUTH[0], rel=1e-6)


class TestPreconditions:
    def test_too_few_points(self):
        with pytest.raises(FitInputError):
            fit_curve(XS_S[:3], exp_curve(*EXP_TRUTH)[:3], FitLaw.EXPONENTIAL)

    def test_non_increasing_xs(self):
        xs = XS_S.copy()
        xs[3] = xs[2]
        with pytest.raises(FitInputError):
            fit_curve(xs, exp_curve(*EXP_TRUTH), FitLaw.EXPONENTIAL)

    def test_power_law_rejects_nonpositive_x(self):
        xs = XS_S.copy()
        xs[0] = 0.0
        with pytest.raises(FitInputError):
            fit_curve(xs, pow_curve(*POW_TRUTH), FitLaw.POWER_LAW)

    def test_non_finite_rejected(self):
        ys = exp_curve(*EXP_TRUTH)
        ys[4] = np.nan
        with pytest.raises(FitInputError):
            fit_curve(XS_S, ys, FitLaw.EXPONENTIAL)

    def test_determinism(self):
        rng = np.random.default_rng(9)
        ys = exp_curve(*EXP_TRUTH) * (1 + 0.02 * rng.standard_normal(len(XS_US)))
        r1 = fit_curve(XS_S, ys, "exponential")
        r2 = fit_curve(XS_S, ys, "exponential")
        assert (r1.a, r1.b, r1.c, r1.rss) == (r2.a, r2.b, r2.c, r2.rss)


class TestTrialSteps:
    def test_overflowing_trial_step_is_rejected_silently(self):
        # noisy sweep rows: a trial step overflows exp(), and its rejection
        # must not print a numeric warning
        xs = np.array([0.5, 1.0, 2.0, 5.0, 10.0, 15.0]) * 1e-6
        ys = np.array([0.0747, 0.0329, 0.011, -0.0383, 0.0046, 0.0055])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit_curve(xs, ys, FitLaw.EXPONENTIAL)
        assert res.converged
        assert np.isfinite(res.rss)
