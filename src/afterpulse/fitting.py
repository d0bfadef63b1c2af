"""Nonlinear least-squares fits of afterpulse probability versus dead time.

Two three-parameter laws are supported: ``a * tau**b + c`` (power law) and
``a * exp(-b * tau) + c`` (exponential decay).  The solver is a damped
Gauss-Newton iteration with analytic Jacobians; steps are only accepted
when the residual sum of squares improves, so the fit is deterministic and
monotone in rss.

Dead times are passed in seconds and converted to microseconds internally
for conditioning; the fitted parameters are reported in microsecond units
(``b`` per microsecond for the exponential, ``a`` in microsecond**b for the
power law).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["FitLaw", "FitResult", "FitInputError", "initial_guess", "fit_curve"]

_RSS_REL_TOL = 1e-10
_STEP_TOL = 1e-12
_MAX_ITER = 200


class FitInputError(ValueError):
    """The (x, y) table violates a fit precondition."""


class FitLaw(str, Enum):
    POWER_LAW = "power"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class FitResult:
    """Fitted (a, b, c) with the residual norm and iteration diagnostics.

    Parameters are in microsecond units of the dead-time axis.
    """

    a: float
    b: float
    c: float
    law: FitLaw
    rss: float
    iterations: int
    converged: bool


def _evaluate(law: FitLaw, a: float, b: float, c: float, x_us: np.ndarray):
    if law is FitLaw.EXPONENTIAL:
        return a * np.exp(-b * x_us) + c
    return a * np.power(x_us, b) + c


def _jacobian(law: FitLaw, a: float, b: float, x_us: np.ndarray) -> np.ndarray:
    jac = np.empty((len(x_us), 3))
    if law is FitLaw.EXPONENTIAL:
        e = np.exp(-b * x_us)
        jac[:, 0] = e
        jac[:, 1] = -a * x_us * e
    else:
        p = np.power(x_us, b)
        jac[:, 0] = p
        jac[:, 1] = a * p * np.log(x_us)
    jac[:, 2] = 1.0
    return jac


def _validate(xs, ys, law: FitLaw) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise FitInputError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 4:
        raise FitInputError(f"need at least 4 points, got {len(xs)}")
    if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
        raise FitInputError("xs and ys must be finite")
    if np.any(np.diff(xs) <= 0):
        raise FitInputError("xs must be strictly increasing")
    if law is FitLaw.POWER_LAW and np.any(xs <= 0):
        raise FitInputError("power-law fits need strictly positive xs")
    return xs, ys


def initial_guess(xs, ys, law: FitLaw) -> tuple[float, float, float]:
    """Starting parameters from the data envelope and endpoint slopes.

    The offset starts at min(ys); the decay/exponent comes from the
    log-slope between the first and last points and the amplitude from the
    first point.  Degenerate slopes fall back to
    (max(ys) - min(ys), 1, min(ys)).
    """
    law = FitLaw(law)
    xs, ys = _validate(xs, ys, law)
    x_us = xs * 1e6
    c0 = float(np.min(ys))
    fallback = (float(np.max(ys) - np.min(ys)), 1.0, c0)
    y_f = ys[0] - c0
    # min(ys) zeroes out at least one point; slope uses the last point that
    # still sits above the offset
    last = len(ys) - 1
    while last > 0 and ys[last] - c0 <= 0.0:
        last -= 1
    y_l = ys[last] - c0
    if y_f <= 0.0 or y_l <= 0.0 or last == 0:
        return fallback
    if law is FitLaw.EXPONENTIAL:
        b0 = math.log(y_f / y_l) / (x_us[last] - x_us[0])
        a0 = y_f * math.exp(b0 * x_us[0])
    else:
        denom = math.log(x_us[0] / x_us[last])
        if denom == 0.0:
            return fallback
        b0 = math.log(y_f / y_l) / denom
        a0 = y_f / x_us[0] ** b0
    if not (math.isfinite(a0) and math.isfinite(b0)):
        return fallback
    return a0, b0, c0


def fit_curve(
    xs,
    ys,
    law: FitLaw | str,
    sigma=None,
    start: tuple[float, float, float] | None = None,
) -> FitResult:
    """Damped least-squares fit of one decay law to (dead time, probability).

    ``xs`` in seconds, ``ys`` dimensionless.  Optional per-point ``sigma``
    weights the residuals by 1/sigma.  Convergence: relative rss improvement
    below 1e-10 or parameter step below 1e-12; otherwise ``converged`` is
    False and the best parameters so far are returned.
    """
    law = FitLaw(law)
    xs, ys = _validate(xs, ys, law)
    x_us = xs * 1e6
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != ys.shape or np.any(sigma <= 0):
            raise FitInputError("sigma must match ys and be positive")
        weights = 1.0 / sigma
    else:
        weights = np.ones_like(ys)

    theta = np.array(start if start is not None else initial_guess(xs, ys, law))

    def rss_of(params):
        resid = (_evaluate(law, *params, x_us) - ys) * weights
        return float(resid @ resid), resid

    rss, resid = rss_of(theta)
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        jac = _jacobian(law, theta[0], theta[1], x_us) * weights[:, None]
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        stepped = False
        for _ in range(40):
            damped = jtj + lam * np.diag(np.maximum(np.diag(jtj), 1e-12))
            try:
                delta = np.linalg.solve(damped, -jtr)
            except np.linalg.LinAlgError:
                lam *= 5.0
                continue
            candidate = theta + delta
            # a trial step that overflows gives a non-finite rss and is rejected
            with np.errstate(over="ignore", invalid="ignore"):
                new_rss, new_resid = rss_of(candidate)
            if math.isfinite(new_rss) and new_rss <= rss:
                step = float(np.max(np.abs(delta)))
                improvement = rss - new_rss
                theta, rss, resid = candidate, new_rss, new_resid
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                if improvement <= _RSS_REL_TOL * max(rss, 1e-300) or step <= _STEP_TOL:
                    converged = True
                break
            lam *= 5.0
        if not stepped:
            converged = True  # no damping level improved: at a minimum
        if converged:
            break

    return FitResult(
        a=float(theta[0]),
        b=float(theta[1]),
        c=float(theta[2]),
        law=law,
        rss=rss,
        iterations=iterations,
        converged=converged,
    )
