"""Hot Monte Carlo kernels with optional numba compilation.

The gate loop walks a sine-gated detector over ``n_gates`` gates without
visiting every gate: stretches of gates with identical per-gate click
probability are skipped with geometric jumps, which is distribution-exact
and makes the cost proportional to the number of photon arrivals, dark
candidates, trap releases and clicks instead of the gate count.

Every kernel is a self-contained function (the xorshift64* generator is
inlined) so the identical source runs either numba-jitted or as plain
numpy.  Both paths consume the same random stream: a given seed produces
bit-identical click trains in both modes.

Selection: numba is used when importable unless the environment variable
``AFTERPULSE_NO_NUMBA`` is set to 1/true/yes/on.  ``gate_loop_python`` and
``gate_loop_jit`` stay individually addressable for benchmarks and
equivalence tests.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "HAVE_NUMBA",
    "NUMBA_DISABLED",
    "USING_NUMBA",
    "gate_loop",
    "gate_loop_python",
    "gate_loop_jit",
    "sweep_scan",
    "RELEASE_QUEUE_CAP",
]

DISABLE_ENV_VAR = "AFTERPULSE_NO_NUMBA"

NUMBA_DISABLED = os.environ.get(DISABLE_ENV_VAR, "").strip().lower() in {
    "1",
    "true",
    "yes",
    "on",
}

HAVE_NUMBA = False
if not NUMBA_DISABLED:
    try:
        from numba import njit as _njit

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - numba is the optional [fast] extra
        HAVE_NUMBA = False

USING_NUMBA = HAVE_NUMBA

# xorshift64* / splitmix64 constants; np.uint64 so the same expressions
# type-check under numba and wrap correctly as numpy scalars
_U12 = np.uint64(12)
_U25 = np.uint64(25)
_U27 = np.uint64(27)
_U30 = np.uint64(30)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_UZERO = np.uint64(0)
_MULT = np.uint64(0x2545F4914F6CDD1D)
_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_TWO53INV = 1.0 / 9007199254740992.0  # 2**-53
_TWO52INV = 1.0 / 4503599627370496.0  # 2**-52

_FAR = 1 << 62  # gate index sentinel: no further event of this kind
RELEASE_QUEUE_CAP = 512


def _gate_loop_impl(
    n_gates,
    gates_per_pulse,
    p_photon,
    p_dark,
    q_ap,
    detrap_gates,
    is_lt,
    dead_gates,
    ramp_start,
    ramp_len,
    ramp_is_step,
    seed,
):
    """Simulate registered clicks on the gate grid.

    Per-gate semantics: at an armed gate the click probability is
    eff(dt) * [1 - (1-p_photon)(1-p_dark)(1-p_trap)], decomposed into
    independent per-source Bernoulli fires thinned by the recovery
    efficiency.  Within the dead window the latched-comparator scheme
    (``is_lt``) still grows avalanches (counted as hidden, each may trap a
    carrier) while the active-reset scheme suppresses avalanches entirely
    and pending trap releases are lost.

    Returns (click_gates int64 array, hidden_avalanches, dropped_spawns).
    """
    # xorshift64* state from one splitmix64 round
    s = seed + _SM_GAMMA
    s = (s ^ (s >> _U30)) * _SM_M1
    s = (s ^ (s >> _U27)) * _SM_M2
    s = s ^ (s >> _U31)
    if s == _UZERO:
        s = _SM_GAMMA

    n_pulses = (n_gates + gates_per_pulse - 1) // gates_per_pulse

    inv_lp_ph = 0.0
    if 0.0 < p_photon < 1.0:
        inv_lp_ph = 1.0 / math.log1p(-p_photon)
    inv_lp_dk = 0.0
    if 0.0 < p_dark < 1.0:
        inv_lp_dk = 1.0 / math.log1p(-p_dark)

    # next laser pulse whose photon component fires
    phot_pulse = np.int64(0)
    next_phot = np.int64(_FAR)
    if p_photon >= 1.0:
        phot_pulse = np.int64(0)
        next_phot = np.int64(0)
    elif p_photon > 0.0:
        s ^= s >> _U12
        s ^= s << _U25
        s ^= s >> _U27
        u = (np.float64((s * _MULT) >> _U12) + 0.5) * _TWO52INV
        kf = math.log(u) * inv_lp_ph
        if kf < 4.0e18:
            phot_pulse = np.int64(kf)
            if phot_pulse < n_pulses:
                next_phot = phot_pulse * gates_per_pulse

    # next gate whose dark-count component fires
    next_dark = np.int64(_FAR)
    if p_dark >= 1.0:
        next_dark = np.int64(0)
    elif p_dark > 0.0:
        s ^= s >> _U12
        s ^= s << _U25
        s ^= s >> _U27
        u = (np.float64((s * _MULT) >> _U12) + 0.5) * _TWO52INV
        kf = math.log(u) * inv_lp_dk
        if kf < 4.0e18:
            k = np.int64(kf)
            if k < n_gates:
                next_dark = k

    rel = np.empty(RELEASE_QUEUE_CAP, np.int64)
    n_rel = 0
    next_rel = np.int64(_FAR)

    cap = 4096
    clicks = np.empty(cap, np.int64)
    n_clicks = 0

    last_click = np.int64(-_FAR)
    hidden = 0
    dropped = 0

    while True:
        e = next_phot
        if next_dark < e:
            e = next_dark
        if next_rel < e:
            e = next_rel
        if e >= n_gates:
            break
        phot_f = next_phot == e
        dark_f = next_dark == e
        trap_f = next_rel == e

        dt = e - last_click
        avalanche = False
        registered = False
        if dt >= dead_gates:
            effv = 1.0
            if not is_lt:
                tf = np.float64(dt)
                if ramp_is_step:
                    if tf < ramp_start:
                        effv = 0.0
                elif ramp_len > 0.0 and tf < ramp_start + ramp_len:
                    effv = (tf - ramp_start) / ramp_len
                    if effv < 0.0:
                        effv = 0.0
            if effv >= 1.0:
                avalanche = True
                registered = True
            else:
                s ^= s >> _U12
                s ^= s << _U25
                s ^= s >> _U27
                u = np.float64((s * _MULT) >> _U11) * _TWO53INV
                if u < effv:
                    avalanche = True
                    registered = True
        elif is_lt:
            # comparator latched but bias high: the avalanche grows and
            # quenches unseen, refilling traps
            avalanche = True
            hidden += 1

        if trap_f:
            # all releases effective at this gate are consumed, whether or
            # not they produced a registered click
            j = 0
            for i in range(n_rel):
                if rel[i] > e:
                    rel[j] = rel[i]
                    j += 1
            n_rel = j
            next_rel = np.int64(_FAR)
            for i in range(n_rel):
                if rel[i] < next_rel:
                    next_rel = rel[i]

        if phot_f:
            if p_photon >= 1.0:
                phot_pulse += 1
            else:
                s ^= s >> _U12
                s ^= s << _U25
                s ^= s >> _U27
                u = (np.float64((s * _MULT) >> _U12) + 0.5) * _TWO52INV
                kf = math.log(u) * inv_lp_ph
                if kf < 4.0e18:
                    phot_pulse += 1 + np.int64(kf)
                else:
                    phot_pulse = np.int64(n_pulses)
            if phot_pulse < n_pulses:
                next_phot = phot_pulse * gates_per_pulse
            else:
                next_phot = np.int64(_FAR)

        if dark_f:
            if p_dark >= 1.0:
                next_dark = e + 1
            else:
                s ^= s >> _U12
                s ^= s << _U25
                s ^= s >> _U27
                u = (np.float64((s * _MULT) >> _U12) + 0.5) * _TWO52INV
                kf = math.log(u) * inv_lp_dk
                if kf < 4.0e18:
                    nd = e + 1 + np.int64(kf)
                    next_dark = nd if nd < n_gates else np.int64(_FAR)
                else:
                    next_dark = np.int64(_FAR)

        if avalanche:
            s ^= s >> _U12
            s ^= s << _U25
            s ^= s >> _U27
            u = np.float64((s * _MULT) >> _U11) * _TWO53INV
            if u < q_ap:
                s ^= s >> _U12
                s ^= s << _U25
                s ^= s >> _U27
                u = (np.float64((s * _MULT) >> _U12) + 0.5) * _TWO52INV
                delay = -detrap_gates * math.log(u)
                dg = np.int64(math.ceil(delay))
                if dg < 1:
                    dg = np.int64(1)
                rg = e + dg
                if rg < n_gates:
                    if n_rel < RELEASE_QUEUE_CAP:
                        rel[n_rel] = rg
                        n_rel += 1
                        if rg < next_rel:
                            next_rel = rg
                    else:
                        dropped += 1
            if registered:
                if n_clicks == cap:
                    cap = cap * 2
                    bigger = np.empty(cap, np.int64)
                    bigger[:n_clicks] = clicks
                    clicks = bigger
                clicks[n_clicks] = e
                n_clicks += 1
                last_click = e

    return clicks[:n_clicks].copy(), hidden, dropped


def _sweep_scan_impl(click_gates, gates_per_pulse, sweep_gates, binw_gates, n_bins):
    """Emulate oscilloscope sweeps over a click train.

    A laser-coincident click outside any open window opens a sweep and
    increments the trigger count; every later click inside the window is
    binned at its offset.  Windows never overlap.
    """
    bins = np.zeros(n_bins, np.int64)
    c0 = 0
    trig = np.int64(-1)
    open_w = False
    for i in range(click_gates.shape[0]):
        g = click_gates[i]
        if open_w and np.float64(g - trig) < sweep_gates:
            idx = np.int64(np.float64(g - trig) / binw_gates)
            if idx >= n_bins:
                idx = np.int64(n_bins - 1)
            bins[idx] += 1
        else:
            open_w = False
            if g % gates_per_pulse == 0:
                trig = g
                open_w = True
                c0 += 1
    return bins, c0


if HAVE_NUMBA:
    gate_loop_jit = _njit(cache=True)(_gate_loop_impl)
    _sweep_scan_jit = _njit(cache=True)(_sweep_scan_impl)
else:
    gate_loop_jit = None
    _sweep_scan_jit = None


def gate_loop_python(*args):
    """Pure numpy path; numerically identical to the jitted path."""
    with np.errstate(over="ignore"):
        return _gate_loop_impl(*args)


def gate_loop(*args):
    if USING_NUMBA:
        return gate_loop_jit(*args)
    return gate_loop_python(*args)


def sweep_scan(*args):
    if USING_NUMBA:
        return _sweep_scan_jit(*args)
    return _sweep_scan_impl(*args)
