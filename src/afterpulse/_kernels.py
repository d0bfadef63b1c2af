"""Hot Monte Carlo kernels, numba-compiled when numba imports.

The gate loop walks a sine-gated detector over ``n_gates`` gates without
visiting every gate: stretches of gates with identical per-gate click
probability are skipped with geometric jumps, which is distribution-exact
and makes the cost proportional to the number of photon arrivals, dark
candidates, trap releases and clicks instead of the gate count.

Randomness comes from one xorshift64* stream, drawn through two helpers:
``_uniform`` (a float in [0, 1) for the recovery-efficiency and trap-fill
draws) and ``_log_uniform`` (``scale * log u`` with u in (0, 1) for the
geometric photon and dark gaps and the exponential detrap delay).  Pending
trap releases and registered clicks sit in ``int64`` buffers that double
when full (``_append``), so no carrier is ever dropped.

The helpers are ``register_jitable`` and the kernels ``njit`` when numba
imports; otherwise the same source runs as plain Python on numpy scalars.
Both paths consume the same random stream, so a given seed produces
bit-identical click trains in both.  ``gate_loop`` and ``sweep_scan`` are
bound once at import; ``gate_loop_python``, ``gate_loop_jit`` and
``_sweep_scan_impl`` stay addressable for the equivalence tests.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit as _njit
    from numba.extending import register_jitable as _jitable

    USING_NUMBA = True
except ImportError:  # pragma: no cover - numba is the optional [fast] extra
    USING_NUMBA = False

    def _jitable(fn):
        return fn


__all__ = [
    "USING_NUMBA",
    "gate_loop",
    "gate_loop_python",
    "gate_loop_jit",
    "sweep_scan",
]

# xorshift64* / splitmix64 constants; np.uint64 because the state's
# wraparound is the algorithm, under numba and as numpy scalars alike
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


@_jitable
def _uniform(s):
    """One xorshift64* step: the new state and u in [0, 1) (53 bits)."""
    s ^= s >> _U12
    s ^= s << _U25
    s ^= s >> _U27
    return s, float((s * _MULT) >> _U11) * _TWO53INV


@_jitable
def _log_uniform(s, scale):
    """One xorshift64* step: the new state and ``scale * log u``, u in (0, 1)."""
    s ^= s >> _U12
    s ^= s << _U25
    s ^= s >> _U27
    return s, scale * math.log((float((s * _MULT) >> _U12) + 0.5) * _TWO52INV)


@_jitable
def _append(buf, n, value):
    """Store ``value`` at ``buf[n]``, doubling ``buf`` first when it is full."""
    if n == buf.shape[0]:
        bigger = np.empty(2 * n, np.int64)
        bigger[:n] = buf
        buf = bigger
    buf[n] = value
    return buf, n + 1


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

    Returns (click_gates int64 array, hidden_avalanches).
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
    phot_pulse = 0
    next_phot = _FAR
    if p_photon >= 1.0:
        next_phot = 0
    elif p_photon > 0.0:
        s, kf = _log_uniform(s, inv_lp_ph)
        if kf < 4.0e18:
            phot_pulse = int(kf)
            if phot_pulse < n_pulses:
                next_phot = phot_pulse * gates_per_pulse

    # next gate whose dark-count component fires
    next_dark = _FAR
    if p_dark >= 1.0:
        next_dark = 0
    elif p_dark > 0.0:
        s, kf = _log_uniform(s, inv_lp_dk)
        if kf < 4.0e18 and int(kf) < n_gates:
            next_dark = int(kf)

    rel = np.empty(512, np.int64)
    n_rel = 0
    next_rel = _FAR

    clicks = np.empty(4096, np.int64)
    n_clicks = 0

    last_click = -_FAR
    hidden = 0

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
                tf = float(dt)
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
                s, u = _uniform(s)
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
            next_rel = _FAR
            for i in range(n_rel):
                r = int(rel[i])
                if r > e:
                    rel[j] = r
                    j += 1
                    if r < next_rel:
                        next_rel = r
            n_rel = j

        if phot_f:
            if p_photon >= 1.0:
                phot_pulse += 1
            else:
                s, kf = _log_uniform(s, inv_lp_ph)
                if kf < 4.0e18:
                    phot_pulse += 1 + int(kf)
                else:
                    phot_pulse = n_pulses
            next_phot = phot_pulse * gates_per_pulse if phot_pulse < n_pulses else _FAR

        if dark_f:
            if p_dark >= 1.0:
                next_dark = e + 1
            else:
                s, kf = _log_uniform(s, inv_lp_dk)
                next_dark = _FAR
                if kf < 4.0e18:
                    nd = e + 1 + int(kf)
                    if nd < n_gates:
                        next_dark = nd

        if avalanche:
            s, u = _uniform(s)
            if u < q_ap:
                s, delay = _log_uniform(s, -detrap_gates)
                rg = e + max(1, math.ceil(delay))
                if rg < n_gates:
                    rel, n_rel = _append(rel, n_rel, rg)
                    if rg < next_rel:
                        next_rel = rg
            if registered:
                clicks, n_clicks = _append(clicks, n_clicks, e)
                last_click = e

    return clicks[:n_clicks].copy(), hidden


def _sweep_scan_impl(click_gates, gates_per_pulse, sweep_gates, binw_gates, n_bins):
    """Emulate oscilloscope sweeps over a click train.

    A laser-coincident click outside any open window opens a sweep and
    increments the trigger count; every later click less than
    ``sweep_gates`` after the trigger is binned at its offset.  Windows
    never overlap.
    """
    bins = np.zeros(n_bins, np.int64)
    c0 = 0
    trig = -1
    open_w = False
    for i in range(click_gates.shape[0]):
        g = click_gates[i]
        if open_w and g - trig < sweep_gates:
            idx = int((g - trig) / binw_gates)
            if idx >= n_bins:
                idx = n_bins - 1
            bins[idx] += 1
        else:
            open_w = False
            if g % gates_per_pulse == 0:
                trig = g
                open_w = True
                c0 += 1
    return bins, c0


def gate_loop_python(*args):
    """Pure numpy path; numerically identical to the jitted path."""
    with np.errstate(over="ignore"):
        return _gate_loop_impl(*args)


if USING_NUMBA:
    gate_loop_jit = _njit(cache=True)(_gate_loop_impl)
    gate_loop = gate_loop_jit
    sweep_scan = _njit(cache=True)(_sweep_scan_impl)
else:
    gate_loop_jit = None
    gate_loop = gate_loop_python
    sweep_scan = _sweep_scan_impl
