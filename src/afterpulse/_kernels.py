"""Hot Monte Carlo kernels, in plain Python over numpy.

The gate loop walks a sine-gated detector over ``n_gates`` gates without
visiting every gate: stretches of gates with identical per-gate click
probability are skipped with geometric jumps, which is distribution-exact
and makes the cost proportional to the number of visited events instead of
the gate count.  Dead windows are skipped exactly too, since geometric
gaps are memoryless:

* active reset: at a registered click the photon and dark streams restart
  at the end of the hold-off, the pending trap releases inside it are
  dropped, and a release that would land inside it is never queued;
* latched comparator: in a latch window the photon stream is thinned to
  the fires that fill a trap (Lewis & Shedler, 1979), from the click, or
  from its first fire in the window when the click had no photon.  Only
  those fires, the dark fires and the trap releases are visited there.  The
  laser gates the thinned stream skips are counted, and the non-trapping
  avalanches they hid are drawn as one binomial per run
  (``hidden_avalanches`` is a run total).  The uniform of a thinned gap
  that overshoots the window, rescaled, gives the gap past it, so a stream
  advance stays one draw.

Each avalanche fills a trap with probability ``q``, independently, so the
trap marks of successive avalanches are kept as a geometric count of
unmarked avalanches before the next marked one: an avalanche costs a
decrement, a trap fill one draw.

Randomness comes from one xorshift64* stream, seeded by splitmix64 on
Python ints masked to 64 bits.  ``_draws`` turns the seeded state into an
iterator over the stream, computed in numpy blocks: the shift-xor step is
linear over GF(2)^64, and byte tables of its powers advance a whole block
of states at once.  Each draw comes as a pair: a float u in [0, 1) for the
recovery-efficiency and other Bernoulli draws (``next(draws)[0]``), and
numpy's log of a u' in (0, 1) for the geometric gaps and the exponential
detrap delay (``scale * next(draws)[1]``).  A train reads a log only through
``int()`` or ``ceil()`` of a scaled value, so a last-bit difference from
libm's log moves it only within an ulp of a whole number.

``sweep_scan`` folds a click train into oscilloscope sweeps in numpy: every
laser-coincident click triggers, since no sweep outlasts the laser period,
and every click is binned against its trigger at once.

Pending trap releases sit in a min-heap (the priority queue of Gibson &
Bruck's next-reaction method, 2000): a ``heapq`` list that always holds the
sentinel ``_FAR``, so its smallest entry is the next release, or ``_FAR``.
Every release due at a gate is popped there at once, as one avalanche.
The registered clicks are appended to an ``array("q")``, which grows as
needed, so no carrier or click is ever dropped.
"""

from __future__ import annotations

import array
import functools
import heapq
import itertools
import math

import numpy as np

__all__ = ["gate_loop", "sweep_scan"]

# xorshift64* / splitmix64 constants
_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_TWO53INV = 1.0 / 9007199254740992.0  # 2**-53

_FAR = 1 << 62  # gate index sentinel: no further event of this kind


def _splitmix64(x):
    """The splitmix64 output for state ``x``, an integer below 2**64."""
    z = (int(x) + _SM_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _SM_M1) & _MASK64
    z = ((z ^ (z >> 27)) * _SM_M2) & _MASK64
    return z ^ (z >> 31)


# The stream is drawn in numpy blocks.  The xorshift step T is linear over
# GF(2)^64 (Marsaglia, 2003), so T^(2^i) advances a whole block of states
# by 2^i steps at once, as the XOR of 8 byte-table lookups per state (jump
# ahead, Haramoto et al., 2008).  T^n of the first n states gives the next n
# until blocks reach 2**_BLOCK_LEVELS: a run that draws a few computes a few.
# uint64 arrays wrap around silently, which is the algorithm.
_BLOCK_LEVELS = 12


def _byte_tables(images):
    """The (8, 256) lookup tables of a linear map, from its 64 unit images.

    Row j, column b holds the image of ``b << 8j``.
    """
    tab = np.zeros((8, 1), np.uint64)
    per_byte = images.reshape(8, 8)
    for k in range(8):
        tab = np.concatenate([tab, tab ^ per_byte[:, k : k + 1]], axis=1)
    return tab


def _jump(tab, states):
    """The linear map with byte tables ``tab`` applied to each state."""
    planes = np.asarray(states, "<u8").view(np.uint8).reshape(-1, 8).T.copy()
    out = tab[0].take(planes[0])
    for j in range(1, 8):
        out ^= tab[j].take(planes[j])
    return out


@functools.cache
def _jump_tables():
    """Byte tables of T^(2^i) for i = 0 .. _BLOCK_LEVELS, built on first use."""
    images = np.uint64(1) << np.arange(64, dtype=np.uint64)
    images ^= images >> 12
    images ^= images << 25
    images ^= images >> 27
    tables = [_byte_tables(images)]
    for _ in range(_BLOCK_LEVELS):
        images = _jump(tables[-1], images)  # T^(2^(i+1)) is T^(2^i) twice
        tables.append(_byte_tables(images))
    return tables


def _draw_pairs(states):
    """The draws of a block of states, as ``(u, log u')`` pairs.

    Each draw x = (s * MULT) >> 11 has 53 bits, so u = x * 2**-53 in [0, 1)
    and u' = (x | 1) * 2**-53 in (0, 1) are exact; u' is
    ``((s * MULT) >> 12) + 0.5`` over 2**52.  The logs are numpy's, one
    ``np.log`` pass over the block.
    """
    x = (states * _MULT) >> 11
    u = x * _TWO53INV
    x |= 1
    return zip(u.tolist(), np.log(x * _TWO53INV).tolist())


def _blocks(s):
    """The stream after state ``s`` in blocks of ``(u, log u')`` pairs."""
    jumps = _jump_tables()
    states = _jump(jumps[0], np.array([s], np.uint64))
    yield _draw_pairs(states)
    for tab in jumps[:-1]:
        ahead = _jump(tab, states)
        yield _draw_pairs(ahead)
        states = np.concatenate([states, ahead])
    while True:
        states = _jump(jumps[-1], states)
        yield _draw_pairs(states)


def _draws(s):
    """The draws after generator state ``s``, as ``(u, log u')`` pairs."""
    return itertools.chain.from_iterable(_blocks(s))


def _inv_log1m(p):
    """``1 / log(1 - p)``, the scale of geometric gaps; 0 unless 0 < p < 1."""
    if 0.0 < p < 1.0:
        return 1.0 / math.log1p(-p)
    return 0.0


def _binomial(draws, n, p):
    """One Binomial(n, p) draw, by inversion searching outwards from the mode.

    The mode's probability comes from ``lgamma``, so the probabilities are
    exact up to a relative rounding error of about 1e-16 * n * log(n).
    """
    if n <= 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    m = int((n + 1) * p)
    if m > n:
        m = n
    f_mode = math.exp(
        math.lgamma(n + 1.0) - math.lgamma(m + 1.0) - math.lgamma(n - m + 1.0)
        + m * math.log(p) + (n - m) * math.log1p(-p)
    )
    odds = p / (1.0 - p)
    u = next(draws)[0] - f_mode
    lo, f_lo, hi, f_hi = m, f_mode, m, f_mode
    while u >= 0.0:
        moved = False
        if hi < n and f_hi > 0.0:
            f_hi *= (n - hi) / (hi + 1.0) * odds
            hi += 1
            u -= f_hi
            if u < 0.0:
                return hi
            moved = True
        if lo > 0 and f_lo > 0.0:
            f_lo *= lo / ((n - lo + 1.0) * odds)
            lo -= 1
            u -= f_lo
            if u < 0.0:
                return lo
            moved = True
        if not moved:
            break  # the pmf sum fell short of u by rounding
    return m


def gate_loop(
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
    seed,
):
    """Simulate registered clicks on the gate grid.

    Per-gate semantics: at an armed gate the click probability is
    eff(dt) * [1 - (1-p_photon)(1-p_dark)(1-p_trap)], decomposed into
    independent per-source Bernoulli fires thinned by the recovery
    efficiency; coincident sources make one avalanche.  eff rises linearly
    from 0 at ``ramp_start`` to 1 at ``ramp_start + ramp_len`` gates after
    the last click, and is 1 when ``ramp_len`` is 0.  Within the dead
    window the latched-comparator scheme (``is_lt``) still grows avalanches
    (counted as hidden, each may trap a carrier) while the active-reset
    scheme suppresses avalanches entirely and pending trap releases are
    lost.  Every avalanche fills a trap with probability ``q_ap``; the
    carrier is released after an exponential delay of mean
    ``detrap_gates``, at the next whole gate.

    Returns (click_gates int64 array, hidden_avalanches).
    """
    # xorshift's fixed point 0 gives way to the splitmix64 increment
    draws = _draws(_splitmix64(seed) or _SM_GAMMA)
    draw = draws.__next__
    push, pop, ceil = heapq.heappush, heapq.heappop, math.ceil

    n_pulses = (n_gates + gates_per_pulse - 1) // gates_per_pulse
    inv_lp_ph = _inv_log1m(p_photon)
    inv_lp_dk = _inv_log1m(p_dark)
    # An avalanche's trap is decided by its release's mark, else by its
    # photon fire's, else by its dark fire's; every mark is set with
    # probability q_ap.  Marks drawn one avalanche after another are kept
    # as a geometric count of unmarked avalanches before the next marked
    # one (to_trap), so most avalanches cost a decrement, not a draw.
    inv_lp_q = _inv_log1m(q_ap)
    to_trap = _FAR
    if q_ap >= 1.0:
        to_trap = 0
    elif q_ap > 0.0:
        gap = inv_lp_q * draw()[1]
        to_trap = int(gap) if gap < 4.0e18 else _FAR
    # In a latch window the photon stream is thinned to its marked fires
    # (Lewis & Shedler) from the click, or from its first fire there; a
    # laser gate it skips hid an unmarked fire with probability miss_ph.
    # Past the window, the uniform of a thinned gap that overshoots it,
    # rescaled to (0, 1], gives the full stream's gap: ratio_ph converts
    # the scales.
    th_ph = q_ap * p_photon if is_lt else 0.0
    miss_ph = 0.0
    if th_ph < 1.0:
        miss_ph = (p_photon - th_ph) / (1.0 - th_ph)
    # no marked fire at all when th_ph = 0: every thinned gap overshoots,
    # and its rescaled overshoot is a plain gap of the full stream; every
    # fire is marked when th_ph = 1, and no gap overshoots
    inv_lp_th_ph = _inv_log1m(th_ph) if th_ph > 0.0 else -1e300
    ratio_ph = inv_lp_ph / inv_lp_th_ph if th_ph < 1.0 else 0.0

    next_phot = _FAR
    if p_photon >= 1.0:
        next_phot = 0
    elif p_photon > 0.0:
        gap = inv_lp_ph * draw()[1]
        if gap < n_pulses:
            next_phot = int(gap) * gates_per_pulse
    next_dark = _FAR
    if p_dark >= 1.0:
        next_dark = 0
    elif p_dark > 0.0:
        gap = inv_lp_dk * draw()[1]
        if gap < n_gates:
            next_dark = int(gap)

    # after an active reset the efficiency is below 1 until ramp_end
    ramp_end = ramp_start + ramp_len if ramp_len > 0.0 else -1.0

    rel = [_FAR]  # min-heap of pending release gates, over the sentinel
    next_rel = _FAR  # rel[0]

    clicks = array.array("q")
    add_click = clicks.append

    last_click = -_FAR
    dead_end = -_FAR  # last_click + dead_gates: the first armed gate
    ph_stop = 0  # the photon stream is thinned below this laser pulse
    skip_ph = 0  # laser gates of latch windows the thinned stream skipped
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

        # the streams that fired restart at ``start``; the releases before
        # it are spent, or lost
        start = e + 1
        own = True  # the avalanche's own trap mark decides its trap
        trap = False
        if e < dead_end:
            # latch window (under active reset nothing is pending in the
            # hold-off): the comparator is latched but the bias high, so
            # the avalanche grows and quenches unseen
            hidden += 1
            if e < ph_stop * gates_per_pulse and e % gates_per_pulse == 0:
                # a laser gate the thinned stream covers: visited after all
                skip_ph -= 1
                if next_rel != e:
                    if phot_f:
                        own = False  # a marked photon fire
                        trap = True
                    else:
                        # a dark fire, unless an unmarked photon fire the
                        # thinned stream skipped decides the trap
                        own = draw()[0] >= miss_ph
            elif phot_f:
                # the photon stream's first fire in a window its click did
                # not thin: thin it for the rest of the window
                stop = dead_end if dead_end < n_gates else n_gates
                ph_stop = (stop + gates_per_pulse - 1) // gates_per_pulse
                skip_ph += ph_stop - e // gates_per_pulse - 1
        else:
            if e - last_click < ramp_end:
                # still recovering from an active reset: registered with
                # the efficiency, or no avalanche at all
                tf = float(e - last_click)
                effv = 0.0
                if tf > ramp_start:
                    effv = (tf - ramp_start) / ramp_len
                own = draw()[0] < effv
            if own:
                add_click(e)
                last_click = e
                dead_end = e + dead_gates
                if phot_f and is_lt:
                    # thin the photon stream for the latch window
                    stop = dead_end if dead_end < n_gates else n_gates
                    ph_stop = (stop + gates_per_pulse - 1) // gates_per_pulse
                    skip_ph += ph_stop - e // gates_per_pulse - 1
                if not is_lt:
                    # hold-off: restart the streams at its end and lose
                    # every carrier released inside it
                    start = dead_end
                    phot_f = phot_f or next_phot < dead_end
                    dark_f = dark_f or next_dark < dead_end
        if own:
            if to_trap > 0:
                to_trap -= 1
            else:
                trap = True
                if q_ap < 1.0:
                    gap = inv_lp_q * draw()[1]
                    to_trap = int(gap) if gap < 4.0e18 else _FAR

        if next_rel < start:
            while rel[0] < start:
                pop(rel)
            next_rel = rel[0]
        if phot_f:
            k = (start + gates_per_pulse - 1) // gates_per_pulse
            gap = 0.0  # to the next fire, in laser pulses
            if k < ph_stop:
                # latch window: only the marked fires up to ph_stop
                gap = inv_lp_th_ph * draw()[1]
                if gap >= ph_stop - k:
                    gap = (gap - (ph_stop - k)) * ratio_ph
                    k = ph_stop
            elif p_photon < 1.0:
                gap = inv_lp_ph * draw()[1]
            k = k + int(gap) if gap < 4.0e18 else n_pulses
            next_phot = k * gates_per_pulse if k < n_pulses else _FAR
        if dark_f:
            next_dark = start
            if p_dark < 1.0:
                gap = inv_lp_dk * draw()[1]
                next_dark = start + int(gap) if gap < 4.0e18 else _FAR
            if next_dark >= n_gates:
                next_dark = _FAR
        if trap:
            delay = -detrap_gates * draw()[1]
            rg = e + (ceil(delay) if delay > 1.0 else 1)
            if start <= rg < n_gates:
                push(rel, rg)
                if rg < next_rel:
                    next_rel = rg

    hidden += _binomial(draws, skip_ph, miss_ph)
    return np.frombuffer(clicks, np.int64).copy(), hidden


def sweep_scan(click_gates, gates_per_pulse, sweep_gates, binw_gates, n_bins):
    """Emulate oscilloscope sweeps over a click train.

    Every laser-coincident click triggers, and every other click less than
    ``sweep_gates`` after the last trigger before it is binned at its offset
    over ``binw_gates``, truncated, with any overshoot in the last of
    ``n_bins`` bins.  ``SweepHistogram`` holds the sweep to one laser period
    up to float noise, so ``sweep_gates`` is at most ``gates_per_pulse + 1``:
    a click ``gates_per_pulse`` gates after a trigger is itself a trigger,
    at offset 0, so no window bins the next pulse's clicks.

    Returns (bins int64 array, trigger count).
    """
    trig = click_gates[click_gates % gates_per_pulse == 0]
    if trig.size == 0:
        return np.zeros(n_bins, np.int64), 0
    # each click's offset from the last trigger at or before it; a click
    # before the first trigger meets the last one (index -1), behind it
    off = click_gates - trig[np.searchsorted(trig, click_gates, "right") - 1]
    off = off[(off > 0) & (off < sweep_gates)]
    idx = (off / binw_gates).astype(np.int64)
    np.minimum(idx, n_bins - 1, out=idx)
    return np.bincount(idx, minlength=n_bins).astype(np.int64, copy=False), trig.size
