"""Hot Monte Carlo kernels, in plain Python over numpy.

The gate loop simulates a sine-gated detector over ``n_gates`` gates
without visiting every gate: each source fires at a gate with a fixed
probability, so the gaps between fires are geometric and are drawn whole,
which is distribution-exact and makes the cost proportional to the number
of events instead of the gate count.  The two dead-time schemes take two
paths:

* active reset: an event loop.  At a registered click the photon and dark
  streams restart at the end of the hold-off (geometric gaps are
  memoryless, so the jump is exact), the pending trap releases inside it
  are dropped, and a release that would land inside it is never queued.
  The trap marks of successive avalanches are kept as a geometric count of
  unmarked avalanches before the next marked one: an avalanche costs a
  decrement, a trap fill one draw.  Pending releases sit in a min-heap (the
  priority queue of Gibson & Bruck's next-reaction method, 2000): a
  ``heapq`` list that always holds the sentinel ``_FAR``, so its smallest
  entry is the next release, or ``_FAR``.  Every release due at a gate is
  popped there at once, as one avalanche.
* latched comparator: the bias stays high through a latch window, so the
  avalanches do not depend on which of them the comparator registers.
  ``_latched`` grows them in numpy, window by window, as a branching
  process: a window draws its photon and dark fires, each generation's
  avalanches trap with probability ``q`` and release the next generation,
  and a release past the window waits for the next one.  The clicks are a
  non-paralyzable dead-time selection over the window's sorted avalanches,
  and ``hidden_avalanches`` counts the others.  A window expects one block
  of draws, so a run's working set does not grow with its gate count.

Randomness comes from one xorshift64* stream, seeded by splitmix64 on
Python ints masked to 64 bits.  ``_blocks`` turns the seeded state into
numpy blocks of draws: the shift-xor step is linear over GF(2)^64, and
byte tables of its powers advance a whole block of states at once.  The
event loop reads the blocks as ``(u, log u')`` pairs (``_draws``), the
windows as arrays (``_taker``).  u in [0, 1) decides the event loop's
recovery-efficiency draws, and numpy's log of a u' in (0, 1), always taken
by ``_logs``, gives the geometric gaps and the exponential detrap delays.
A train reads a log only through the whole part or the ceiling of a scaled
value, so a last-bit difference from libm's log moves it only within an
ulp of a whole number.

``sweep_scan`` folds a click train into oscilloscope sweeps in numpy: every
laser-coincident click triggers, since no sweep outlasts the laser period,
and every click is binned against its trigger at once.

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
_EMPTY = np.empty(0, np.int64)


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


def _logs(x):
    """numpy's log of u' = (x | 1) * 2**-53 in (0, 1), for draws ``x``.

    Every log either kernel path reads comes from here.
    """
    return np.log((x | 1) * _TWO53INV)


def _draw_pairs(x):
    """The draws ``x`` as ``(u, log u')`` pairs, with u = x * 2**-53 in [0, 1)."""
    return zip((x * _TWO53INV).tolist(), _logs(x).tolist())


def _blocks(s):
    """The stream after state ``s`` in blocks of 53-bit draws (uint64 arrays).

    A state s gives the draw (s * MULT) >> 11.
    """
    jumps = _jump_tables()
    states = _jump(jumps[0], np.array([s], np.uint64))
    yield (states * _MULT) >> 11
    for tab in jumps[:-1]:
        ahead = _jump(tab, states)
        yield (ahead * _MULT) >> 11
        states = np.concatenate([states, ahead])
    while True:
        states = _jump(jumps[-1], states)
        yield (states * _MULT) >> 11


def _draws(s):
    """The draws after generator state ``s``, as ``(u, log u')`` pairs."""
    return itertools.chain.from_iterable(map(_draw_pairs, _blocks(s)))


def _taker(s):
    """``take(n)``: the next ``n`` draws after state ``s``, as one array."""
    blocks = _blocks(s)
    buf, pos = np.empty(0, np.uint64), 0

    def take(n):
        nonlocal buf, pos
        parts = []
        while n > buf.size - pos:
            parts.append(buf[pos:])
            n -= buf.size - pos
            buf, pos = next(blocks), 0
        pos += n
        parts.append(buf[pos - n : pos])
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    return take


def _inv_log1m(p):
    """``1 / log(1 - p)``, the scale of geometric gaps; 0 unless 0 < p < 1."""
    if 0.0 < p < 1.0:
        return 1.0 / math.log1p(-p)
    return 0.0


def _fires(take, n, p, inv_lp):
    """The indices below ``n`` where a stream fires with probability ``p``
    each, from geometric gaps drawn until one passes ``n``.

    Gaps are memoryless, so the next call starts the stream afresh.
    """
    parts = [_EMPTY]
    last = -1
    while p > 0.0 and last < n - 1:
        rem = n - 1 - last  # the indices left
        mean = rem * p
        gaps = inv_lp * _logs(take(min(rem, int(mean + 3.0 * math.sqrt(mean))) + 1))
        np.minimum(gaps, rem, out=gaps)
        pos = np.cumsum(gaps.astype(np.int64) + 1)
        pos += last
        parts.append(pos[: np.searchsorted(pos, n)])
        last = int(pos[-1])
    return np.concatenate(parts)


def _latched(n_gates, gates_per_pulse, p_photon, p_dark, q_ap, detrap_gates, dead_gates, s):
    """``gate_loop`` under the latched comparator, window by window in numpy.

    Each window of gates draws its photon and dark fires, then grows its
    avalanches one generation at a time: a gate with fires or releases is
    one avalanche, each new avalanche traps with probability ``q_ap``, and
    a release past the window waits for the next one.  The clicks are the
    first avalanche and then, each time, the first one ``dead_gates`` or
    more after the last click.
    """
    take = _taker(s)
    inv_lp_ph, inv_lp_dk, inv_lp_q = map(_inv_log1m, (p_photon, p_dark, q_ap))
    # a window expects one block of draws: one per fire, and a trap costs
    # two, its mark's gap and its delay
    fire_rate = p_photon / gates_per_pulse + p_dark
    aval_rate = min(1.0, fire_rate / (1.0 - q_ap)) if q_ap < 1.0 else 1.0
    draw_rate = fire_rate + 2.0 * q_ap * aval_rate
    span = max(1, int(2**_BLOCK_LEVELS / draw_rate)) if draw_rate > 0.0 else n_gates
    clicks = array.array("q")
    n_aval = 0
    armed = 0  # the first gate a click may register at
    carry = _EMPTY  # releases past the window, before n_gates
    for w0 in range(0, n_gates, span):
        w1 = min(w0 + span, n_gates)
        k0 = -(-w0 // gates_per_pulse)
        photon = _fires(take, -(-w1 // gates_per_pulse) - k0, p_photon, inv_lp_ph)
        later = [carry[carry >= w1]]
        new = np.concatenate(((photon + k0) * gates_per_pulse,
                              _fires(take, w1 - w0, p_dark, inv_lp_dk) + w0,
                              carry[carry < w1]))
        aval = _EMPTY  # twice each avalanche's gate
        while new.size:
            # a code is twice a gate, plus one for a new event: sorted, a
            # gate whose first code is odd had no avalanche yet
            code = np.concatenate((aval, new * 2 + 1))
            code.sort(kind="stable")
            gate = code >> 1
            first = np.empty(code.size, bool)
            first[0] = True
            np.not_equal(gate[1:], gate[:-1], out=first[1:])
            aval = gate[first] * 2
            new = gate[first & (code & 1).astype(bool)]
            trap = new[_fires(take, new.size, q_ap, inv_lp_q)]
            # the next whole gate after an exponential delay: floor + 1 is
            # max(1, ceil) for every delay but a whole number
            delay = _logs(take(trap.size))
            delay *= -detrap_gates
            np.minimum(delay, n_gates, out=delay)
            rel = delay.astype(np.int64) + 1
            rel += trap
            rel.sort(kind="stable")
            cut = np.searchsorted(rel, (w1, n_gates))
            later.append(rel[cut[0] : cut[1]])
            new = rel[: cut[0]]
        carry = np.concatenate(later)
        aval = aval >> 1
        n_aval += aval.size
        n, i = aval.size, int(np.searchsorted(aval, armed))
        if i < n:
            succ = memoryview(np.searchsorted(aval, aval + dead_gates))
            picks = array.array("q")
            while i < n:
                picks.append(i)
                i = succ[i]
            clicks.frombytes(aval[np.frombuffer(picks, np.int64)].tobytes())
            armed = clicks[-1] + dead_gates
    return np.frombuffer(clicks, np.int64).copy(), n_aval - len(clicks)


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
    efficiency; coincident sources make one avalanche.  Under active reset
    eff rises linearly from 0 at ``ramp_start`` to 1 at ``ramp_start +
    ramp_len`` gates after the last click, and is 1 when ``ramp_len`` is 0;
    the latched scheme has no ramp.  Within the dead window the
    latched-comparator scheme (``is_lt``) still grows avalanches (counted
    as hidden, each may trap a carrier) while the active-reset scheme
    suppresses avalanches entirely and pending trap releases are lost.
    Every avalanche fills a trap with probability ``q_ap``; the carrier is
    released after an exponential delay of mean ``detrap_gates``, at the
    next whole gate.

    Returns (click_gates int64 array, hidden_avalanches).
    """
    # xorshift's fixed point 0 gives way to the splitmix64 increment
    s = _splitmix64(seed) or _SM_GAMMA
    if is_lt:
        return _latched(
            n_gates, gates_per_pulse, p_photon, p_dark, q_ap, detrap_gates, max(dead_gates, 1), s
        )
    draw = _draws(s).__next__
    push, pop, ceil = heapq.heappush, heapq.heappop, math.ceil

    n_pulses = (n_gates + gates_per_pulse - 1) // gates_per_pulse
    inv_lp_ph = _inv_log1m(p_photon)
    inv_lp_dk = _inv_log1m(p_dark)
    # Trap marks drawn one avalanche after another are kept as a geometric
    # count of unmarked avalanches before the next marked one (to_trap), so
    # most avalanches cost a decrement, not a draw.
    inv_lp_q = _inv_log1m(q_ap)
    to_trap = _FAR
    if q_ap >= 1.0:
        to_trap = 0
    elif q_ap > 0.0:
        gap = inv_lp_q * draw()[1]
        to_trap = int(gap) if gap < 4.0e18 else _FAR

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
        own = True  # an avalanche, registered
        trap = False
        if e - last_click < ramp_end:
            # still recovering from an active reset: registered with the
            # efficiency, or no avalanche at all
            tf = float(e - last_click)
            effv = 0.0
            if tf > ramp_start:
                effv = (tf - ramp_start) / ramp_len
            own = draw()[0] < effv
        if own:
            add_click(e)
            last_click = e
            # hold-off: restart the streams at its end and lose every
            # carrier released inside it
            start = e + dead_gates
            phot_f = phot_f or next_phot < start
            dark_f = dark_f or next_dark < start
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
            gap = inv_lp_ph * draw()[1] if p_photon < 1.0 else 0.0
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

    return np.frombuffer(clicks, np.int64).copy(), 0


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
