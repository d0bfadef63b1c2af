"""Hot Monte Carlo kernels, in plain Python over numpy.

The gate loop simulates a sine-gated detector over ``n_gates`` gates
without visiting every gate: each source fires at a gate with a fixed
probability, so the gaps between fires are geometric and are drawn whole,
which is distribution-exact and makes the cost proportional to the number
of events instead of the gate count.  The two dead-time schemes take two
paths, both window by window:

* active reset: a hold-off only discards the fires inside it (a
  non-paralyzable dead time; J. W. Müller, NIM 112, 1973), so each window
  draws its photon and dark fires ahead, and one stable merge gives each
  fire its first successor past a hold-off (``_successors``).  One Python
  loop takes the next event, a fire or a pending release, after dropping
  the releases spent or lost in the last hold-off; an event in the
  efficiency ramp takes one draw.  A registered event settles the events
  after it that no draw decides: a fire registers in a chase along those
  successors, one step per click, and a release resumes the chase at the
  first fire past its hold-off.  The chase drops a release lost in the
  hold-off, registers one past it, and leaves the window's end and an
  event in the ramp to the loop's top.  A trap fill takes one pair of
  draws, its release delay and the count of unmarked clicks before the
  next fill: the trap marks of successive clicks are a geometric count.
  Pending releases sit in a ``heapq`` list over the sentinel
  ``_FAR`` (the priority queue of Gibson & Bruck's next-reaction method,
  2000).
* latched comparator: the bias stays high through a latch window, so the
  avalanches do not depend on which of them register.  ``_grow`` grows a
  window's avalanches in numpy as a branching process, one generation of
  trap releases at a time; the clicks are a non-paralyzable dead-time
  selection over them, and ``hidden_avalanches`` counts the others.

In both, fires and releases due at one gate make one avalanche.  An
active-reset window expects ``_BLOCK`` draws, a latched window four times
that (each generation has a fixed numpy cost), so a run's working set does
not grow with its gate count or its pulse energy.  Randomness comes from
numpy's PCG64 bit generator (O'Neill, 2014): each kernel takes the raw
64-bit outputs of ``random_raw(n)``, ``n`` at a time, and ``_logs`` turns
them into numbers, the only place that does.  The active-reset loop takes
its trap fills and ramp draws one precomputed pair at a time
(``_pair_stream``); a ramp draw reads the pair's first log.  A train reads
a log only through the whole part or the ceiling of a scaled value, or a
comparison with the log of the ramp's efficiency, so a last-bit difference
from libm's log moves a train only within an ulp.

``sweep_scan`` folds a click train into oscilloscope sweeps in numpy: every
laser-coincident click triggers, since no sweep outlasts the laser period,
and every click is binned against its trigger at once.  The registered
clicks go into an ``array("q")``, so no carrier or click is ever dropped.
"""

from __future__ import annotations

import array
import bisect
import heapq
import math

import numpy as np

__all__ = ["gate_loop", "sweep_scan"]

_TWO53INV = 1.0 / 9007199254740992.0  # 2**-53
_BLOCK = 4096  # draws an active-reset window expects; a pair stream's longest run

_FAR = 1 << 62  # gate index sentinel: no further event of this kind
_EMPTY = np.empty(0, np.int64)


def _logs(x):
    """numpy's log of u' = ((x >> 11) | 1) * 2**-53 in (0, 1), for raw
    64-bit draws ``x``: the one map from a draw to a number."""
    return np.log(((x >> 11) | 1) * _TWO53INV)


def _wholes(x):
    """The whole parts of the non-negative ``x``, ``_FAR`` from 4e18 up."""
    return np.where(x < 4.0e18, x, _FAR).astype(np.int64)


def _pair_stream(take, detrap_gates, inv_lp_q):
    """The draws ``take`` gives, one pair at a time, taken in runs of 2, 4,
    ... up to ``_BLOCK`` draws: the first draw's log, a trap fill's release
    delay from it, ``int(-detrap_gates * log) + 1``, and its count of
    unmarked clicks from the second draw, ``int(inv_lp_q * log)``."""
    n = 2
    while True:
        logs = _logs(take(n))
        firsts = logs[0::2]
        yield from zip(firsts.tolist(), (_wholes(firsts * -detrap_gates) + 1).tolist(),
                       _wholes(logs[1::2] * inv_lp_q).tolist())
        n = min(2 * n, _BLOCK)


def _windows(n_gates, draw_rate):
    """``(w0, w1)`` windows over the run, each expecting ``_BLOCK`` draws
    at ``draw_rate`` draws a gate."""
    span = max(1, int(_BLOCK / draw_rate)) if draw_rate > 0.0 else n_gates
    for w0 in range(0, n_gates, span):
        yield w0, min(w0 + span, n_gates)


def _firsts(x):
    """The mask of the first of each run of equal values in the sorted ``x``."""
    first = np.empty(x.size, bool)
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    return first


def _inv_log1m(p):
    """``1 / log(1 - p)``, the scale of geometric gaps; 0 unless 0 < p < 1."""
    return 1.0 / math.log1p(-p) if 0.0 < p < 1.0 else 0.0


def _fires(take, n, p):
    """The indices below ``n`` where a stream fires with probability ``p``
    each, from geometric gaps drawn until one passes ``n``.

    Gaps are memoryless, so the next call starts the stream afresh.
    """
    inv_lp = _inv_log1m(p)
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


def _window_fires(take, w0, w1, gates_per_pulse, p_photon, p_dark):
    """The photon fires' gates in ``[w0, w1)``, then the dark fires'."""
    k0 = -(-w0 // gates_per_pulse)
    photon = _fires(take, -(-w1 // gates_per_pulse) - k0, p_photon)
    return (photon + k0) * gates_per_pulse, _fires(take, w1 - w0, p_dark) + w0


def _successors(x, dead):
    """Each of the sorted unique ``x``'s first successor ``dead`` or more
    after it, as its index (``x.size`` for none): the count of ``x`` below
    its hold-off's end, from a stable merge of the ends ahead of ``x``."""
    ends = np.concatenate((x + dead, x)).argsort(kind="stable")
    return np.flatnonzero(ends < x.size) - np.arange(x.size)


def _dead_time_selection(x, dead):
    """The clicks of a non-paralyzable dead time ``dead`` over the sorted unique
    gates ``x``: the first, then each first gate ``dead`` or more after the last."""
    # a gate ``dead`` or more after its predecessor is a click whatever came
    # before it, and starts a run that the clicks before it cannot reach
    pick = np.diff(x, prepend=x[:1] - dead) >= dead
    cur = np.flatnonzero(pick)
    end = np.append(cur, x.size)[1:]
    succ = _successors(x, dead)
    # chase every run at once while many are left, then the few in Python
    while True:
        cur = succ[cur]
        live = cur < end
        cur, end = cur[live], end[live]
        if cur.size <= 32:
            break
        pick[cur] = True
    succ, tail = memoryview(succ), []
    for i, e in zip(cur.tolist(), end.tolist()):
        while i < e:
            tail.append(i)
            i = succ[i]
    pick[tail] = True
    return x[pick]


def _grow(take, new, w1, n_gates, q_ap, detrap_gates, later):
    """The sorted avalanches of a latched window ending at ``w1``, grown
    from its fires and carried releases (``new``) one generation at a time:
    a gate with fires or releases is one avalanche, each new one traps with
    probability ``q_ap``, and releases past the window go to ``later``."""
    new.sort()
    aval = new = new[_firsts(new)]  # the first generation
    while new.size:
        trap = new[_fires(take, new.size, q_ap)]
        # the next whole gate after an exponential delay: floor + 1 is
        # max(1, ceil) for every delay but a whole number
        delay = _logs(take(trap.size))
        delay *= -detrap_gates
        np.minimum(delay, n_gates, out=delay)
        rel = delay.astype(np.int64) + 1
        rel += trap
        rel.sort(kind="stable")
        cut = rel.searchsorted((w1, n_gates))
        later.append(rel[cut[0] : cut[1]])
        # a gate that has had an avalanche makes no new one
        new = rel[: cut[0]]
        seen = np.minimum(aval.searchsorted(new), aval.size - 1)
        new = new[_firsts(new) & (aval[seen] != new)]
        aval = np.concatenate((aval, new))
        aval.sort(kind="stable")  # a merge of two sorted runs
    return aval


def _latched(n_gates, gates_per_pulse, p_photon, p_dark, q_ap, detrap_gates, dead_gates, seed):
    """``gate_loop`` under the latched comparator: each window of gates
    draws its photon and dark fires, grows its avalanches and selects its
    clicks, the first avalanche ``dead_gates`` or more after the last."""
    take = np.random.PCG64(seed).random_raw
    # a window expects 4 * _BLOCK draws (one per fire, and a trap costs
    # two, its mark's gap and its delay): each generation has a fixed numpy
    # cost, so fewer, larger windows pay it fewer times
    fire_rate = p_photon / gates_per_pulse + p_dark
    aval_rate = min(1.0, fire_rate / (1.0 - q_ap)) if q_ap < 1.0 else 1.0
    clicks = array.array("q")
    n_aval, armed = 0, 0  # avalanches so far; the first gate a click may register at
    carry = _EMPTY  # releases past the window, before n_gates
    for w0, w1 in _windows(n_gates, (fire_rate + 2.0 * q_ap * aval_rate) / 4.0):
        later = [carry[carry >= w1]]
        fires = _window_fires(take, w0, w1, gates_per_pulse, p_photon, p_dark)
        aval = _grow(take, np.concatenate((*fires, carry[carry < w1])), w1, n_gates, q_ap,
                     detrap_gates, later)
        carry = np.concatenate(later)
        n_aval += aval.size
        picks = _dead_time_selection(aval[aval.searchsorted(armed) :], dead_gates)
        if picks.size:
            clicks.frombytes(picks.tobytes())
            armed = clicks[-1] + dead_gates
    return np.frombuffer(clicks, np.int64).copy(), n_aval - len(clicks)


def gate_loop(n_gates, gates_per_pulse, p_photon, p_dark, q_ap, detrap_gates, is_lt,
              dead_gates, ramp_start, ramp_len, seed):
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
    dead_gates = max(dead_gates, 1)
    if is_lt:
        return _latched(n_gates, gates_per_pulse, p_photon, p_dark, q_ap, detrap_gates, dead_gates, seed)
    take = np.random.PCG64(seed).random_raw
    push, pop, first_at = heapq.heappush, heapq.heappop, bisect.bisect_left
    rel = [_FAR]  # min-heap of pending release gates, over the sentinel
    inv_lp_q = _inv_log1m(q_ap)
    # the trap marks of successive clicks are kept as a count of unmarked
    # clicks before the next marked one: a click costs a decrement
    to_trap = int(_wholes(inv_lp_q * _logs(take(1)))[0]) if q_ap > 0.0 else _FAR
    pair = _pair_stream(take, detrap_gates, inv_lp_q).__next__  # trap fills, ramp draws
    # after an active reset the efficiency is below 1 until ramp_end
    ramp_end = ramp_start + ramp_len if ramp_len > 0.0 else -1.0
    clicks = array.array("q")
    add = clicks.append
    last, pos = -_FAR, 0  # the last click, and the first gate left to see
    for w0, w1 in _windows(n_gates, p_photon / gates_per_pulse + p_dark):
        fires = np.concatenate((*_window_fires(take, w0, w1, gates_per_pulse, p_photon, p_dark),
                                (_FAR,)))
        fires.sort(kind="stable")  # merges the two sorted streams
        fires = fires[_firsts(fires)]
        after = _successors(fires[:-1], dead_gates)
        # the chase leaves at -1, the sentinel's index, where that successor
        # is still in the ramp
        if ramp_len > 0.0:
            after[fires[after] - fires[:-1] < ramp_end] = -1
        fire, after = memoryview(fires), memoryview(after)
        i = first_at(fire, pos)  # the first fire left to see
        while True:
            while rel[0] < pos:
                pop(rel)  # spent, or lost in the last click's hold-off
            f, r = fire[i], rel[0]
            e = f if f <= r else r  # coincident sources make one avalanche
            if e >= w1:
                break
            dt = e - last
            if dt < ramp_end:
                # still recovering from an active reset: registered with the
                # efficiency, or no avalanche at all
                log_u = pair()[0]
                if dt <= ramp_start or log_u >= math.log((dt - ramp_start) / ramp_len):
                    pos = e + 1  # its fire is spent, the releases due there lost
                    i += f == e
                    continue
            # e registers, and so does each event after it until the window
            # ends or an event is in the ramp: no draw decides them
            while True:
                if f != e:
                    # a release registered: resume at the first fire past its
                    # hold-off, stepping on from the fire before it
                    add(e)
                    if to_trap:
                        to_trap -= 1
                    else:
                        # a trap fill: its carrier is lost in the hold-off,
                        # or released at the next whole gate, as under LT
                        _, delay, to_trap = pair()
                        if delay >= dead_gates and e + delay < n_gates:
                            push(rel, e + delay)
                    last, pos = e, e + dead_gates
                    i = after[i - 1] if i and after[i - 1] >= 0 else first_at(fire, pos, i)
                    while fire[i] < pos:
                        i += 1
                    f = fire[i]
                else:
                    # a fire registered: chase the first fire past each
                    # hold-off until the window ends, a pending release comes
                    # first (lost in the hold-off or not) or that fire is in
                    # the ramp
                    stop = r if r < w1 else w1 - 1
                    while f <= stop:
                        add(f)
                        if to_trap:
                            to_trap -= 1
                        else:
                            _, delay, to_trap = pair()
                            if delay >= dead_gates and f + delay < n_gates:
                                push(rel, f + delay)
                                if rel[0] < stop:
                                    stop = rel[0]
                        i = after[i]
                        f = fire[i]
                    last = clicks[-1]
                    pos = last + dead_gates
                    if i < 0:
                        i = first_at(fire, pos)
                        break
                while rel[0] < pos:
                    pop(rel)  # lost in the hold-off
                r = rel[0]
                e = f if f <= r else r
                if e >= w1 or e - last < ramp_end:
                    break  # the loop's top takes the window's end or a ramp event

    return np.frombuffer(clicks, np.int64).copy(), 0


def sweep_scan(click_gates, gates_per_pulse, sweep_gates, binw_gates, n_bins):
    """Emulate oscilloscope sweeps over a click train.

    Every laser-coincident click triggers, and every other click less than
    ``sweep_gates`` after the last trigger before it is binned at its offset
    over ``binw_gates``, truncated, with any overshoot in the last of
    ``n_bins`` bins.  ``Histogram`` holds a sweep to one laser period
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
