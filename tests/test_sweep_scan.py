"""The numpy sweep scan against the per-click loop it replaced.

``reference_sweep_scan`` is that loop, kept as it was: it walks the click
train once, opening a window at a laser-coincident click outside any open
window and binning every later click inside it.  ``_kernels.sweep_scan``
finds the same triggers as a chain over the laser-coincident clicks and
bins every click at once; the two must give equal bins and trigger counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afterpulse import _kernels


def reference_sweep_scan(click_gates, gates_per_pulse, sweep_gates, binw_gates, n_bins):
    """(bins, trigger count) of the sweeps over a click train, click by click."""
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


def assert_scans_agree(clicks, gates_per_pulse, sweep_gates, binw_gates, n_bins):
    clicks = np.array(clicks, np.int64)
    args = (gates_per_pulse, sweep_gates, binw_gates, n_bins)
    bins, c0 = _kernels.sweep_scan(clicks, *args)
    want_bins, want_c0 = reference_sweep_scan(clicks, *args)
    assert bins.dtype == np.int64
    assert np.array_equal(bins, want_bins)
    assert c0 == want_c0
    return bins, c0


# (clicks, gates_per_pulse, sweep_gates, binw_gates, n_bins), bins, c0
CASES = {
    "empty": (([], 4, 10, 2.5, 4), [0, 0, 0, 0], 0),
    "no-laser-click": (([1, 2, 5, 7, 13], 4, 10, 2.5, 4), [0, 0, 0, 0], 0),
    "one-click": (([8], 4, 10, 2.5, 4), [0, 0, 0, 0], 1),
    "one-click-off-laser": (([9], 4, 10, 2.5, 4), [0, 0, 0, 0], 0),
    # 10 is a sweep after the trigger at 0: neither binned nor a trigger,
    # and the window it closed bins nothing more
    "a-sweep-after": (([0, 3, 10, 13], 4, 10, 2.5, 4), [0, 1, 0, 0], 1),
    # the same, with 10 laser-coincident: it triggers the next sweep
    "a-sweep-after-on-laser": (([0, 3, 10, 13], 5, 10, 2.5, 4), [0, 2, 0, 0], 2),
    "gates-per-pulse-1": (([0, 3, 9, 10, 12, 25], 1, 10, 2.5, 4), [1, 1, 0, 1], 3),
    # round(10 / 4) = 2 bins of 4 gates: offset 9 overshoots into the last
    "clamp": (([0, 1, 5, 9], 10, 10, 4.0, 2), [1, 2], 1),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_edge_cases(case):
    args, want_bins, want_c0 = case
    bins, c0 = assert_scans_agree(*args)
    assert bins.tolist() == want_bins and c0 == want_c0


def test_laser_clicks_closer_than_a_sweep_take_the_chain(monkeypatch):
    calls = []

    def chain(laser, sweep_gates):
        calls.append(laser.size)
        return trigger_chain(laser, sweep_gates)

    trigger_chain = _kernels._trigger_chain
    monkeypatch.setattr(_kernels, "_trigger_chain", chain)
    # a laser click every 2 gates: every fifth one triggers, at 0, 10, ... 40
    bins, c0 = assert_scans_agree(np.arange(0, 41, 2), 2, 10, 2.5, 4)
    assert calls == [21]
    assert bins.tolist() == [4, 4, 4, 4] and c0 == 5


def test_laser_clicks_a_sweep_apart_all_trigger(monkeypatch):
    monkeypatch.setattr(_kernels, "_trigger_chain", None)
    bins, c0 = assert_scans_agree([0, 7, 10, 20, 29, 30, 41, 50], 10, 10, 2.5, 4)
    assert bins.tolist() == [0, 0, 1, 1] and c0 == 5


@st.composite
def scans(draw):
    """A strictly increasing click train and a sweep geometry.

    The bins follow ``build_sweep_histogram``: a width in gates, not always
    a divisor of the sweep, and the sweep over it rounded to a whole count.
    """
    gates_per_pulse = draw(st.sampled_from([1, 2, 3, 5, 8, 13]))
    sweep_gates = draw(st.integers(1, 40))
    binw_gates = draw(st.one_of(
        st.floats(0.5, sweep_gates, allow_nan=False),
        st.integers(1, sweep_gates).map(lambda n: sweep_gates / n),
    ))
    n_bins = max(1, round(sweep_gates / binw_gates))
    # clicks at random gates, or mostly on the laser grid
    span = draw(st.integers(1, 600))
    if draw(st.booleans()):
        gates = draw(st.lists(st.integers(0, span), unique=True, max_size=120))
    else:
        pulses = draw(st.lists(st.integers(0, span // gates_per_pulse), unique=True, max_size=60))
        extra = draw(st.lists(st.integers(0, span), max_size=60))
        gates = set(p * gates_per_pulse for p in pulses) | set(extra)
    return sorted(gates), gates_per_pulse, sweep_gates, binw_gates, n_bins


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(scan=scans())
def test_numpy_scan_matches_the_loop(scan):
    assert_scans_agree(*scan)
