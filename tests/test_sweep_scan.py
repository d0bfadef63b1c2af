"""The numpy sweep scan against the per-click loop it replaced.

``reference_sweep_scan`` (in ``sweep_reference``) is that loop: it opens a
window at a laser-coincident click outside any open window and bins every
later click inside it.  ``_kernels.sweep_scan`` serves sweeps of at most
one laser period, where every laser-coincident click triggers, and bins
every click at once; on that domain the two must give equal bins and
trigger counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afterpulse import _kernels
from sweep_reference import reference_sweep_scan


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
    "empty": (([], 10, 10, 2.5, 4), [0, 0, 0, 0], 0),
    "no-laser-click": (([1, 2, 5, 7, 13], 10, 10, 2.5, 4), [0, 0, 0, 0], 0),
    "one-click": (([10], 10, 10, 2.5, 4), [0, 0, 0, 0], 1),
    "one-click-off-laser": (([9], 10, 10, 2.5, 4), [0, 0, 0, 0], 0),
    # 10 is a sweep, half a laser period, after the trigger at 0: neither
    # binned nor a trigger, and 13, past the window, is not binned either
    "a-sweep-after": (([0, 3, 10, 13], 20, 10, 2.5, 4), [0, 1, 0, 0], 1),
    # the same, with 10 laser-coincident, a sweep of one whole period: it
    # triggers the next sweep
    "a-sweep-after-on-laser": (([0, 3, 10, 13], 10, 10, 2.5, 4), [0, 2, 0, 0], 2),
    # every gate is a laser gate, so the sweep is one gate: every click
    # triggers and none is binned
    "gates-per-pulse-1": (([0, 3, 9, 10, 12, 25], 1, 1, 0.5, 2), [0, 0], 6),
    # laser clicks a whole period apart, or more: each one triggers
    "laser-clicks-a-period-apart": (
        ([0, 7, 10, 20, 29, 30, 41, 50], 10, 10, 2.5, 4), [0, 0, 1, 1], 5
    ),
    # round(10 / 4) = 2 bins of 4 gates: offset 9 overshoots into the last
    "clamp": (([0, 1, 5, 9], 10, 10, 4.0, 2), [1, 2], 1),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_edge_cases(case):
    args, want_bins, want_c0 = case
    bins, c0 = assert_scans_agree(*args)
    assert bins.tolist() == want_bins and c0 == want_c0


@st.composite
def scans(draw):
    """A strictly increasing click train and a sweep geometry.

    The sweep spans at most one laser period, as ``build_sweep_histogram``
    requires.  The bins follow it too: a width in gates, not always a
    divisor of the sweep, and the sweep over it rounded to a whole count.
    """
    gates_per_pulse = draw(st.sampled_from([1, 2, 3, 5, 8, 13, 40]))
    sweep_gates = draw(st.integers(1, gates_per_pulse))
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
