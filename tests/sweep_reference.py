"""The per-click sweep scan, the reference of the tests.

``reference_sweep_scan`` is the loop ``_kernels.sweep_scan`` replaced, kept
as it was: it walks the click train once, opening a window at a
laser-coincident click outside any open window and binning every later
click inside it.  It holds for any sweep, a sweep longer than the laser
period included, so a test that draws such sweeps scans them here.
"""

import numpy as np


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
