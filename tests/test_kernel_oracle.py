"""The gate-loop kernel against a brute-force reference simulator.

``reference_gate_loop`` walks every gate of the grid and applies the
per-gate semantics of ``_kernels.gate_loop`` literally, drawing from
``numpy.random.Generator``: at each gate the laser-aligned photon source,
the dark source and any trap releases due there make at most one
avalanche.  An armed gate (at least ``dead_gates`` after the last click)
registers it with the recovery efficiency; inside the dead window the
latched scheme grows it unseen (a hidden avalanche) and the active-reset
scheme suppresses it, losing the releases.  Every avalanche fills a trap
with probability ``q``, released after an exponential delay at the next
whole gate.

The kernel skips gates and draws from numpy's PCG64 in its own order, so
the two agree in distribution only.  For each drawn configuration, a few hundred
seeded runs of each are compared by chi-square tests on the click count,
the hidden-avalanche count and the shape of the sweep histogram.  The
sweeps span eight dead windows, often several laser periods, so both
samples are scanned with the per-click reference loop
(``sweep_reference``), which triggers only on a laser click outside the
open sweep.  The
configurations are in gate units and dense (many events per dead window),
so that every branch of the kernel runs; they are drawn by hypothesis with
a fixed derandomized sequence, so the test is deterministic.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chi2_contingency

from afterpulse import _kernels
from sweep_reference import reference_sweep_scan

RUNS = 300
N_GATES = 3000
# per check; 57 checks run, so a correct kernel fails one about 0.6 % of the time
ALPHA = 1e-4
SWEEP_BINS = 8


def reference_gate_loop(n_gates, gates_per_pulse, p_photon, p_dark, q_ap, detrap_gates,
                        is_lt, dead_gates, ramp_start, ramp_len, rng):
    """(click gates, hidden avalanches) of one run, visiting every gate."""
    photon = np.zeros(n_gates, bool)
    laser = np.arange(0, n_gates, gates_per_pulse)
    photon[laser] = rng.random(laser.size) < p_photon
    fires = (photon | (rng.random(n_gates) < p_dark)).tolist()
    released = [0] * n_gates  # trap carriers due at each gate
    clicks, hidden, last_click = [], 0, -(1 << 62)
    for g in range(n_gates):
        if not (fires[g] or released[g]):
            continue  # no source: nothing happens at this gate
        dt = g - last_click
        if dt >= dead_gates:
            eff = 1.0
            if ramp_len > 0.0 and dt < ramp_start + ramp_len:
                eff = max(0.0, (dt - ramp_start) / ramp_len)
            if rng.random() >= eff:
                continue  # the recovering detector misses it: no avalanche
            clicks.append(g)
            last_click = g
        elif is_lt:
            hidden += 1  # latched comparator, bias still high
        else:
            continue  # bias held off: no avalanche, the releases are lost
        if rng.random() < q_ap:
            release = g + max(1, math.ceil(rng.exponential(detrap_gates)))
            if release < n_gates:
                released[release] += 1
    return np.array(clicks, np.int64), hidden


def samples(args, seeds, run):
    """Click counts, hidden counts and pooled sweep-histogram bins of many runs."""
    gates_per_pulse, dead_gates = args[1], args[7]
    sweep_gates = 8 * dead_gates
    binw = sweep_gates / SWEEP_BINS
    n_clicks, hidden, bins = [], [], []
    for seed in seeds:
        clicks, h = run(seed)
        n_clicks.append(clicks.size)
        hidden.append(int(h))
        b, _ = reference_sweep_scan(clicks, gates_per_pulse, sweep_gates, binw, SWEEP_BINS)
        bins.append(b)
    return np.array(n_clicks), np.array(hidden), np.array(bins)


def two_sample_p(a, b):
    """p-value of a chi-square test that two integer samples share a distribution.

    The values are grouped into up to eight classes at the pooled sample's
    quantiles.
    """
    pooled = np.concatenate([a, b])
    edges = np.unique(np.quantile(pooled, np.linspace(0, 1, 9)[1:-1], method="lower"))
    if edges.size == 0:
        return 1.0 if np.array_equal(np.unique(a), np.unique(b)) else 0.0
    table = np.array([np.bincount(np.searchsorted(edges, x, side="right"),
                                  minlength=edges.size + 1) for x in (a, b)])
    table = table[:, table.sum(axis=0) > 0]
    if table.shape[1] < 2:
        return 1.0
    return chi2_contingency(table).pvalue


def shape_p(a_bins, b_bins):
    """p-value of a chi-square test that two sets of runs share a histogram shape.

    The homogeneity statistic of the pooled bin counts is divided by their
    dispersion, the run-to-run variance over the mean, which afterpulse
    chains raise above the Poisson value of 1.
    """
    table = np.array([a_bins.sum(axis=0), b_bins.sum(axis=0)])
    keep = table.sum(axis=0) > 0
    if keep.sum() < 2:
        return 1.0
    stat = chi2_contingency(table[:, keep]).statistic
    ratios = [x[:, keep].var(axis=0, ddof=1) / np.maximum(x[:, keep].mean(axis=0), 1e-12)
              for x in (a_bins, b_bins)]
    dispersion = max(1.0, float(np.mean(np.concatenate(ratios))))
    return chi2.sf(stat / dispersion, keep.sum() - 1)


def check_against_reference(args, window_gates=None):
    """The kernel's samples against the reference's; ``window_gates`` cuts
    the kernel's windows to that many gates, far shorter than the run."""
    run = lambda seed: _kernels.gate_loop(*args, np.uint64(seed))
    if window_gates is None:
        kernel = samples(args, range(RUNS), run)
    else:
        windows = _kernels._windows
        with mock.patch.object(_kernels, "_windows",
                               lambda n_gates, _: windows(n_gates, _kernels._BLOCK / window_gates)):
            kernel = samples(args, range(RUNS), run)
    rng = np.random.default_rng(20211)
    reference = samples(args, range(RUNS),
                        lambda seed: reference_gate_loop(*args, rng))
    assert two_sample_p(kernel[0], reference[0]) > ALPHA, "click count"
    assert two_sample_p(kernel[1], reference[1]) > ALPHA, "hidden avalanches"
    assert shape_p(kernel[2], reference[2]) > ALPHA, "sweep histogram shape"


common = dict(
    gates_per_pulse=st.sampled_from([2, 1, 3, 7]),
    p_photon=st.floats(0.1, 0.9),
    p_dark=st.sampled_from([0.01, 0.0, 0.05, 0.3]),
    q_ap=st.floats(0.1, 0.7),
    detrap_gates=st.floats(1.0, 40.0),
    dead_gates=st.integers(3, 40),
)
# derandomized: the same examples on every run, and no example database;
# no shrinking, since a smaller failing example means nothing to a
# statistical test
ORACLE_SETTINGS = settings(max_examples=5, derandomize=True, deadline=None, database=None,
                           phases=[Phase.explicit, Phase.generate],
                           suppress_health_check=[HealthCheck.too_slow])


@ORACLE_SETTINGS
@given(**common, window_gates=st.none())
# dark fires on most gates: photon and dark fires and releases often share a
# gate, where they must make one avalanche with one trap mark
@example(gates_per_pulse=1, p_photon=0.5, p_dark=0.3, q_ap=0.6, detrap_gates=3.0,
         dead_gates=20, window_gates=None)
# the kernel's windows cut to 97 gates and long trap delays: generations of
# releases and the dead time after a click cross many window ends
@example(gates_per_pulse=3, p_photon=0.5, p_dark=0.05, q_ap=0.7, detrap_gates=40.0,
         dead_gates=12, window_gates=97)
def test_latched_matches_reference(gates_per_pulse, p_photon, p_dark, q_ap,
                                   detrap_gates, dead_gates, window_gates):
    check_against_reference((N_GATES, gates_per_pulse, p_photon, p_dark, q_ap,
                             detrap_gates, True, dead_gates, 0.0, 0.0), window_gates)


@pytest.mark.parametrize("ramped", [True, False], ids=["linear", "hold-off"])
@ORACLE_SETTINGS
@given(**common, ramp_shift=st.floats(0.5, 20.0), ramp_len=st.floats(1.0, 40.0),
       window_gates=st.none())
# the kernel's windows cut to 97 gates, far shorter than the run, and sparse
# fires with long trap delays and a long ramp: pending releases, hold-offs
# and ramps cross many window ends, and releases make many of the clicks
@example(gates_per_pulse=7, p_photon=0.1, p_dark=0.01, q_ap=0.7, detrap_gates=40.0,
         dead_gates=12, ramp_shift=3.0, ramp_len=25.0, window_gates=97)
def test_active_reset_matches_reference(ramped, gates_per_pulse, p_photon, p_dark, q_ap,
                                        detrap_gates, dead_gates, ramp_shift, ramp_len,
                                        window_gates):
    # the efficiency ramp starts past the hold-off, so that it suppresses
    # avalanches; without it (ramp_len = 0) full efficiency returns at the
    # end of the hold-off
    args = (N_GATES, gates_per_pulse, p_photon, p_dark, q_ap, detrap_gates, False,
            dead_gates, dead_gates + ramp_shift, ramp_len if ramped else 0.0)
    check_against_reference(args, window_gates)
