"""Kernel tests: pinned click trains, the logs of numpy's raw PCG64
draws, and the helpers."""

import dataclasses
import hashlib
import inspect
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from afterpulse import _kernels
from afterpulse.simulator import (
    DeadTimeScheme,
    SchemeKind,
    SimConfig,
    build_sweep_histogram,
    gate_loop_args,
    run_simulation,
)


CONFIGS = [
    SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT, tau_l=1e-6),
        n_gates=2_000_000,
        seed=1,
        f_l=1e5,
        mu=0.5,
        dcr_per_gate=1e-6,
        p_ap_internal=0.2,
        tau_detrap=1e-6,
    ),
    SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.2e-6, tau_c=0.2e-6),
        n_gates=2_000_000,
        seed=7,
        f_l=312.5e6 / 2,
        mu=0.1,
        dcr_per_gate=3.2e-7,
        p_ap_internal=0.1,
        tau_detrap=0.5e-6,
    ),
    SimConfig(
        scheme=DeadTimeScheme(
            SchemeKind.LT_AR, tau_l=7.8e-6, tau_c=7.5e-6, tau_er=2.5e-6
        ),
        n_gates=5_000_000,
        seed=42,
        f_l=1e5,
        mu=2.0,
        dcr_per_gate=1e-6,
        p_ap_internal=0.3,
        tau_detrap=3e-6,
    ),
    # half-rate laser at mu = 10: nearly every laser gate fires, about 30
    # releases are pending, and each window grows several generations
    SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT, tau_l=0.2e-6),
        n_gates=500_000,
        seed=3,
        f_l=312.5e6 / 2,
        mu=10.0,
        dcr_per_gate=1e-6,
        p_ap_internal=0.2,
        tau_detrap=1e-6,
    ),
    # a 0.5 us hold-off whose efficiency steps back after a 0.3 us recovery
    # is a 0.8 us hold-off: this train was pinned as that step
    SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.2e-6, tau_c=0.5e-6 + 0.3e-6),
        n_gates=2_000_000,
        seed=11,
        f_l=312.5e6 / 2,
        mu=1.0,
        dcr_per_gate=1e-6,
        p_ap_internal=0.2,
        tau_detrap=0.5e-6,
    ),
]
IDS = ["lt", "lt-ar-bethune", "lt-ar-ramp", "lt-dense", "lt-ar-long-hold"]

# the CONFIGS plus edge cases, each with the sha256 of its click train's
# bytes followed by its hidden count in decimal
PINNED = {
    **dict(zip(IDS, CONFIGS)),
    "q0": dataclasses.replace(CONFIGS[1], p_ap_internal=0.0),
    "q1": dataclasses.replace(CONFIGS[0], n_gates=200_000, p_ap_internal=1.0),
    "p-photon-1": dataclasses.replace(CONFIGS[4], n_gates=200_000, mu=200.0),
    # the same edge below certainty: the first laser gate past a hold-off
    # misses one time in ten, so which gate clicks follows the stream, as
    # "p-photon-1"'s train cannot
    "p-photon-0.9": dataclasses.replace(CONFIGS[4], n_gates=200_000, mu=math.log(10.0) / 0.2),
    "laser-every-gate": dataclasses.replace(
        CONFIGS[3], n_gates=200_000, f_l=312.5e6, mu=0.05
    ),
    "no-dark": dataclasses.replace(CONFIGS[2], dcr_per_gate=0.0),
    # a half-rate laser with a 0.1 us ramp: the first laser gate past a
    # hold-off is in the ramp, so fires as well as releases register there
    "lt-ar-ramp-half-rate": dataclasses.replace(
        CONFIGS[1],
        scheme=DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.2e-6, tau_c=0.2e-6, tau_er=0.1e-6),
    ),
    # deadtime-sweep's regime: a 10 kHz laser under active reset, with laser
    # clicks a period apart, four sweeps
    "lt-ar-10khz": SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT_AR, tau_l=0.5e-6, tau_c=0.5e-6),
        n_gates=250_000_000,
        seed=16,
        f_l=1e4,
        mu=2.0,
        dcr_per_gate=3.2e-7,
        p_ap_internal=0.1,
        tau_detrap=1e-6,
    ),
}
DIGESTS = {
    "lt": "522563a0c69acfdc0fd2d071b738d12ddde565290d3931e8827d2798ded74c44",
    "lt-ar-bethune": "5900af392549544681eb7f24dc73d74a6ea917465af6f5e0f45a137211c7b8bb",
    "lt-ar-ramp": "47b0c60d685df16df33502658b1d305414630c3689b097adda926edaf1f30392",
    "lt-dense": "70b193f82581f8e4086e6fef0d80ca4c031d14a2a2f0031669b98f718533f160",
    "lt-ar-long-hold": "a177653fab967f313a41ed0db3b7070a804e0ead1f1ce33c9c915cb2fca8281d",
    "q0": "5188fc71fd97ec2baba2c3c9c4aa5dc863270c66e5640de747cc984aa99bb871",
    "q1": "d3b21201540f9327d5e0a480169ea34c1317b0ef3c72c8f4e62aabd054a42215",
    "p-photon-1": "20d2c64234190c848406c64f822a691638a53a9fee10e24cd6f3c4eb00980ccb",
    "p-photon-0.9": "d5ac124445762f0e1bff44ed8cd5dec44fb18a78330e2e37e7904ecd7ac08757",
    "laser-every-gate": "5dec9e2e9ba2b3500f58e8985898afbb963ed37ff8b49f97ee0517c78b295587",
    "no-dark": "12a48a02cac237e00ca8650250e899fcdc9e586b165dfe36ba79adc0c031d8f7",
    "lt-ar-ramp-half-rate": "06e776d469c4859781213ca9f6b59f56125c4ee87a51438324cbbc332f020a77",
    "lt-ar-10khz": "5fa6dbe828cefd188561d9f6b233ee35770c72e53bb14cf4a85ab1f366afa6ef",
}
# the sha256 of the "lt-ar-10khz" run's sweep histogram (the CLI's 25 us
# sweep in 10 ns bins): its bins' bytes followed by c0 in decimal
SWEEP_DIGEST = "40bf7dac0574985fccbb5d4d88c23ee530e49d41f381c95f2b06147c1d1c703e"


def test_python_path_deterministic():
    args = gate_loop_args(CONFIGS[0])
    out1 = _kernels.gate_loop(*args)
    out2 = _kernels.gate_loop(*args)
    assert np.array_equal(out1[0], out2[0])


def test_click_train_is_an_owned_int64_array():
    # no photons and no dark counts: no event at all, so no click
    silent = dataclasses.replace(CONFIGS[0], mu=0.0, dcr_per_gate=0.0)
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(silent))
    assert clicks.dtype == np.int64 and clicks.shape == (0,)
    assert hidden == 0
    # a train is never a view on the kernel's click buffer
    clicks, _ = _kernels.gate_loop(*gate_loop_args(CONFIGS[0]))
    assert clicks.size > 0
    assert clicks.flags.owndata and clicks.flags.writeable


def test_releases_on_one_gate_make_one_avalanche():
    # a photon on every 4th gate, q = 1 and a 2-gate mean detrap delay:
    # every avalanche queues a release 1, 2, 3, ... gates later, and the
    # chains from successive pulses release on the same gate about once in
    # nine gates.  With a one-gate dead time every avalanche registers, so
    # a gate with several releases must register once.
    cfg = SimConfig(
        scheme=DeadTimeScheme(SchemeKind.LT, tau_l=1 / 312.5e6),
        n_gates=40_000,
        seed=5,
        f_l=312.5e6 / 4,
        mu=1e4,
        p_ap_internal=1.0,
        tau_detrap=2 / 312.5e6,
    )
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(cfg))
    assert hidden == 0
    assert np.all(np.diff(clicks) > 0)
    # every laser gate clicks, and so does about every other gate
    assert np.all(np.isin(np.arange(0, cfg.n_gates, 4), clicks))
    assert clicks.size > cfg.n_gates // 2


def _selection(every, dead_gates):
    """The first of ``every`` and then, each time, the first one
    ``dead_gates`` or more after the last pick."""
    picks, armed = [], 0
    for gate in every.tolist():
        if gate >= armed:
            picks.append(gate)
            armed = gate + dead_gates
    return picks


def _runs_past_first_click(n_runs):
    """Gaps of gates that, at a dead time of 10, make ``n_runs`` runs (a
    gate 10 or more after its predecessor starts one), each with a second
    click one dead time after its first."""
    return [5] + [5, 5, 10] * (n_runs - 1) + [5, 5]


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.integers(1, 20) | st.integers(1, 10_000), max_size=400),
       dead=st.integers(1, 5000))
# 32 runs are left after the runs' first step, all chased in Python; 33 take
# one more numpy step
@example(gaps=_runs_past_first_click(32), dead=10)
@example(gaps=_runs_past_first_click(33), dead=10)
def test_dead_time_selection_matches_the_loop(gaps, dead):
    gates = np.cumsum(np.array(gaps, np.int64))
    picks = _kernels._dead_time_selection(gates, dead)
    assert picks.dtype == np.int64
    assert picks.tolist() == _selection(gates, dead)


def test_latched_avalanches_do_not_depend_on_the_dead_time():
    # under the latched comparator the bias stays high, so a run grows the
    # same avalanches whatever the dead time, and its clicks are a dead-time
    # selection over them.  A one-gate dead time registers every avalanche
    args = (2_000_000, 2, 0.3, 1e-6, 0.2, 312.5, True)
    runs = {d: _kernels.gate_loop(*args, d, 0.0, 0.0, 7) for d in (1, 3, 63, 313, 5000)}
    every, hidden = runs[1]
    assert hidden == 0
    for dead_gates, (clicks, hidden) in runs.items():
        assert clicks.size + hidden == every.size, dead_gates
        assert np.array_equal(clicks, _selection(every, dead_gates)), dead_gates


def test_active_reset_fires_do_not_depend_on_the_dead_time():
    # under active reset the photon and dark fires are drawn ahead, and a
    # hold-off only discards the ones inside it: with no trap fills a run's
    # clicks are a dead-time selection over the same fires whatever the dead
    # time.  A one-gate dead time registers every fire
    args = (2_000_000, 2, 0.3, 1e-6, 0.0, 312.5, False)
    runs = {d: _kernels.gate_loop(*args, d, float(d), 0.0, 7) for d in (1, 3, 63, 313, 5000)}
    every = runs[1][0]
    for dead_gates, (clicks, hidden) in runs.items():
        assert hidden == 0
        assert np.array_equal(clicks, _selection(every, dead_gates)), dead_gates


def _peak_past_clicks(cfg):
    """A run's tracemalloc peak less its click train: 8 bytes a click in
    the kernel's buffer, 8 in the array it returns."""
    _kernels.gate_loop(*gate_loop_args(dataclasses.replace(cfg, n_gates=1000)))  # numpy.random
    tracemalloc.start()
    try:
        clicks, _ = _kernels.gate_loop(*gate_loop_args(cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - 16 * clicks.size


@pytest.mark.parametrize("n_gates", [500_000, 5_000_000])
def test_latched_working_set_is_bounded(n_gates):
    # a latched run holds one window at a time: past its click train its
    # memory must not grow with the gate count
    assert _peak_past_clicks(dataclasses.replace(PINNED["lt-dense"], n_gates=n_gates)) < 1e6


@pytest.mark.parametrize("n_gates", [500_000, 5_000_000])
def test_active_reset_working_set_is_bounded(n_gates):
    # an active-reset run draws its fires one window at a time, and at a
    # half-rate laser and mu = 10 most of them fall inside a hold-off: past
    # its click train its memory must not grow with the gate count
    cfg = dataclasses.replace(PINNED["lt-ar-bethune"], n_gates=n_gates, mu=10.0)
    assert _peak_past_clicks(cfg) < 1e6


def _digest(clicks, hidden):
    h = hashlib.sha256(np.ascontiguousarray(clicks, dtype="<i8").tobytes())
    h.update(str(int(hidden)).encode("ascii"))
    return h.hexdigest()


def test_pinned_configs_cover_the_edge_cases():
    assert PINNED["p-photon-1"].p_photon == 1.0
    assert PINNED["p-photon-0.9"].p_photon == pytest.approx(0.9, abs=1e-15)
    assert PINNED["laser-every-gate"].gates_per_pulse == 1
    # the first laser gate past a hold-off lies inside its efficiency ramp
    _, gates_per_pulse, *_, dead_gates, ramp_start, ramp_len, _ = gate_loop_args(
        PINNED["lt-ar-ramp-half-rate"])
    laser = -(-dead_gates // gates_per_pulse) * gates_per_pulse
    assert ramp_start < laser < ramp_start + ramp_len
    # the laser period outlasts the 25 us sweep, so every laser click triggers
    assert 1.0 / PINNED["lt-ar-10khz"].f_l > 25e-6


@pytest.mark.parametrize("name", list(PINNED))
def test_gate_loop_output_is_pinned(name):
    clicks, hidden = _kernels.gate_loop(*gate_loop_args(PINNED[name]))
    assert clicks.dtype == np.int64
    assert _digest(clicks, hidden) == DIGESTS[name]


def test_sweep_histogram_is_pinned():
    hist = build_sweep_histogram(run_simulation(PINNED["lt-ar-10khz"]), 25e-6, 10e-9)
    assert hist.bins.dtype == np.int64
    assert _digest(hist.bins, hist.c0) == SWEEP_DIGEST


def _nudged_logs(toward):
    """``_kernels._logs`` with every log one ulp off, toward ``toward``."""
    logs = _kernels._logs
    return lambda x: np.nextafter(logs(x), toward)


@pytest.mark.parametrize("toward", [np.inf, -np.inf], ids=["up", "down"])
def test_pinned_trains_hold_with_every_log_one_ulp_off(monkeypatch, toward):
    # numpy's log may differ from libm's in its last bit, and a train reads a
    # log only through int() or ceil() of a scaled value: no pinned train may
    # lean on the last bit of any log.  Both schemes take their logs from
    # _logs, so the nudge reaches every pinned train
    monkeypatch.setattr(_kernels, "_logs", _nudged_logs(toward))
    for name, cfg in PINNED.items():
        clicks, hidden = _kernels.gate_loop(*gate_loop_args(cfg))
        assert _digest(clicks, hidden) == DIGESTS[name], name
    hist = build_sweep_histogram(run_simulation(PINNED["lt-ar-10khz"]), 25e-6, 10e-9)
    assert _digest(hist.bins, hist.c0) == SWEEP_DIGEST


def test_logs_map_raw_pcg64_draws():
    # _logs over a whole run of numpy's raw PCG64 outputs has the bits of
    # each draw's log of u', its top 53 bits plus a half, taken alone
    block = np.random.PCG64(2024).random_raw(4 * _kernels._BLOCK + 5)
    assert block.dtype == np.uint64
    logs = np.array([np.log((float(int(x) >> 12) + 0.5) * 2.0**-52) for x in block])
    assert np.array_equal(_kernels._logs(block), logs)
    assert np.all(logs < 0.0)


def _recording(take):
    """``take``, and the list of the request sizes it is called with."""
    sizes = []

    def recorded(n):
        sizes.append(n)
        return take(n)

    return recorded, sizes


@pytest.mark.parametrize("detrap_gates,q_ap", [(312.5, 0.2), (0.7, 0.9), (1e18, 1e-30)],
                         ids=["dense-compare", "short-delay", "far"])
def test_pair_stream_takes_the_scalar_formulas(detrap_gates, q_ap):
    # each pair is what the active-reset loop once worked out from two
    # logs in Python: the release delay int(-d * log) + 1, and the count of
    # unmarked clicks int(inv * log), both _FAR from 4e18 up.  At d = 1e18
    # about one delay in 55 is that far, past any run; at q = 1e-30 every
    # count is
    inv = _kernels._inv_log1m(q_ap)
    take, sizes = _recording(np.random.PCG64(38).random_raw)
    pairs = _kernels._pair_stream(take, detrap_gates, inv)
    got = [next(pairs) for _ in range(_kernels._BLOCK + 5)]
    logs = _kernels._logs(np.random.PCG64(38).random_raw(sum(sizes))).tolist()
    whole = lambda x: int(x) if x < 4.0e18 else _kernels._FAR
    for k, (log, delay, gap) in enumerate(got):
        assert log == logs[2 * k]
        assert delay == whole(-detrap_gates * logs[2 * k]) + 1
        assert gap == whole(inv * logs[2 * k + 1])
        assert type(delay) is int and type(gap) is int
    far = [(delay > _kernels._FAR, gap == _kernels._FAR) for _, delay, gap in got]
    if q_ap < 1e-10:
        assert 0 < sum(d for d, _ in far) < len(far) and all(g for _, g in far)
    else:
        assert not any(d or g for d, g in far)


def test_pair_stream_takes_doubling_runs_of_whole_pairs():
    # 2, 4, ... up to _BLOCK draws, the runs a stream of single logs took
    # after its first draw: with a trap fill's two draws taken from one run,
    # a run with no ramp draw takes the same draws at the same moments
    take, sizes = _recording(np.random.PCG64(1).random_raw)
    pairs = _kernels._pair_stream(take, 312.5, _kernels._inv_log1m(0.2))
    for _ in range(2047 + 2 * 2048):  # the pairs of runs up to 4096 draws, and one more
        next(pairs)
    assert sizes == [2 << k for k in range(12)] + [4096]
    assert _kernels._BLOCK == 4096


def _settled_releases(cfg):
    """Counts of what the chase does with a pending release in ``cfg``'s
    run, traced line by line: popped as lost in the hold-off, registered,
    or left to the loop's top inside the ramp."""
    lines, first = inspect.getsourcelines(_kernels.gate_loop)

    def at(text):
        (k,) = [k for k, line in enumerate(lines) if text in line]
        return first + k

    top, tail = at("dt = e - last"), at("if e >= w1 or e - last < ramp_end")
    registered, lost, leaves = at("add(e)"), at("pop(rel)  # lost in the hold-off"), tail + 1
    counts = {"lost": 0, "registered": 0, "ramp": 0}
    in_chase = False

    def trace_line(frame, event, _):
        nonlocal in_chase
        if event == "line":
            line = frame.f_lineno
            if line in (top, tail):
                in_chase = line == tail  # the chase goes on past its tail
            elif line == lost:
                counts["lost"] += 1
            elif line == registered and in_chase:
                counts["registered"] += 1
            elif line == leaves:
                e, f, w1 = (frame.f_locals[name] for name in ("e", "f", "w1"))
                counts["ramp"] += e != f and e < w1
        return trace_line

    code = _kernels.gate_loop.__code__
    sys.settrace(lambda frame, *_: trace_line if frame.f_code is code else None)
    try:
        _kernels.gate_loop(*gate_loop_args(cfg))
    finally:
        sys.settrace(None)
    return counts


def test_pinned_trains_settle_releases_in_the_chase():
    # the pinned trains take every branch of the chase's pending release:
    # one lost in the hold-off is popped and the chase goes on, one past
    # the hold-off and the ramp registers there, and one inside the ramp
    # leaves the chase for its draw at the loop's top
    bethune = _settled_releases(PINNED["lt-ar-bethune"])
    assert bethune["lost"] > 0 and bethune["registered"] > 0 and bethune["ramp"] == 0
    assert min(_settled_releases(PINNED["lt-ar-ramp-half-rate"]).values()) > 0


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1.x imports numpy.random with numpy")
def test_importing_the_cli_leaves_numpy_random_unloaded(subprocess_env):
    # the kernels reach numpy.random only when they run, so that startup
    # does not pay for it
    code = "import sys, afterpulse.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=subprocess_env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
