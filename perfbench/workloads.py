"""The benchmark's workloads: their inputs, their operations and the checks.

A workload runs in rounds.  A round is a fixed list of operations, each one
or two CLI commands, on inputs derived from the benchmark seed and the
round number.  Every operation's output is checked against
``reference``, which computes the expected values without the program's
models or estimators.  A failed check fails the operation it belongs to.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import machine
import reference as ref

# detector defaults of the CLI config schema that the checks rely on
F_G = 312.5e6
PDE = 0.2
DCR_HZ = 100.0
DETRAP_S = 1e-6
DEAD_S = 0.2e-6
SWEEP_S = 25e-6
WINDOW_S = (20e-6, 25e-6)


@dataclass
class Call:
    """One CLI command as it ran.

    ``scale`` is ``machine.NOMINAL_S`` over the reference loop's time just
    before the command: times multiplied by it read as at a fixed speed.
    """

    rc: object
    out: str
    err: str
    wall: float
    cpu: float
    scale: float


@dataclass
class Op:
    """One operation: its commands' time and what its checks found."""

    label: str
    wall: float = 0.0
    cpu: float = 0.0
    scaled_wall: float = 0.0
    scaled_cpu: float = 0.0
    outputs: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def add(self, call: Call) -> Call:
        self.wall += call.wall
        self.cpu += call.cpu
        self.scaled_wall += call.wall * call.scale
        self.scaled_cpu += call.cpu * call.scale
        self.outputs.append(call.out)
        if call.rc != 0:
            self.problems.append(f"exit {call.rc}: {call.err.strip()[-300:]}")
        return call

    @contextlib.contextmanager
    def checking(self):
        """Output that cannot be parsed fails the operation, not the run."""
        try:
            yield
        except (ValueError, IndexError, KeyError, TypeError, OSError) as exc:
            self.problems.append(f"malformed output: {exc!r}")


class Session:
    """Runs CLI commands in this process, traced or not.

    Before each command it times the machine-speed reference loop.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.tracer = None
        self.reference_times: list[float] = []

    def __call__(self, argv: list[str]) -> Call:
        reference_s = machine.reference_time()
        self.reference_times.append(reference_s)
        out, err = io.StringIO(), io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = self.tracer.root() if self.tracer else contextlib.nullcontext()
            try:
                with span:
                    rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the command crashed: a failed operation, not a failed run
                rc = "exception"
                traceback.print_exc()
        return Call(
            rc, out.getvalue(), err.getvalue(), time.perf_counter() - w0,
            time.process_time() - c0, machine.NOMINAL_S / reference_s,
        )


def program_seed(seed: int, workload: str, *parts) -> int:
    """Seed handed to the program, fixed by the benchmark seed and round."""
    key = ":".join(str(p) for p in (workload, seed, *parts))
    return random.Random(key).getrandbits(40)


def _floats(row: str, n_head: int) -> list[float]:
    return [float(x) for x in row.split(",")[n_head:]]


class Workload:
    name = ""
    why = ""
    #: wall time of one round on the reference machine; only sizes the
    #: number of round pairs of a traced run, so that it is fixed per seed
    nominal_round_s = 1.0

    def __init__(self, workdir: Path, seed: int, small: bool) -> None:
        self.dir = workdir
        self.seed = seed
        self.small = small
        self.min_rounds = 1

    def config_files(self) -> dict[str, str]:
        raise NotImplementedError

    def run_round(self, call, r: int) -> list[Op]:
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        """Checks over the whole run; an empty list when they pass."""
        return []


class DenseCompare(Workload):
    """`compare` at three pulse energies under latched and active-reset configs.

    Nearly all the time is the dense gate loop of the Bethune (half-rate)
    runs.  The Yuan estimate at mu = 0.1 rests on the clicks in one
    designated gate; to tell it from the mu = 10 estimate by many counting
    errors the run pools its calls, and runs at least two rounds.  A round
    is short calls with schemes and energies interleaved, so that every
    kind of call meets the machine's busy phases alike.  The afterpulse
    probability is raised to 0.2 because the check's power per second of
    gate loop grows with it.

    The configured laser only drives the custom (sweep-histogram) rows.  At
    10 kHz a short run has so few triggers that the custom row fails on
    some seeds with "no trigger counts"; a 50 kHz laser with a 20 us sweep
    and a 15-20 us baseline window keeps every custom row above ~29
    expected triggers.
    """

    name = "dense-compare"
    why = "compare at mu 0.1/1/10 under lt and lt-ar: the dense half-rate gate loop, bypassing histogram I/O and the sweep scan"
    nominal_round_s = 7.0
    SCHEMES = ("lt", "lt-ar")
    Q = 0.2
    # pulse energies of one round, each run under both schemes in turn
    ORDER, ORDER_SMALL = (0.1, 0.1, 10.0, 0.1, 1.0, 0.1, 0.1), (0.1, 1.0, 10.0)
    N_GATES = {0.1: 10_000_000, 1.0: 1_000_000, 10.0: 500_000}
    N_GATES_SMALL = {0.1: 10_000_000, 1.0: 500_000, 10.0: 200_000}
    YUAN_PERIOD = 50  # gates per laser period of the Yuan and coincidence runs

    def __init__(self, workdir, seed, small):
        super().__init__(workdir, seed, small)
        self.min_rounds = 1 if small else 2
        self.n_gates = self.N_GATES_SMALL if small else self.N_GATES
        # (scheme, mu) -> {(round, position): Yuan estimate}
        self.yuan: dict[tuple[str, float], dict[tuple[int, int], float]] = {}

    def config_files(self):
        return {
            f"{scheme}-mu{mu:g}.ini": (
                f"[detector]\nafterpulse_probability = {self.Q}\n"
                "[source]\nlaser_frequency_hz = 5e4\n"
                "[histogram]\nsweep_s = 20e-6\n"
                "[estimation]\ndcr_window_start_s = 15e-6\ndcr_window_end_s = 20e-6\n"
                f"[deadtime]\nscheme = {scheme}\n"
                f"[run]\nn_gates = {n}\n"
            )
            for scheme in self.SCHEMES
            for mu, n in self.n_gates.items()
        }

    def run_round(self, call, r):
        ops = []
        for k, mu in enumerate(self.ORDER_SMALL if self.small else self.ORDER):
            for scheme in self.SCHEMES:
                op = Op(f"compare {scheme} mu={mu:g}")
                out_path = self.dir / f"compare-{scheme}-mu{mu:g}.csv"
                seed = program_seed(self.seed, self.name, r, k, scheme)
                c = op.add(call([
                    "compare", "--config", str(self.dir / f"{scheme}-mu{mu:g}.ini"),
                    "--mu", repr(mu), "--out", str(out_path), "--seed", str(seed),
                ]))
                if c.rc == 0:
                    with op.checking():
                        value = self._check_table(op, c.out, out_path, mu)
                        self.yuan.setdefault((scheme, mu), {})[(r, k)] = value
                ops.append(op)
        return ops

    def _check_table(self, op: Op, out: str, out_path: Path, mu: float) -> float:
        """Check one compare table; returns its Yuan estimate."""
        if out != out_path.read_text(encoding="utf-8"):
            op.problems.append("printed table differs from the --out file")
        lines = out.strip().splitlines()
        if lines[0] != "method,mu,p_exp,p_s,p1,p2,P_ap" or len(lines) != 5:
            raise ValueError(f"unexpected table shape: {lines[:2]!r}")
        rows = {line.split(",")[0]: line for line in lines[1:]}
        if sorted(rows) != ["bethune", "coincidence", "custom", "yuan"]:
            raise ValueError(f"unexpected methods {sorted(rows)!r}")
        for method, row in rows.items():
            if float(row.split(",")[1]) != mu:
                op.problems.append(f"{method} row has mu {row.split(',')[1]}")
            if not math.isfinite(float(row.split(",")[-1])):
                op.problems.append(f"{method} row P_ap is not finite: {row}")
        p_exp, p_s, p1, p2, p_ap = _floats(rows["custom"], 2)
        p0 = p_ap / (p_exp + p_ap) if p_exp > 0.0 else 0.0
        op.problems += ref.model_row_problems(p_exp, p0, p_s=p_s, p2=p2, p1=p1)
        return float(rows["yuan"].split(",")[-1])

    def run_checks(self):
        """The Yuan estimate, pooled over the run's calls, falls from
        mu = 0.1 to mu = 10: at the high energy the designated gate after a
        click lies in its dead time."""
        dead_gates = math.ceil(DEAD_S * F_G - 1e-9)
        problems = []
        for scheme in self.SCHEMES:
            pooled, sigmas = {}, []
            for mu in (0.1, 10.0):
                values = list(self.yuan.get((scheme, mu), {}).values())
                if not values:
                    return [f"{scheme}: no Yuan estimate at mu={mu:g}"]
                pooled[mu] = sum(values) / len(values)
                sigmas.append(ref.yuan_sigma(
                    pooled[mu], n_gates=len(values) * self.n_gates[mu], mu=mu, pde=PDE,
                    dead_gates=dead_gates, period_gates=self.YUAN_PERIOD,
                ))
            sigma = math.hypot(*sigmas)
            lo, hi = pooled[0.1], pooled[10.0]
            # z over 11 seeds at two rounds: latched 6.3-9, active reset 8-10
            k = 0.0 if self.small else 3.0
            if not lo - hi > k * sigma:
                problems.append(
                    f"{scheme}: Yuan at mu=0.1 ({lo:.4g}) is not above mu=10 ({hi:.4g}) "
                    f"by {k:g} counting errors ({sigma:.3g})"
                )
        return problems


class DeadtimeSweep(Workload):
    """`sweep-deadtime --scheme both` over six dead times at a 10 kHz laser.

    The sparse gate loop takes most of the time, then the Python sweep
    scan, rate calibration (many short simulations) and the fits.  The grid
    stops at 15 us: a dead time inside the 20-25 us baseline window makes
    the estimate an exact zero.
    """

    name = "deadtime-sweep"
    why = "the paper's dead-time study: sparse gate loop, sweep scan, rate calibration and fits; the dense path is bypassed"
    nominal_round_s = 1.3
    TAUS = (0.5e-6, 1e-6, 2e-6, 5e-6, 10e-6, 15e-6)
    Q = 0.1
    F_L = 1e4
    N_GATES, N_GATES_SMALL = 2_500_000_000, 1_000_000_000

    def __init__(self, workdir, seed, small):
        super().__init__(workdir, seed, small)
        self.n_gates = self.N_GATES_SMALL if small else self.N_GATES
        self.min_rounds = 1 if small else 5
        self.fit_b: dict[int, float] = {}  # round -> lt-ar exponential decay rate

    def config_files(self):
        return {"sweep.ini": f"[run]\nn_gates = {self.n_gates}\n"}

    def run_round(self, call, r):
        op = Op("sweep-deadtime")
        out_path = self.dir / "sweep.csv"
        c = op.add(call([
            "sweep-deadtime", "--config", str(self.dir / "sweep.ini"),
            "--tau", ",".join(repr(t) for t in self.TAUS), "--scheme", "both",
            "--out", str(out_path), "--seed", str(program_seed(self.seed, self.name, r)),
        ]))
        if c.rc == 0:
            with op.checking():
                self._check_rows(op, out_path.read_text(encoding="utf-8"))
                self._check_fit(op, r, c.out)
        return [op]

    def _check_rows(self, op: Op, table: str) -> None:
        lines = table.strip().splitlines()
        want = [(s, t) for s in ("lt", "lt-ar") for t in self.TAUS]
        if lines[0] != "scheme,tau_s,mu,rate_hz,p_exp,p_s,p2" or len(lines) != len(want) + 1:
            op.problems.append(f"unexpected sweep table shape: {lines[:2]!r}")
            return
        for line, (scheme, tau) in zip(lines[1:], want):
            fields = line.split(",")
            if fields[0] != scheme or float(fields[1]) != tau:
                op.problems.append(f"row {line!r}, want {scheme} at {tau!r}")
                continue
            mu, rate, p_exp, p_s, p2 = map(float, fields[2:])
            if not (mu > 0.0 and rate > 0.0):
                op.problems.append(f"row {line!r}: mu and rate must be positive")
                continue
            p0 = rate * tau / (1.0 + max(p_exp, 0.0))
            op.problems += [f"{scheme} {tau!r}: {p}" for p in ref.model_row_problems(p_exp, p0, p_s=p_s, p2=p2)]
            if scheme == "lt-ar":
                # a carrier released in the hold-off is lost, so the
                # visible afterpulse probability is q * exp(-tau/tau_detrap)
                want_p2 = self.Q * math.exp(-tau / DETRAP_S)
                sigma = ref.sweep_row_sigma(
                    p_exp, mu=mu, pde=PDE, rate_hz=rate, tau_s=tau, n_gates=self.n_gates,
                    f_g=F_G, f_l=self.F_L, dcr_hz=DCR_HZ, sweep_s=SWEEP_S, window_s=WINDOW_S,
                )
                if abs(p2 - want_p2) > 5.0 * sigma + 0.03 * want_p2:
                    op.problems.append(
                        f"lt-ar p2({tau!r}) = {p2:.5g}, want {want_p2:.5g} +- {sigma:.2g}"
                    )

    def _check_fit(self, op: Op, r: int, out: str) -> None:
        rows = {tuple(line.split(",")[:2]): line.split(",") for line in out.strip().splitlines()[1:]}
        fit = rows.get(("lt-ar", "exponential"))
        if fit is None:
            op.problems.append("no lt-ar exponential fit printed")
            return
        b = float(fit[3])
        # b is 1/tau_detrap +- 0.08 per us at full size, +- 0.12 small
        if not abs(b - 1e-6 / DETRAP_S) <= 0.6e-6 / DETRAP_S:
            op.problems.append(f"lt-ar exponential fit b = {b!r} per us, want {1e-6 / DETRAP_S!r} within 60 %")
        self.fit_b[r] = b

    def run_checks(self):
        """The lt-ar decay rate, as a median over the run's sweeps, is close
        to 1/tau_detrap: within 20 %, about 5 of its errors at five sweeps."""
        if self.small or not self.fit_b:
            return []
        b = statistics.median(self.fit_b.values())
        want = 1e-6 / DETRAP_S
        if abs(b - want) <= 0.2 * want:
            return []
        return [f"median lt-ar exponential fit b = {b!r} per us over {len(self.fit_b)} sweeps, want {want!r} within 20 %"]


class HistogramRoundtrip(Workload):
    """Acquire-and-analyse cycles through a fine-binned histogram file.

    `simulate --kind sweep` writes a 1 ns-binned sweep histogram (25 000
    lines) and `estimate --method custom` reads it back; one cycle is one
    operation.  Writing and reading the file is most of the time, so a
    format change that speeds one side and slows the other shows here.
    """

    name = "histogram-roundtrip"
    why = "simulate --kind sweep writes a 1 ns-binned histogram and estimate reads it back: histogram write and read dominate"
    nominal_round_s = 1.6
    Q = 0.1
    HOLD_S = 0.2e-6
    CYCLES, CYCLES_SMALL = 20, 4

    def __init__(self, workdir, seed, small):
        super().__init__(workdir, seed, small)
        self.sums: dict[tuple[int, int], ref.AfterpulseSum] = {}
        self.rates: dict[tuple[int, int], float] = {}

    def config_files(self):
        return {"cycle.ini": "[run]\nn_gates = 200000000\n[histogram]\nbin_width_s = 1e-9\n"}

    def run_round(self, call, r):
        ops = []
        hist_path = self.dir / "cycle.hist"
        for i in range(self.CYCLES_SMALL if self.small else self.CYCLES):
            op = Op("simulate+estimate")
            seed = program_seed(self.seed, self.name, r, i)
            sim = op.add(call([
                "simulate", "--config", str(self.dir / "cycle.ini"), "--out", str(hist_path),
                "--seed", str(seed), "--kind", "sweep",
            ]))
            if sim.rc != 0:
                ops.append(op)
                continue
            est = op.add(call(["estimate", "--hist", str(hist_path), "--method", "custom"]))
            if est.rc == 0:
                with op.checking():
                    self._check_cycle(op, (r, i), hist_path.read_text(encoding="utf-8"), est.out)
            ops.append(op)
        return ops

    def _check_cycle(self, op: Op, key, text: str, out: str) -> None:
        h = ref.parse_sweep_file(text)
        if h.n_bins != 25_000 or h.bin_width_ns != 1.0 or h.c0 < 1:
            op.problems.append(f"histogram has {h.n_bins} bins of {h.bin_width_ns} ns, c0 = {h.c0}")
            return
        lines = out.strip().splitlines()
        if lines[0] != "method,p_exp,p_s,p1,p2,P_ap" or not lines[1].startswith("custom,"):
            op.problems.append(f"unexpected estimate output {lines[:2]!r}")
            return
        p_exp, p_s, p1, p2, p_ap = _floats(lines[1], 1)
        tau_ns = float(h.meta["tau_s_ns"])
        mine = ref.afterpulse_sum(h, tau_ns, (WINDOW_S[0] * 1e9, WINDOW_S[1] * 1e9))
        if not ref.close(p_exp, mine.p_exp):
            op.problems.append(f"p_exp = {p_exp!r}, recomputed from the file {mine.p_exp!r}")
        p0 = p_ap / (p_exp + p_ap) if p_exp > 0.0 else 0.0
        op.problems += ref.model_row_problems(p_exp, p0, p_s=p_s, p2=p2, p1=p1)
        self.sums[key] = mine
        self.rates[key] = float(h.meta["rate_hz"])

    def run_checks(self):
        """The pooled p2 recovers q*exp(-tau_c/tau_detrap): carriers
        released during the hold-off are lost."""
        if not self.sums:
            return ["no cycle produced a histogram to pool"]
        pooled = ref.AfterpulseSum()
        for s in self.sums.values():
            pooled.add(s)
        rate = sum(self.rates.values()) / len(self.rates)
        p_exp = pooled.p_exp
        p2 = ref.second_order_root(p_exp, rate * self.HOLD_S / (1.0 + p_exp))
        want = self.Q * math.exp(-self.HOLD_S / DETRAP_S)
        sigma = pooled.sigma / (1.0 + p_exp) ** 2
        if p2 is None or abs(p2 - want) > 5.0 * sigma + 0.01 * want:
            return [f"pooled p2 = {p2!r} over {len(self.sums)} cycles, want {want:.5g} +- {sigma:.2g}"]
        return []


WORKLOADS = {w.name: w for w in (DenseCompare, DeadtimeSweep, HistogramRoundtrip)}
