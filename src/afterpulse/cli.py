"""Command-line front end: simulate, estimate, compare, sweep dead times, fit.

Configuration is a sectioned key-value text file (INI syntax); unknown
sections or keys are rejected so typos fail loudly.  Every command is
deterministic for a fixed config (seeds included), and every CSV table it
prints or writes goes through one writer, ``_table``, under a one-line
header.  Exit codes: 0 success, 1 usage/config/IO error, 2 numerical or
degenerate-data error.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .estimators import (
    ModelEstimate,
    _dead_time_in_the_window,
    _window_bins,
    derive_all,
    estimate_bethune,
    estimate_coincidence,
    estimate_custom,
    estimate_yuan,
)
from .fitting import FitInputError, FitLaw, fit_curve
from .histio import (
    DegenerateDataError,
    Histogram,
    HistogramFormatError,
    read_histogram,
    write_histogram,
)
from .models import DomainError, NoRootError
from .simulator import (
    ClickTrace,
    DeadTimeScheme,
    SchemeKind,
    SimConfig,
    SimulationConfigError,
    build_sweep_histogram,
    fold_gate_histogram,
    run_simulation,
    stream,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


class ConfigError(ValueError):
    """A config file or command line cannot be used as given."""


_CONFIG_ERRORS = (ConfigError, SimulationConfigError, HistogramFormatError, OSError)
_NUMERIC_ERRORS = (DegenerateDataError, NoRootError, DomainError, FitInputError)

# gates per laser period of each folded-gate method's runs under ``compare``;
# the methods of one layout share its lit and dark runs
_FOLDED = {"bethune": 2, "yuan": 50, "coincidence": 50}
METHODS = ("custom", *_FOLDED)

# defaults follow the bundled detector presets: 312.5 MHz gating, 20% PDE
# with 100 Hz dark counts, 10 kHz pulsed laser near one photon per pulse
_SCHEMA: dict[str, dict[str, tuple]] = {
    "detector": {
        "gate_frequency_hz": (float, 312.5e6),
        "pde": (float, 0.2),
        "dcr_hz": (float, 100.0),
        "afterpulse_probability": (float, 0.1),
        "detrap_time_s": (float, 1e-6),
    },
    "source": {
        "laser_frequency_hz": (float, 1e4),
        "mean_photons": (float, 1.0),
    },
    "deadtime": {
        "scheme": (str, "lt-ar"),
        "latch_time_s": (float, 0.2e-6),
        "hold_time_s": (float, 0.2e-6),
        "recovery_time_s": (float, 0.0),
    },
    "run": {
        "n_gates": (int, 200_000_000),
        "seed": (int, 1),
    },
    "histogram": {
        "sweep_s": (float, 25e-6),
        "bin_width_s": (float, 10e-9),
    },
    "estimation": {
        "dcr_window_start_s": (float, 20e-6),
        "dcr_window_end_s": (float, 25e-6),
        "yuan_gate_index": (int, 1),
    },
}


# a loaded config: every schema key, by (section, key), with defaults applied
Config = dict[tuple[str, str], object]


def _scheme(cfg: Config, kind: SchemeKind, latch: float, hold: float) -> DeadTimeScheme:
    """A ``kind`` circuit latched ``latch`` and held off ``hold`` s; recovery as configured."""
    ar = kind == SchemeKind.LT_AR
    return DeadTimeScheme(
        kind,
        tau_l=latch,
        tau_c=hold if ar else 0.0,
        tau_er=cfg[("deadtime", "recovery_time_s")] if ar else 0.0,
    )


def sim_config(cfg: Config, seed: int | None = None) -> SimConfig:
    f_g = cfg[("detector", "gate_frequency_hz")]
    return SimConfig(
        scheme=_scheme(
            cfg,
            SchemeKind(str(cfg[("deadtime", "scheme")])),
            cfg[("deadtime", "latch_time_s")],
            cfg[("deadtime", "hold_time_s")],
        ),
        n_gates=cfg[("run", "n_gates")],
        seed=cfg[("run", "seed")] if seed is None else seed,
        f_g=f_g,
        f_l=cfg[("source", "laser_frequency_hz")],
        mu=cfg[("source", "mean_photons")],
        pde=cfg[("detector", "pde")],
        dcr_per_gate=cfg[("detector", "dcr_hz")] / f_g,
        p_ap_internal=cfg[("detector", "afterpulse_probability")],
        tau_detrap=cfg[("detector", "detrap_time_s")],
    )


def _empty_sweep(cfg: Config, f_l: float | None = None) -> Histogram:
    """A sweep histogram of the configured layout, with no counts."""
    sweep, bin_width = cfg["histogram", "sweep_s"], cfg["histogram", "bin_width_s"]
    bins = np.zeros(round(sweep / bin_width), np.int64)
    return Histogram(bin_width, sweep, bins, 0, f_l=f_l)


def _refuse_sweep_past_the_next_pulse(cfg: Config, sim: SimConfig) -> None:
    """Refuse before any run the sweep that ``build_sweep_histogram`` would refuse."""
    try:
        _empty_sweep(cfg, sim.f_l)
    except DegenerateDataError:
        raise ConfigError(f"[histogram] sweep_s = {cfg['histogram', 'sweep_s']!r} outlasts the "
                          f"laser period of [source] laser_frequency_hz = {sim.f_l!r}: the next "
                          "pulse's clicks would be counted as afterpulses") from None


def dcr_window(cfg: Config) -> tuple[float, float]:
    return cfg[("estimation", "dcr_window_start_s")], cfg[("estimation", "dcr_window_end_s")]


def _refuse_dead_time_in_the_window(cfg: Config, tau_s: float, what: str) -> None:
    """Refuse before any run a dead time that ends at or past the baseline window start."""
    start = cfg["estimation", "dcr_window_start_s"]
    if _dead_time_in_the_window(tau_s, start):
        raise ConfigError(f"{what}: dead time tau_s = {tau_s!r} must stay below the baseline "
                          f"window start, [estimation] dcr_window_start_s = {start!r}")


def _check_sweep(cfg: Config, path: str | Path) -> None:
    """Refuse a sweep, bin width or baseline window that no sweep histogram holds."""
    sweep, bin_width = cfg["histogram", "sweep_s"], cfg["histogram", "bin_width_s"]
    if not sweep > bin_width > 0.0:
        raise ConfigError(
            f"{path}: keys 'sweep_s' and 'bin_width_s' in [histogram]: need sweep_s > "
            f"bin_width_s > 0, got {sweep!r} and {bin_width!r}"
        )
    # the window is checked as ``estimate_custom`` checks it, on an empty sweep
    try:
        _window_bins(_empty_sweep(cfg), dcr_window(cfg))
    except DegenerateDataError as exc:
        raise ConfigError(
            f"{path}: keys 'dcr_window_start_s' and 'dcr_window_end_s' in [estimation]: {exc}"
        ) from None


def load_config(path: str | Path) -> Config:
    """Parse and validate a config file against the schema."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
    cfg: Config = {}
    for section, keys in _SCHEMA.items():
        for key, (cast, default) in keys.items():
            if not parser.has_option(section, key):
                cfg[section, key] = default
                continue
            raw = parser.get(section, key)
            try:
                value = float(raw) if cast is int else cast(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: key '{key}' in [{section}]: cannot parse {raw!r}"
                ) from exc
            if cast is int:
                if not value.is_integer():
                    raise ConfigError(
                        f"{path}: key '{key}' in [{section}]: "
                        f"{raw!r} is not an integer"
                    )
                # digits are read exactly, past 2**53, and a form like 2e8 as a float
                value = int(raw) if raw.lstrip("+-").isdecimal() else int(value)
            elif cast is float and not math.isfinite(value):
                # NaN passes every comparison downstream
                raise ConfigError(
                    f"{path}: key '{key}' in [{section}]: must be a finite number, got {value!r}"
                )
            cfg[section, key] = value
    scheme = cfg["deadtime", "scheme"]
    if scheme not in {kind.value for kind in SchemeKind}:
        allowed = ", ".join(kind.value for kind in SchemeKind)
        raise ConfigError(f"{path}: key 'scheme' in [deadtime]: {scheme!r} is not one of {allowed}")
    _check_sweep(cfg, path)
    return cfg


def _gate_histogram(hist: Histogram, path) -> Histogram:
    if hist.gates_per_period is None:
        raise DegenerateDataError(
            f"{path}: not a gate histogram (missing 'kind = gate' metadata)"
        )
    return hist


def _custom_estimate(
    hist: Histogram, rate: float, tau_s: float, window: tuple[float, float], row: str
) -> ModelEstimate:
    """The model conversions of the sweep-histogram estimate.

    Every command's custom row passes here, so a flagged estimate warns on
    stderr whichever command prints it, and a refused one is refused with
    the same error type; ``row`` names the row in the warning or the error.
    """
    try:
        counts = estimate_custom(hist, tau_s=tau_s, window=window)
        if counts.negative_ap_warning:
            print(f"warning: {row}: afterpulse counts negative beyond 3 sigma; check tau_s "
                  "and the baseline window", file=sys.stderr)
        return derive_all(counts.p_exp, rate=rate, tau_s=tau_s)
    except _NUMERIC_ERRORS as exc:
        raise type(exc)(f"{row}: {exc}") from None


def _sweep_histogram(cfg: Config, trace: ClickTrace) -> Histogram:
    return build_sweep_histogram(
        trace,
        sweep=cfg[("histogram", "sweep_s")],
        bin_width=cfg[("histogram", "bin_width_s")],
    )


# the model columns of a custom row; its P_ap is the estimate's ``p_universal``
_MODEL_COLUMNS = ("p_exp", "p_s", "p1", "p2", "P_ap")
_FIT_COLUMNS = ("law", "a", "b", "c", "rss", "iterations", "converged")


def _table(columns: tuple[str, ...], rows) -> str:
    """The CSV text of ``rows``, each a mapping from column name to value.

    The header is ``columns``.  Text is written as it is and any other value
    by ``repr``; a column that a row lacks is an empty field.
    """
    lines = [columns]
    for row in rows:
        values = (row.get(column, "") for column in columns)
        lines.append([v if isinstance(v, str) else repr(v) for v in values])
    return "".join(",".join(line) + "\n" for line in lines)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim = sim_config(cfg, seed=args.seed)
    if args.kind == "sweep":
        _refuse_sweep_past_the_next_pulse(cfg, sim)
    trace = run_simulation(sim)
    hist = _sweep_histogram(cfg, trace) if args.kind == "sweep" else fold_gate_histogram(trace)
    write_histogram(hist, args.out)
    live_time = sim.duration - trace.n_clicks * sim.scheme.tau_s
    print(f"clicks = {trace.n_clicks}")
    print(f"hidden_avalanches = {trace.hidden_avalanches}")
    print(f"live_time_s = {live_time!r}")
    print(f"histogram = {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    for option, value in (("--tau-s", args.tau_s), ("--rate", args.rate),
                          ("--window-start", args.window_start), ("--window-end", args.window_end)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{option} must be a finite number, got {value!r}")
    if args.tau_s is not None and not args.tau_s > 0.0:
        raise ConfigError(f"--tau-s must be > 0, got {args.tau_s!r}")
    if args.rate is not None and not args.rate >= 0.0:
        raise ConfigError(f"--rate must be >= 0, got {args.rate!r}")
    if args.method in _FOLDED and not args.dark:
        raise ConfigError(f"method '{args.method}' needs --dark HISTOGRAM")
    hist = read_histogram(args.hist)
    if args.method == "custom":
        if hist.gates_per_period is not None:
            raise DegenerateDataError(
                f"{args.hist}: the custom method needs a sweep histogram, "
                "not a gate histogram"
            )
        # an option overrides the file, whose keys ``read_histogram`` has checked
        inputs, sources = [], []
        for option, key, value, recorded in (
            ("--tau-s", "tau_s_ns", args.tau_s, hist.tau_s),
            ("--rate", "rate_hz", args.rate, hist.rate),
        ):
            if value is None and recorded is None:
                raise DegenerateDataError(
                    f"{args.hist}: custom method needs {option} or {key} metadata"
                )
            sources.append(key if value is None else option)
            inputs.append(recorded if value is None else value)
        tau_s, rate = inputs
        row = f"{args.hist} (tau_s from {sources[0]}, rate from {sources[1]})"
        full = _custom_estimate(hist, rate, tau_s, (args.window_start, args.window_end), row)
        columns, est = ("method", *_MODEL_COLUMNS), {**vars(full), "P_ap": full.p_universal}
    else:
        lit = _gate_histogram(hist, args.hist)
        dark = _gate_histogram(read_histogram(args.dark), args.dark)
        columns = ("method", "P_ap")
        row = f"{args.hist} (dark {args.dark})"
        est = {"P_ap": _folded_estimate(args.method, lit, dark, args.ni_gate, row)}
    print(_table(columns, [{"method": args.method, **est}]), end="")
    return EXIT_OK


def _folded_estimate(method: str, lit: Histogram, dark: Histogram, gate: int, row: str) -> float:
    """``P_ap`` of one folded-gate method; ``gate`` is Yuan's gate index,
    and ``row`` names the row in a refusal, as in ``_custom_estimate``.

    The estimators are looked up by name at each call, so that a wrapper
    installed on this module sees every call.
    """
    try:
        if method == "bethune":
            return estimate_bethune(lit, dark)
        if method == "yuan":
            return estimate_yuan(lit, dark, ni_gate_index=gate)
        return estimate_coincidence(lit, dark)
    except _NUMERIC_ERRORS as exc:
        raise type(exc)(f"{row}: {exc}") from None


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    base = sim_config(cfg, seed=args.seed)
    _refuse_sweep_past_the_next_pulse(cfg, base)
    _refuse_dead_time_in_the_window(cfg, base.scheme.tau_s, f"{args.config}: [deadtime]")
    if not args.mu:
        raise ConfigError("--mu must list at least one pulse energy")
    yuan_gate = cfg[("estimation", "yuan_gate_index")]
    rows = []
    # (gates per period, mu index) -> lit and dark folds, on the first method's streams
    pairs: dict[tuple[int, int], list[Histogram]] = {}
    for method in METHODS:
        for i, mu in enumerate(args.mu):
            seed = stream(base.seed, method, i)
            if method == "custom":
                trace = run_simulation(replace(base, mu=mu, seed=seed))
                est = _custom_estimate(_sweep_histogram(cfg, trace), trace.rate,
                                       base.scheme.tau_s, dcr_window(cfg), f"custom, mu = {mu!r}")
                rows.append({"method": method, "mu": mu, **vars(est), "P_ap": est.p_universal})
                continue
            layout = _FOLDED[method]
            if (layout, i) not in pairs:
                f_l = base.f_g / layout
                pairs[layout, i] = [
                    fold_gate_histogram(run_simulation(replace(base, f_l=f_l, mu=m, seed=s)))
                    for m, s in ((mu, seed), (0.0, stream(seed, "dark", 0)))
                ]
            value = _folded_estimate(method, *pairs[layout, i], yuan_gate, f"{method}, mu = {mu!r}")
            rows.append({"method": method, "mu": mu, "P_ap": value})
    table = _table(("method", "mu", *_MODEL_COLUMNS), rows)
    Path(args.out).write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def _start_mu(
    trace: ClickTrace, p_exp: float, p_exp_next: float, target_rate: float
) -> float:
    """The pulse energy at which the next sweep row runs, to meet the target rate.

    The rate is close to ``f_l * p * (1 + p_exp)`` with ``p = 1 - exp(-mu*pde)``
    the per-pulse click probability, so ``trace``'s ``p`` is scaled by
    target/rate and by ``(1 + p_exp) / (1 + p_exp_next)``: ``p_exp`` is the
    run's own ratio and ``p_exp_next`` its sweep histogram read from the next
    row's dead time on, both floored at 0.  Where that ``p`` is not in
    (0, 1), the run's own ``mu`` is kept.
    """
    sim = trace.config
    p = sim.p_photon * (target_rate / trace.rate)
    p *= (1.0 + max(p_exp, 0.0)) / (1.0 + max(p_exp_next, 0.0))
    return -math.log1p(-p) / sim.pde if 0.0 < p < 1.0 else sim.mu


def cmd_sweep_deadtime(args) -> int:
    cfg = load_config(args.config)
    base = sim_config(cfg, seed=args.seed)
    _refuse_sweep_past_the_next_pulse(cfg, base)
    taus = args.tau
    if not taus or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError("--tau must be a strictly increasing list of seconds")
    schemes = list(SchemeKind) if args.scheme == "both" else [SchemeKind(args.scheme)]
    # before any run, every row's dead time (its tau) must end before the baseline window
    for tau in taus:
        _refuse_dead_time_in_the_window(cfg, tau, f"row {schemes[0].value}, tau = {tau!r}")

    # fixed-rate sweep: the first row's rate is the target, and each row
    # runs once.  A scheme's first row runs at the first row's pulse
    # energy, as it has the same dead time; each later row runs where the
    # previous row's sweep histogram, read from the new dead time on, puts
    # the target (``_start_mu``).  Each row prints its own run's rate
    rows = []
    target_rate = None
    window = dcr_window(cfg)
    for kind in schemes:
        mu = base.mu
        for j, tau in enumerate(taus):
            trace = run_simulation(replace(base, scheme=_scheme(cfg, kind, tau, tau), mu=mu,
                                           seed=stream(base.seed, "sweep", j)))
            if target_rate is None:
                target_rate = trace.rate
            hist = _sweep_histogram(cfg, trace)
            full = _custom_estimate(hist, trace.rate, tau, window, f"{kind.value}, tau_s = {tau!r}")
            rows.append({"scheme": kind.value, "tau_s": tau, "mu": mu, "rate_hz": trace.rate,
                         **vars(full)})
            if j + 1 < len(taus):
                ahead = estimate_custom(hist, tau_s=taus[j + 1], window=window)
                mu = _start_mu(trace, full.p_exp, ahead.p_exp, target_rate)
    columns = ("scheme", "tau_s", "mu", "rate_hz", "p_exp", "p_s", "p2")
    Path(args.out).write_text(_table(columns, rows), encoding="utf-8")

    fits = []
    for kind in schemes:
        own = [row for row in rows if row["scheme"] == kind.value]
        xs, ys = (np.array([row[key] for row in own]) for key in ("tau_s", "p2"))
        for law in FitLaw:
            try:
                fits.append({"scheme": kind.value, **vars(fit_curve(xs, ys, law))})
            except FitInputError as exc:
                print(f"{kind.value},{law.value},,,,,,{exc}", file=sys.stderr)
    print(_table(("scheme", *_FIT_COLUMNS), fits), end="")
    return EXIT_OK


def _two_numbers(row: str) -> bool:
    fields = row.split(",")
    try:
        float(fields[0]), float(fields[1])
    except (ValueError, IndexError):
        return False
    return True


def cmd_fit(args) -> int:
    try:
        rows = Path(args.data).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise FitInputError(f"{args.data}: not UTF-8 text ({exc.reason})") from None
    # the first line is a header unless its first two fields are numbers
    start = 0 if rows and _two_numbers(rows[0]) else 1
    xs, ys = [], []
    for lineno, row in enumerate(rows[start:], start=start + 1):
        fields = row.split(",")
        if len(fields) < 2:
            raise FitInputError(f"{args.data}:{lineno}: expected 'tau_us,value'")
        try:
            xs.append(float(fields[0]) * 1e-6)
            ys.append(float(fields[1]))
        except ValueError as exc:
            raise FitInputError(f"{args.data}:{lineno}: non-numeric field in {row!r}") from exc
        if not (math.isfinite(xs[-1]) and math.isfinite(ys[-1])):
            raise FitInputError(f"{args.data}:{lineno}: non-finite field in {row!r}")
    fits = []
    for law in list(FitLaw) if args.law == "both" else [FitLaw(args.law)]:
        try:
            fits.append(vars(fit_curve(np.array(xs), np.array(ys), law)))
        except FitInputError as exc:
            raise FitInputError(f"{args.data}, law = {law.value}: {exc}") from None
    print(_table(_FIT_COLUMNS, fits), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: callers must not mutate it."""
    parser = _Parser(
        prog="afterpulse",
        description=(
            "Afterpulse characterization for sine-gated single-photon "
            "avalanche detectors: Monte Carlo simulation, histogram "
            "estimation methods and dead-time fits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the detector Monte Carlo")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument(
        "--kind",
        choices=("sweep", "gate"),
        default="sweep",
        help="histogram structure to write",
    )
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="estimate afterpulse probability")
    est.add_argument("--hist", required=True)
    est.add_argument("--method", choices=METHODS, required=True)
    est.add_argument("--dark", help="dark histogram (folded-gate methods)")
    est.add_argument("--tau-s", dest="tau_s", type=float, default=None)
    est.add_argument("--rate", type=float, default=None)
    estimation = _SCHEMA["estimation"]
    est.add_argument("--window-start", type=float, default=estimation["dcr_window_start_s"][1])
    est.add_argument("--window-end", type=float, default=estimation["dcr_window_end_s"][1])
    est.add_argument(
        "--ni-gate", dest="ni_gate", type=int, default=estimation["yuan_gate_index"][1]
    )
    est.set_defaults(func=cmd_estimate)

    cmp_ = sub.add_parser("compare", help="compare methods across pulse energies")
    cmp_.add_argument("--config", required=True)
    cmp_.add_argument("--out", required=True)
    cmp_.add_argument("--mu", type=_float_list, required=True)
    cmp_.add_argument("--seed", type=int, default=None)
    cmp_.set_defaults(func=cmd_compare)

    swp = sub.add_parser(
        "sweep-deadtime", help="afterpulse vs dead time at fixed count rate"
    )
    swp.add_argument("--config", required=True)
    swp.add_argument("--out", required=True)
    swp.add_argument("--tau", type=_float_list, required=True)
    swp.add_argument("--scheme", choices=("lt", "lt-ar", "both"), default="both")
    swp.add_argument("--seed", type=int, default=None)
    swp.set_defaults(func=cmd_sweep_deadtime)

    fit = sub.add_parser("fit", help="fit decay laws to a tau/probability table")
    fit.add_argument("--data", required=True)
    fit.add_argument(
        "--law", choices=("power", "exponential", "both"), default="both"
    )
    fit.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"afterpulse: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_ERRORS as exc:
        print(f"afterpulse: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
