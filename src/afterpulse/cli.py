"""Command-line front end: simulate, estimate, compare, sweep dead times, fit.

Configuration is a sectioned key-value text file (INI syntax); unknown
sections or keys are rejected so typos fail loudly.  Every command is
deterministic for a fixed config (seeds included) and emits CSV with a
one-line header.  Exit codes: 0 success, 1 usage/config/IO error,
2 numerical or degenerate-data error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .estimators import (
    DegenerateDataError,
    EstimateBundle,
    GateHistogram,
    derive_all,
    estimate_bethune,
    estimate_coincidence,
    estimate_custom,
    estimate_yuan,
)
from .fitting import FitInputError, FitLaw, fit_curve
from .histio import HistogramFormatError, SweepHistogram, read_histogram, write_histogram
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

METHODS = ("custom", "bethune", "yuan", "coincidence")

# runs one sweep row may take to meet the target rate
CALIBRATION_RUNS = 6

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
        "ramp": (str, "linear"),
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


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a config file, with defaults applied."""

    values: dict[str, dict[str, object]]

    def __getitem__(self, addr: tuple[str, str]):
        section, key = addr
        return self.values[section][key]

    def scheme(self) -> DeadTimeScheme:
        kind = SchemeKind(str(self[("deadtime", "scheme")]))
        return DeadTimeScheme(
            kind=kind,
            tau_l=self[("deadtime", "latch_time_s")],
            tau_c=self[("deadtime", "hold_time_s")] if kind == SchemeKind.LT_AR else 0.0,
            tau_er=self[("deadtime", "recovery_time_s")]
            if kind == SchemeKind.LT_AR
            else 0.0,
            ramp=str(self[("deadtime", "ramp")]),
        )

    def sim_config(self, seed: int | None = None) -> SimConfig:
        f_g = self[("detector", "gate_frequency_hz")]
        return SimConfig(
            scheme=self.scheme(),
            n_gates=self[("run", "n_gates")],
            seed=self[("run", "seed")] if seed is None else seed,
            f_g=f_g,
            f_l=self[("source", "laser_frequency_hz")],
            mu=self[("source", "mean_photons")],
            pde=self[("detector", "pde")],
            dcr_per_gate=self[("detector", "dcr_hz")] / f_g,
            p_ap_internal=self[("detector", "afterpulse_probability")],
            tau_detrap=self[("detector", "detrap_time_s")],
        )

    def dcr_window(self) -> tuple[float, float]:
        return (
            self[("estimation", "dcr_window_start_s")],
            self[("estimation", "dcr_window_end_s")],
        )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file against the schema."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{section}]")
    for section, keys in _SCHEMA.items():
        values[section] = {}
        for key, (cast, default) in keys.items():
            if parser.has_option(section, key):
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
                    value = int(value)
                values[section][key] = value
            else:
                values[section][key] = default
    return RunConfig(values=values)


def _gate_histogram(hist: SweepHistogram | GateHistogram, path) -> GateHistogram:
    if not isinstance(hist, GateHistogram):
        raise DegenerateDataError(
            f"{path}: not a gate histogram (missing 'kind = gate' metadata)"
        )
    return hist


def _custom_estimate(
    hist: SweepHistogram, rate: float, tau_s: float, window: tuple[float, float]
) -> tuple[EstimateBundle, EstimateBundle]:
    """The sweep-histogram estimate and its model conversions."""
    measured = estimate_custom(hist, tau_s=tau_s, window=window)
    return measured, derive_all(measured.p_exp, rate=rate, tau_s=tau_s)


def _sweep_histogram(cfg: RunConfig, trace: ClickTrace) -> SweepHistogram:
    return build_sweep_histogram(
        trace,
        sweep=cfg[("histogram", "sweep_s")],
        bin_width=cfg[("histogram", "bin_width_s")],
    )


def _simulated_custom(cfg: RunConfig, trace: ClickTrace) -> EstimateBundle:
    """The model conversions of a finished run's configured sweep histogram."""
    hist = _sweep_histogram(cfg, trace)
    _, full = _custom_estimate(hist, trace.rate, trace.config.scheme.tau_s, cfg.dcr_window())
    return full


def _bundle_fields(bundle: EstimateBundle) -> str:
    return ",".join(
        repr(v)
        for v in (bundle.p_exp, bundle.p_s, bundle.p1, bundle.p2, bundle.p_universal)
    )


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    sim = cfg.sim_config(seed=args.seed)
    trace = run_simulation(sim)
    if args.kind == "sweep":
        hist = _sweep_histogram(cfg, trace)
    else:
        hist = fold_gate_histogram(trace)
    write_histogram(hist, args.out)
    live_time = sim.duration - trace.n_clicks * sim.scheme.tau_s
    print(f"clicks = {trace.n_clicks}")
    print(f"hidden_avalanches = {trace.hidden_avalanches}")
    print(f"live_time_s = {live_time!r}")
    print(f"histogram = {args.out}")
    return EXIT_OK


def _meta_float(
    hist: SweepHistogram | GateHistogram, key: str, path, default: float | None = None
) -> float:
    """A number from the histogram metadata; ``default`` when the key is absent."""
    if default is not None and key not in hist.meta:
        return default
    try:
        return float(hist.meta[key])
    except ValueError as exc:
        raise DegenerateDataError(
            f"{path}: metadata {key} = {hist.meta[key]!r} is not a number"
        ) from exc


def cmd_estimate(args) -> int:
    if args.method != "custom" and not args.dark:
        raise ConfigError(f"method '{args.method}' needs --dark HISTOGRAM")
    hist = read_histogram(args.hist)
    if args.method == "custom":
        if isinstance(hist, GateHistogram):
            raise DegenerateDataError(
                f"{args.hist}: the custom method needs a sweep histogram, "
                "not a gate histogram"
            )
        tau_s = args.tau_s
        if tau_s is None:
            if "tau_s_ns" not in hist.meta:
                raise DegenerateDataError(
                    "custom method needs --tau-s or tau_s_ns metadata"
                )
            tau_s = _meta_float(hist, "tau_s_ns", args.hist) * 1e-9
        rate = args.rate
        if rate is None:
            if "rate_hz" not in hist.meta:
                raise DegenerateDataError(
                    "custom method needs --rate or rate_hz metadata"
                )
            rate = _meta_float(hist, "rate_hz", args.hist)
        window = (args.window_start, args.window_end)
        measured, full = _custom_estimate(hist, rate, tau_s, window)
        print("method,p_exp,p_s,p1,p2,P_ap")
        print("custom," + _bundle_fields(full))
        if measured.negative_ap_warning:
            print(
                "warning: afterpulse counts negative beyond 3 sigma; "
                "check tau_s and the baseline window",
                file=sys.stderr,
            )
        return EXIT_OK
    lit = _gate_histogram(hist, args.hist)
    dark = _gate_histogram(read_histogram(args.dark), args.dark)
    f_g = _meta_float(lit, "f_g_hz", args.hist, lit.f_g)
    f_l = _meta_float(lit, "f_l_hz", args.hist, f_g / lit.gates_per_period)
    if args.method == "bethune":
        value = estimate_bethune(lit, dark)
    elif args.method == "yuan":
        value = estimate_yuan(lit, dark, f_g, f_l, ni_gate_index=args.ni_gate)
    else:
        value = estimate_coincidence(lit, dark, f_g, f_l)
    print("method,P_ap")
    print(f"{args.method},{value!r}")
    return EXIT_OK


def _classical_estimate(method: str, base: SimConfig, mu: float, seed: int, yuan_gate: int) -> float:
    f_l = base.f_g / 2 if method == "bethune" else base.f_g / 50
    lit_cfg = replace(base, f_l=f_l, mu=mu, seed=seed)
    dark_cfg = replace(base, f_l=f_l, mu=0.0, seed=stream(seed, "dark", 0))
    lit = fold_gate_histogram(run_simulation(lit_cfg))
    dark = fold_gate_histogram(run_simulation(dark_cfg))
    if method == "bethune":
        return estimate_bethune(lit, dark)
    if method == "yuan":
        return estimate_yuan(lit, dark, base.f_g, f_l, ni_gate_index=yuan_gate)
    return estimate_coincidence(lit, dark, base.f_g, f_l)


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    base = cfg.sim_config(seed=args.seed)
    mus = args.mu
    yuan_gate = cfg[("estimation", "yuan_gate_index")]
    lines = ["method,mu,p_exp,p_s,p1,p2,P_ap"]
    for method in METHODS:
        for i, mu in enumerate(mus):
            seed = stream(base.seed, method, i)
            if method == "custom":
                trace = run_simulation(replace(base, mu=mu, seed=seed))
                bundle = _simulated_custom(cfg, trace)
                lines.append(f"{method},{mu!r}," + _bundle_fields(bundle))
            else:
                value = _classical_estimate(method, base, mu, seed, yuan_gate)
                lines.append(f"{method},{mu!r},,,,,{value!r}")
    table = "\n".join(lines) + "\n"
    Path(args.out).write_text(table, encoding="utf-8")
    print(table, end="")
    return EXIT_OK


def _calibrate_mu(base: SimConfig, target_rate: float) -> tuple[float, ClickTrace]:
    """Rerun ``base`` with new pulse energies until its rate meets the target.

    Every run uses the config's own gate count and seed, so the accepted run
    is the measurement.  A run more than 2 % off the target scales the
    per-pulse click probability ``1 - exp(-mu*pde)``, to which the rate is
    close to proportional, by target/rate.  After ``CALIBRATION_RUNS`` runs,
    or when that probability cannot change or would reach 1, the last run
    is returned with a warning on stderr.  Returns the run and its ``mu``.
    """
    sim = base
    for runs in range(1, CALIBRATION_RUNS + 1):
        trace = run_simulation(sim)
        if abs(trace.rate - target_rate) <= 0.02 * target_rate:
            return sim.mu, trace
        # the next click probability is p * target / rate; it must stay in (0, 1)
        scaled = sim.p_photon * target_rate
        if runs == CALIBRATION_RUNS or scaled == 0.0 or scaled >= trace.rate:
            break
        sim = replace(sim, mu=-math.log1p(-scaled / trace.rate) / sim.pde)
    print(
        f"warning: rate calibration missed the target {target_rate!r} Hz by "
        f"more than 2 %: the last probe, mu = {sim.mu!r}, reached "
        f"{trace.rate!r} Hz",
        file=sys.stderr,
    )
    return sim.mu, trace


def cmd_sweep_deadtime(args) -> int:
    cfg = load_config(args.config)
    base = cfg.sim_config(seed=args.seed)
    taus = args.tau
    if not taus or any(b <= a for a, b in zip(taus, taus[1:])):
        raise ConfigError("--tau must be a strictly increasing list of seconds")
    sweep_len = cfg[("histogram", "sweep_s")]
    if taus[-1] >= sweep_len:
        raise ConfigError(
            f"largest tau {taus[-1]!r} must stay below the sweep {sweep_len!r}"
        )
    window_start = cfg.dcr_window()[0]
    if taus[-1] >= window_start:
        raise ConfigError(
            f"largest tau {taus[-1]!r} must stay below the baseline window "
            f"start {window_start!r}"
        )
    schemes = (
        [SchemeKind.LT, SchemeKind.LT_AR]
        if args.scheme == "both"
        else [SchemeKind(args.scheme)]
    )

    # fixed-rate sweep: the first row's rate is the target, and every later
    # row is calibrated to it, starting from the previous row's pulse energy
    lines = ["scheme,tau_s,mu,rate_hz,p_exp,p_s,p2"]
    series: dict[SchemeKind, list[tuple[float, float]]] = {k: [] for k in schemes}
    mu, target_rate = base.mu, None
    for kind in schemes:
        for j, tau in enumerate(taus):
            row = replace(
                base,
                scheme=_scheme_for(kind, tau, cfg),
                mu=mu,
                seed=stream(base.seed, "sweep", j),
            )
            if target_rate is None:
                trace = run_simulation(row)
                target_rate = trace.rate
            else:
                mu, trace = _calibrate_mu(row, target_rate)
            full = _simulated_custom(cfg, trace)
            lines.append(
                f"{kind.value},{tau!r},{mu!r},{trace.rate!r},"
                f"{full.p_exp!r},{full.p_s!r},{full.p2!r}"
            )
            series[kind].append((tau, full.p2))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")

    print("scheme,law,a,b,c,rss,iterations,converged")
    for kind in schemes:
        xs = np.array([t for t, _ in series[kind]])
        ys = np.array([v for _, v in series[kind]])
        for law in (FitLaw.POWER_LAW, FitLaw.EXPONENTIAL):
            try:
                fit = fit_curve(xs, ys, law)
            except FitInputError as exc:
                print(f"{kind.value},{law.value},,,,,,{exc}", file=sys.stderr)
                continue
            print(
                f"{kind.value},{law.value},{fit.a!r},{fit.b!r},{fit.c!r},"
                f"{fit.rss!r},{fit.iterations},{fit.converged}"
            )
    return EXIT_OK


def _scheme_for(kind: SchemeKind, tau: float, cfg: RunConfig) -> DeadTimeScheme:
    if kind == SchemeKind.LT:
        return DeadTimeScheme(SchemeKind.LT, tau_l=tau)
    return DeadTimeScheme(
        SchemeKind.LT_AR,
        tau_l=tau,
        tau_c=tau,
        tau_er=cfg[("deadtime", "recovery_time_s")],
        ramp=str(cfg[("deadtime", "ramp")]),
    )


def cmd_fit(args) -> int:
    try:
        rows = Path(args.data).read_text(encoding="utf-8").strip().splitlines()
    except UnicodeDecodeError as exc:
        raise FitInputError(f"{args.data}: not UTF-8 text ({exc.reason})") from None
    if len(rows) < 2:
        raise FitInputError(f"{args.data}: no data rows")
    xs, ys = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        fields = row.split(",")
        if len(fields) < 2:
            raise FitInputError(f"{args.data}:{lineno}: expected 'tau_us,value'")
        try:
            xs.append(float(fields[0]) * 1e-6)
            ys.append(float(fields[1]))
        except ValueError as exc:
            raise FitInputError(f"{args.data}:{lineno}: non-numeric field in {row!r}") from exc
    laws = (
        [FitLaw.POWER_LAW, FitLaw.EXPONENTIAL]
        if args.law == "both"
        else [FitLaw(args.law)]
    )
    print("law,a,b,c,rss,iterations,converged")
    for law in laws:
        fit = fit_curve(np.array(xs), np.array(ys), law)
        print(
            f"{law.value},{fit.a!r},{fit.b!r},{fit.c!r},{fit.rss!r},"
            f"{fit.iterations},{fit.converged}"
        )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
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
    est.add_argument("--window-start", type=float, default=20e-6)
    est.add_argument("--window-end", type=float, default=25e-6)
    est.add_argument("--ni-gate", dest="ni_gate", type=int, default=1)
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
