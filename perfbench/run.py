#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the afterpulse pipeline.

Runs one workload through the CLI in-process (``afterpulse.cli.main``
with stdout captured), checks every output against the benchmark's own
reference computations and prints the metrics, with the last line of
stdout a JSON object::

    python3 perfbench/run.py --workload dense-compare --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same rounds untraced and traced in turn and prints the per-layer metrics
from the spans, with the tracing overhead.  ``--small`` runs every
workload at a small size, with its checks, in a few seconds.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 1 before measuring anything.
"""

from __future__ import annotations

import os

# one thread: pinned before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the keys of workloads.WORKLOADS, which cannot be imported before set-up is timed
WORKLOAD_NAMES = ("dense-compare", "deadtime-sweep", "histogram-roundtrip")
FIRST_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import the CLI from the checkout's src/, never from elsewhere."""
    if not (SRC / "afterpulse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'afterpulse'}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("afterpulse.cli")
    if Path(cli.__file__).resolve().parent != SRC / "afterpulse":
        raise SystemExit(f"perfbench: imported afterpulse from {cli.__file__}, not {SRC}")
    return cli


def set_up(name: str, seed: int, small: bool, workdir: Path):
    """Import the program, then write and load the workload's configs.

    Returns the workload, the CLI module, and the import and total set-up
    times in seconds.
    """
    t0 = time.perf_counter()
    cli = import_program()
    t_import = time.perf_counter() - t0
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](workdir, seed, small)
    for fname, text in wl.config_files().items():
        path = workdir / fname
        path.write_text(text, encoding="utf-8")
        cli.load_config(path)
    return wl, cli, t_import, time.perf_counter() - t0


def probe_setup(name: str) -> dict:
    """Set-up times of one fresh interpreter, as a user pays them."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def typical_round(rounds: list, attr: str) -> float:
    """A round's time, each operation taken at its median over the run.

    Sums, over the operations of one round, the median of the operations
    with the same label in every round.  The machine has busy phases of a
    second or so; a few operations they slow do not move a median.
    """
    samples = defaultdict(list)
    for ops in rounds:
        for op in ops:
            samples[op.label].append(getattr(op, attr))
    return sum(statistics.median(samples[op.label]) for op in rounds[0])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha1 over the program's sources: names the program without git."""
    h = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def run_record(args, rounds: int) -> dict:
    import afterpulse
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "rounds": rounds,
        "backend": "numba" if afterpulse.USING_NUMBA else "python",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha1": src_digest(),
    }


def run_workload(args) -> dict:
    workdir = OUT / args.workload
    wl, cli, t_import, t_setup = set_up(args.workload, args.seed, args.small, workdir)
    import machine
    import tracing
    import workloads

    # set-up probes run a few at the start and one after every round, so
    # that they sample the machine across the whole run
    probes = [] if args.small else [probe_setup(args.workload) for _ in range(FIRST_PROBES)]
    session = workloads.Session(cli)
    tracer = tracing.Tracer()
    rounds = {False: [], True: []}

    def one_round(r: int, traced: bool) -> list:
        if traced:
            tracer.install(cli, importlib.import_module("afterpulse.models"))
            session.tracer = tracer
        try:
            round_ops = wl.run_round(session, r)
        finally:
            tracer.uninstall()
            session.tracer = None
        rounds[traced].append(round_ops)
        return round_ops

    if args.trace:
        pairs = max(wl.min_rounds, 0 if args.small else int(args.seconds // (2 * wl.nominal_round_s)))
        for r in range(pairs):
            plain = one_round(r, traced=False)
            traced = one_round(r, traced=True)
            for a, b in zip(plain, traced):
                if a.outputs != b.outputs:
                    b.problems.append("traced run printed other output than the untraced run")
    else:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            one_round(len(rounds[False]), traced=False)
            if not args.small:
                probes.append(probe_setup(args.workload))
            now = time.perf_counter()
            if len(rounds[False]) < wl.min_rounds:
                continue
            if args.small or (now - start) + (now - t0) > args.seconds:
                break

    n_rounds = len(rounds[False])
    plain_ops = [op for r in rounds[False] for op in r]
    ops = plain_ops + [op for r in rounds[True] for op in r]
    problems = wl.run_checks()
    failed = [op for op in ops if op.problems]
    # a probe scales its set-up time by the reference loop run in the same
    # fresh interpreter; the small mode has only the in-process set-up
    setups = [p["setup_s"] * machine.NOMINAL_S / p["reference_s"] for p in probes] or [t_setup]
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in probes) if probes else t_setup,
        "wall_s": typical_round(rounds[False], "wall"),
        "cpu_s": typical_round(rounds[False], "cpu"),
        "op_p50_s": statistics.median(op.wall for op in plain_ops),
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, n_rounds)
        metrics["setup.import_s"] = (
            statistics.median(p["import_s"] for p in probes) if probes else t_import, "s"
        )
        metrics["trace.overhead_s"] = (
            typical_round(rounds[True], "scaled_wall") - typical_round(rounds[False], "scaled_wall"),
            "s",
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": typical_round(rounds[False], "scaled_wall"),
            "cpu_s": typical_round(rounds[False], "scaled_cpu"),
            "op_p50_s": statistics.median(op.scaled_wall for op in plain_ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}

    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "record": run_record(args, n_rounds),
        "result": result,
        "round_wall_s": [sum(op.wall for op in r) for r in rounds[False]],
        "round_cpu_s": [sum(op.cpu for op in r) for r in rounds[False]],
        "round_traced_wall_s": [sum(op.wall for op in r) for r in rounds[True]],
        "raw_seconds": raw,
        "reference_loop_s": session.reference_times,
        "in_process_setup": {"setup_s": t_setup, "import_s": t_import},
        "setup_probes": probes,
        "run_problems": problems,
        "ops": [[op.label, op.wall, op.cpu, op.scaled_wall] for op in ops],
        "failed_ops": [{"label": op.label, "problems": op.problems} for op in failed],
    }
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-small" if args.small else "")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        (OUT / f"trace-{tag}.json").write_text(
            json.dumps(tracer.to_json()), encoding="utf-8"
        )

    rec = record["record"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={n_rounds} "
        f"attempted={len(ops)} failed={len(failed)} backend={rec['backend']} "
        f"python={rec['python']} numpy={rec['numpy']} nproc={rec['nproc']} "
        f"commit={rec['commit']} src={rec['src_sha1']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    for op in failed[:10]:
        print(f"  FAILED {op.label}: {'; '.join(op.problems)[:400]}")
    print(f"  record: {(OUT / f'result-{tag}.json').relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="every workload, small, with checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.setup_probe:
        _, _, t_import, t_setup = set_up(
            args.workload, 0, False, OUT / "setup-probe" / args.workload
        )
        import machine

        reference_s = statistics.median(machine.reference_time() for _ in range(3))
        print(json.dumps({"import_s": t_import, "setup_s": t_setup, "reference_s": reference_s}))
        return 0

    if args.small:
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        ok = True
        for name in names:
            args.workload = name
            res = run_workload(args)
            ok = ok and res["correct"] and res["failed"] == 0
            print(json.dumps(res))
        return 0 if ok else 1

    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
