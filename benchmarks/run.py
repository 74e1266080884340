"""Solver benchmark: fixed batches of solves through the public API.

One client, closed loop: each solve starts when the previous one has
returned.  Run from the root of a checkout:

    python3 benchmarks/run.py                        # every workload, one process each
    python3 benchmarks/run.py --workload full-ladder --seed 0 --seconds 20 --trace 0

With ``--workload`` the process caps its own address space, builds the
batch (set-up, timed several times), repeats the batch until
``--seconds`` have passed and checks every answer.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced batch with
``--trace 1``.  ``--seed`` fixes the order in which the batch's solves
run; ``--shift`` moves the energy instance seeds (default: the
documented batches).  The exit code is nonzero when an answer fails
its checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
MEMORY_CAP = 4 << 30  # bytes of address space per workload process
SETUP_REPEATS = 5  # at least, and for at least SETUP_SECONDS
SETUP_SECONDS = 2.0
# numpy, epecnash and the benchmark's own modules are imported inside the
# functions: main() first fixes the BLAS thread count and puts src/ on the path.


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="run one workload in this process")
    ap.add_argument("--seed", type=int, default=0, help="order of the solves in the batch")
    ap.add_argument("--seconds", type=float, default=20.0, help="minimum measured time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shift", type=int, default=0, help="added to every energy seed")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "epecnash" / "__init__.py").is_file():
        print(f"no solver sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # One thread per workload process: HiGHS already runs with threads=1.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


# -- one workload, in its own process -----------------------------------


def cap_address_space() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def environment(cap: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "address_space_cap_bytes": cap,
    }


try:  # glibc: hand freed heap pages back, so peak RSS does not depend on solve order
    import ctypes

    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):

    def _malloc_trim(pad):
        return 0


def solve_batch(order, games, tracer=None) -> tuple[float, list]:
    """Run every solve once; (summed solve seconds, [(solve, seconds, report, error)])."""
    from workloads import run_solve

    records = []
    for solve in order:
        gc.collect()  # every solve starts from a collected, trimmed heap
        _malloc_trim(0)
        t0 = time.perf_counter()
        rep = err = None
        with tracer.span("solve") if tracer is not None else nullcontext() as root:
            try:
                rep = run_solve(solve, games[solve.instance])
            except Exception as exc:  # a failed solve is a result here, not a crash
                err = f"{type(exc).__name__}: {exc}"[:120]
            if root is not None and rep is not None:
                root.add(iterations=rep.iterations)
        records.append((solve, time.perf_counter() - t0, rep, err))
    return sum(r[1] for r in records), records


def check_batches(batches, games) -> tuple[list[str], int]:
    """Check every answer of every batch; (problems, failed solve count)."""
    from epecnash import leader_feasible_set
    from workloads import check_answer, check_selection

    sets = {key: [leader_feasible_set(l) for l in g.leaders] for key, g in games.items()}
    problems: list[str] = []
    failed = 0
    for _, records in batches:
        for solve, _, rep, err in records:
            found = [] if rep is None else check_answer(solve, games[solve.instance], sets[solve.instance], rep)
            problems += [f"{solve.label}: {p}" for p in found]
            failed += bool(err or found or rep.status == "TimeLimit")
        reports = {solve.label: rep for solve, _, rep, _ in records}
        problems += check_selection([r[0] for r in records], games, reports)
    return problems, failed


def run_workload(args) -> int:
    cap = cap_address_space()
    from epecnash import full_enumeration, inner_approximation, matching_pennies_game, pure_enumeration
    from tracing import Tracer, layer_metrics, median_metrics, root_seconds
    from workloads import batch, build_instances, verdict

    solves = batch(args.workload, args.shift)
    order = list(solves)
    random.Random(args.seed).shuffle(order)

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = time.perf_counter()
        games = build_instances(solves)
        setup_times.append(time.perf_counter() - t0)

    warm = matching_pennies_game()  # first-call costs stay out of the timed runs
    for solver in (full_enumeration, inner_approximation, pure_enumeration):
        solver(warm)

    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        untraced.append(solve_batch(order, games))
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(solve_batch(order, games, tracer))
            layers.append(layer_metrics(tracer.spans))

    problems, failed = check_batches(untraced + traced, games)
    attempted = sum(len(records) for _, records in untraced + traced)

    print("env " + json.dumps(environment(cap), sort_keys=True))
    first = untraced[0][1]
    for solve, seconds, rep, err in sorted(first, key=lambda r: solves.index(r[0])):
        print(f"solve {solve.label:24s} {rep.status if rep else err:40.40s} {seconds:8.3f} s")
    verdicts = {s.label: verdict(rep.status) for s, _, rep, _ in first if rep and s.algorithm != "pure"}
    print("verdicts " + json.dumps(verdicts, sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED {p}")

    walls = [wall for wall, _ in untraced]
    summary = {
        "workload": args.workload,
        "batches": len(untraced),
        "solves_per_batch": len(solves),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "wall_s": median(walls),
        "solve_s.p50": median(sec for _, records in untraced for _, sec, _, _ in records),
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("summary " + json.dumps(summary))
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            build_instances(solves, tracer)
        values = median_metrics(layers)
        values["generators.gen_s"] = root_seconds(tracer.spans, "generators.gen")
        values["energy.build_s"] = root_seconds(tracer.spans, "energy.build")
        values["trace.overhead_s"] = median(w for w, _ in traced) - median(walls)
    else:
        values = summary
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 1 if problems else 0


# -- every workload, one child process each ------------------------------


def run_all(args) -> int:
    from workloads import WORKLOADS

    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--shift", str(args.shift),
        ]
        timeout = 180 + 3 * args.seconds  # a run measures at most ~2 batches past --seconds
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(f"[{name}] {l}\n" for l in lines[:-1]))
        sys.stderr.write(proc.stderr)
        tagged = {l.split(" ", 1)[0]: l.split(" ", 1)[1] for l in lines if l.startswith(("summary ", "verdicts "))}
        if proc.returncode or len(tagged) < 2:
            print(f"[{name}] failed (exit {proc.returncode})")
            status = 1
        if len(tagged) == 2:
            rows.append((json.loads(tagged["summary"]), json.loads(tagged["verdicts"]), json.loads(lines[-1])))

    by_name = {summary["workload"]: verdicts for summary, verdicts, _ in rows}
    full, inner = by_name.get("full-ladder", {}), by_name.get("inner-ladder", {})
    for key in sorted(full.keys() & inner.keys()):
        if None not in (full[key], inner[key]) and full[key] != inner[key]:
            print(f"CHECK FAILED {key}: full says equilibrium={full[key]}, inner {inner[key]}")
            status = 1

    units = {"wall_s": "s", "solve_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for summary, _, result in rows:
        print(
            f"\n{summary['workload']}: {summary['batches']} untraced batch(es) of "
            f"{summary['solves_per_batch']} solves; failed {summary['failed']} of "
            f"{summary['attempted']} (failed_frac {summary['failed_frac']:.4f}); "
            f"correct={result['correct']}"
        )
        for metric, unit in units.items():
            print(f"  {metric:32s} {summary[metric]:14.6g} {unit}")
        if args.trace:
            for metric, m in result["metrics"].items():
                print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
