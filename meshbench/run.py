"""dqn-mesh benchmark: three workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout:

    python3 meshbench/run.py --workload mesh50-qp --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another in this
process.  With ``--trace 0`` the last line of standard output is a JSON
object with every end-to-end metric; with ``--trace 1`` passes alternate
between untraced and traced, the JSON object holds every per-layer
metric, and a line states the tracing overhead.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread: the matrices are at most 50 x 50, where more threads only
# compete with the interpreter for cores; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".meshbench_out"

WORKLOAD_NAMES = ("mesh50-qp", "ec-constrained", "golden-sweep")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "round_ms": "ms",
    "report_s": "s",
    "wall_s": "s",
    "rounds": "count",
    "bytes_per_agent": "bytes",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import dqn_mesh from this checkout's src/, and nowhere else."""
    if not (SRC / "dqn_mesh" / "__init__.py").is_file():
        sys.exit(f"meshbench: no dqn_mesh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dqn_mesh

    if not Path(dqn_mesh.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"meshbench: dqn_mesh was imported from {dqn_mesh.__file__}, not {SRC}")


# untraced passes set up and report each unit this many times and count
# the median: a single report phase of a golden-sweep cell varies by a
# fifth from one repetition to the next on a shared host
REPEATS = 3


def one_pass(workload, out: Path, repeats: int = 1) -> dict:
    """Set up, solve and report each unit, then check its outputs
    (untimed); phase times are summed over the units.  A unit's set-up and
    report times are medians over ``repeats`` set-ups and reports, each
    report to a fresh directory; the last set-up and report are used."""
    phases = {"setup_s": 0.0, "solve_s": 0.0, "report_s": 0.0}
    runs, rounds_run = [], 0
    for k, unit in enumerate(workload.units):
        setups = []
        for _ in range(repeats):
            t0 = perf_counter()
            ctx = unit.setup()
            setups.append(perf_counter() - t0)
        t1 = perf_counter()
        unit_runs = unit.solve(ctx)
        t2 = perf_counter()
        reports = []
        for j in range(repeats):
            if j:
                shutil.rmtree(unit_out)
            unit_out = out / f"unit-{k}-report-{j}"
            unit_out.mkdir(parents=True)
            for run in unit_runs:
                run.findings = []
            t3 = perf_counter()
            unit.report(ctx, unit_runs, unit_out)
            reports.append(perf_counter() - t3)
        unit.check(ctx, unit_runs, unit_out)
        phases["setup_s"] += statistics.median(setups)
        phases["solve_s"] += t2 - t1
        phases["report_s"] += statistics.median(reports)
        runs += unit_runs
        rounds_run += ctx.get("rounds_run", sum(r.trace.rounds for r in unit_runs if r.trace))
    shutil.rmtree(out)
    traces = [r.trace for r in runs if r.trace is not None]
    failures = {r.name: ([r.error] if r.error else []) + r.findings for r in runs}
    return {
        **phases,
        "wall_s": sum(phases.values()),
        "rounds": sum(t.rounds for t in traces),
        "round_ms": 1e3 * phases["solve_s"] / max(rounds_run, 1),
        "bytes_per_agent": sum(float(t.bytes_sent[t.rounds].mean()) for t in traces),
        "failures": {name: f for name, f in failures.items() if f},
        "wrong": sum(1 for r in runs if r.findings),
        "attempted": len(runs),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run whole passes of one workload for about ``seconds`` seconds.

    Untraced passes give the end-to-end metrics (means over passes);
    with ``trace`` every other pass runs under the tracer instead.
    """
    import tracing
    from workloads import WORKLOADS

    deadline = perf_counter() + seconds
    work = OUT / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        tracer = tracing.Tracer() if trace else None
        plain, traced, elapsed = [], [], []
        while True:
            started = perf_counter()
            under_trace = trace and len(plain) > len(traced)
            if under_trace:
                patches = tracing.install(tracer)
                try:
                    traced.append(one_pass(workload, work / f"pass-{len(elapsed)}"))
                finally:
                    patches.undo()
            else:
                plain.append(one_pass(workload, work / f"pass-{len(elapsed)}", REPEATS))
            elapsed.append(perf_counter() - started)
            enough = bool(plain) and (bool(traced) or not trace)
            if enough and perf_counter() + statistics.median(elapsed) > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = plain + traced
    result = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "wrong": sum(p["wrong"] for p in passes),
        "failures": {k: v for p in passes for k, v in p["failures"].items()},
        "passes": len(plain),
    }
    # means over passes: on a shared host the CPU speed can switch between
    # levels for seconds at a time, and the mean integrates over the run
    metrics = {m: statistics.fmean(p[m] for p in plain) for m in END_TO_END if m in plain[0]}
    # rounds and bytes are exact: every pass of a run must repeat them
    for m in ("rounds", "bytes_per_agent"):
        if len({p[m] for p in passes}) > 1:
            result["wrong"] += 1
            result["failures"][f"determinism of {m}"] = [f"passes disagree: {sorted({p[m] for p in passes})}"]
        metrics[m] = plain[0][m]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["metrics"] = {m: {"value": metrics[m], "unit": u} for m, u in END_TO_END.items()}
    if trace:
        layers = tracer.layer_metrics(len(traced))
        result["layers"] = {
            m: {"value": layers[m], "unit": tracing.LAYER_METRICS[m][0]} for m in tracing.LAYER_METRICS
        }
        traced_wall = statistics.fmean(p["wall_s"] for p in traced)
        result["overhead"] = traced_wall / metrics["wall_s"] - 1.0
        result["traced_solve_s"] = statistics.fmean(p["solve_s"] for p in traced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    return result


def print_table(name: str, result: dict, trace: bool) -> None:
    print(f"== {name}: {result['passes']} untraced passes, "
          f"{result['attempted']} runs attempted, {result['failed']} failed")
    for run, findings in sorted(result["failures"].items()):
        print(f"   FAILED {run}: {'; '.join(findings)}")
    for metric, m in result["metrics"].items():
        print(f"   {metric:<30} {m['value']:>14.6g} {m['unit']}")
    if trace:
        solve = result["traced_solve_s"]
        print(f"   -- per layer, per traced pass (share of traced solve_s {solve:.3f} s)")
        for metric, m in result["layers"].items():
            share = f"{100 * m['value'] / solve:6.1f}%" if m["unit"] == "s" and solve > 0 else ""
            print(f"   {metric:<30} {m['value']:>14.6g} {m['unit']:<6} {share}")
        print(f"   tracing overhead on wall_s: {100 * result['overhead']:+.1f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    trace = bool(args.trace)
    chosen = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in chosen:
        results[name] = measure(name, args.seed, args.seconds, trace)
        print_table(name, results[name], trace)
    key = "layers" if trace else "metrics"
    if len(chosen) == 1:
        metrics = results[chosen[0]][key]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r[key].items()}
    print(json.dumps({
        # a run that raised is failed; a run whose output fails a check is
        # failed and also makes the result incorrect
        "correct": not any(r["wrong"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
