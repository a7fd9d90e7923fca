"""Self-tests for the benchmark's correctness checks.

Each check first passes on a real output of the program, then must fail
on a corrupted copy: a perturbed ``x_final``, a ledger off by one round,
a flipped ``converged`` flag, an infeasible or non-stationary iterate,
and a sweep summary that disagrees with its traces.  Run from the root of
a checkout:

    python3 meshbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import run as bench

bench._import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from dqn_mesh import dqn, ecdqn, harness, problems, topology  # noqa: E402
from workloads import make_graph_edges, make_least_squares, write_qp_files  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, true_output: list[str], corrupted_output: list[str]) -> None:
    if true_output:
        FAILURES.append(f"{name}: check fails on the true output: {true_output}")
    elif not corrupted_output:
        FAILURES.append(f"{name}: check passes a corrupted output")
    else:
        print(f"ok  {name}: {corrupted_output[0]}")


def unconstrained_checks() -> None:
    rng = np.random.default_rng(5)
    rows, rhs = make_least_squares(rng, 6, 5, 10.0)
    edges = make_graph_edges(rng, 6, 0.5)
    x_ref = checks.qp_reference([a.T @ a for a in rows], [-(a.T @ b) for a, b in zip(rows, rhs)])
    bench.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
        write_qp_files(rows, rhs, edges, 5, Path(tmp) / "problem.json", Path(tmp) / "graph.json")
        problem = problems.load_problem(Path(tmp) / "problem.json")
        graph = topology.load_graph(Path(tmp) / "graph.json")
    trace = dqn.dqn_run(problem, graph, dqn.RunConfig(alpha=0.05, rse_tol=1e-10))

    def status(t):
        return checks.check_unconstrained(t.x_final, x_ref, 1e-10, t.converged)

    bad = copy.deepcopy(trace)
    bad.x_final[2] += 1e-6
    expect("perturbed x_final", status(trace), status(bad))
    bad = copy.deepcopy(trace)
    bad.converged = False
    expect("converged flag flipped off", status(trace), status(bad))
    short = dqn.dqn_run(problem, graph, dqn.RunConfig(alpha=0.05, rse_tol=1e-10, max_iters=3))
    bad = copy.deepcopy(short)
    bad.converged = True
    expect("converged flag flipped on", status(short), status(bad))

    def ledger(t, payloads=3):
        return checks.check_ledger(t.bytes_sent, edges, t.dim, payloads, t.rounds)

    bad = copy.deepcopy(trace)
    bad.bytes_sent = bad.bytes_sent + (bad.bytes_sent[1] - bad.bytes_sent[0])
    expect("ledger off by one round", ledger(trace), ledger(bad))
    bad = copy.deepcopy(trace)
    bad.rounds += 1
    expect("ledger rows off by one round", ledger(trace), ledger(bad))
    expect("ledger with the wrong payload count", ledger(trace), ledger(trace, payloads=2))


def constrained_checks() -> None:
    graph = topology.random_connected_graph(5, 0.6, 1)
    logreg = problems.logreg_family(5, 6, 1e-2, 3, constraint=True)
    problems.solve_reference(logreg)
    trace = ecdqn.ecdqn_run(logreg, graph, ecdqn.EcRunConfig(scheme="dfp", alpha=0.3, rse_tol=1e-7))
    a_mat, b_vec = logreg.constraint
    x = trace.x_final
    off = x + 1e-3 * a_mat[0]
    expect("infeasible x_final", checks.check_feasibility(x, a_mat, b_vec),
           checks.check_feasibility(off, a_mat, b_vec))
    # a step inside the null space of A keeps feasibility but breaks stationarity
    null = np.linalg.svd(a_mat)[2][-1]
    x_bar = x.mean(axis=0)
    expect("non-stationary logistic iterate",
           checks.check_logreg_stationarity(x_bar, logreg.local_data, a_mat),
           checks.check_logreg_stationarity(x_bar + 1e-2 * null, logreg.local_data, a_mat))

    bp = problems.basis_pursuit_family(5, 10, 2e-3, 4)
    problems.solve_reference(bp)
    trace = ecdqn.ecdqn_run(bp, graph, ecdqn.EcRunConfig(scheme="dfp", alpha=0.1, rse_tol=1e-8))
    a_mat, _ = bp.constraint
    x_bar = trace.x_final.mean(axis=0)
    null = np.linalg.svd(a_mat)[2][-1]
    expect("l1 KKT violated", checks.check_l1_kkt(x_bar, bp.local_data, a_mat),
           checks.check_l1_kkt(x_bar + 1e-2 * null, bp.local_data, a_mat))


def sweep_checks() -> None:
    config = harness.ExperimentConfig(
        family="qp", algos=("dqn-bfgs", "diging-atc"), n_agents=6, dim=4, cond_range=(2.0, 10.0),
        kappas=(0.6,), seeds=(0, 1), alpha=0.3, max_iters=200, rse_tol=1e-8)
    table, traces = harness.run_experiment(config)
    bench.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as tmp:
        out = Path(tmp)
        harness.emit_report(table, traces, out)
        summary = json.loads((out / "summary.json").read_text())
        true = checks.check_sweep_summary(summary, out, 1e-8)
        bad = copy.deepcopy(summary)
        key = next(iter(bad["runs"]))
        bad["runs"][key]["converged"] = not bad["runs"][key]["converged"]
        expect("summary run flag flipped", true, checks.check_sweep_summary(bad, out, 1e-8))
        bad = copy.deepcopy(summary)
        bad["table"]["rows"][0]["converged"] += 1
        expect("summary success count off by one", true, checks.check_sweep_summary(bad, out, 1e-8))


def declared_metrics() -> None:
    """BENCHMARK.json declares exactly the metrics the benchmark prints."""
    before = len(FAILURES)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != bench.END_TO_END:
        FAILURES.append(f"end-to-end metrics {declared} != printed {bench.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
    if declared != printed:
        FAILURES.append(f"per-layer metrics {declared} != printed {printed}")
    if [w["name"] for w in spec["workloads"]] != list(bench.WORKLOAD_NAMES):
        FAILURES.append("workloads in BENCHMARK.json differ from the benchmark's")
    if len(FAILURES) == before:
        print("ok  BENCHMARK.json declares the printed metrics and workloads")


def main() -> int:
    declared_metrics()
    unconstrained_checks()
    constrained_checks()
    sweep_checks()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
