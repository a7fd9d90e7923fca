"""One SHA-256 per solver run over a fixed grid, to show that a change
leaves every trace as it was, bit for bit.

Each run's hash covers its trace CSV, its ``summary_dict`` without
``wall_time_ms`` and the bytes of ``x_final``.  The grid, for every seed:

- dqn-bfgs, dqn-dfp and diging-atc at alpha 0.1, a slow 0.02 and a
  diverging 5.0 on ``qp_family(10, 10, (2, 30), seed)``;
- ecdqn-bfgs and ecdqn-dfp, fused and unfused, on
  ``logreg_family(8, 6, 1e-2, seed, constraint=True)`` at alpha 0.3 and
  a diverging 50.0, and on ``basis_pursuit_family(8, 10, 2e-3, seed)``
  at alpha 0.1.

Then one short run per algorithm at paper scale, 50 agents in dimension
24 on a graph of connectivity 0.3, seed 0, at most PAPER_ITERS rounds:
dqn-bfgs, dqn-dfp and diging-atc on ``qp_family(50, 24, (30, 30), 0)``
and fused ecdqn-bfgs and ecdqn-dfp on ``logreg_family(50, 24, 1e-2, 0,
constraint=True)``, each at the step the benchmark uses for it.  A
stack reshaped at this size changes these lines first.

A last line hashes every file of one golden-section ``emit_report``
directory (qp, dqn-bfgs and diging-atc, 6 probes, the first two seeds)
with the wall times stripped.  Compare two checkouts with

    PYTHONPATH=src python3 scripts/trace_digest.py > digest.txt

and ``diff`` the outputs.  Runs go through the harness API only
(``run_algo``, ``run_experiment``, ``emit_report``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from dqn_mesh.harness import METHODS, ExperimentConfig, emit_report, run_algo, run_experiment
from dqn_mesh.problems import basis_pursuit_family, logreg_family, qp_family
from dqn_mesh.topology import random_connected_graph

KAPPA = 0.6
PAPER_ITERS = 100


def algos(constrained: bool) -> list[str]:
    """The method table's algorithms that run on a problem with a
    constraint (logreg and basis pursuit here), or without one (qp)."""
    return [algo for algo, method in METHODS.items() if method.constrained == constrained]


def grid(seed: int):
    """(label, algo, problem, graph, alpha, fusion, rse_tol) for one seed."""
    qp = qp_family(10, 10, (2.0, 30.0), seed)
    qp_graph = random_connected_graph(10, KAPPA, seed)
    for algo in algos(constrained=False):
        for alpha in (0.1, 0.02, 5.0):
            yield f"qp {algo} {alpha} s{seed}", algo, qp, qp_graph, alpha, True, 1e-10
    ec_graph = random_connected_graph(8, KAPPA, seed)
    logreg = logreg_family(8, 6, 1e-2, seed, constraint=True)
    bp = basis_pursuit_family(8, 10, 2e-3, seed)
    for family, problem, alphas in (("logreg", logreg, (0.3, 50.0)), ("bp", bp, (0.1,))):
        for algo in algos(constrained=True):
            for fusion in (True, False):
                for alpha in alphas:
                    label = f"{family} {algo} {'fused' if fusion else 'unfused'} {alpha} s{seed}"
                    yield label, algo, problem, ec_graph, alpha, fusion, 1e-8


def paper_grid():
    """(label, algo, problem, graph, alpha, fusion, rse_tol) at paper scale."""
    graph = random_connected_graph(50, 0.3, 0)
    qp = qp_family(50, 24, (30.0, 30.0), 0)
    for algo, alpha in (("dqn-bfgs", 0.15), ("dqn-dfp", 1.3), ("diging-atc", 0.8)):
        yield f"paper qp {algo} {alpha} s0", algo, qp, graph, alpha, True, 1e-10
    logreg = logreg_family(50, 24, 1e-2, 0, constraint=True)
    for algo, alpha in (("ecdqn-bfgs", 0.15), ("ecdqn-dfp", 0.25)):
        yield f"paper logreg {algo} fused {alpha} s0", algo, logreg, graph, alpha, True, 1e-8


def run_digest(trace, scratch: Path) -> str:
    path = scratch / "trace.csv"
    trace.to_csv(path)
    summary = trace.summary_dict()
    del summary["wall_time_ms"]
    h = hashlib.sha256(path.read_bytes())
    h.update(json.dumps(summary, sort_keys=True).encode())
    h.update(trace.x_final.tobytes())
    return h.hexdigest()


def report_digest(seeds: tuple[int, ...], max_iters: int, scratch: Path) -> str:
    config = ExperimentConfig(
        family="qp", algos=("dqn-bfgs", "diging-atc"), n_agents=10, dim=10,
        cond_range=(2.0, 30.0), kappas=(KAPPA,), seeds=seeds, alpha="golden",
        max_iters=max_iters, golden_probes=6,
    )
    out = scratch / "report"
    emit_report(*run_experiment(config), out)
    summary = json.loads((out / "summary.json").read_text())
    for row in summary["table"]["rows"]:
        del row["wall_ms_mean"]
    for run in summary["runs"].values():
        del run["wall_time_ms"]
    h = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
    for path in sorted(out.iterdir()):
        if path.name != "summary.json":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=4, help="number of seeds, from 0")
    parser.add_argument("--max-iters", type=int, default=300)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        runs = [(spec, seed, args.max_iters) for seed in range(args.seeds) for spec in grid(seed)]
        runs += [(spec, 0, min(args.max_iters, PAPER_ITERS)) for spec in paper_grid()]
        for (label, algo, problem, graph, alpha, fusion, rse_tol), seed, max_iters in runs:
            trace = run_algo(
                algo, problem, graph, alpha, max_iters=max_iters,
                rse_tol=rse_tol, seed=seed, fusion=fusion,
            )
            print(f"{label} {run_digest(trace, scratch)}")
        seeds = tuple(range(min(2, args.seeds)))
        print(f"golden-report {report_digest(seeds, args.max_iters, scratch)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
