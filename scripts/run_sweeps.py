"""Desk-scale convergence and communication sweeps for all three families.

Runs the default grid (10 agents, kappa in {0.3, 0.6, 0.8}, 20 seeds) for
the unconstrained quadratic family plus the two constrained families, with
golden-section step tuning per cell.  Artifacts land under --out, one
subdirectory per family, each holding summary.json, per-run trace CSVs,
and a plot-ready long.csv.

The full grid takes tens of minutes because every cell re-tunes its step
size; --quick shrinks the grid to a few seeds for a smoke pass.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from dqn_mesh.harness import ExperimentConfig, emit_report, run_experiment

FAMILY_CONFIGS = {
    "qp": ExperimentConfig(
        family="qp",
        algos=("dqn-bfgs", "dqn-dfp", "diging-atc"),
        n_agents=10,
        dim=10,
        cond_range=(2.0, 10.0),
        rse_tol=1e-10,
    ),
    "logreg": ExperimentConfig(
        family="logreg",
        algos=("ecdqn-bfgs", "ecdqn-dfp"),
        n_agents=10,
        dim=10,
        xi=1e-2,
        constrained=True,
        rse_tol=1e-7,
        golden_bracket=(0.05, 2.0),
    ),
    "basis-pursuit": ExperimentConfig(
        family="basis-pursuit",
        algos=("ecdqn-bfgs", "ecdqn-dfp"),
        n_agents=10,
        dim=20,
        xi=2e-3,
        constrained=True,
        rse_tol=1e-8,
        golden_bracket=(0.05, 2.0),
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--families",
        nargs="+",
        choices=sorted(FAMILY_CONFIGS),
        default=sorted(FAMILY_CONFIGS),
    )
    parser.add_argument("--kappas", type=float, nargs="+", default=[0.3, 0.6, 0.8])
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds per cell")
    parser.add_argument("--max-iters", type=int, default=1000)
    parser.add_argument(
        "--out", type=Path, default=Path(os.environ.get("DQN_MESH_OUT", "sweep_out"))
    )
    parser.add_argument("--quick", action="store_true", help="3 seeds, two kappas")
    args = parser.parse_args(argv)

    kappas = tuple(args.kappas)
    seeds = tuple(range(args.seeds))
    if args.quick:
        kappas = (0.3, 0.8)
        seeds = (0, 1, 2)

    aborted = 0
    for family in args.families:
        config = replace(
            FAMILY_CONFIGS[family], kappas=kappas, seeds=seeds, max_iters=args.max_iters
        )
        start = time.perf_counter()
        table, traces = run_experiment(config)
        elapsed = time.perf_counter() - start
        out_dir = args.out / family
        emit_report(table, traces, out_dir)
        print(f"\n== {family} ({elapsed:.1f}s) -> {out_dir}")
        table.print_table()
        aborted += table.total_aborted()
    if aborted:
        print(f"{aborted} aborted cells", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
