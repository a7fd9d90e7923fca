"""Re-derive the fixed steps of mesh50-qp and ec-constrained.

For every solver run of the workload, a 12-probe golden-section search
(``harness.tune_step_size``) finds the step with the fewest rounds on the
inputs of each seed; the fixed step the benchmark uses is then run on the
same inputs.  Run from the root of a checkout:

    python3 meshbench/tune_steps.py --workload mesh50-qp --seeds 0,1,2

The benchmark's steps sit below the golden step of seed 0, backed off
until every seed tried converges.  Fixed-length runs (rse_tol 0) have no
tolerance to tune against and are skipped.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import run as bench

bench._import_program()

from dqn_mesh import harness  # noqa: E402
from workloads import MAX_ITERS, WORKLOADS  # noqa: E402

BRACKETS = {"mesh50-qp": (1e-3, 2.0), "ec-constrained": (0.05, 2.0)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BRACKETS), required=True)
    parser.add_argument("--seeds", default="0")
    args = parser.parse_args()
    work = bench.OUT / f"tune-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for seed in (int(s) for s in args.seeds.split(",")):
            for unit in WORKLOADS[args.workload](seed, work).units:
                if unit.rse_tol == 0.0:
                    continue
                ctx = unit.setup()
                alpha, best = harness.tune_step_size(
                    lambda a: unit.run_at(ctx, a).trace, bracket=BRACKETS[args.workload],
                    probes=12, rse_tol=unit.rse_tol, max_iters=MAX_ITERS)
                used = unit.run_at(ctx, unit.alpha)
                print(f"seed {seed} {used.name}: golden step {alpha:.4g} ({best.rounds} rounds); "
                      f"fixed step {unit.alpha} converged={used.trace.converged} "
                      f"in {used.trace.rounds} rounds", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
