"""Success-rate separation between quasi-Newton and first-order tracking.

Sweeps quadratic problems across condition-number bands, tuning the step
size for every (algorithm, seed) pair by golden-section search so each
method competes at its own best fixed step.  On well-conditioned bands
both families converge; as conditioning worsens the first-order baseline
starts missing the iteration cap while the curvature-estimating methods
keep their success rate.

Writes one summary.json per band under --out and prints the aggregate
table.  Default settings take several minutes per band.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from dqn_mesh.harness import ExperimentConfig, run_experiment


def parse_band(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    band = (float(lo), float(hi))
    if band[0] <= 1.0 or band[1] < band[0]:
        raise argparse.ArgumentTypeError(f"bad condition band {text!r}")
    return band


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bands",
        type=parse_band,
        nargs="+",
        default=[(2.0, 10.0), (42.0, 172.0)],
        help="condition-number ranges as lo:hi",
    )
    parser.add_argument("--kappa", type=float, default=0.6)
    parser.add_argument("--agents", type=int, default=10)
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--max-iters", type=int, default=1000)
    parser.add_argument(
        "--out", type=Path, default=Path(os.environ.get("DQN_MESH_OUT", "conditioning_out"))
    )
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    results = []
    for band in args.bands:
        config = ExperimentConfig(
            family="qp",
            algos=("dqn-bfgs", "dqn-dfp", "diging-atc"),
            n_agents=args.agents,
            dim=args.dim,
            cond_range=band,
            kappas=(args.kappa,),
            seeds=tuple(range(args.seeds)),
            max_iters=args.max_iters,
            rse_tol=1e-10,
        )
        start = time.perf_counter()
        table, _ = run_experiment(config)
        elapsed = time.perf_counter() - start
        label = f"cond_{band[0]:g}_{band[1]:g}"
        payload = {"cond_range": list(band), "table": table.to_dict()}
        (args.out / f"{label}.json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\n== condition numbers in [{band[0]:g}, {band[1]:g}] ({elapsed:.1f}s)")
        table.print_table()
        results.append((band, table))

    # the point of the study: quasi-Newton holds its success rate where the
    # baseline degrades
    worst = results[-1][1]
    qn = [r.success_rate for r in worst.rows if r.algo.startswith("dqn")]
    fo = [r.success_rate for r in worst.rows if r.algo == "diging-atc"]
    if qn and fo and min(qn) <= max(fo):
        print("no separation observed on the hardest band", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
