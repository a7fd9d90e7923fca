"""Command-line driver: generate problems, run solvers, sweep, validate.

Output locations default to the DQN_MESH_OUT environment variable when it
is set.  Exit code 0 means every requested cell completed (converged or
cleanly non-converged); 2 signals an aborted cell, a failed validation or
bad input (an unreadable file, an invalid value, a sweep config that
does not construct or a generated problem whose reference solution
cannot be certified), which is reported as one ``dqn-mesh: error:``
line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .harness import (
    METHODS,
    ExperimentConfig,
    SummaryTable,
    emit_report,
    make_problem,
    run_cell,
    run_experiment,
    validate_run,
)
from .problems import FAMILIES, ReferenceSolveError, load_problem, save_problem, solve_reference
from .topology import load_graph, random_connected_graph, save_graph

ENV_OUT = "DQN_MESH_OUT"


def _default_out(flag_value: str | None) -> Path:
    if flag_value is not None:
        return Path(flag_value)
    return Path(os.environ.get(ENV_OUT, "."))


def _parse_cond(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def _parse_alpha(text: str) -> float | str:
    if text == "golden":
        return text
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--alpha must be a positive number or 'golden', not {text!r}") from None


def _cmd_generate(args: argparse.Namespace) -> int:
    out = _default_out(args.out_dir)
    cond = _parse_cond(args.cond) if args.cond else None
    config = ExperimentConfig(
        family=args.family,
        algos=(),
        n_agents=args.agents,
        dim=args.dim,
        cond_range=cond,
        xi=args.xi,
        constrained=args.constrained,
    )
    problem = make_problem(config, args.seed)
    if not args.no_reference:
        solve_reference(problem)
    graph = random_connected_graph(args.agents, args.kappa, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    problem_path = out / args.problem_out
    graph_path = out / args.graph_out
    save_problem(problem, problem_path)
    save_graph(graph, graph_path)
    print(f"wrote {problem_path} and {graph_path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    graph = load_graph(args.graph)
    config = ExperimentConfig(
        # a loaded problem brings its own constraint, and the config's rules
        # then say which methods run on it
        family=problem.family, constrained=problem.constraint is not None,
        algos=(args.algo,), n_agents=problem.n_agents, dim=problem.dim,
        alpha=_parse_alpha(args.alpha), max_iters=args.max_iters, rse_tol=args.tol,
        fusion=not args.no_fusion,
    )
    try:
        trace = run_cell(config, args.algo, problem, graph, args.seed)
    except Exception as exc:  # aborted cell
        print(f"run aborted: {exc}", file=sys.stderr)
        return 2
    trace_path = Path(args.trace_out)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace.to_csv(trace_path)
    summary_path = Path(args.summary_out) if args.summary_out else trace_path.with_suffix(".json")
    summary_path.write_text(json.dumps(trace.summary_dict(), indent=2, sort_keys=True) + "\n")
    status = "converged" if trace.converged else (
        "diverged" if trace.diverged else ("stalled" if trace.stalled else "hit iteration cap")
    )
    print(
        f"{trace.algo}: {status} after {trace.rounds} rounds, "
        f"final max RSE {trace.summary_dict()['final_rse_max']:.3e}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    payload = json.loads(Path(args.config).read_text())
    try:
        config = ExperimentConfig(**payload)
    except TypeError as exc:  # a missing, unknown or misplaced field
        raise ValueError(f"bad sweep config {args.config}: {exc}") from exc
    out = _default_out(args.out)
    table, traces = run_experiment(config)
    emit_report(table, traces, out)
    table.print_table()
    if table.total_aborted() > 0:
        for reason in table.abort_reasons:
            print(f"aborted cell {reason}", file=sys.stderr)
        print(f"{table.total_aborted()} aborted cells", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    violations = validate_run(args.trace, args.summary, args.graph)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return 2
    print("trace passes ledger and tracking checks")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.dir) / "summary.json"
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    SummaryTable.from_dict(payload.get("table", {})).print_table()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqn-mesh",
        description="Distributed quasi-Newton optimization over mesh networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a problem and graph pair")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--agents", type=int, default=10)
    gen.add_argument("--dim", type=int, default=10)
    gen.add_argument("--cond", type=str, default=None, help="condition range lo:hi")
    gen.add_argument("--xi", type=float, default=None)
    gen.add_argument("--constrained", action="store_true")
    gen.add_argument("--kappa", type=float, default=0.6)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--no-reference", action="store_true", help="skip the reference solve")
    gen.add_argument("--out-dir", type=str, default=None)
    gen.add_argument("--problem-out", dest="problem_out", type=str, default="problem.json")
    gen.add_argument("--graph-out", dest="graph_out", type=str, default="graph.json")
    gen.set_defaults(func=_cmd_generate)

    run = sub.add_parser("run", help="run one algorithm on a saved problem")
    run.add_argument("--algo", choices=tuple(METHODS), required=True)
    run.add_argument("--problem", type=str, required=True)
    run.add_argument("--graph", type=str, required=True)
    run.add_argument(
        "--alpha", type=str, default="golden",
        help="fixed step size, or 'golden' to tune one by golden-section search (default)",
    )
    run.add_argument("--max-iters", type=int, default=1000)
    run.add_argument("--tol", type=float, default=1e-10)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--no-fusion", action="store_true")
    run.add_argument("--trace-out", dest="trace_out", type=str, default="trace.csv")
    run.add_argument("--summary-out", dest="summary_out", type=str, default=None)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run every cell of a sweep config")
    sweep.add_argument("--config", type=str, required=True)
    sweep.add_argument("--out", type=str, default=None)
    sweep.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="re-check a finished trace offline")
    val.add_argument("--trace", type=str, required=True)
    val.add_argument("--summary", type=str, required=True)
    val.add_argument("--graph", type=str, required=True)
    val.set_defaults(func=_cmd_validate)

    rep = sub.add_parser("report", help="print the summary table of a sweep")
    rep.add_argument("--dir", type=str, required=True)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ReferenceSolveError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
