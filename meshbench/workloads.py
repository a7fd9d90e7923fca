"""The three dqn-mesh benchmark workloads.

A workload makes its inputs from the benchmark seed once, then runs in
passes.  A pass runs each of the workload's units in turn -- one solver
run, or one sweep seed -- and a unit has three timed phases, set-up,
solve and report, followed by untimed correctness checks.  Short phases
are thus sampled all through a pass rather than once at its end.  Every
pass of a run attempts the same solver runs on the same inputs.

Program calls go through module attributes (``dqn.dqn_run``,
``problems.load_problem``, ...) so that the wrappers of the traced run
see them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracing import counting_probes
from dqn_mesh import dqn, ecdqn, harness, problems, topology

MAX_ITERS = 1000


@dataclass
class Run:
    """One recorded solver run and what the checks found."""

    name: str
    algo: str
    payloads: int
    trace: dqn.RunTrace | None = None
    error: str | None = None
    findings: list[str] = field(default_factory=list)


def _sub_seeds(seed: int, tag: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed % 2**32, tag]).generate_state(count)
    return [int(s) >> 1 for s in state]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_and_validate(run: Run, out: Path, graph_path: Path) -> None:
    """Emit a run's trace CSV and summary JSON, then re-read them."""
    csv_path = out / f"{run.name}.csv"
    json_path = out / f"{run.name}.json"
    run.trace.to_csv(csv_path)
    _write_json(json_path, run.trace.summary_dict())
    run.findings += harness.validate_run(csv_path, json_path, graph_path)


def _solve(run: Run, fn) -> Run:
    try:
        run.trace = fn()
    except Exception as exc:  # a raising solver is a failed run, not a crash
        run.error = f"{type(exc).__name__}: {exc}"
    return run


def _check_ledger(run: Run, graph) -> None:
    t = run.trace
    run.findings += checks.check_ledger(t.bytes_sent, graph.edges, t.dim, run.payloads, t.rounds)


def _require_convergence(run: Run) -> None:
    if not run.trace.converged:
        run.findings.append(f"did not converge in {run.trace.rounds} rounds at the fixed step")


# ---------------------------------------------------------------------------
# mesh50-qp


def make_least_squares(rng: np.random.Generator, n_agents: int, dim: int, cond: float):
    """Local blocks A_i, b_i of a least-squares problem whose aggregate
    Hessian sum_i A_i'A_i has condition number ``cond`` exactly.

    Gaussian rows are whitened by the aggregate, then shaped by a random
    rotation with singular values geometric between 1 and sqrt(cond), and
    scaled so the mean objective has smoothness 1.  Right-hand sides are
    noisy measurements of a planted signal, so the solution has norm of
    order sqrt(dim).
    """
    counts = rng.integers(max(1, dim // 8), max(2, 3 * dim // 4), size=n_agents)
    rows = [rng.standard_normal((int(m), dim)) for m in counts]
    vals, vecs = np.linalg.eigh(sum(a.T @ a for a in rows))
    rot, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    shape = (vecs * vals**-0.5) @ vecs.T @ (rot * np.geomspace(1.0, np.sqrt(cond), dim)) @ rot.T
    rows = [a @ shape for a in rows]
    scale = np.sqrt(n_agents / np.linalg.eigvalsh(sum(a.T @ a for a in rows))[-1])
    rows = [scale * a for a in rows]
    signal = rng.standard_normal(dim)
    rhs = [a @ signal + 0.1 * rng.standard_normal(a.shape[0]) for a in rows]
    return rows, rhs


def make_graph_edges(rng: np.random.Generator, n_agents: int, kappa: float) -> list[list[int]]:
    """Random spanning tree plus uniform extra edges up to kappa of all pairs."""
    order = rng.permutation(n_agents)
    edges = set()
    for k in range(1, n_agents):
        a, b = int(order[k]), int(order[rng.integers(k)])
        edges.add((min(a, b), max(a, b)))
    spare = [(i, j) for i in range(n_agents) for j in range(i + 1, n_agents) if (i, j) not in edges]
    extra = round(kappa * n_agents * (n_agents - 1) / 2) - len(edges)
    for p in rng.choice(len(spare), size=max(extra, 0), replace=False):
        edges.add(spare[int(p)])
    return [list(e) for e in sorted(edges)]


def write_qp_files(rows, rhs, edges, seed: int, problem_path: Path, graph_path: Path) -> None:
    """Write a least-squares problem and a graph in the program's own file
    formats, as read by ``load_problem`` and ``load_graph``."""
    locals_payload = []
    for a, b in zip(rows, rhs):
        p = a.T @ a
        locals_payload.append(
            {"p": (0.5 * (p + p.T)).tolist(), "q": (-(a.T @ b)).tolist(), "a": a.tolist(), "b": b.tolist()}
        )
    _write_json(problem_path, {
        "family": "qp", "n_agents": len(rows), "dim": rows[0].shape[1], "seed": seed, "xi": None,
        "achieved_cond": None, "constraint": None, "reference_solution": None, "locals": locals_payload,
    })
    _write_json(graph_path, {"n_agents": len(rows), "edges": edges, "seed": seed})


class Mesh50Qp:
    """Paper-scale unconstrained least squares: the curvature refresh dominates."""

    name = "mesh50-qp"
    N_AGENTS, DIM, COND, KAPPA, RSE_TOL = 50, 24, 30.0, 0.3, 1e-10
    # (algorithm, fixed step); steps re-derived by golden-section search,
    # see README.md
    RUNS = (("dqn-bfgs", 0.15), ("dqn-dfp", 1.3), ("diging-atc", 0.8))

    def __init__(self, seed: int, work: Path):
        data_seed, self.run_seed = _sub_seeds(seed, 1, 2)
        rng = np.random.default_rng(data_seed)
        rows, rhs = make_least_squares(rng, self.N_AGENTS, self.DIM, self.COND)
        self.edges = make_graph_edges(rng, self.N_AGENTS, self.KAPPA)
        self.x_ref = checks.qp_reference([a.T @ a for a in rows], [-(a.T @ b) for a, b in zip(rows, rhs)])
        self.problem_path = work / "problem.json"
        self.graph_path = work / "graph.json"
        write_qp_files(rows, rhs, self.edges, data_seed, self.problem_path, self.graph_path)
        self.units = [MeshRun(self, algo, alpha) for algo, alpha in self.RUNS]


class MeshRun:
    """One solver run of mesh50-qp: load the problem and graph files, solve
    the reference, run the solver, write and re-read its trace."""

    def __init__(self, workload: Mesh50Qp, algo: str, alpha: float):
        self.workload, self.algo, self.alpha = workload, algo, alpha
        self.rse_tol = workload.RSE_TOL

    def setup(self):
        problem = problems.load_problem(self.workload.problem_path)
        graph = topology.load_graph(self.workload.graph_path)
        problems.solve_reference(problem)
        return {"problem": problem, "graph": graph}

    def run_at(self, ctx, alpha: float) -> Run:
        run = Run(self.algo, self.algo, 2 if self.algo == "diging-atc" else 3)
        seed = self.workload.run_seed
        if self.algo == "diging-atc":
            cfg = dqn.RunConfig(alpha=alpha, rse_tol=self.rse_tol, max_iters=MAX_ITERS, seed=seed)
            return _solve(run, lambda: dqn.diging_atc_run(ctx["problem"], ctx["graph"], cfg))
        cfg = dqn.RunConfig(scheme=self.algo.split("-")[1], alpha=alpha, rse_tol=self.rse_tol,
                            max_iters=MAX_ITERS, seed=seed)
        return _solve(run, lambda: dqn.dqn_run(ctx["problem"], ctx["graph"], cfg))

    def solve(self, ctx) -> list[Run]:
        return [self.run_at(ctx, self.alpha)]

    def report(self, ctx, runs: list[Run], out: Path) -> None:
        for run in runs:
            if run.trace is not None:
                _write_and_validate(run, out, self.workload.graph_path)

    def check(self, ctx, runs: list[Run], out: Path) -> None:
        for run in runs:
            if run.trace is None:
                continue
            _check_ledger(run, ctx["graph"])
            run.findings += checks.check_unconstrained(
                run.trace.x_final, self.workload.x_ref, self.rse_tol, run.trace.converged)
            _require_convergence(run)


# ---------------------------------------------------------------------------
# ec-constrained


class EcConstrained:
    """Equality-constrained runs: KKT solves and the direct-form Hessian
    refresh carry the round, gradients are nonlinear."""

    name = "ec-constrained"
    # on graphs with connectivity 0.3 the round counts swing with the seed
    # (basis pursuit 220 to 610, logistic ecdqn-dfp 58 to 160); at 0.6
    # they stay within 25%
    KAPPA = 0.6
    SIZES = {"logreg": (30, 20, 1e-2), "bp": (10, 20, 2e-3)}  # agents, dim, xi
    # (problem, scheme, fixed step, fusion, rse_tol, max_iters); steps
    # re-derived by golden-section search, see README.md.  Without fusion
    # EC-DQN does not reach 1e-7 on every seed within 1000 rounds, so that
    # run covers the two-payload path for a fixed 100 rounds (rse_tol 0).
    RUNS = (
        ("logreg", "bfgs", 0.15, True, 1e-7, MAX_ITERS),
        ("logreg", "dfp", 0.25, True, 1e-7, MAX_ITERS),
        ("bp", "dfp", 0.12, True, 1e-8, MAX_ITERS),
        ("logreg", "dfp", 0.1, False, 0.0, 100),
    )

    def __init__(self, seed: int, work: Path):
        logreg_seed, bp_seed, self.run_seed = _sub_seeds(seed, 2, 3)
        self.problem_seeds = {"logreg": logreg_seed, "bp": bp_seed}
        self.units = [EcRun(self, *spec) for spec in self.RUNS]


class EcRun:
    """One solver run of ec-constrained: build its problem and graph, solve
    the reference, run EC-DQN, write and re-read its trace."""

    def __init__(self, workload: EcConstrained, family: str, scheme: str, alpha: float,
                 fusion: bool, rse_tol: float, max_iters: int):
        self.workload, self.family, self.scheme, self.alpha = workload, family, scheme, alpha
        self.fusion, self.rse_tol, self.max_iters = fusion, rse_tol, max_iters

    def setup(self):
        n_agents, dim, xi = self.workload.SIZES[self.family]
        seed = self.workload.problem_seeds[self.family]
        if self.family == "logreg":
            problem = problems.logreg_family(n_agents, dim, xi, seed, constraint=True)
        else:
            problem = problems.basis_pursuit_family(n_agents, dim, xi, seed)
        problems.solve_reference(problem)
        graph = topology.random_connected_graph(n_agents, self.workload.KAPPA, seed)
        return {"problem": problem, "graph": graph}

    def run_at(self, ctx, alpha: float) -> Run:
        cfg = ecdqn.EcRunConfig(scheme=self.scheme, alpha=alpha, fusion=self.fusion, rse_tol=self.rse_tol,
                                max_iters=self.max_iters, seed=self.workload.run_seed)
        run = Run(f"{self.family}-ecdqn-{self.scheme}" + ("" if self.fusion else "-unfused"),
                  f"ecdqn-{self.scheme}", 3 if self.fusion else 2)
        return _solve(run, lambda: ecdqn.ecdqn_run(ctx["problem"], ctx["graph"], cfg))

    def solve(self, ctx) -> list[Run]:
        return [self.run_at(ctx, self.alpha)]

    def report(self, ctx, runs: list[Run], out: Path) -> None:
        topology.save_graph(ctx["graph"], out / "graph.json")
        for run in runs:
            if run.trace is not None:
                _write_and_validate(run, out, out / "graph.json")

    def check(self, ctx, runs: list[Run], out: Path) -> None:
        problem = ctx["problem"]
        a_mat, b_vec = problem.constraint
        for run in runs:
            if run.trace is None:
                continue
            t = run.trace
            _check_ledger(run, ctx["graph"])
            if self.rse_tol == 0.0:
                if t.rounds != self.max_iters:
                    run.findings.append(f"fixed-length run stopped after {t.rounds} of {self.max_iters} rounds")
                continue
            if self.family == "bp" and not t.converged:
                # a solution with a coordinate exactly at zero puts a floor
                # on the subgradient method's error on some seeds
                continue
            _require_convergence(run)
            run.findings += checks.check_feasibility(t.x_final, a_mat, b_vec)
            x_bar = t.x_final.mean(axis=0)
            if self.family == "logreg":
                run.findings += checks.check_logreg_stationarity(x_bar, problem.local_data, a_mat)
            else:
                run.findings += checks.check_l1_kkt(x_bar, problem.local_data, a_mat)


# ---------------------------------------------------------------------------
# golden-sweep


class GoldenCell:
    """One sweep cell of golden-sweep: a one-seed, one-algorithm
    run_experiment, its report, and the checks of its recorded run.

    One cell per algorithm rather than per seed halves the solve between
    report phases, so report and set-up times are sampled at twice as many
    points of a pass.
    """

    N_AGENTS, DIM, COND, KAPPA = 10, 10, (42.0, 172.0), 0.6
    RSE_TOL, SWEEP_ITERS = 1e-6, 600

    def __init__(self, seed: int, algo: str):
        self.seed, self.algo = seed, algo
        self.config = harness.ExperimentConfig(
            family="qp", algos=(algo,), n_agents=self.N_AGENTS, dim=self.DIM,
            cond_range=self.COND, kappas=(self.KAPPA,), seeds=(seed,),
            alpha="golden", max_iters=self.SWEEP_ITERS, rse_tol=self.RSE_TOL,
        )

    def setup(self):
        problem = problems.qp_family(self.N_AGENTS, self.DIM, self.COND, self.seed)
        problems.solve_reference(problem)
        graph = topology.random_connected_graph(self.N_AGENTS, self.KAPPA, self.seed)
        return {"problem": problem, "graph": graph}

    def solve(self, ctx) -> list[Run]:
        probe_rounds = []
        tune = harness.tune_step_size
        harness.tune_step_size = counting_probes(tune, lambda trace: probe_rounds.append(trace.rounds))
        try:
            ctx["table"], traces = harness.run_experiment(self.config)
        finally:
            harness.tune_step_size = tune
        # the recorded run of the cell is one of its probes
        ctx["rounds_run"] = sum(probe_rounds)
        run = Run(f"{self.algo}_k{self.KAPPA}_s{self.seed}", self.algo, 2 if self.algo == "diging-atc" else 3)
        run.trace = traces.get((self.algo, self.KAPPA, self.seed))
        if run.trace is None:
            run.error = "aborted inside run_experiment"
        return [run]

    def report(self, ctx, runs: list[Run], out: Path) -> None:
        traces = {(r.algo, self.KAPPA, self.seed): r.trace for r in runs if r.trace is not None}
        harness.emit_report(ctx["table"], traces, out)
        topology.save_graph(ctx["graph"], out / "graph.json")
        for run in runs:
            if run.trace is not None:
                json_path = out / f"{run.name}.json"
                _write_json(json_path, run.trace.summary_dict())
                run.findings += harness.validate_run(out / f"trace_{run.name}.csv", json_path,
                                                     out / "graph.json")

    def check(self, ctx, runs: list[Run], out: Path) -> None:
        summary = json.loads((out / "summary.json").read_text())
        sweep_findings = checks.check_sweep_summary(summary, out, self.RSE_TOL)
        data = ctx["problem"].local_data
        x_ref = checks.qp_reference([d.p for d in data], [d.q for d in data])
        for run in runs:
            if run.trace is None:
                continue
            _check_ledger(run, ctx["graph"])
            run.findings += checks.check_unconstrained(
                run.trace.x_final, x_ref, self.RSE_TOL, run.trace.converged)
            if run.algo == "dqn-bfgs":
                _require_convergence(run)
            run.findings += sweep_findings


class GoldenSweep:
    """The ill-conditioned separation study in miniature: golden-section
    tuning of every cell, then one recorded run per cell."""

    name = "golden-sweep"
    SEEDS = 5
    ALGOS = ("dqn-bfgs", "diging-atc")

    def __init__(self, seed: int, work: Path):
        self.units = [GoldenCell(s, algo) for s in _sub_seeds(seed, 3, self.SEEDS) for algo in self.ALGOS]


WORKLOADS = {w.name: w for w in (Mesh50Qp, EcConstrained, GoldenSweep)}
