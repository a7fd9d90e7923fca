"""Experiment orchestration: sweeps over graphs, seeds, and algorithms.

A sweep runs every (connectivity, seed, algorithm) cell of a config,
aggregates rounds-to-converge and communication cost over the converged
runs of each cell group, and emits machine-readable reports.  Outputs are
deterministic for a fixed config except for wall-clock timing fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable

import numpy as np

from .dqn import REPORT_BLOCK, RunConfig, RunTrace, _valid_step, diging_atc_run, dqn_run
from .ecdqn import EcRunConfig, ecdqn_run
from .problems import (
    FAMILIES,
    SeparableProblem,
    basis_pursuit_family,
    logreg_family,
    qp_family,
    solve_reference,
)
from .topology import CommGraph, load_graph, random_connected_graph

__all__ = [
    "ExperimentConfig",
    "SummaryRow",
    "SummaryTable",
    "run_algo",
    "tune_step_size",
    "run_cell",
    "run_experiment",
    "emit_report",
    "validate_run",
]

DQN_ALGOS = ("dqn-bfgs", "dqn-dfp")
EC_ALGOS = ("ecdqn-bfgs", "ecdqn-dfp")
ALL_ALGOS = DQN_ALGOS + ("diging-atc",) + EC_ALGOS


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one sweep; alpha is a finite positive
    fixed step or "golden" (tuned per cell by golden-section search, which
    needs a positive rse_tol).  The qp family has no constrained form and
    basis pursuit has only a constrained one; the EC-DQN methods run on a
    constrained family and only they do."""

    family: str
    algos: tuple[str, ...]
    n_agents: int = 10
    dim: int = 10
    cond_range: tuple[float, float] | None = None
    xi: float | None = None
    constrained: bool = False
    kappas: tuple[float, ...] = (0.3, 0.6)
    seeds: tuple[int, ...] = tuple(range(20))
    alpha: float | str = "golden"
    max_iters: int = 1000
    rse_tol: float = 1e-10
    fusion: bool = True
    golden_bracket: tuple[float, float] = (1e-4, 2.0)
    golden_probes: int = 12

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for algo in self.algos:
            if algo not in ALL_ALGOS:
                raise ValueError(f"unknown algorithm {algo!r}")
        if self.family == "qp" and self.constrained:
            raise ValueError("the qp family has no constrained form")
        if self.family == "basis-pursuit" and not self.constrained:
            raise ValueError("basis pursuit has only a constrained form")
        unconstrained = ", ".join(algo for algo in self.algos if algo not in EC_ALGOS)
        if self.constrained and unconstrained:
            raise ValueError(f"{unconstrained} cannot honor the constraint of the constrained "
                             f"{self.family} family; only {' and '.join(EC_ALGOS)} run on it")
        constrained_only = ", ".join(algo for algo in self.algos if algo in EC_ALGOS)
        if not self.constrained and constrained_only:
            others = ", ".join(algo for algo in ALL_ALGOS if algo not in EC_ALGOS)
            raise ValueError(f"{constrained_only} cannot run on the unconstrained {self.family} "
                             f"family, which has no constraint; only {others} run on it")
        if not (self.alpha == "golden" or _valid_step(self.alpha)):
            raise ValueError(
                f"alpha must be a finite positive number or 'golden', not {self.alpha!r}"
            )
        if self.alpha == "golden" and not self.rse_tol > 0:
            raise ValueError(f"golden-section tuning needs rse_tol > 0, not {self.rse_tol!r}")
        object.__setattr__(self, "algos", tuple(self.algos))
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.cond_range is not None:
            object.__setattr__(self, "cond_range", tuple(float(c) for c in self.cond_range))
        lo, hi = map(float, self.golden_bracket)
        if not 0 < lo < hi:
            raise ValueError(f"golden_bracket needs 0 < lo < hi, not {self.golden_bracket!r}")
        object.__setattr__(self, "golden_bracket", (lo, hi))
        if self.golden_probes < 2:
            raise ValueError(f"golden_probes must be at least 2, not {self.golden_probes!r}")


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over the seeds of one (algorithm, connectivity) cell.

    Round and byte statistics cover converged runs only; failed runs
    count against the success rate but do not pollute the averages.
    """

    algo: str
    kappa: float
    runs: int
    converged: int
    aborted: int
    success_rate: float
    rounds_mean: float | None
    rounds_std: float | None
    bytes_mean: float | None
    bytes_max: float | None
    wall_ms_mean: float | None


@dataclass
class SummaryTable:
    """The rows of a sweep and, when it ran them, one line per aborted
    cell naming the exception that aborted it.  The lines are not part of
    the report: to_dict and from_dict carry the rows only."""

    rows: list[SummaryRow] = field(default_factory=list)
    abort_reasons: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows]}

    @classmethod
    def from_dict(cls, payload: dict) -> "SummaryTable":
        if "rows" not in payload:
            raise ValueError("summary table has no 'rows' field")
        return cls(rows=[SummaryRow(**r) for r in payload["rows"]])

    def total_aborted(self) -> int:
        return sum(r.aborted for r in self.rows)

    def print_table(self) -> None:
        """Print one line per row: success rate, rounds mean +/- std and
        mean bytes per agent over the converged runs ("-" when none)."""
        header = f"{'algo':12s} {'kappa':>6s} {'success':>8s} {'rounds':>16s} {'bytes/agent':>12s}"
        print(header)
        print("-" * len(header))
        for row in self.rows:
            if row.rounds_mean is None:
                rounds = "-"
            else:
                rounds = f"{row.rounds_mean:.1f} +/- {row.rounds_std:.1f}"
            bytes_mean = "-" if row.bytes_mean is None else f"{row.bytes_mean:.0f}"
            print(
                f"{row.algo:12s} {row.kappa:>6g} {row.success_rate:>8.1%} "
                f"{rounds:>16s} {bytes_mean:>12s}"
            )


def make_problem(config: ExperimentConfig, seed: int) -> SeparableProblem:
    if config.family == "qp":
        if config.cond_range is None:
            raise ValueError("qp family needs cond_range")
        return qp_family(config.n_agents, config.dim, config.cond_range, seed)
    xi = 1e-2 if config.xi is None else config.xi
    if config.family == "logreg":
        return logreg_family(config.n_agents, config.dim, xi, seed, constraint=config.constrained)
    return basis_pursuit_family(config.n_agents, config.dim, xi, seed, cond_range=config.cond_range)


def run_algo(
    algo: str,
    problem: SeparableProblem,
    graph: CommGraph,
    alpha: float,
    max_iters: int = 1000,
    rse_tol: float = 1e-10,
    seed: int = 0,
    fusion: bool = True,
) -> RunTrace:
    """Dispatch one run by algorithm name."""
    knobs = dict(alpha=alpha, max_iters=max_iters, rse_tol=rse_tol, seed=seed)
    if algo in DQN_ALGOS:
        return dqn_run(problem, graph, RunConfig(scheme=algo.split("-")[1], **knobs))
    if algo == "diging-atc":
        return diging_atc_run(problem, graph, RunConfig(**knobs))
    if algo in EC_ALGOS:
        ec_cfg = EcRunConfig(scheme=algo.split("-")[1], fusion=fusion, **knobs)
        return ecdqn_run(problem, graph, ec_cfg)
    raise ValueError(f"unknown algorithm {algo!r}")


def _tuning_score(trace: RunTrace, rse_tol: float, max_iters: int) -> float:
    if trace.converged:
        return float(trace.rounds)
    final = float(np.max(trace.rse[trace.rounds]))
    if not math.isfinite(final):
        final = 1e300
    return max_iters + 100.0 * math.log10(max(final / rse_tol, 1.0) + 1.0)


def tune_step_size(
    run_fn: Callable[[float], RunTrace],
    bracket: tuple[float, float] = (1e-4, 2.0),
    probes: int = 12,
    rse_tol: float = 1e-10,
    max_iters: int = 1000,
) -> tuple[float, RunTrace]:
    """Golden-section search for the fixed step with the fewest rounds.

    Works on the exponent of the step size over the bracket; each probe
    is a full run.  Non-converged probes are scored by how far their
    final error stayed above the tolerance, so the search degrades
    smoothly when nothing in the bracket converges; that score is relative
    to rse_tol, which must be positive.  Exponents are keyed to 12
    decimals, and the search stops early once every key left in the
    interval has been probed.
    """
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError("bracket must satisfy 0 < lo < hi")
    if probes < 2:
        raise ValueError(f"probes must be at least 2, not {probes!r}")
    if not rse_tol > 0:
        raise ValueError(f"rse_tol must be positive, not {rse_tol!r}")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log10(lo), math.log10(hi)
    cache: dict[float, tuple[float, RunTrace]] = {}

    def probe(t: float) -> float:
        t = round(t, 12)
        if t not in cache:
            trace = run_fn(10.0**t)
            cache[t] = (_tuning_score(trace, rse_tol, max_iters), trace)
        return cache[t][0]

    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    probe(c)
    probe(d)
    while len(cache) < probes:
        if probe(c) <= probe(d):
            b, d = d, c
            c = new = b - invphi * (b - a)
        else:
            a, c = c, d
            d = new = a + invphi * (b - a)
        if round(new, 12) in cache:
            # stop once every 12-decimal key in [a, b] is probed: no point
            # left in the interval can start a new run
            first = round(a, 12)
            keys = (round(first + i * 1e-12, 12) for i in range(round((b - first) * 1e12) + 1))
            if all(key in cache for key in keys):
                break
        probe(new)
    best_t = min(cache, key=lambda t: (cache[t][0], t))
    return 10.0**best_t, cache[best_t][1]


def run_cell(
    config: ExperimentConfig, algo: str, problem: SeparableProblem, graph: CommGraph, seed: int
) -> RunTrace:
    """One cell: algo on problem over graph at config.alpha or, when that
    is "golden", at the step golden-section search finds in
    config.golden_bracket; returns the trace of the run at that step."""

    def run(alpha: float) -> RunTrace:
        return run_algo(
            algo, problem, graph, alpha, max_iters=config.max_iters, rse_tol=config.rse_tol,
            seed=seed, fusion=config.fusion,
        )

    if config.alpha != "golden":
        return run(config.alpha)
    # tune_step_size is looked up here at call time, so a wrapper installed on
    # it sees every cell's probes
    bracket, probes = config.golden_bracket, config.golden_probes
    return tune_step_size(run, bracket, probes, config.rse_tol, config.max_iters)[1]


def run_experiment(
    config: ExperimentConfig,
) -> tuple[SummaryTable, dict[tuple[str, float, int], RunTrace]]:
    """Execute every cell of the sweep and aggregate the outcomes.

    Cells that raise are recorded as aborted, with the exception in the
    table's abort_reasons, and skipped in the aggregates; everything else
    (including non-converged runs) counts toward its cell's statistics.
    """
    traces: dict[tuple[str, float, int], RunTrace] = {}
    aborted: dict[tuple[str, float], int] = {}
    reasons: list[str] = []

    def abort(algos: tuple[str, ...], kappa: float, seed: int, exc: Exception) -> None:
        for algo in algos:
            aborted[(algo, kappa)] = aborted.get((algo, kappa), 0) + 1
            reasons.append(f"{algo} kappa={kappa} seed={seed}: {type(exc).__name__}: {exc}")

    for kappa in config.kappas:
        for seed in config.seeds:
            graph = random_connected_graph(config.n_agents, kappa, seed)
            try:
                problem = make_problem(config, seed)
                solve_reference(problem)
            except Exception as exc:
                abort(config.algos, kappa, seed, exc)
                continue
            for algo in config.algos:
                try:
                    traces[(algo, kappa, seed)] = run_cell(config, algo, problem, graph, seed)
                except Exception as exc:
                    abort((algo,), kappa, seed, exc)
    rows = []
    for kappa in config.kappas:
        for algo in config.algos:
            cell = [traces[(algo, kappa, s)] for s in config.seeds if (algo, kappa, s) in traces]
            good = [t for t in cell if t.converged]
            n_aborted = aborted.get((algo, kappa), 0)
            runs = len(config.seeds)
            rounds = np.array([t.rounds for t in good], dtype=float)
            byte_means = np.array(
                [float(np.mean(t.bytes_sent[t.rounds])) for t in good], dtype=float
            )
            byte_maxes = np.array(
                [float(np.max(t.bytes_sent[t.rounds])) for t in good], dtype=float
            )
            walls = np.array([t.wall_time_ms for t in good], dtype=float)
            rows.append(
                SummaryRow(
                    algo=algo,
                    kappa=kappa,
                    runs=runs,
                    converged=len(good),
                    aborted=n_aborted,
                    success_rate=len(good) / runs if runs else 0.0,
                    rounds_mean=float(np.mean(rounds)) if good else None,
                    rounds_std=float(np.std(rounds)) if good else None,
                    bytes_mean=float(np.mean(byte_means)) if good else None,
                    bytes_max=float(np.max(byte_maxes)) if good else None,
                    wall_ms_mean=float(np.mean(walls)) if good else None,
                )
            )
    return SummaryTable(rows=rows, abort_reasons=reasons), traces


def _trace_filename(algo: str, kappa: float, seed: int) -> str:
    return f"trace_{algo}_k{kappa}_s{seed}.csv"


def emit_report(
    table: SummaryTable,
    traces: dict[tuple[str, float, int], RunTrace],
    out_dir: str | Path,
) -> None:
    """Write summary JSON, one CSV per run, and a long-format CSV.

    All content except wall-time fields is reproducible byte for byte
    from the same config.  The CSVs are written one trace and
    REPORT_BLOCK rounds at a time, in sorted order, so the text held at
    once is one block's rows.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs = {}
    for (algo, kappa, seed), trace in sorted(traces.items()):
        trace.to_csv(out / _trace_filename(algo, kappa, seed))
        runs[f"{algo}_k{kappa}_s{seed}"] = trace.summary_dict()
    payload = {"table": table.to_dict(), "runs": runs}
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with open(out / "long.csv", "w") as fh:
        fh.write("algo,kappa,seed,round,agent,rse\n")
        for (algo, kappa, seed), trace in sorted(traces.items()):
            n = trace.rounds + 1
            for lo in range(0, n, REPORT_BLOCK):
                rse = np.asarray(trace.rse[lo : min(lo + REPORT_BLOCK, n)], dtype=float).tolist()
                fh.write("".join(
                    f"{algo},{kappa},{seed},{k},{i},{r!r}\n"
                    for k, row in enumerate(rse, lo) for i, r in enumerate(row)
                ))


def _trace_header(trace_path: str | Path) -> tuple[list[str], int, bool]:
    """A trace's column names, the number of lines up to and including its
    header (the first line that is not blank) and whether a row follows."""
    with open(trace_path) as fh:
        skip = 0
        for line in fh:
            skip += 1
            if line != "\n":
                return line.rstrip("\n").split(","), skip, any(row != "\n" for row in fh)
    raise ValueError(f"trace {trace_path} has no header")


def _trace_rows(trace_path: str | Path, skip: int, wanted: list[int]) -> dict[int, str]:
    """The text of a trace's rows at the sorted indices wanted, counting
    rows after the header's skip lines and not counting blank lines, read
    in one pass that keeps only those rows."""
    picked = {}
    with open(trace_path) as fh:
        rows = filter("\n".__ne__, islice(fh, skip, None))
        at = 0
        for j in wanted:
            picked[j] = next(islice(rows, j - at, None))
            at = j + 1
    return picked


_PAYLOADS_PER_ROUND = {"dqn-bfgs": 3, "dqn-dfp": 3, "diging-atc": 2, "ecdqn-bfgs": 3, "ecdqn-dfp": 3}


def validate_run(
    trace_path: str | Path, summary_path: str | Path, graph_path: str | Path
) -> list[str]:
    """Re-check a finished run's ledger arithmetic and tracker identity,
    and its summary's final error and convergence claim against the trace.

    Returns a list of violation messages; empty means the trace passes.
    Only the first row that breaks the ledger is reported, and only the
    rows before it lend their mean-gradient norm to the tracker bound.
    When the trace has every row, its last round's rse cells must have
    the summary's final_rse_max as their maximum exactly (both are the
    repr of one float) and, when the summary has an rse_tol, the run is
    converged exactly when that maximum meets it.

    The trace is read a block at a time, never whole: numpy's reader
    parses the round, agent and bytes_sent columns from the file a chunk
    at a time, and one more pass keeps the text of only the rows whose
    float cells are read.  Blank lines are skipped.
    """
    violations: list[str] = []
    summary = json.loads(Path(summary_path).read_text())
    for name in ("algo", "dim", "n_agents", "rounds", "final_rse_max"):
        if name not in summary:
            raise ValueError(f"summary {summary_path} has no {name!r} field")
    graph = load_graph(graph_path)
    deg = graph.degrees()
    algo = summary["algo"]
    payloads = _PAYLOADS_PER_ROUND.get(algo)
    if payloads is None:
        return [f"unknown algorithm {algo!r} in summary"]
    if algo.startswith("ecdqn") and summary.get("fusion") is False:
        payloads = 2
    dim = int(summary["dim"])
    n_agents = int(summary["n_agents"])
    rounds = int(summary["rounds"])

    names, skip, has_rows = _trace_header(trace_path)
    cols = [names.index(name) for name in ("round", "agent", "bytes_sent")]
    if has_rows:
        rnd, agent, sent = np.loadtxt(
            trace_path, dtype=np.int64, delimiter=",", usecols=cols, skiprows=skip,
            comments=None, ndmin=2,
        ).T
    else:
        rnd = agent = sent = np.empty(0, dtype=np.int64)
    n_rows, expected_rows = len(rnd), (rounds + 1) * n_agents
    if n_rows != expected_rows:
        violations.append(f"expected {expected_rows} rows ({rounds} rounds), found {n_rows}")
    expected = payloads * 8 * dim * deg[agent] * rnd
    bad = np.flatnonzero(sent != expected)
    stop = int(bad[0]) if bad.size else n_rows
    if bad.size:
        violations.append(
            f"round {rnd[stop]} agent {agent[stop]}: ledger says {sent[stop]} bytes, "
            f"formula gives {expected[stop]}"
        )
    # the float cells read are each round's mean-gradient norm from its last
    # row before the first ledger violation and, when the trace has every
    # row, the last round's rse; only those rows' text is kept
    last_rounds, from_end = np.unique(rnd[:stop][::-1], return_index=True)
    grad_rows = (stop - 1 - from_end).tolist()
    complete = n_rows > 0 and n_rows == expected_rows
    last_round = range(n_rows - n_agents, n_rows) if complete else range(0)
    text = _trace_rows(trace_path, skip, sorted({*grad_rows, *last_round}))
    grad_col = names.index("mean_grad_norm")
    grad_norms = {
        r: float(text[j].split(",")[grad_col]) for r, j in zip(last_rounds.tolist(), grad_rows)
    }
    residuals = summary.get("tracking_residuals", [])
    if len(residuals) != rounds + 1:
        violations.append(
            f"expected {rounds + 1} tracking residuals, found {len(residuals)}"
        )
    for k, res in enumerate(residuals):
        bound = 1e-12 * (1.0 + grad_norms.get(k, 0.0))
        if res > bound:
            violations.append(
                f"round {k}: tracker deviates from the mean gradient by {res:.3e} > {bound:.3e}"
            )
            break
    rse_tol, final, converged = map(summary.get, ("rse_tol", "final_rse_max", "converged"))
    if converged and rse_tol is not None and final > rse_tol:
        violations.append("summary claims convergence above its own tolerance")
    if complete:
        rse_col = names.index("rse")
        worst = max(float(text[j].split(",")[rse_col]) for j in last_round)
        if final != worst:
            violations.append(f"final_rse_max {final!r} != the trace's last-round maximum {worst!r}")
        if rse_tol is not None and converged != (worst <= rse_tol):
            violations.append(f"converged {converged!r} disagrees with the trace's last-round "
                              f"maximum {worst!r} against rse_tol {rse_tol!r}")
    return violations
