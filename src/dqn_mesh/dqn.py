"""Synchronous peer-to-peer simulation of distributed quasi-Newton descent.

Each round every agent mixes state with its neighbors through a doubly
stochastic weight matrix, tracks the network-average gradient with a
correction term, refreshes a local inverse-Hessian estimate from the
step/tracker differences, and mixes the resulting descent directions.
A first-order gradient-tracking baseline shares the same engine so that
iteration and communication costs are directly comparable, and every
method, the constrained one included, runs through the same round loop
(run_rounds).

Communication is metered exactly: one mixed payload of dimension n costs
every agent 8 * n * degree bytes (double precision, one copy per
neighbor).  The quasi-Newton method mixes three payloads per round, the
baseline two.

The agents' variables are held stacked, one row (or one n x n slice) per
agent, and every round refreshes all curvature estimates in one batched
call, spectrum repairs included.  Generator-built problems (quadratics,
logistic regression, basis pursuit) evaluate every local gradient in one
stacked call; custom problems call each agent's gradient in turn.  A
round records only what its stopping rule reads, every agent's relative
error; the other trace columns are computed in one stacked pass per
block of rounds, the objective at the mean iterates in one
``objective_values`` call per block rather than once per round.  Runs
are single-threaded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .problems import SeparableProblem, solve_reference
from .quasi_newton import DEFAULT_FLOOR, pd_safeguard, refresh_inverse_batch
# curvature_ok is not called here; it stays importable under this module
# for instrumentation that looks the curvature test up by module-level name
from .quasi_newton import curvature_ok  # noqa: F401
from .topology import CommGraph, metropolis_weights

__all__ = [
    "DqnState",
    "DigingState",
    "SyncNetwork",
    "RunTrace",
    "RunConfig",
    "DivergedError",
    "track_gradient",
    "init_dqn_states",
    "dqn_step",
    "diging_step",
    "run_rounds",
    "dqn_run",
    "diging_atc_run",
    "safe_step_size",
]

BYTES_PER_SCALAR = 8

# every inverse-Hessian estimate starts at this multiple of the identity
C0_SCALE = 0.1

# iterates beyond this magnitude cannot recover and will overflow within a
# few rounds; cut them off as diverged before they poison the arithmetic
DIVERGENCE_LIMIT = 1e50


def _blown_up(arr: np.ndarray) -> bool:
    """True when an entry is NaN or exceeds DIVERGENCE_LIMIT in magnitude;
    one reduction, since a NaN makes the max NaN and fails the test."""
    return not np.abs(arr).max() <= DIVERGENCE_LIMIT


class DivergedError(RuntimeError):
    """Iterates left the representable range; carries the failing round
    and, optionally, the state whose counters cover that round's work."""

    def __init__(self, round_index: int, state=None):
        super().__init__(f"non-finite iterate at round {round_index}")
        self.round_index = round_index
        self.state = state


@dataclass(frozen=True)
class DqnState:
    """Every agent's variables for the unconstrained method, stacked.

    Row i of x, v, z, d and last_gradient (each N x n), slice i of the
    inverse-Hessian estimates c (N x n x n) and alpha[i] belong to agent i.
    gamma is the eigenvalue ceiling of every estimate.  skipped_pairs and
    safeguard_repairs count, over the rounds taken so far, curvature pairs
    left unapplied and estimates whose spectrum was repaired.
    """

    x: np.ndarray
    v: np.ndarray
    z: np.ndarray
    d: np.ndarray
    c: np.ndarray
    alpha: np.ndarray
    last_gradient: np.ndarray
    gamma: float
    skipped_pairs: int = 0
    safeguard_repairs: int = 0


@dataclass(frozen=True)
class DigingState:
    """Every agent's variables for the first-order baseline, stacked:
    iterates x, gradient trackers v and last local gradients (each N x n)
    and step sizes alpha (N,)."""

    x: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    last_gradient: np.ndarray


@dataclass
class SyncNetwork:
    """Mixing engine with an exact per-agent byte ledger."""

    graph: CommGraph
    w: np.ndarray
    sent_bytes: np.ndarray = field(init=False)
    round: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != (self.graph.n_agents, self.graph.n_agents):
            raise ValueError("weight matrix does not match the graph")
        self.sent_bytes = np.zeros(self.graph.n_agents, dtype=np.int64)
        self._degrees = self.graph.degrees()
        self._costs: dict[int, np.ndarray] = {}  # payload width -> bytes per agent

    def mix(self, rows: np.ndarray, account: bool = True) -> np.ndarray:
        """One synchronous exchange: every agent averages neighbor rows.

        Each agent pushes its n-vector to every neighbor, so a mixed
        payload costs 8 * n * degree bytes per agent.
        """
        rows = np.asarray(rows, dtype=float)
        if rows.shape[0] != self.graph.n_agents:
            raise ValueError("row count does not match the number of agents")
        if account:
            width = rows.shape[1]
            if width not in self._costs:
                self._costs[width] = BYTES_PER_SCALAR * width * self._degrees
            self.sent_bytes += self._costs[width]
        return self.w @ rows


@dataclass
class RunTrace:
    """Per-round history of a run plus its terminal status.

    One record per round, including round zero, so a run of R rounds
    yields R + 1 records.  x_final holds the last iterate of every agent
    (one row per agent); intermediate iterates are not retained.  The
    counters cover the completed rounds of the quasi-Newton methods and
    stay None where a method has no such event: skipped_pairs counts
    curvature pairs left unapplied, safeguard_repairs spectrum repairs,
    kkt_retries saddle-point solves retried after a repair.
    """

    algo: str
    n_agents: int
    dim: int
    alpha: float
    rse: np.ndarray
    x_consensus: np.ndarray
    v_consensus: np.ndarray
    mean_grad_norm: np.ndarray
    objective: np.ndarray
    bytes_sent: np.ndarray
    tracking_residual: np.ndarray
    z_consensus: np.ndarray | None = None
    feasibility: np.ndarray | None = None
    beta_norm: np.ndarray | None = None
    x_final: np.ndarray | None = None
    converged: bool = False
    diverged: bool = False
    stalled: bool = False
    rounds: int = 0
    wall_time_ms: float = 0.0
    scheme: str | None = None
    fusion: bool | None = None
    rse_tol: float | None = None
    skipped_pairs: int | None = None
    safeguard_repairs: int | None = None
    kkt_retries: int | None = None

    def to_csv(self, path: str | Path) -> None:
        """Write one row per (round, agent) with the pinned column set."""
        cols = "round,agent,rse,x_consensus_err,v_consensus_err,mean_grad_norm,objective,bytes_sent"
        extra = self.feasibility is not None
        if extra:
            cols += ",feasibility,beta_norm"
        n = self.rounds + 1

        def floats(col: np.ndarray) -> list:
            # one conversion per column; repr of a Python float is the CSV text
            return np.asarray(col[:n], dtype=float).tolist()

        per_round = (self.x_consensus, self.v_consensus, self.mean_grad_norm, self.objective)
        shared = [",".join(map(repr, vals)) for vals in zip(*map(floats, per_round))]
        rse, sent = floats(self.rse), np.asarray(self.bytes_sent[:n], dtype=np.int64).tolist()
        feas, beta = (floats(self.feasibility), floats(self.beta_norm)) if extra else (None, None)
        lines = [cols]
        for k in range(n):
            for i in range(self.n_agents):
                row = f"{k},{i},{rse[k][i]!r},{shared[k]},{sent[k][i]}"
                lines.append(row + f",{feas[k][i]!r},{beta[k][i]!r}" if extra else row)
        Path(path).write_text("\n".join(lines) + "\n")

    def summary_dict(self) -> dict:
        return {
            "algo": self.algo,
            "scheme": self.scheme,
            "fusion": self.fusion,
            "n_agents": self.n_agents,
            "dim": self.dim,
            "alpha": self.alpha,
            "converged": self.converged,
            "diverged": self.diverged,
            "stalled": self.stalled,
            "rounds": self.rounds,
            "rse_tol": self.rse_tol,
            "final_rse_max": float(np.max(self.rse[self.rounds])),
            "total_bytes_per_agent_mean": float(np.mean(self.bytes_sent[self.rounds])),
            "total_bytes_per_agent_max": int(np.max(self.bytes_sent[self.rounds])),
            "tracking_residuals": [float(t) for t in self.tracking_residual[: self.rounds + 1]],
            "wall_time_ms": float(self.wall_time_ms),
            "skipped_pairs": self.skipped_pairs,
            "safeguard_repairs": self.safeguard_repairs,
            "kkt_retries": self.kkt_retries,
        }


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the distributed solvers.

    alpha may be a number or "auto"; auto takes 90% of the
    contraction-based bound computed by safe_step_size, capped at 1.
    """

    scheme: str = "bfgs"
    alpha: float | str = "auto"
    gamma: float = 1e3
    max_iters: int = 1000
    rse_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in ("bfgs", "dfp"):
            raise ValueError(f"unknown quasi-Newton scheme {self.scheme!r}")
        if isinstance(self.alpha, str) and self.alpha != "auto":
            raise ValueError("alpha must be a number or 'auto'")


def safe_step_size(
    contraction: float, smoothness: float, gamma: float, dim: int, n_agents: int
) -> float:
    """Largest fixed step with a convergence guarantee for the given mesh.

    Evaluates (1 - c) / (2 c^3 L q) with q = gamma * sqrt(min(dim,
    n_agents)).  A fully mixing network (contraction zero) returns
    infinity: any step a centralized method tolerates is safe.
    """
    if not 0.0 <= contraction < 1.0:
        raise ValueError("contraction must lie in [0, 1)")
    if smoothness <= 0 or gamma <= 0:
        raise ValueError("smoothness and gamma must be positive")
    if contraction == 0.0:
        return math.inf
    q = gamma * math.sqrt(min(dim, n_agents))
    return (1.0 - contraction) / (2.0 * contraction**3 * smoothness * q)


def _resolve_alpha(
    config: RunConfig, problem: SeparableProblem, contraction: float
) -> float:
    if not isinstance(config.alpha, str):
        if config.alpha <= 0:
            raise ValueError("alpha must be positive")
        return float(config.alpha)
    smoothness = problem.smoothness()
    if smoothness is None:
        raise ValueError("auto step size needs smoothness bounds on every local objective")
    bound = safe_step_size(contraction, smoothness, config.gamma, problem.dim, problem.n_agents)
    return min(1.0, 0.9 * bound)


def initial_iterates(
    problem: SeparableProblem, rng: np.random.Generator, x0: np.ndarray | None
) -> np.ndarray:
    """A C-ordered copy of x0, or one standard-normal row per agent drawn
    from rng (which stays untouched when x0 is given)."""
    shape = (problem.n_agents, problem.dim)
    x = rng.standard_normal(shape) if x0 is None else np.array(x0, dtype=float, order="C")
    if x.shape != shape:
        raise ValueError("x0 must have one row per agent")
    return x


def init_dqn_states(
    problem: SeparableProblem,
    network: SyncNetwork,
    alpha: float | np.ndarray,
    gamma: float = 1e3,
    seed: int = 0,
    x0: np.ndarray | None = None,
) -> DqnState:
    """Draw initial iterates and warm-start the tracker and directions.

    v starts at the local gradient, the inverse estimate at C0_SCALE
    times the identity, and the mixed direction z is formed once from
    d = -C v.  This setup exchange is not metered; the ledger counts
    iteration rounds only.
    """
    n, n_agents = problem.dim, problem.n_agents
    x = initial_iterates(problem, np.random.default_rng(seed), x0)
    alphas = np.array(np.broadcast_to(np.asarray(alpha, dtype=float), (n_agents,)))
    grads = problem.gradients(x)
    c = np.broadcast_to(C0_SCALE * np.eye(n), (n_agents, n, n)).copy()
    d = -np.matvec(c, grads)
    z = network.mix(d, account=False)
    return DqnState(
        x=x, v=grads.copy(), z=z, d=d, c=c, alpha=alphas, last_gradient=grads, gamma=gamma
    )


def track_gradient(
    network: SyncNetwork,
    state: DqnState,
    new_x: np.ndarray,
    problem: SeparableProblem,
) -> tuple[np.ndarray, np.ndarray]:
    """Tracker update v' = W (v + g(x') - g(x)); returns (v', new gradients).

    Reads only state.v and state.last_gradient, so it serves every
    method's state.
    """
    new_g = problem.gradients(new_x)
    return network.mix(state.v + new_g - state.last_gradient), new_g


def dqn_step(
    network: SyncNetwork,
    state: DqnState,
    problem: SeparableProblem,
    scheme: str = "bfgs",
) -> DqnState:
    """One synchronous round: mix iterates, track gradients, refresh the
    curvature estimates, then mix descent directions.

    Three payloads cross every edge, so the ledger adds 24 * dim * degree
    bytes per agent.
    """
    new_x = network.mix(state.x + state.alpha[:, None] * state.z)
    if _blown_up(new_x):
        raise DivergedError(network.round + 1)
    new_v, new_g = track_gradient(network, state, new_x, problem)
    if _blown_up(new_v):
        raise DivergedError(network.round + 1)
    # repairs go through this module's pd_safeguard name, so a wrapper
    # installed on it sees every batch of them
    refresh = refresh_inverse_batch(
        state.c, new_x - state.x, new_v - state.v, scheme, DEFAULT_FLOOR, state.gamma,
        safeguard=pd_safeguard,
    )
    new_d = -np.matvec(refresh.estimates, new_v)
    new_z = network.mix(new_d)
    network.round += 1
    return DqnState(
        x=new_x,
        v=new_v,
        z=new_z,
        d=new_d,
        c=refresh.estimates,
        alpha=state.alpha,
        last_gradient=new_g,
        gamma=state.gamma,
        skipped_pairs=state.skipped_pairs + refresh.skipped,
        safeguard_repairs=state.safeguard_repairs + refresh.repaired,
    )


def diging_step(
    network: SyncNetwork, state: DigingState, problem: SeparableProblem
) -> DigingState:
    """One round of the first-order baseline: x' = W (x - alpha v), then
    the tracker update.  Two payloads cross every edge."""
    new_x = network.mix(state.x - state.alpha[:, None] * state.v)
    if _blown_up(new_x):
        raise DivergedError(network.round + 1)
    new_v, new_g = track_gradient(network, state, new_x, problem)
    if _blown_up(new_v):
        raise DivergedError(network.round + 1)
    network.round += 1
    return DigingState(x=new_x, v=new_v, alpha=state.alpha, last_gradient=new_g)


def run_rounds(
    state,
    step: Callable,
    record: Callable,
    rse_tol: float,
    max_iters: int,
    stall_tol: float = 0.0,
    stall_rounds: int | None = None,
) -> tuple:
    """The round loop of every solver: record round zero, then step and
    record until the worst relative error (what record returns) meets
    rse_tol, a step raises DivergedError or max_iters rounds are spent;
    the state a DivergedError carries replaces the last one.
    With stall_rounds set, a run whose iterates all moved at most
    stall_tol for stall_rounds rounds in a row stops as stalled, unless
    that round also met rse_tol.  Returns the last state and its flags.
    """
    flags = dict(converged=record(state) <= rse_tol, diverged=False, stalled=False)
    stall_run = 0
    for _ in range(0 if flags["converged"] else max_iters):
        x_prev = state.x
        try:
            state = step(state)
        except DivergedError as err:
            flags["diverged"] = True
            if err.state is not None:
                state = err.state
            break
        if record(state) <= rse_tol:
            flags["converged"] = True
            break
        if stall_rounds is not None:
            move = float(np.max(np.linalg.norm(state.x - x_prev, axis=1)))
            stall_run = stall_run + 1 if move <= stall_tol else 0
            if stall_run >= stall_rounds:
                flags["stalled"] = True
                break
    return state, flags


class _Recorder:
    """Accumulates per-round trace rows.

    A round's record computes what the stopping rule needs, every agent's
    relative error, and copies x, v, the gradients (and z) into a block of
    rounds.  A full block, and the partial one at build, is reduced in one
    stacked pass: the means, consensus norms, mean-gradient norm, tracking
    residual and, in one ``objective_values`` call, the objective at each
    round's mean iterate.  Every column equals its textbook form bit for
    bit: a mean is ``np.add.reduce`` over the agents divided by N, as
    ``.mean(axis=0)`` computes it, and a norm reduces through ``np.vecdot``,
    as ``np.linalg.norm`` reduces through ``ddot``.
    """

    BLOCK = 32

    def __init__(self, problem: SeparableProblem, x_star: np.ndarray, track_z: bool):
        self.problem = problem
        self.x_star = x_star
        self.star_norm = float(np.linalg.norm(x_star))
        self.track_z = track_z
        # one slot per round: x, v, gradients and, when tracked, z
        self.block = np.empty((self.BLOCK, 4 if track_z else 3, problem.n_agents, problem.dim))
        self.filled = 0
        self.rse: list[np.ndarray] = []
        self.bytes: list[np.ndarray] = []
        self.columns: dict[str, list[np.ndarray]] = {}
        self.feas: list[np.ndarray] | None = None
        self.beta: list[np.ndarray] | None = None

    def record(
        self,
        x: np.ndarray,
        v: np.ndarray,
        grads: np.ndarray,
        bytes_sent: np.ndarray,
        z: np.ndarray | None = None,
        feas: np.ndarray | None = None,
        beta: np.ndarray | None = None,
    ) -> float:
        """Record one round; returns the worst agent's relative error."""
        err = x - self.x_star
        rse = np.sqrt(np.add.reduce(err * err, axis=1))
        if self.star_norm != 0.0:
            rse /= self.star_norm
        self.rse.append(rse)
        slot = self.block[self.filled]
        slot[0], slot[1], slot[2] = x, v, grads
        if self.track_z:
            slot[3] = z
        self.filled += 1
        if self.filled == self.BLOCK:
            self._reduce_block()
        self.bytes.append(bytes_sent.copy())
        if feas is not None:
            if self.feas is None:
                self.feas, self.beta = [], []
            self.feas.append(feas)
            self.beta.append(beta)
        return float(rse.max())

    def _reduce_block(self) -> None:
        """Every per-round column of the rounds held in the block."""
        k, block = self.filled, self.block[: self.filled]
        if k == 0:
            return
        means = np.add.reduce(block, axis=2) / self.problem.n_agents
        dev = (block - means[:, :, None]).reshape(k * block.shape[1], -1)
        consensus = np.sqrt(np.vecdot(dev, dev)).reshape(k, -1)
        x_bar, v_bar, g_bar = means[:, 0], means[:, 1], means[:, 2]
        gaps = np.concatenate((g_bar, v_bar - g_bar))
        norms = np.sqrt(np.vecdot(gaps, gaps))
        cols = {
            "x_consensus": consensus[:, 0],
            "v_consensus": consensus[:, 1],
            "mean_grad_norm": norms[:k],
            "tracking_residual": norms[k:],
            "objective": self.problem.objective_values(x_bar),
        }
        if self.track_z:
            cols["z_consensus"] = consensus[:, 3]
        for name, col in cols.items():
            self.columns.setdefault(name, []).append(col)
        self.filled = 0

    def build(self, algo: str, alpha: float, state, start: float, **fields) -> RunTrace:
        """The finished trace: x_final from state, wall time since start."""
        self._reduce_block()
        rounds = len(self.rse) - 1
        return RunTrace(
            algo=algo,
            n_agents=self.problem.n_agents,
            dim=self.problem.dim,
            alpha=alpha,
            rse=np.stack(self.rse),
            **{name: np.concatenate(parts) for name, parts in self.columns.items()},
            bytes_sent=np.stack(self.bytes),
            feasibility=None if self.feas is None else np.stack(self.feas),
            beta_norm=None if self.beta is None else np.stack(self.beta),
            rounds=rounds,
            x_final=state.x.copy(),
            wall_time_ms=(time.perf_counter() - start) * 1e3,
            **fields,
        )


def _ensure_reference(problem: SeparableProblem) -> np.ndarray:
    if problem.reference_solution is None:
        solve_reference(problem)
    return problem.reference_solution


def dqn_run(
    problem: SeparableProblem,
    graph: CommGraph,
    config: RunConfig = RunConfig(),
    x0: np.ndarray | None = None,
) -> RunTrace:
    """Run the distributed quasi-Newton method until the worst agent's
    relative error drops below the tolerance or the round budget runs out.
    """
    start = time.perf_counter()
    weights = metropolis_weights(graph)
    network = SyncNetwork(graph=graph, w=weights.w)
    rec = _Recorder(problem, _ensure_reference(problem), track_z=True)
    alpha = _resolve_alpha(config, problem, weights.contraction)
    state = init_dqn_states(problem, network, alpha, config.gamma, config.seed, x0)
    state, flags = run_rounds(
        state,
        lambda st: dqn_step(network, st, problem, config.scheme),
        lambda st: rec.record(st.x, st.v, st.last_gradient, network.sent_bytes, z=st.z),
        config.rse_tol,
        config.max_iters,
    )
    return rec.build(
        f"dqn-{config.scheme}",
        alpha,
        state,
        start,
        scheme=config.scheme,
        rse_tol=config.rse_tol,
        skipped_pairs=state.skipped_pairs,
        safeguard_repairs=state.safeguard_repairs,
        **flags,
    )


def diging_atc_run(
    problem: SeparableProblem,
    graph: CommGraph,
    config: RunConfig = RunConfig(alpha=0.01),
    x0: np.ndarray | None = None,
) -> RunTrace:
    """First-order gradient-tracking baseline (adapt-then-combine form).

    x' = W (x - alpha y), y' = W (y + g(x') - g(x)), with y warm-started
    at the local gradients.  Two payloads cross every edge per round, so
    the ledger adds 16 * dim * degree bytes per agent.  With one agent
    this is plain gradient descent.
    """
    start = time.perf_counter()
    weights = metropolis_weights(graph)
    network = SyncNetwork(graph=graph, w=weights.w)
    rec = _Recorder(problem, _ensure_reference(problem), track_z=False)
    alpha = _resolve_alpha(config, problem, weights.contraction)
    x = initial_iterates(problem, np.random.default_rng(config.seed), x0)
    grads = problem.gradients(x)
    state = DigingState(
        x=x, v=grads.copy(), alpha=np.full(problem.n_agents, alpha), last_gradient=grads
    )
    state, flags = run_rounds(
        state,
        lambda st: diging_step(network, st, problem),
        lambda st: rec.record(st.x, st.v, st.last_gradient, network.sent_bytes),
        config.rse_tol,
        config.max_iters,
    )
    return rec.build("diging-atc", alpha, state, start, rse_tol=config.rse_tol, **flags)
