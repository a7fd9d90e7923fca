"""Synchronous peer-to-peer simulation of distributed quasi-Newton descent.

Each round every agent mixes state with its neighbors through a doubly
stochastic weight matrix, tracks the network-average gradient with a
correction term, refreshes a local inverse-Hessian estimate from the
step/tracker differences, and mixes the resulting descent directions.
A first-order gradient-tracking baseline shares the same engine so that
iteration and communication costs are directly comparable.  Every
method, the constrained one included, is one call of the same run driver
(run_rounds), which builds the weights, network and recorder, runs the
round loop and assembles the trace; a method says only its name, start
state, step and, for EC-DQN, its stall rule.  The step size is a fixed
finite positive number from the run config; the values no caller sets,
such as the curvature ceiling GAMMA, are module constants read at call
time.  The unconstrained methods reject a problem with a constraint.

Communication is metered exactly: one mixed payload of dimension n costs
every agent 8 * n * degree bytes (double precision, one copy per
neighbor).  The quasi-Newton method mixes three payloads per round, the
baseline two.

The agents' variables are held stacked, one row (or one n x n slice) per
agent, and every round refreshes all curvature estimates in one batched
call, spectrum repairs included.  Every problem (quadratics, logistic
regression, basis pursuit) evaluates all local gradients in one stacked
call.  A round records only what its stopping rule reads, every agent's
relative error; the other trace columns are computed in one stacked pass
per block of rounds, the objective at the mean iterates in one
``objective_values`` call per block rather than once per round.  Runs
are single-threaded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from numbers import Real
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
]

BYTES_PER_SCALAR = 8

# every inverse-Hessian estimate starts at this multiple of the identity
C0_SCALE = 0.1

# an inverse-Hessian estimate whose Frobenius norm exceeds this ceiling is
# clamped into [DEFAULT_FLOOR, GAMMA]
GAMMA = 1e3

# iterates beyond this magnitude cannot recover and will overflow within a
# few rounds; cut them off as diverged before they poison the arithmetic
DIVERGENCE_LIMIT = 1e50

# the trace writers format and write this many rounds at a time, so a
# report holds one block of rows as text, not the whole file
REPORT_BLOCK = 32


def _blown_up(arr: np.ndarray) -> bool:
    """True when an entry is NaN or exceeds DIVERGENCE_LIMIT in magnitude;
    one reduction, since a NaN makes the max NaN and fails the test."""
    return not np.abs(arr).max() <= DIVERGENCE_LIMIT


class DivergedError(RuntimeError):
    """Iterates left the representable range; carries the state the run
    ends on, whose counters cover the failing round's work."""

    def __init__(self, state):
        super().__init__("non-finite iterate")
        self.state = state


@dataclass(frozen=True)
class DqnState:
    """Every agent's variables for the unconstrained method, stacked.

    Row i of x, v, the mixed directions z and last_gradient (each N x n)
    and slice i of the inverse-Hessian estimates c (N x n x n) belong to
    agent i.
    skipped_pairs and safeguard_repairs count, over the rounds taken so
    far, curvature pairs left unapplied and estimates whose spectrum was
    repaired.
    """

    x: np.ndarray
    v: np.ndarray
    z: np.ndarray
    c: np.ndarray
    last_gradient: np.ndarray
    skipped_pairs: int = 0
    safeguard_repairs: int = 0


@dataclass(frozen=True)
class DigingState:
    """Every agent's variables for the first-order baseline, stacked:
    iterates x, gradient trackers v and last local gradients (each N x n)."""

    x: np.ndarray
    v: np.ndarray
    last_gradient: np.ndarray


@dataclass
class SyncNetwork:
    """Mixing engine with an exact per-agent byte ledger."""

    graph: CommGraph
    w: np.ndarray
    sent_bytes: np.ndarray = field(init=False)

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
        """Write one row per (round, agent) with the pinned column set.

        The file is written REPORT_BLOCK rounds at a time, so the text held
        at once is one block's rows, not the whole trace."""
        cols = "round,agent,rse,x_consensus_err,v_consensus_err,mean_grad_norm,objective,bytes_sent"
        extra = self.feasibility is not None
        if extra:
            cols += ",feasibility,beta_norm"
        n = self.rounds + 1
        per_round = (self.x_consensus, self.v_consensus, self.mean_grad_norm, self.objective)
        with open(path, "w") as fh:
            fh.write(cols + "\n")
            for lo in range(0, n, REPORT_BLOCK):
                block = slice(lo, min(lo + REPORT_BLOCK, n))

                def floats(col: np.ndarray) -> list:
                    # one conversion per column and block; repr of a Python
                    # float is the CSV text
                    return np.asarray(col[block], dtype=float).tolist()

                shared = [",".join(map(repr, vals)) for vals in zip(*map(floats, per_round))]
                rse = floats(self.rse)
                sent = np.asarray(self.bytes_sent[block], dtype=np.int64).tolist()
                feas, beta = (floats(self.feasibility), floats(self.beta_norm)) if extra else ((), ())
                rows = []
                for j, k in enumerate(range(block.start, block.stop)):
                    for i in range(self.n_agents):
                        row = f"{k},{i},{rse[j][i]!r},{shared[j]},{sent[j][i]}"
                        rows.append(f"{row},{feas[j][i]!r},{beta[j][i]!r}\n" if extra else row + "\n")
                fh.write("".join(rows))

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


def _valid_step(alpha) -> bool:
    """True when alpha is a finite positive number, the one form of a step."""
    return isinstance(alpha, Real) and 0 < alpha < math.inf


def _check_run_config(config) -> None:
    """Both run configs' checks: a known scheme and a valid step."""
    if config.scheme not in ("bfgs", "dfp"):
        raise ValueError(f"unknown quasi-Newton scheme {config.scheme!r}")
    if not _valid_step(config.alpha):
        raise ValueError(f"alpha must be a finite positive number, not {config.alpha!r}")


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the distributed solvers, the values a caller sets:
    the steps read them from here.  alpha, the fixed step size, is a
    finite positive number and has no default.
    """

    alpha: float
    scheme: str = "bfgs"
    max_iters: int = 1000
    rse_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        _check_run_config(self)


def _unconstrained_start(problem: SeparableProblem, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """One standard-normal row per agent drawn from seed, and the local
    gradients there; a problem with a constraint is rejected."""
    if problem.constraint is not None:
        raise ValueError("unconstrained method cannot honor the problem's constraint")
    x = np.random.default_rng(seed).standard_normal((problem.n_agents, problem.dim))
    return x, problem.gradients(x)


def init_dqn_states(problem: SeparableProblem, network: SyncNetwork, seed: int = 0) -> DqnState:
    """Draw initial iterates and warm-start the tracker and directions.

    v starts at the local gradient, the inverse estimate at C0_SCALE
    times the identity, and the mixed direction z is formed once from
    -C v.  This setup exchange is not metered; the ledger counts
    iteration rounds only.
    """
    n, n_agents = problem.dim, problem.n_agents
    x, grads = _unconstrained_start(problem, seed)
    c = np.broadcast_to(C0_SCALE * np.eye(n), (n_agents, n, n)).copy()
    z = network.mix(-np.matvec(c, grads), account=False)
    return DqnState(x=x, v=grads.copy(), z=z, c=c, last_gradient=grads)


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
    config: RunConfig,
) -> DqnState:
    """One synchronous round: mix iterates, track gradients, refresh the
    curvature estimates, then mix descent directions.

    Three payloads cross every edge, so the ledger adds 24 * dim * degree
    bytes per agent.
    """
    new_x = network.mix(state.x + config.alpha * state.z)
    if _blown_up(new_x):
        raise DivergedError(state)
    new_v, new_g = track_gradient(network, state, new_x, problem)
    if _blown_up(new_v):
        raise DivergedError(state)
    # repairs go through this module's pd_safeguard name, so a wrapper
    # installed on it sees every batch of them
    refresh = refresh_inverse_batch(
        state.c, new_x - state.x, new_v - state.v, config.scheme, DEFAULT_FLOOR, GAMMA,
        safeguard=pd_safeguard,
    )
    return DqnState(
        x=new_x,
        v=new_v,
        z=network.mix(-np.matvec(refresh.estimates, new_v)),
        c=refresh.estimates,
        last_gradient=new_g,
        skipped_pairs=state.skipped_pairs + refresh.skipped,
        safeguard_repairs=state.safeguard_repairs + refresh.repaired,
    )


def diging_step(
    network: SyncNetwork, state: DigingState, problem: SeparableProblem, config: RunConfig
) -> DigingState:
    """One round of the first-order baseline: x' = W (x - alpha v), then
    the tracker update.  Two payloads cross every edge."""
    new_x = network.mix(state.x - config.alpha * state.v)
    if _blown_up(new_x):
        raise DivergedError(state)
    new_v, new_g = track_gradient(network, state, new_x, problem)
    if _blown_up(new_v):
        raise DivergedError(state)
    return DigingState(x=new_x, v=new_v, last_gradient=new_g)


def run_rounds(
    algo: str, problem: SeparableProblem, graph: CommGraph, config, start: Callable,
    step: Callable, stall: tuple[int, float] | None = None,
) -> RunTrace:
    """The run driver of every solver: one run of algo, as its trace.

    Builds the Metropolis weights and the metered network, takes
    config.alpha as a float and records start(network) as round zero.
    Then it steps, step(network, state, problem, config), and records
    until the worst agent's relative error meets config.rse_tol, a step
    raises DivergedError (whose state the run ends on) or
    config.max_iters rounds are spent, or, with stall = (rounds, tol)
    set, every iterate moved at most tol for that many rounds in a row
    (stalled).
    Callers pass the step found under its module-level name when they
    run, so a wrapper installed on that name sees every round.
    """
    started = time.perf_counter()
    network = SyncNetwork(graph=graph, w=metropolis_weights(graph))
    config = replace(config, alpha=float(config.alpha))
    state = start(network)
    rec = _Recorder(problem, state)
    converged = rec.record(state, network.sent_bytes) <= config.rse_tol
    flags = dict(converged=converged, diverged=False, stalled=False)
    stall_run = 0
    for _ in range(0 if flags["converged"] else config.max_iters):
        x_prev = state.x
        try:
            state = step(network, state, problem, config)
        except DivergedError as err:
            flags["diverged"] = True
            state = err.state
            break
        if rec.record(state, network.sent_bytes) <= config.rse_tol:
            flags["converged"] = True
            break
        if stall is not None:
            move = float(np.max(np.linalg.norm(state.x - x_prev, axis=1)))
            stall_run = stall_run + 1 if move <= stall[1] else 0
            if stall_run >= stall[0]:
                flags["stalled"] = True
                break
    return rec.build(algo, config, state, started, flags)


class _Recorder:
    """Accumulates per-round trace rows read off the states.

    A round's record computes what the stopping rule needs, every agent's
    relative error, and copies x, v, the gradients (and z, where the
    state has it) into a block of rounds.  A full block, and the partial
    one at build, is reduced in one stacked pass: the means, consensus
    norms, mean-gradient norm, tracking residual and, in one
    ``objective_values`` call, the objective at each round's mean
    iterate.  Every column equals its textbook form bit for bit: a mean
    is ``np.add.reduce`` over the agents divided by N, as ``.mean(axis=0)``
    computes it, and a norm reduces through ``np.vecdot``, as
    ``np.linalg.norm`` reduces through ``ddot``.  A state with multipliers
    (beta) adds per-agent feasibility and multiplier-norm columns.  A
    problem without a reference solution gets one solved first.
    """

    BLOCK = 32

    def __init__(self, problem: SeparableProblem, state):
        if problem.reference_solution is None:
            solve_reference(problem)
        self.problem = problem
        self.x_star = problem.reference_solution
        self.star_norm = float(np.linalg.norm(self.x_star))
        self.track_z = hasattr(state, "z")
        self.constraint = problem.constraint if hasattr(state, "beta") else None
        # one slot per round: x, v, gradients and, when tracked, z
        self.block = np.empty((self.BLOCK, 4 if self.track_z else 3, problem.n_agents, problem.dim))
        self.filled = 0
        self.rse: list[np.ndarray] = []
        self.bytes: list[np.ndarray] = []
        self.columns: dict[str, list[np.ndarray]] = {}
        self.feas: list[np.ndarray] = []
        self.beta: list[np.ndarray] = []

    def record(self, state, bytes_sent: np.ndarray) -> float:
        """Record one round; returns the worst agent's relative error."""
        err = state.x - self.x_star
        rse = np.sqrt(np.add.reduce(err * err, axis=1))
        if self.star_norm != 0.0:
            rse /= self.star_norm
        self.rse.append(rse)
        slot = self.block[self.filled]
        slot[0], slot[1], slot[2] = state.x, state.v, state.last_gradient
        if self.track_z:
            slot[3] = state.z
        self.filled += 1
        if self.filled == self.BLOCK:
            self._reduce_block()
        self.bytes.append(bytes_sent.copy())
        if self.constraint is not None:
            # feasibility as np.linalg.norm(gap, axis=1) computes it, each
            # multiplier norm as np.linalg.norm of its row
            a_mat, b_vec = self.constraint
            gap = state.x @ a_mat.T - b_vec
            self.feas.append(np.sqrt(np.add.reduce(gap * gap, axis=1)))
            self.beta.append(np.sqrt(np.vecdot(state.beta, state.beta)))
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

    def build(self, algo: str, config, state, started: float, flags: dict) -> RunTrace:
        """The finished trace: x_final and the counters from the last
        state, wall time since started.  A state without curvature
        counters (the first-order baseline's) leaves them and the scheme
        None."""
        self._reduce_block()
        names = ("skipped_pairs", "safeguard_repairs", "kkt_retries")
        counters = {name: getattr(state, name, None) for name in names}
        return RunTrace(
            algo=algo,
            n_agents=self.problem.n_agents,
            dim=self.problem.dim,
            alpha=config.alpha,
            rse=np.stack(self.rse),
            **{name: np.concatenate(parts) for name, parts in self.columns.items()},
            bytes_sent=np.stack(self.bytes),
            feasibility=np.stack(self.feas) if self.feas else None,
            beta_norm=np.stack(self.beta) if self.beta else None,
            rounds=len(self.rse) - 1,
            x_final=state.x.copy(),
            wall_time_ms=(time.perf_counter() - started) * 1e3,
            scheme=None if counters["skipped_pairs"] is None else config.scheme,
            fusion=getattr(config, "fusion", None),
            rse_tol=config.rse_tol,
            **counters,
            **flags,
        )


def dqn_run(problem: SeparableProblem, graph: CommGraph, config: RunConfig) -> RunTrace:
    """Run the distributed quasi-Newton method until the worst agent's
    relative error drops below the tolerance or the round budget runs out.
    """
    return run_rounds(
        f"dqn-{config.scheme}", problem, graph, config,
        lambda network: init_dqn_states(problem, network, config.seed), dqn_step,
    )


def _diging_start(problem: SeparableProblem, seed: int) -> DigingState:
    x, grads = _unconstrained_start(problem, seed)
    return DigingState(x=x, v=grads.copy(), last_gradient=grads)


def diging_atc_run(problem: SeparableProblem, graph: CommGraph, config: RunConfig) -> RunTrace:
    """First-order gradient-tracking baseline (adapt-then-combine form).

    x' = W (x - alpha y), y' = W (y + g(x') - g(x)), with y warm-started
    at the local gradients.  Two payloads cross every edge per round, so
    the ledger adds 16 * dim * degree bytes per agent.  With one agent
    this is plain gradient descent.
    """
    return run_rounds(
        "diging-atc", problem, graph, config,
        lambda network: _diging_start(problem, config.seed), diging_step,
    )
