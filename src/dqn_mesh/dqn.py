"""Synchronous peer-to-peer simulation of distributed quasi-Newton descent.

Each round every agent forms a direction from its state, mixes iterates
with its neighbors through a doubly stochastic weight matrix, tracks the
network-average gradient with a correction term and refreshes a local
inverse-Hessian estimate from the step/tracker differences.  Both
quasi-Newton methods run that round (qn_step, on QnState); only the
direction differs, DQN's W (-C v) and EC-DQN's saddle-point step.  The
first-order gradient-tracking baseline, DIGing-ATC, is the same round with
the direction -v and no spectrum box, so no curvature estimate, which
makes iteration and communication costs directly comparable.  Every
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
from functools import partial
from numbers import Real
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from .problems import SeparableProblem, solve_reference
from .quasi_newton import DEFAULT_FLOOR, pd_safeguard, refresh_inverse_batch
# curvature_ok is not called here; it stays importable under this module
# for instrumentation that looks the curvature test up by module-level name
from .quasi_newton import curvature_ok  # noqa: F401
from .topology import CommGraph, metropolis_weights

__all__ = [
    "QnState",
    "SyncNetwork",
    "RunTrace",
    "RunConfig",
    "DivergedError",
    "track_gradient",
    "init_dqn_states",
    "qn_step",
    "dqn_step",
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


@dataclass(slots=True)
class QnState:
    """Every agent's variables for any method, stacked.

    Row i of x, v, the direction d that the last round used (zero before
    the first) and last_gradient (each N x n), of the multipliers beta
    (N x m, EC-DQN only) and slice i of the inverse-Hessian estimates h
    (N x n x n, None for DIGing-ATC) belong to agent i.  The counters cover
    the rounds taken so far: curvature pairs left unapplied, spectrum
    repairs (both None without an estimate) and, for EC-DQN (else None),
    saddle-point solves retried.  A step returns a new state and never
    changes the one it is given, arrays included.
    """

    x: np.ndarray
    v: np.ndarray
    d: np.ndarray
    h: np.ndarray | None
    last_gradient: np.ndarray
    beta: np.ndarray | None = None
    skipped_pairs: int | None = 0
    safeguard_repairs: int | None = 0
    kkt_retries: int | None = None


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
        payload costs 8 * n * degree bytes per agent.  No solver passes
        account; it stays for instrumentation that passes it positionally.
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
    yields R + 1 records; DQN's z_consensus is that of the directions each
    round used, zero at round zero.  x_final holds the last iterate of
    every agent (one row per agent); intermediate iterates are not kept.  The
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

    def to_csv(self, path: str | Path, long: tuple[TextIO, str] | None = None) -> None:
        """Write one row per (round, agent) with the pinned column set; given long,
        (an open long table, "algo,kappa,seed,"), write each row's prefixed round,agent,rse there too.

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
                rows, heads = [], []
                for j, k in enumerate(range(block.start, block.stop)):
                    for i in range(self.n_agents):
                        if long is None:
                            row = f"{k},{i},{rse[j][i]!r},{shared[j]},{sent[j][i]}"
                        else:  # the rse cell is formatted once, for both files
                            heads.append(head := f"{k},{i},{rse[j][i]!r}")
                            row = f"{head},{shared[j]},{sent[j][i]}"
                        rows.append(f"{row},{feas[j][i]!r},{beta[j][i]!r}\n" if extra else row + "\n")
                fh.write("".join(rows))
                if long is not None:
                    long[0].write("".join([f"{long[1]}{head}\n" for head in heads]))

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


def init_dqn_states(problem: SeparableProblem, seed: int = 0) -> QnState:
    """Draw one standard-normal row per agent from seed and warm-start the
    tracker: v starts at the local gradient, the inverse estimate at
    C0_SCALE times the identity and the direction at zero.  A problem with
    a constraint is rejected."""
    if problem.constraint is not None:
        raise ValueError("unconstrained method cannot honor the problem's constraint")
    n, n_agents = problem.dim, problem.n_agents
    x = np.random.default_rng(seed).standard_normal((n_agents, n))
    grads = problem.gradients(x)
    c = np.broadcast_to(C0_SCALE * np.eye(n), (n_agents, n, n)).copy()
    return QnState(x=x, v=grads.copy(), d=np.zeros_like(x), h=c, last_gradient=grads)


def track_gradient(
    network: SyncNetwork, state, new_x: np.ndarray, problem: SeparableProblem
) -> tuple[np.ndarray, np.ndarray]:
    """Tracker update v' = W (v + g(x') - g(x)); returns (v', new gradients).

    Reads only state.v and state.last_gradient, so it serves every
    method's state.
    """
    new_g = problem.gradients(new_x)
    return network.mix(state.v + new_g - state.last_gradient), new_g


def qn_step(
    network: SyncNetwork, state: QnState, problem: SeparableProblem, config,
    direction: Callable, box: tuple[float, float] | None,
) -> QnState:
    """One round of any method: direction(network, state, problem, config)
    returns (d, multipliers or None, state with its repairs), then
    x' = W (x + alpha d), gradient tracking, and a refresh of every inverse
    estimate inside box = (floor, ceiling).  A method without an estimate
    has no box: its round has no refresh and its counters stay None."""
    d, beta, state = direction(network, state, problem, config)
    new_x = network.mix(state.x + config.alpha * d)
    if _blown_up(new_x):
        raise DivergedError(state)
    new_v, new_g = track_gradient(network, state, new_x, problem)
    if _blown_up(new_v):
        raise DivergedError(state)
    h, skipped, repaired = state.h, state.skipped_pairs, state.safeguard_repairs
    if box is not None:
        # repairs go through this module's pd_safeguard name, so a wrapper
        # installed on it sees every batch of them
        refresh = refresh_inverse_batch(
            h, new_x - state.x, new_v - state.v, config.scheme, *box, safeguard=pd_safeguard
        )
        h, skipped, repaired = refresh.estimates, skipped + refresh.skipped, repaired + refresh.repaired
    # the constructor, not dataclasses.replace: this is every round's hot path
    return QnState(
        x=new_x, v=new_v, d=d, h=h, last_gradient=new_g, beta=beta,
        skipped_pairs=skipped, safeguard_repairs=repaired, kkt_retries=state.kkt_retries,
    )


def _descent_direction(network, state, problem, config):
    """DQN's directions, the mixed descent directions W (-C v)."""
    return network.mix(-np.matvec(state.h, state.v)), None, state


def _tracker_direction(network, state, problem, config):
    """DIGing-ATC's directions, the negated trackers -v: x + alpha (-v)
    equals x - alpha v bit for bit, since negation is exact."""
    return -state.v, None, state


def dqn_step(
    network: SyncNetwork, state: QnState, problem: SeparableProblem, config: RunConfig
) -> QnState:
    """One round of DQN: qn_step with the descent directions, the
    estimates kept inside [DEFAULT_FLOOR, GAMMA].  Three payloads cross
    every edge, so the ledger adds 24 * dim * degree bytes per agent."""
    return qn_step(network, state, problem, config, _descent_direction, (DEFAULT_FLOOR, GAMMA))


def run_rounds(
    algo: str, problem: SeparableProblem, graph: CommGraph, config, state,
    step: Callable, stall: tuple[int, float] | None = None,
) -> RunTrace:
    """The run driver of every solver: one run of algo from the start
    state, as its trace.

    Builds the Metropolis weights and the metered network, takes
    config.alpha as a float and records state as round zero.  Then it
    steps, step(network, state, problem, config), and records
    until the worst agent's relative error meets config.rse_tol, a step
    raises DivergedError (whose state the run ends on) or
    config.max_iters rounds are spent, or, with stall = (rounds, tol)
    set, every iterate moved at most tol for that many rounds in a row
    (stalled).
    Callers pass the step found under its module-level name when they
    run, so a wrapper installed on that name sees every round.  The
    trace's wall time covers this call, not the drawing of the start
    state.  A graph over another number of agents than the problem's is
    rejected before anything runs.
    """
    if graph.n_agents != problem.n_agents:
        raise ValueError(f"the graph has {graph.n_agents} agents, the problem {problem.n_agents}")
    started = time.perf_counter()
    network = SyncNetwork(graph=graph, w=metropolis_weights(graph))
    config = replace(config, alpha=float(config.alpha))
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
    relative error, and copies x, v, the gradients (and, for DQN, the
    directions d) into a block of rounds.  A full block, and the partial
    one at build, is reduced in one stacked pass: the means, consensus
    norms, mean-gradient norm, tracking residual and, in one
    ``objective_values`` call, the objective at each round's mean
    iterate.  Every column equals its textbook form bit for bit: a mean
    is ``np.add.reduce`` over the agents divided by N, as ``.mean(axis=0)``
    computes it, and a norm reduces through ``np.vecdot``, as
    ``np.linalg.norm`` reduces through ``ddot``.  A constrained problem,
    which only EC-DQN accepts, adds per-agent feasibility and
    multiplier-norm columns.  A problem without a reference solution gets
    one solved first.
    """

    BLOCK = 32

    def __init__(self, problem: SeparableProblem, state):
        if problem.reference_solution is None:
            solve_reference(problem)
        self.problem = problem
        self.x_star = problem.reference_solution
        self.star_norm = float(np.linalg.norm(self.x_star))
        # the unconstrained methods reject a constraint, so a state with an
        # estimate on an unconstrained problem is DQN's
        self.constraint = problem.constraint
        self.track_d = self.constraint is None and state.h is not None
        # one slot per round: x, v, gradients and, when tracked, d
        self.block = np.empty((self.BLOCK, 4 if self.track_d else 3, problem.n_agents, problem.dim))
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
        if self.track_d:
            slot[3] = state.d
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
        if self.track_d:
            cols["z_consensus"] = consensus[:, 3]
        for name, col in cols.items():
            self.columns.setdefault(name, []).append(col)
        self.filled = 0

    def build(self, algo: str, config, state, started: float, flags: dict) -> RunTrace:
        """The finished trace: x_final and the counters from the last
        state, wall time since started.  A state without curvature
        counters (the first-order baseline's) leaves the scheme None."""
        self._reduce_block()
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
            scheme=None if state.skipped_pairs is None else config.scheme,
            fusion=getattr(config, "fusion", None),
            rse_tol=config.rse_tol,
            skipped_pairs=state.skipped_pairs,
            safeguard_repairs=state.safeguard_repairs,
            kkt_retries=state.kkt_retries,
            **flags,
        )


def dqn_run(problem: SeparableProblem, graph: CommGraph, config: RunConfig) -> RunTrace:
    """Run the distributed quasi-Newton method until the worst agent's
    relative error drops below the tolerance or the round budget runs out.
    """
    return run_rounds(
        f"dqn-{config.scheme}", problem, graph, config, init_dqn_states(problem, config.seed),
        dqn_step,
    )


def diging_atc_run(problem: SeparableProblem, graph: CommGraph, config: RunConfig) -> RunTrace:
    """First-order gradient-tracking baseline (adapt-then-combine form).

    x' = W (x - alpha y), y' = W (y + g(x') - g(x)), with y warm-started
    at the local gradients: qn_step with the direction -y and no box, from
    DQN's start without its estimate.  Two payloads cross every edge per
    round, so the ledger adds 16 * dim * degree bytes per agent.  With one
    agent this is plain gradient descent.  A scheme other than RunConfig's
    default is rejected; an explicit "bfgs" cannot be told from it.
    """
    if config.scheme != RunConfig.scheme:
        raise ValueError(f"DIGing-ATC has no curvature estimate: scheme {config.scheme!r}")
    start = init_dqn_states(problem, config.seed)
    start = replace(start, h=None, skipped_pairs=None, safeguard_repairs=None)
    step = partial(qn_step, direction=_tracker_direction, box=None)
    return run_rounds("diging-atc", problem, graph, config, start, step)
