"""Equality-constrained distributed quasi-Newton iteration.

Each agent keeps a direct Hessian estimate and solves a local saddle-point
system coupling its tracked gradient with the shared constraint residual.
The resulting primal directions are optionally fused (mixed) before the
iterate update; multipliers are recomputed fresh every round and never
mixed.  Gradient tracking and the byte ledger reuse the unconstrained
engine, and a run is one call of its run driver (run_rounds).  The
agents' variables are held stacked; every round solves all saddle-point
systems in one batched call (block elimination, one LU solve per block),
repairs and re-solves only the agents whose solve failed in a second
one, and refreshes the Hessian estimates in another.  The step size is
a fixed finite positive number from the run config, the full step 1.0
unless a caller sets another.  The spectrum box of the Hessian estimates
and the stall rule are module constants, which the step and the run
read when they run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dqn import (
    DivergedError,
    SyncNetwork,
    _blown_up,
    _check_run_config,
    run_rounds,
    track_gradient,
)
from .problems import SeparableProblem
from .quasi_newton import cholesky_ok, pd_safeguard, refresh_hessian_batch
from .quasi_newton import curvature_ok  # noqa: F401  (see the note in dqn.py)
from .topology import CommGraph
# metropolis_weights is not called here (run_rounds builds the weights); it
# stays importable for instrumentation that looks it up by module-level name
from .topology import metropolis_weights  # noqa: F401

__all__ = [
    "EcDqnState",
    "KktSystem",
    "KktFactorizationError",
    "EcRunConfig",
    "kkt_solve",
    "kkt_solve_batch",
    "init_ecdqn_states",
    "ecdqn_step",
    "ecdqn_run",
]

# the eigenvalues of every initial Hessian estimate are uniform in this range
B0_SPECTRUM = (0.5, 2.0)
# every Hessian estimate is kept within [EIG_FLOOR, EIG_CEILING]; the floor
# is the reciprocal of the DQN curvature ceiling, which keeps the
# saddle-point solves stable while consensus noise still contaminates the
# curvature pairs
EIG_FLOOR = 1e-3
EIG_CEILING = 1e3
# a run stalls after STALL_ROUNDS rounds in a row in which every iterate
# moved at most STALL_TOL
STALL_ROUNDS = 10
STALL_TOL = 1e-14


class KktFactorizationError(RuntimeError):
    """A block of the saddle-point system could not be factorized."""


@dataclass(frozen=True)
class KktSystem:
    """Local saddle-point system [[B, A'], [A, 0]] [dx; beta] = -[r_stat; r_prim].

    rhs_stat and rhs_prim hold the residuals themselves (tracked gradient
    and constraint violation); the sign flip happens inside the solver.
    """

    b: np.ndarray
    a: np.ndarray
    rhs_stat: np.ndarray
    rhs_prim: np.ndarray

    def __post_init__(self) -> None:
        n = self.b.shape[0]
        m = self.a.shape[0]
        if self.b.shape != (n, n) or self.a.shape != (m, n):
            raise ValueError("inconsistent block shapes")
        if self.rhs_stat.shape != (n,) or self.rhs_prim.shape != (m,):
            raise ValueError("inconsistent right-hand-side shapes")


# why each stage of a saddle-point solve can fail, by failure code
_KKT_FAILURES = {
    1: "hessian block is not positive definite",
    2: "constraint block is rank deficient",
    3: "saddle-point solve residual too large",
}


def _identity_where(bad: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The stack m (N, k, k) with the rows flagged in bad set to the identity."""
    if not bad.any():
        return m
    return np.where(bad[:, None, None], np.eye(m.shape[-1]), m)


def _kkt_rows(b, a, rhs_stat, rhs_prim):
    """``kkt_solve_batch`` with a failure code per row: 0 where the row
    was solved, else the key in ``_KKT_FAILURES`` of its first failure."""
    u = -rhs_stat[:, :, None]
    w = -rhs_prim[:, :, None]
    # the Cholesky factorizations only test definiteness; each block is
    # solved by one LU, with its failed rows swapped for the identity so
    # that the stacked solve cannot raise on them
    ok = cholesky_ok(b)
    failure = np.where(ok, 0, 1)
    # the right-hand sides are stacked (n, k) matrices: an (N, n) stack of
    # vectors would be one (N, n) matrix to numpy 2 and N vectors to 1.x
    at = np.broadcast_to(a.T, (len(b),) + a.T.shape)
    binv = np.linalg.solve(_identity_where(~ok, b), np.concatenate([u, at], axis=2))
    binv_u, binv_at = binv[:, :, :1], binv[:, :, 1:]
    # the rank test reads the symmetric part of A B^-1 A'; the solve uses
    # the product as computed, which keeps A delta_x - w at rounding level
    schur = a @ binv_at
    ok = cholesky_ok(0.5 * (schur + schur.transpose(0, 2, 1)))
    failure[(failure == 0) & ~ok] = 2
    beta = np.linalg.solve(_identity_where(~ok, schur), a @ binv_u - w)
    delta_x = binv_u - binv_at @ beta

    rhs = np.concatenate([u, w], axis=1)[:, :, 0]
    res = np.concatenate([b @ delta_x + a.T @ beta - u, a @ delta_x - w], axis=1)[:, :, 0]
    scale = 1.0 + np.sqrt(np.vecdot(rhs, rhs))
    # written so that a NaN residual fails too
    failure[(failure == 0) & ~(np.sqrt(np.vecdot(res, res)) <= 1e-10 * scale)] = 3
    return delta_x[:, :, 0], beta[:, :, 0], failure


def kkt_solve_batch(
    b: np.ndarray, a: np.ndarray, rhs_stat: np.ndarray, rhs_prim: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve N saddle-point systems sharing one constraint block at once.

    b is (N, n, n), a (m, n), rhs_stat (N, n) and rhs_prim (N, m); row i
    is the system of ``KktSystem(b[i], a, rhs_stat[i], rhs_prim[i])``.
    Block elimination (Boyd & Vandenberghe, *Convex Optimization*,
    section 10.4) with one LU solve per block: a batched Cholesky
    factorization tests that every Hessian block is positive definite and
    one batched LU solve gives B^-1 [u | A'], a batched Cholesky
    factorization of the symmetric part of the m x m Schur block
    A B^-1 A' tests its rank and one LU solve of the block gives the
    multipliers, then the primal directions.  Returns delta_x (N, n),
    beta (N, m) and ok (N,).  ok is False on a row whose Hessian
    block or Schur block has no Cholesky factor, or whose assembled
    residual is not finite or exceeds 1e-10 * (1 + |rhs|); that row's
    delta_x and beta are meaningless.  A failed row is swapped for the
    identity before each solve, so it never makes the stacked call raise
    and leaves the other rows as they are.  Every solve is a stacked ``np.linalg.solve``, every
    product a stacked ``matmul`` and every norm an ``np.vecdot``, so each
    row equals the same call on that row alone.
    """
    delta_x, beta, failure = _kkt_rows(b, a, rhs_stat, rhs_prim)
    return delta_x, beta, failure == 0


def kkt_solve(system: KktSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve one saddle-point system: ``kkt_solve_batch`` on a single row.
    Raises KktFactorizationError naming the stage that failed."""
    delta_x, beta, failure = _kkt_rows(
        system.b[None], system.a, system.rhs_stat[None], system.rhs_prim[None]
    )
    if failure[0]:
        raise KktFactorizationError(_KKT_FAILURES[failure[0]])
    return delta_x[0], beta[0]


@dataclass(frozen=True)
class EcDqnState:
    """Every agent's variables for the constrained method, stacked.

    Row i of x, v and last_gradient (each N x n), of the multipliers beta
    (N x m) and slice i of the Hessian estimates b (N x n x n) belong to
    agent i.  The counters cover the rounds taken so far: curvature pairs
    left unapplied, spectrum repairs (refresh fallbacks and repairs before
    a KKT retry), and saddle-point solves retried.
    """

    x: np.ndarray
    v: np.ndarray
    b: np.ndarray
    beta: np.ndarray
    last_gradient: np.ndarray
    skipped_pairs: int = 0
    safeguard_repairs: int = 0
    kkt_retries: int = 0


@dataclass(frozen=True)
class EcRunConfig:
    """Knobs for the constrained solver, the values a caller sets: the
    steps read them from here.  alpha, the fixed step size, is a finite
    positive number; the default 1.0 takes the full saddle-point step.
    """

    scheme: str = "bfgs"
    alpha: float = 1.0
    fusion: bool = True
    max_iters: int = 1000
    rse_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        _check_run_config(self)


def init_ecdqn_states(problem: SeparableProblem, seed: int = 0) -> EcDqnState:
    """Draw initial iterates and random well-conditioned Hessian estimates.

    Every agent gets an independent symmetric positive definite estimate
    with eigenvalues uniform in B0_SPECTRUM, conjugated by a random
    orthogonal basis; the same seed reproduces the same states.
    """
    if problem.constraint is None:
        raise ValueError("constrained method needs a problem with a constraint")
    n, n_agents = problem.dim, problem.n_agents
    m = problem.constraint[0].shape[0]
    rng = np.random.default_rng(seed)
    # iterates first, then the estimates, from the same stream
    x = rng.standard_normal((n_agents, n))
    b = np.empty((n_agents, n, n))
    for i in range(n_agents):
        q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = rng.uniform(*B0_SPECTRUM, size=n)
        b0 = (q_mat * vals) @ q_mat.T
        b[i] = 0.5 * (b0 + b0.T)
    grads = problem.gradients(x)
    return EcDqnState(
        x=x,
        v=grads.copy(),
        b=b,
        beta=np.zeros((n_agents, m)),
        last_gradient=grads,
    )


def ecdqn_step(
    network: SyncNetwork,
    state: EcDqnState,
    problem: SeparableProblem,
    config: EcRunConfig,
) -> EcDqnState:
    """One synchronous round of the constrained method.

    Order within the round: local saddle-point solves, direction fusion,
    iterate mixing, gradient tracking, Hessian refresh.  Three payloads
    cross every edge (two with fusion disabled).  Every agent's
    saddle-point system is solved in one batched call.  The agents whose
    solve fails get one spectrum repair and are solved again, together, in
    a second batched call; a failure there aborts the run as diverged.  The
    DivergedError of a round that aborts carries the state with that
    round's retries and repairs counted.
    """
    a_mat, b_vec = problem.constraint
    b_kkt = state.b
    r_prim = np.matvec(a_mat, state.x) - b_vec
    delta_x, beta, ok = kkt_solve_batch(b_kkt, a_mat, state.v, r_prim)
    failed = np.flatnonzero(~ok)
    if failed.size:
        state = replace(
            state, kkt_retries=state.kkt_retries + failed.size,
            safeguard_repairs=state.safeguard_repairs + failed.size,
        )
        b_kkt = state.b.copy()
        # through this module's pd_safeguard name, as in the refresh below
        b_kkt[failed] = pd_safeguard(b_kkt[failed], floor=EIG_FLOOR, ceiling=EIG_CEILING)
        delta_x[failed], beta[failed], ok = kkt_solve_batch(
            b_kkt[failed], a_mat, state.v[failed], r_prim[failed]
        )
        if not ok.all():
            raise DivergedError(state)
    d = network.mix(delta_x) if config.fusion else delta_x

    new_x = network.mix(state.x + config.alpha * d)
    if _blown_up(new_x):
        raise DivergedError(state)
    new_v, new_g = track_gradient(network, state, new_x, problem)
    if _blown_up(new_v):
        raise DivergedError(state)
    # repairs go through this module's pd_safeguard name, as in dqn_step
    refresh = refresh_hessian_batch(
        b_kkt, new_x - state.x, new_v - state.v, config.scheme, EIG_FLOOR, EIG_CEILING,
        safeguard=pd_safeguard,
    )
    return EcDqnState(
        x=new_x,
        v=new_v,
        b=refresh.estimates,
        beta=beta,
        last_gradient=new_g,
        skipped_pairs=state.skipped_pairs + refresh.skipped,
        safeguard_repairs=state.safeguard_repairs + refresh.repaired,
        kkt_retries=state.kkt_retries,
    )


def ecdqn_run(
    problem: SeparableProblem, graph: CommGraph, config: EcRunConfig = EcRunConfig()
) -> "RunTrace":
    """Run the constrained method until every agent's relative error meets
    the tolerance, the primal directions stagnate, or the budget runs out.

    The trace gains per-agent feasibility and multiplier-norm columns on
    top of the shared record layout.
    """
    return run_rounds(
        f"ecdqn-{config.scheme}", problem, graph, config,
        lambda network: init_ecdqn_states(problem, config.seed), ecdqn_step,
        stall=(STALL_ROUNDS, STALL_TOL),
    )
