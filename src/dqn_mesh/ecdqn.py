"""Equality-constrained distributed quasi-Newton iteration.

Each agent keeps an inverse Hessian estimate H, as DQN does, and solves
a local saddle-point system coupling its tracked gradient with the shared
constraint residual.  The resulting primal directions are optionally
fused (mixed) before the iterate update; multipliers are recomputed fresh
every round and never mixed.  That solve is this method's direction
function; the rest of a round is DQN's (``dqn.qn_step`` on
``dqn.QnState``), and a run is one call of its run driver (run_rounds).
Every round solves all saddle-point systems in one batched call (block
elimination in inverse form: matrix products and one m x m solve per
agent) and repairs and re-solves only the agents whose solve failed in
a second one.  The step size is a fixed finite positive number from the
run config, the full step 1.0 unless a caller sets another.  The
spectrum box of the estimates and the stall rule are module constants,
which the step and the run read when they run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dqn import DivergedError, QnState, SyncNetwork, _check_run_config, qn_step, run_rounds
# track_gradient is not called here (qn_step tracks); it stays importable
# for instrumentation that looks it up by module-level name
from .dqn import track_gradient  # noqa: F401
from .problems import SeparableProblem
from .quasi_newton import cholesky_ok, pd_safeguard
from .quasi_newton import curvature_ok  # noqa: F401  (see the note in dqn.py)
from .topology import CommGraph
# metropolis_weights is not called here (run_rounds builds the weights); it
# stays importable for instrumentation that looks it up by module-level name
from .topology import metropolis_weights  # noqa: F401

__all__ = [
    "KktSystem",
    "KktFactorizationError",
    "EcRunConfig",
    "kkt_solve",
    "kkt_solve_batch",
    "init_ecdqn_states",
    "ecdqn_step",
    "ecdqn_run",
]

# the eigenvalues of every initial Hessian estimate B = H^-1 are uniform in
# this range
B0_SPECTRUM = (0.5, 2.0)
# a refresh clamps the spectrum of every inverse estimate H whose Frobenius
# norm exceeds EIG_CEILING or that fails a Cholesky probe into [EIG_FLOOR,
# EIG_CEILING].  The bounds are reciprocal, so every B = H^-1 stays positive
# definite with its smallest eigenvalue at least EIG_FLOOR, which keeps the
# saddle-point solves stable while consensus noise contaminates the pairs
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
    """Local saddle-point system [[H^-1, A'], [A, 0]] [dx; beta] = -[r_stat; r_prim]
    given by the inverse Hessian estimate h.

    rhs_stat and rhs_prim hold the residuals themselves (tracked gradient
    and constraint violation); the sign flip happens inside the solver.
    """

    h: np.ndarray
    a: np.ndarray
    rhs_stat: np.ndarray
    rhs_prim: np.ndarray

    def __post_init__(self) -> None:
        n = self.h.shape[0]
        m = self.a.shape[0]
        if self.h.shape != (n, n) or self.a.shape != (m, n):
            raise ValueError("inconsistent block shapes")
        if self.rhs_stat.shape != (n,) or self.rhs_prim.shape != (m,):
            raise ValueError("inconsistent right-hand-side shapes")


# why each stage of a saddle-point solve can fail, by failure code
_KKT_FAILURES = {
    1: "constraint block A H A' is not positive definite",
    2: "saddle-point solve residual too large",
}


def _identity_where(bad: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The stack m (N, k, k) with the rows flagged in bad set to the identity."""
    if not bad.any():
        return m
    return np.where(bad[:, None, None], np.eye(m.shape[-1]), m)


def _kkt_rows(h, a, rhs_stat, rhs_prim):
    """``kkt_solve_batch`` with a failure code per row: 0 where the row
    was solved, else the key in ``_KKT_FAILURES`` of its first failure."""
    u = -rhs_stat[:, :, None]
    w = -rhs_prim[:, :, None]
    # the right-hand sides are stacked (n, k) matrices: an (N, n) stack of
    # vectors would be one (N, n) matrix to numpy 2 and N vectors to 1.x
    at = np.broadcast_to(a.T, (len(h),) + a.T.shape)
    h_rhs = h @ np.concatenate([u, at], axis=2)
    h_u, h_at = h_rhs[:, :, :1], h_rhs[:, :, 1:]
    # the rank test reads the symmetric part of S = A H A'; the solve uses
    # the product as computed, which keeps A delta_x - w at rounding level.
    # The Cholesky factorization only tests; S is solved by one LU, with
    # its failed rows swapped for the identity
    schur = a @ h_at
    failure = np.where(cholesky_ok(0.5 * (schur + schur.transpose(0, 2, 1))), 0, 1)
    schur_rhs = a @ h_u - w
    try:
        beta = np.linalg.solve(_identity_where(failure != 0, schur), schur_rhs)
    except np.linalg.LinAlgError:
        # a block with a Cholesky factor can still be exactly singular to
        # LU (repeated constraint rows): those rows fail the rank test too
        failure[np.linalg.det(schur) == 0] = 1
        beta = np.linalg.solve(_identity_where(failure != 0, schur), schur_rhs)
    delta_x = h_u - h_at @ beta

    rhs = np.concatenate([u, w], axis=1)[:, :, 0]
    res = np.concatenate([schur @ beta - schur_rhs, a @ delta_x - w], axis=1)[:, :, 0]
    scale = 1.0 + np.sqrt(np.vecdot(rhs, rhs))
    # written so that a NaN residual fails too
    failure[(failure == 0) & ~(np.sqrt(np.vecdot(res, res)) <= 1e-10 * scale)] = 2
    return delta_x[:, :, 0], beta[:, :, 0], failure


def kkt_solve_batch(
    h: np.ndarray, a: np.ndarray, rhs_stat: np.ndarray, rhs_prim: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve N saddle-point systems sharing one constraint block at once.

    h is (N, n, n), the inverse Hessian estimates, a (m, n), rhs_stat
    (N, n) and rhs_prim (N, m); row i is the system of
    ``KktSystem(h[i], a, rhs_stat[i], rhs_prim[i])``.  Block elimination
    (Boyd & Vandenberghe, *Convex Optimization*, section 10.4) in inverse
    form, with u = -rhs_stat and w = -rhs_prim: one batched product gives
    H [u | A'] and another the m x m Schur block S = A H A', a batched
    Cholesky factorization of the symmetric part of S tests its rank, one
    LU solve of S gives the multipliers beta = S^-1 (A H u - w), and the
    primal directions are delta_x = H u - H A' beta.  No n x n block is
    factorized: the solver keeps every H positive definite.  Returns
    delta_x (N, n), beta (N, m) and ok (N,).  ok is False on a row whose
    Schur block has no Cholesky factor, or whose residual
    [S beta - (A H u - w); A delta_x - w] is not finite or exceeds
    1e-10 * (1 + |[u; w]|), the bound on the system's own right-hand
    side; that row's delta_x and beta are meaningless.  A failed row is
    swapped for the identity before the solve, so it never makes the
    stacked call raise and leaves the other rows as they are.  Every solve
    is a stacked ``np.linalg.solve``, every product a stacked ``matmul``
    and every norm an ``np.vecdot``, so each row equals the same call on
    that row alone.
    """
    delta_x, beta, failure = _kkt_rows(h, a, rhs_stat, rhs_prim)
    return delta_x, beta, failure == 0


def kkt_solve(system: KktSystem) -> tuple[np.ndarray, np.ndarray]:
    """Solve one saddle-point system: ``kkt_solve_batch`` on a single row.
    Raises KktFactorizationError naming the stage that failed."""
    delta_x, beta, failure = _kkt_rows(
        system.h[None], system.a, system.rhs_stat[None], system.rhs_prim[None]
    )
    if failure[0]:
        raise KktFactorizationError(_KKT_FAILURES[failure[0]])
    return delta_x[0], beta[0]


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


def init_ecdqn_states(problem: SeparableProblem, seed: int = 0) -> QnState:
    """Draw initial iterates and well-conditioned inverse Hessian estimates;
    the direction and the multipliers start at zero.

    Every agent gets an independent symmetric positive definite estimate
    H0 = Q diag(1 / vals) Q', the inverse of a Hessian estimate with
    eigenvalues vals uniform in B0_SPECTRUM conjugated by a random
    orthogonal basis Q; the same seed reproduces the same states.
    """
    if problem.constraint is None:
        raise ValueError("constrained method needs a problem with a constraint")
    n, n_agents = problem.dim, problem.n_agents
    m = problem.constraint[0].shape[0]
    rng = np.random.default_rng(seed)
    # iterates first, then the estimates, from the same stream
    x = rng.standard_normal((n_agents, n))
    h = np.empty((n_agents, n, n))
    for i in range(n_agents):
        q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = rng.uniform(*B0_SPECTRUM, size=n)
        h0 = (q_mat / vals) @ q_mat.T
        h[i] = 0.5 * (h0 + h0.T)
    grads = problem.gradients(x)
    return QnState(
        x=x, v=grads.copy(), d=np.zeros_like(x), h=h, last_gradient=grads,
        beta=np.zeros((n_agents, m)), kkt_retries=0,
    )


def _kkt_direction(network: SyncNetwork, state: QnState, problem: SeparableProblem, config):
    """EC-DQN's directions, every agent's saddle-point step (mixed when
    fused), and multipliers, all solved in one batched call.  The agents
    whose solve fails get one spectrum repair and are solved again in a
    second; the returned state holds the repairs and counts them and the
    retries.  A second failure raises DivergedError, its state counting
    that round's retries and repairs."""
    a_mat, b_vec = problem.constraint
    r_prim = np.matvec(a_mat, state.x) - b_vec
    delta_x, beta, ok = kkt_solve_batch(state.h, a_mat, state.v, r_prim)
    failed = np.flatnonzero(~ok)
    if failed.size:
        counted = replace(
            state, kkt_retries=state.kkt_retries + failed.size,
            safeguard_repairs=state.safeguard_repairs + failed.size,
        )
        h = state.h.copy()
        # through this module's pd_safeguard name, so a wrapper installed on
        # it sees the repair
        h[failed] = pd_safeguard(h[failed], floor=EIG_FLOOR, ceiling=EIG_CEILING)
        delta_x[failed], beta[failed], ok = kkt_solve_batch(
            h[failed], a_mat, state.v[failed], r_prim[failed]
        )
        if not ok.all():
            raise DivergedError(counted)
        state = replace(counted, h=h)
    return (network.mix(delta_x) if config.fusion else delta_x), beta, state


def ecdqn_step(
    network: SyncNetwork, state: QnState, problem: SeparableProblem, config: EcRunConfig
) -> QnState:
    """One round of the constrained method: qn_step with the saddle-point
    directions, the estimates kept inside [EIG_FLOOR, EIG_CEILING].  Three
    payloads cross every edge (two with fusion disabled)."""
    return qn_step(network, state, problem, config, _kkt_direction, (EIG_FLOOR, EIG_CEILING))


def ecdqn_run(
    problem: SeparableProblem, graph: CommGraph, config: EcRunConfig = EcRunConfig()
) -> "RunTrace":
    """Run the constrained method until every agent's relative error meets
    the tolerance, the primal directions stagnate, or the budget runs out.

    The trace gains per-agent feasibility and multiplier-norm columns on
    top of the shared record layout.
    """
    return run_rounds(
        f"ecdqn-{config.scheme}", problem, graph, config, init_ecdqn_states(problem, config.seed),
        ecdqn_step, stall=(STALL_ROUNDS, STALL_TOL),
    )
