"""Equality-constrained distributed quasi-Newton iteration.

Each agent keeps an inverse Hessian estimate H, as DQN does, and solves
a local saddle-point system coupling its tracked gradient with the shared
constraint residual.  The resulting primal directions are optionally
fused (mixed) before the iterate update; multipliers are recomputed fresh
every round and never mixed.  That solve is this method's direction
function; the rest of a round is DQN's (``dqn.qn_step`` on
``dqn.QnState``), and a run is one call of its run driver (run_rounds).
Every round solves all saddle-point systems in one ``kkt_solve`` call and
repairs and re-solves only the agents whose solve failed in a second.
The step size is a fixed finite positive number from the run config, the
full step 1.0 unless a caller sets another.  The spectrum box of the
estimates and the stall rule are module constants, read at run time.
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
    "EcRunConfig",
    "kkt_solve",
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


@dataclass(frozen=True)
class KktSystem:
    """N local saddle-point systems sharing one constraint block; row i is
    [[H_i^-1, A'], [A, 0]] [dx_i; beta_i] = -[r_stat_i; r_prim_i], given by
    the inverse Hessian estimates h (N, n, n), a (m, n), rhs_stat (N, n)
    and rhs_prim (N, m): the residuals themselves (tracked gradient and
    constraint violation), whose sign the solver flips.
    """

    h: np.ndarray
    a: np.ndarray
    rhs_stat: np.ndarray
    rhs_prim: np.ndarray

    def __post_init__(self) -> None:
        if (self.h.ndim, self.a.ndim, self.rhs_stat.ndim, self.rhs_prim.ndim) != (3, 2, 2, 2):
            raise ValueError("h must be an (N, n, n) stack, a (m, n), the right-hand sides (N, k)")
        rows, n = self.h.shape[:2]
        m = self.a.shape[0]
        if self.h.shape != (rows, n, n) or self.a.shape != (m, n):
            raise ValueError("inconsistent block shapes")
        if self.rhs_stat.shape != (rows, n) or self.rhs_prim.shape != (rows, m):
            raise ValueError("inconsistent right-hand-side shapes")


def kkt_solve(system: KktSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve every row of a stacked saddle-point system; returns delta_x
    (N, n), beta (N, m) and ok (N,).

    Block elimination (Boyd & Vandenberghe, *Convex Optimization*, section
    10.4) in inverse form, with u = -rhs_stat and w = -rhs_prim: products
    give H [u | A'] and the m x m Schur block S = A H A', a Cholesky test
    of the symmetric part of S checks its rank, one LU solve of S gives
    beta = S^-1 (A H u - w), and delta_x = H u - H A' beta.  No n x n
    block is factorized.  ok is False, and the row's results meaningless,
    where S has no Cholesky factor or is exactly singular, or where the
    residual [S beta - (A H u - w); A delta_x - w] is not within
    1e-10 * (1 + |[u; w]|).  A failed row is solved as the identity, so
    the call never raises on it and the other rows keep their bits; each
    row equals the same call on that row alone.
    """
    h, a = system.h, system.a
    u = -system.rhs_stat[:, :, None]
    w = -system.rhs_prim[:, :, None]
    # the right-hand sides are stacked (n, k) matrices: an (N, n) stack of
    # vectors would be one (N, n) matrix to numpy 2 and N vectors to 1.x
    at = np.broadcast_to(a.T, (len(h),) + a.T.shape)
    h_rhs = h @ np.concatenate([u, at], axis=2)
    h_u, h_at = h_rhs[:, :, :1], h_rhs[:, :, 1:]
    # the rank test reads the symmetric part of S = A H A'; the solve uses
    # the product as computed, which keeps A delta_x - w at rounding level
    schur = a @ h_at
    ok = cholesky_ok(0.5 * (schur + schur.transpose(0, 2, 1)))
    schur_rhs = a @ h_u - w
    identity = np.eye(len(a))
    try:
        beta = np.linalg.solve(np.where(ok[:, None, None], schur, identity), schur_rhs)
    except np.linalg.LinAlgError:
        # a block with a Cholesky factor can still be exactly singular to
        # LU (repeated constraint rows): those rows fail the rank test too
        ok &= np.linalg.det(schur) != 0
        beta = np.linalg.solve(np.where(ok[:, None, None], schur, identity), schur_rhs)
    delta_x = h_u - h_at @ beta

    rhs = np.concatenate([u, w], axis=1)[:, :, 0]
    res = np.concatenate([schur @ beta - schur_rhs, a @ delta_x - w], axis=1)[:, :, 0]
    scale = 1.0 + np.sqrt(np.vecdot(rhs, rhs))
    # written so that a NaN residual fails too
    ok &= np.sqrt(np.vecdot(res, res)) <= 1e-10 * scale
    return delta_x[:, :, 0], beta[:, :, 0], ok


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
    fused), and multipliers, all from one kkt_solve call.  The agents whose
    solve fails get one spectrum repair and are solved again in a second;
    the returned state holds the repairs and counts them and the retries.
    A second failure raises DivergedError, its state counting that round's
    retries and repairs.  kkt_solve and pd_safeguard are called by this
    module's names, so a wrapper installed on either sees every call."""
    a_mat, b_vec = problem.constraint
    r_prim = np.matvec(a_mat, state.x) - b_vec
    delta_x, beta, ok = kkt_solve(KktSystem(state.h, a_mat, state.v, r_prim))
    failed = np.flatnonzero(~ok)
    if failed.size:
        counted = replace(
            state, kkt_retries=state.kkt_retries + failed.size,
            safeguard_repairs=state.safeguard_repairs + failed.size,
        )
        h = state.h.copy()
        h[failed] = pd_safeguard(h[failed], floor=EIG_FLOOR, ceiling=EIG_CEILING)
        delta_x[failed], beta[failed], ok = kkt_solve(
            KktSystem(h[failed], a_mat, state.v[failed], r_prim[failed])
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
