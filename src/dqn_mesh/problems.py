"""Separable benchmark problems split across agents.

Each agent owns one local objective; the network-wide objective is the
mean of the local ones, optionally subject to a shared linear equality
constraint.  Three generator families are provided: least-squares
quadratics with a controlled aggregate condition number, binary logistic
regression, and l1-regularized least squares (basis pursuit) whose local
data matrices are rank deficient.

Reference solutions are computed centrally to high accuracy so that
distributed runs can report the relative error of every agent's iterate.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "LocalObjective",
    "SeparableProblem",
    "QpLocalData",
    "LogRegLocalData",
    "BasisPursuitLocalData",
    "FAMILIES",
    "qp_family",
    "logreg_family",
    "basis_pursuit_family",
    "solve_reference",
    "save_problem",
    "load_problem",
]


@dataclass(frozen=True)
class LocalObjective:
    """One agent's objective: value and gradient closures built from its
    family record (the one-agent case of the family's stacked kernels),
    and whether it is smooth.

    For nonsmooth objectives the gradient callable returns a subgradient
    and ``smooth`` is False; finite-difference checks then avoid kinks.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    smooth: bool = True


@dataclass
class SeparableProblem:
    """A mean-of-locals objective with an optional equality constraint.

    A problem is its family (``qp``, ``logreg`` or ``basis-pursuit``) and
    one record of that family per agent, ``local_data``.  ``gradients``,
    ``mean_gradient``, ``objective_value`` and ``objective_values``
    evaluate every agent at once from a stack of the records built at
    construction (for logistic regression and basis pursuit a ragged one:
    every agent needs at least one data row).  ``locals`` holds each
    agent's ``LocalObjective``, derived from its record; later edits to
    ``locals`` (wrapped closures included) do not reach those methods.
    """

    family: str
    local_data: list
    constraint: tuple[np.ndarray, np.ndarray] | None = None
    reference_solution: np.ndarray | None = None
    xi: float | None = None
    seed: int | None = None
    achieved_cond: float | None = None
    locals: list[LocalObjective] = field(init=False)

    def __post_init__(self) -> None:
        family = _family(self.family)
        if not self.local_data:
            raise ValueError("need at least one local objective")
        self.locals = [family.local(d) for d in self.local_data]
        dims = {loc.dim for loc in self.locals}
        if len(dims) != 1:
            raise ValueError("all local objectives must share one dimension")
        if self.constraint is not None:
            a, b = self.constraint
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            if a.ndim != 2 or a.shape[1] != self.dim or b.shape != (a.shape[0],):
                raise ValueError("constraint shapes do not match the problem")
            if a.shape[0] > self.dim:
                raise ValueError("more constraints than variables")
            if np.linalg.matrix_rank(a) < a.shape[0]:
                raise ValueError("constraint matrix must have full row rank")
            self.constraint = (a, b)
        self._stack = family.stack.of(self.local_data)

    @property
    def n_agents(self) -> int:
        return len(self.locals)

    @property
    def dim(self) -> int:
        return self.locals[0].dim

    def objective_value(self, x: np.ndarray) -> float:
        """Mean of the local objective values at x, summed in agent order."""
        return float(self.objective_values(np.asarray(x, dtype=float)[None])[0])

    def objective_values(self, points: np.ndarray) -> np.ndarray:
        """objective_value at every row of a stack of points (R, n), every
        (point, agent) pair evaluated in one stacked call."""
        values = self._stack.values(points).tolist()
        return np.array([sum(row) / self.n_agents for row in values], dtype=float)

    def gradients(self, x: np.ndarray) -> np.ndarray:
        """Every agent's local gradient at its own row of x (N, n), stacked."""
        return self._stack.gradients(x)

    def mean_gradient(self, x: np.ndarray) -> np.ndarray:
        """Mean of the local gradients at x, summed in agent order."""
        grads = self.gradients(np.broadcast_to(x, (self.n_agents, self.dim)))
        return np.add.reduce(grads, axis=0) / self.n_agents


# ---------------------------------------------------------------------------
# per-family local data


@dataclass(frozen=True)
class QpLocalData:
    """Quadratic local objective 0.5 x'Px + q'x with generator internals."""

    p: np.ndarray
    q: np.ndarray
    a: np.ndarray | None = None
    b: np.ndarray | None = None


@dataclass(frozen=True)
class LogRegLocalData:
    """Logistic samples plus this agent's share of the ridge weight."""

    features: np.ndarray
    labels: np.ndarray
    reg: float


@dataclass(frozen=True)
class BasisPursuitLocalData:
    """Rank-deficient least-squares block plus this agent's l1 weight."""

    a: np.ndarray
    b: np.ndarray
    l1: float


def _expit(t: np.ndarray) -> np.ndarray:
    # numerically stable logistic function
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


# Every generator family is written once, for stacks holding all agents'
# data: gradients at one point per agent, x (N, n) -> (N, n), and values
# at every row of a stack of points (R, n) -> (R, N).  Each agent's
# closures are the one-agent case of the same kernels, and every step is
# a stacked ``np.vecdot``, ``np.matvec`` or ``np.vecmat``, an elementwise
# op or a per-agent segment sum, so row i of a stacked call equals the
# call on agent i alone bit for bit, and each point's row equals the call
# on that point alone.


@dataclass(frozen=True)
class _QpStack:
    """The quadratics 0.5 x'P_i x + q_i'x: p (N, n, n) and q (N, n).  Their
    products equal the per-agent p @ x + q and 0.5 * x @ p @ x + q @ x bit
    for bit (a 2-D q @ x would not)."""

    p: np.ndarray
    q: np.ndarray

    @classmethod
    def of(cls, data: list) -> "_QpStack":
        return cls(np.stack([d.p for d in data]), np.stack([d.q for d in data]))

    def gradients(self, x: np.ndarray) -> np.ndarray:
        return np.matvec(self.p, x) + self.q

    def values(self, points: np.ndarray) -> np.ndarray:
        pts = points[:, None, :]
        return np.vecdot(np.vecmat(0.5 * pts, self.p), pts) + np.vecdot(pts, self.q)


@dataclass(frozen=True)
class _RowStack:
    """Ragged per-agent data: every agent's rows (M, n) and targets (M,)
    concatenated in agent order, a per-agent weight (N,), and the row
    counts and segment starts (N,) that split them.  A sum over an agent's
    rows is ``np.add.reduceat`` over its segment."""

    rows: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    counts: np.ndarray
    starts: np.ndarray

    @classmethod
    def build(cls, rows: list, targets: list, weights: list) -> "_RowStack":
        counts = np.array([len(r) for r in rows])
        if (counts == 0).any():
            # reduceat would give an empty segment its neighbor's row
            raise ValueError("every agent needs at least one data row")
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        return cls(
            np.concatenate(rows), np.concatenate(targets),
            np.array(weights, dtype=float), counts, starts,
        )

    def own_dots(self, x: np.ndarray) -> np.ndarray:
        """Each row's dot with its agent's row of x (N, n), shape (M,)."""
        return np.vecdot(self.rows, np.repeat(x, self.counts, axis=0))

    def row_sums(self, scale: np.ndarray) -> np.ndarray:
        """Every agent's sum of scale[j] * rows[j] over its rows, (N, n)."""
        return np.add.reduceat(self.rows * scale[:, None], self.starts, axis=0)

    def segment_sums(self, terms: np.ndarray) -> np.ndarray:
        """Every agent's sum of its terms (R, M) in each row, (R, N)."""
        return np.add.reduceat(terms, self.starts, axis=1)


class _LogRegStack(_RowStack):
    """Logistic losses: rows are features, targets labels, weights the
    ridge shares."""

    @classmethod
    def of(cls, data: list) -> "_LogRegStack":
        return cls.build(
            [d.features for d in data], [d.labels for d in data], [d.reg for d in data]
        )

    def gradients(self, x: np.ndarray) -> np.ndarray:
        z = self.targets * self.own_dots(x)
        return self.weights[:, None] * x - self.row_sums(self.targets * _expit(-z))

    def values(self, points: np.ndarray) -> np.ndarray:
        z = self.targets * np.vecdot(points[:, None, :], self.rows)
        ridge = (0.5 * self.weights) * np.vecdot(points, points)[:, None]
        return ridge + self.segment_sums(np.logaddexp(0.0, -z))


class _BpStack(_RowStack):
    """l1-regularized least squares: rows and targets are the blocks a_i
    and b_i, weights the l1 shares.  The gradient is a subgradient; sign(0)
    = 0 picks the zero element of the subdifferential."""

    @classmethod
    def of(cls, data: list) -> "_BpStack":
        return cls.build([d.a for d in data], [d.b for d in data], [d.l1 for d in data])

    def gradients(self, x: np.ndarray) -> np.ndarray:
        r = self.own_dots(x) - self.targets
        return self.row_sums(r) + self.weights[:, None] * np.sign(x)

    def values(self, points: np.ndarray) -> np.ndarray:
        r = np.vecdot(points[:, None, :], self.rows) - self.targets
        l1 = self.weights * np.add.reduce(np.abs(points), axis=1)[:, None]
        return 0.5 * self.segment_sums(r * r) + l1


def _one_agent(stack, dim: int, smooth: bool = True) -> LocalObjective:
    """One agent's closures: its stack of one, called on a single point."""

    def value(x: np.ndarray) -> float:
        return float(stack.values(x[None])[0, 0])

    def gradient(x: np.ndarray) -> np.ndarray:
        return stack.gradients(x[None])[0]

    return LocalObjective(dim=dim, value=value, gradient=gradient, smooth=smooth)


def _qp_local(data: QpLocalData) -> LocalObjective:
    return _one_agent(_QpStack(data.p[None], data.q[None]), data.q.size)


def _logreg_local(data: LogRegLocalData) -> LocalObjective:
    return _one_agent(_LogRegStack.of([data]), data.features.shape[1])


def _bp_local(data: BasisPursuitLocalData) -> LocalObjective:
    return _one_agent(_BpStack.of([data]), data.a.shape[1], smooth=False)


def _local_hessian(data: LogRegLocalData, x: np.ndarray) -> np.ndarray:
    """Exact local Hessian of a logistic-regression objective."""
    z = data.labels * (data.features @ x)
    sig = _expit(z)
    w = sig * (1.0 - sig)
    return data.reg * np.eye(x.size) + (data.features.T * w) @ data.features


# ---------------------------------------------------------------------------
# generators


def _draw_constraint(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Random equality constraint with orthonormal rows and a feasible rhs."""
    hi = max(2, dim // 4)
    m = int(rng.integers(2, hi + 1))
    raw = rng.standard_normal((m, dim))
    q_mat, _ = np.linalg.qr(raw.T)
    f = q_mat[:, :m].T
    x_feas = rng.standard_normal(dim)
    return f, f @ x_feas


def _resolve_constraint(constraint, rng: np.random.Generator, dim: int):
    if constraint is None or constraint is False:
        return None
    if constraint is True:
        return _draw_constraint(rng, dim)
    a, b = constraint
    return np.asarray(a, dtype=float), np.asarray(b, dtype=float)


def _conditioning_transform(
    p_total: np.ndarray, cond_range: tuple[float, float], rng: np.random.Generator
) -> np.ndarray:
    """Symmetric right factor M such that cond(M' P M) lands in cond_range.

    Raising the aggregate to a matrix power rescales its spectrum without
    touching the eigenbasis: cond(P^(1-eta)) = cond(P)^(1-eta), so the
    target is hit exactly (up to roundoff) by solving for the exponent.
    """
    lo, hi = cond_range
    if not 1.0 <= lo <= hi:
        raise ValueError("condition range must satisfy 1 <= lo <= hi")
    vals, vecs = np.linalg.eigh(p_total)
    lam_max = float(vals[-1])
    lam_min = float(vals[0])
    if lam_min <= 1e-12 * lam_max:
        raise ValueError("aggregate matrix is numerically singular; add more rows")
    target = lo * (hi / lo) ** rng.uniform() if hi > lo else float(lo)
    cond0 = lam_max / lam_min
    if abs(np.log(cond0)) < 1e-12:
        raise ValueError("aggregate spectrum is flat; cannot reshape conditioning")
    eta = 1.0 - np.log(target) / np.log(cond0)
    new_vals = vals ** (-eta / 2.0)
    return (vecs * new_vals) @ vecs.T


def qp_family(
    n_agents: int, dim: int, cond_range: tuple[float, float], seed: int
) -> SeparableProblem:
    """Random separable quadratics with a chosen aggregate conditioning.

    Each agent holds a short stack of Gaussian rows, so local curvature is
    rank deficient while the aggregate is positive definite.  The aggregate
    spectrum is reshaped so its condition number falls inside cond_range,
    and the whole family is rescaled so the mean objective has smoothness
    constant 1.

    Row counts per agent scale with the dimension (roughly dim/8 up to
    3 dim/4 rows), so local blocks stay far from full rank.
    """
    if dim < 2:
        raise ValueError("conditioning control needs dim >= 2")
    rng = np.random.default_rng(seed)
    m_lo = max(1, round(5 * dim / 40))
    m_hi = max(m_lo + 1, round(30 * dim / 40))
    if n_agents * (m_hi - 1) < dim + 2:
        raise ValueError(
            "too few agents to assemble a positive definite aggregate at this dimension"
        )
    while True:
        counts = rng.integers(m_lo, m_hi, size=n_agents)
        if counts.sum() >= dim + 2:
            break
    rows = [rng.standard_normal((int(m), dim)) for m in counts]
    rhs = [rng.standard_normal(int(m)) for m in counts]
    rows, root = _shape_rows(rows, n_agents, cond_range, rng)
    rhs = [root * b for b in rhs]

    data = []
    for a, b in zip(rows, rhs):
        p = a.T @ a
        data.append(QpLocalData(p=0.5 * (p + p.T), q=-(a.T @ b), a=a, b=b))
    achieved = _aggregate_cond([d.p for d in data], cond_range)
    return SeparableProblem("qp", data, seed=seed, achieved_cond=achieved)


def _gram_sum(rows: list[np.ndarray]) -> np.ndarray:
    return sum(a.T @ a for a in rows)


def _shape_rows(
    rows: list[np.ndarray],
    n_agents: int,
    cond_range: tuple[float, float] | None,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], float]:
    """Reshape the agents' row blocks a_i: condition the aggregate Gram
    matrix sum a_i'a_i into cond_range (when given), then rescale every
    block so that the mean of the a_i'a_i has largest eigenvalue 1.
    Returns the blocks and the factor the rescale multiplied them by."""
    if cond_range is not None:
        m_fac = _conditioning_transform(_gram_sum(rows), cond_range, rng)
        rows = [a @ m_fac for a in rows]
    root = np.sqrt(n_agents / float(np.linalg.eigvalsh(_gram_sum(rows))[-1]))
    return [root * a for a in rows], root


def _aggregate_cond(mats: list[np.ndarray], cond_range: tuple[float, float] | None) -> float:
    """Condition number of sum(mats), checked against the cond_range that
    conditioning control aimed at, when there is one."""
    vals = np.linalg.eigvalsh(sum(mats))
    achieved = float(vals[-1] / vals[0])
    if cond_range is not None:
        lo, hi = cond_range
        if not lo * (1 - 1e-6) <= achieved <= hi * (1 + 1e-6):
            raise RuntimeError(f"conditioning landed at {achieved}, outside [{lo}, {hi}]")
    return achieved


def logreg_family(
    n_agents: int,
    dim: int,
    xi: float,
    seed: int,
    constraint: bool | tuple[np.ndarray, np.ndarray] | None = None,
) -> SeparableProblem:
    """Binary logistic regression split across agents.

    Every agent gets 5 to 29 labeled Gaussian samples; labels come from a
    planted separator with noisy margins.  The ridge term xi/2 ||x||^2 is
    split evenly, xi/(2 n_agents) per agent, so the aggregate matches the
    single ridge-regularized objective.  Pass constraint=True to attach a
    random orthonormal equality constraint, or give (F, e) explicitly.
    """
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    rng = np.random.default_rng(seed)
    planted = rng.standard_normal(dim)
    data = []
    for _ in range(n_agents):
        m = int(rng.integers(5, 30))
        feats = rng.standard_normal((m, dim))
        margin = feats @ planted + 0.5 * rng.standard_normal(m)
        labels = np.where(margin >= 0, 1.0, -1.0)
        data.append(LogRegLocalData(features=feats, labels=labels, reg=xi / n_agents))
    cons = _resolve_constraint(constraint, rng, dim)
    return SeparableProblem("logreg", data, constraint=cons, xi=xi, seed=seed)


def basis_pursuit_family(
    n_agents: int,
    dim: int,
    xi: float,
    seed: int,
    constraint: bool | tuple[np.ndarray, np.ndarray] = True,
    cond_range: tuple[float, float] | None = None,
) -> SeparableProblem:
    """l1-regularized least squares under a shared equality constraint.

    Each agent's data matrix has fewer rows than columns, so no local
    objective identifies the solution on its own.  Measurements are noisy
    projections of one shared dense signal.  The constrained minimizer can
    still have coordinates exactly at zero, on the kink set of the l1 term:
    such zeros are generic for l1 problems (seed 2 at 10 agents, dim 20, xi
    2e-3 has one), and there the sign(0) = 0 subgradient can put a floor
    on the error a subgradient method attains.  The l1 weight xi is split
    evenly across agents.  The constraint is mandatory; pass
    True to draw one from the seed.  cond_range optionally reshapes the
    aggregate Gram matrix exactly as in the quadratic family.
    """
    if constraint is None or constraint is False:
        raise ValueError("basis pursuit requires an equality constraint")
    if xi < 0:
        raise ValueError("xi must be nonnegative")
    if cond_range is not None and dim < 2:
        raise ValueError("conditioning control needs dim >= 2")
    rng = np.random.default_rng(seed)
    p_lo = max(1, dim // 5)
    if n_agents * (dim - 1) < dim + 2:
        raise ValueError(
            "too few agents to assemble a positive definite aggregate at this dimension"
        )
    while True:
        counts = rng.integers(p_lo, dim, size=n_agents)
        if counts.sum() >= dim + 2:
            break
    rows, _ = _shape_rows(
        [rng.standard_normal((int(m), dim)) for m in counts], n_agents, cond_range, rng
    )

    signal = rng.standard_normal(dim)
    rhs = [a @ signal + 0.1 * rng.standard_normal(a.shape[0]) for a in rows]
    data = [
        BasisPursuitLocalData(a=a, b=b, l1=xi / n_agents) for a, b in zip(rows, rhs)
    ]
    for d in data:
        if np.linalg.matrix_rank(d.a) >= dim:
            raise RuntimeError("local block unexpectedly reached full rank")
    cons = _resolve_constraint(constraint, rng, dim)
    achieved = _aggregate_cond([d.a.T @ d.a for d in data], cond_range)
    return SeparableProblem(
        "basis-pursuit", data, constraint=cons, xi=xi, seed=seed, achieved_cond=achieved
    )


# ---------------------------------------------------------------------------
# reference solvers


class ReferenceSolveError(RuntimeError):
    """Raised when no solver can certify a reference solution."""


# the Newton solves stop once their stationarity residual is this small
REFERENCE_TOL = 1e-12


def solve_reference(problem: SeparableProblem) -> np.ndarray:
    """Compute and cache a centralized solution of the problem with its
    family's solver.

    Quadratics reduce to (KKT) linear solves.  Logistic regression uses
    damped Newton iterations on the stationarity conditions.  The
    l1-regularized family is solved by an operator-splitting pass that
    identifies the active sign pattern, followed by a linear polish step
    and an exact optimality certificate.
    """
    x = _FAMILIES[problem.family].solve(problem)
    problem.reference_solution = x
    return x


def _solve_qp(problem: SeparableProblem) -> np.ndarray:
    p = sum(d.p for d in problem.local_data)
    q = sum(d.q for d in problem.local_data)
    if problem.constraint is None:
        return np.linalg.solve(p, -q)
    return _equality_qp(p, q, *problem.constraint)


def _equality_qp(p, q, f, e):
    """Minimizer of 0.5 x'Px + q'x subject to Fx = e, from its KKT system."""
    m = f.shape[0]
    kkt = np.block([[p, f.T], [f, np.zeros((m, m))]])
    return np.linalg.solve(kkt, np.concatenate([-q, e]))[: q.size]


def _mean_hessian(problem: SeparableProblem, x: np.ndarray) -> np.ndarray:
    h = np.zeros((problem.dim, problem.dim))
    for d in problem.local_data:
        h += _local_hessian(d, x)
    return h / problem.n_agents


def _solve_smooth_newton(problem: SeparableProblem) -> np.ndarray:
    """Damped Newton on the (possibly constrained) stationarity system."""
    n, tol = problem.dim, REFERENCE_TOL
    if problem.constraint is None:
        x = np.zeros(n)
        for _ in range(200):
            g = problem.mean_gradient(x)
            if np.linalg.norm(g) <= tol:
                return x
            h = _mean_hessian(problem, x)
            step = np.linalg.solve(h, -g)
            t = 1.0
            base = problem.objective_value(x)
            # backtracking keeps the early (far from quadratic) phase stable
            while t > 1e-12 and problem.objective_value(x + t * step) > base + 1e-4 * t * (g @ step):
                t *= 0.5
            x = x + t * step
        if np.linalg.norm(problem.mean_gradient(x)) <= 10 * tol:
            return x
        raise ReferenceSolveError("Newton iteration failed to reach the tolerance")

    f, e = problem.constraint
    m = f.shape[0]
    x, *_ = np.linalg.lstsq(f, e, rcond=None)
    beta = np.zeros(m)

    def residual(xv, bv):
        return np.concatenate([problem.mean_gradient(xv) + f.T @ bv, f @ xv - e])

    for _ in range(200):
        r = residual(x, beta)
        if np.linalg.norm(r) <= tol:
            return x
        h = _mean_hessian(problem, x)
        kkt = np.block([[h, f.T], [f, np.zeros((m, m))]])
        delta = np.linalg.solve(kkt, -r)
        t = 1.0
        base = np.linalg.norm(r)
        while t > 1e-12 and np.linalg.norm(residual(x + t * delta[:n], beta + t * delta[n:])) > (1 - 1e-4 * t) * base:
            t *= 0.5
        x = x + t * delta[:n]
        beta = beta + t * delta[n:]
    if np.linalg.norm(residual(x, beta)) <= 10 * tol:
        return x
    raise ReferenceSolveError("constrained Newton failed to reach the tolerance")


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _solve_basis_pursuit(problem: SeparableProblem) -> np.ndarray:
    p = sum(d.a.T @ d.a for d in problem.local_data)
    q = -sum(d.a.T @ d.b for d in problem.local_data)
    xi_total = problem.n_agents * problem.local_data[0].l1
    f, e = problem.constraint
    if xi_total == 0.0:
        return _equality_qp(p, q, f, e)
    for iters in (2000, 20000, 100000):
        x = _bp_admm(p, q, xi_total, f, e, iters)
        polished = _bp_polish(p, q, xi_total, f, e, x)
        if polished is not None:
            return polished
    raise ReferenceSolveError("sign pattern of the l1 solution did not stabilize")


def _bp_admm(p, q, xi_total, f, e, iters):
    """Operator splitting on the constrained l1 problem; identifies signs."""
    n = q.size
    m = f.shape[0]
    rho = 1.0
    kkt = np.block([[p + rho * np.eye(n), f.T], [f, np.zeros((m, m))]])
    kkt_inv = np.linalg.inv(kkt)
    x, *_ = np.linalg.lstsq(f, e, rcond=None)
    z = x.copy()
    u = np.zeros(n)
    for it in range(iters):
        rhs = np.concatenate([rho * (z - u) - q, e])
        x = (kkt_inv @ rhs)[:n]
        z_new = _soft_threshold(x + u, xi_total / rho)
        u += x - z_new
        if it % 100 == 99:
            if max(np.linalg.norm(x - z_new), rho * np.linalg.norm(z_new - z)) < 1e-11:
                z = z_new
                break
        z = z_new
    return z


def _bp_polish(p, q, xi_total, f, e, x_rough):
    """Solve exactly on the detected support and certify optimality."""
    n = q.size
    m = f.shape[0]
    for _ in range(4):
        support = np.abs(x_rough) > 1e-9
        if support.sum() < m:
            return None
        signs = np.sign(x_rough[support])
        ps = p[np.ix_(support, support)]
        fs = f[:, support]
        kkt = np.block([[ps, fs.T], [fs, np.zeros((m, m))]])
        rhs = np.concatenate([-q[support] - xi_total * signs, e])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        x = np.zeros(n)
        x[support] = sol[: support.sum()]
        beta = sol[support.sum():]
        g = p @ x + q + f.T @ beta
        sign_consistent = np.all(np.sign(x[support]) == signs)
        stat_on = np.linalg.norm(g[support] + xi_total * signs) <= 1e-9 * (1 + np.linalg.norm(q))
        dual_off = np.all(np.abs(g[~support]) <= xi_total * (1 - 1e-9)) if (~support).any() else True
        feas = np.linalg.norm(f @ x - e) <= 1e-10 * (1 + np.linalg.norm(e))
        if sign_consistent and stat_on and dual_off and feas:
            return x
        x_rough = x
    return None


# ---------------------------------------------------------------------------
# the family table


class _Family(NamedTuple):
    record: type  # one agent's data, stored as one JSON object per agent
    stack: type  # every agent's data, evaluated at once
    local: Callable  # record -> that agent's LocalObjective
    solve: Callable  # problem -> reference solution


_FAMILIES = {
    "qp": _Family(QpLocalData, _QpStack, _qp_local, _solve_qp),
    "logreg": _Family(LogRegLocalData, _LogRegStack, _logreg_local, _solve_smooth_newton),
    "basis-pursuit": _Family(BasisPursuitLocalData, _BpStack, _bp_local, _solve_basis_pursuit),
}
FAMILIES = tuple(_FAMILIES)


def _family(name: str) -> _Family:
    if name not in _FAMILIES:
        raise ValueError(f"unknown problem family {name!r}")
    return _FAMILIES[name]


# ---------------------------------------------------------------------------
# serialization


def _encode(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def _decode(value, name: str):
    """A field read from a problem file: lists become float arrays, other
    values floats; None stays None.  A non-finite number is rejected."""
    if value is None:
        return None
    out = np.array(value, dtype=float) if isinstance(value, list) else float(value)
    if not np.isfinite(out).all():
        raise ValueError(f"field {name!r} holds a non-finite number")
    return out


def save_problem(problem: SeparableProblem, path: str | Path) -> None:
    payload = {
        "family": problem.family,
        "n_agents": problem.n_agents,
        "dim": problem.dim,
        "seed": problem.seed,
        "xi": problem.xi,
        "achieved_cond": problem.achieved_cond,
        "constraint": None
        if problem.constraint is None
        else {"a": _encode(problem.constraint[0]), "b": _encode(problem.constraint[1])},
        "reference_solution": _encode(problem.reference_solution),
        "locals": [
            {f.name: _encode(getattr(d, f.name)) for f in fields(d)} for d in problem.local_data
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_problem(path: str | Path) -> SeparableProblem:
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"problem file {path} does not hold a JSON object")
    try:
        family = payload["family"]
        record = _family(family).record
        # a field with a default may be absent from the file
        data = [
            record(**{
                f.name: _decode(
                    entry[f.name] if f.default is MISSING else entry.get(f.name, f.default), f.name
                )
                for f in fields(record)
            })
            for entry in payload["locals"]
        ]
        cons = payload.get("constraint")
        return SeparableProblem(
            family,
            data,
            constraint=None if cons is None else (
                _decode(cons["a"], "constraint a"), _decode(cons["b"], "constraint b")
            ),
            reference_solution=_decode(payload.get("reference_solution"), "reference_solution"),
            xi=payload.get("xi"),
            seed=payload.get("seed"),
            achieved_cond=payload.get("achieved_cond"),
        )
    except KeyError as exc:  # a field the file lacks
        raise ValueError(f"problem file {path} has no {exc} field") from exc
    except (TypeError, ValueError) as exc:  # a field of the wrong shape or value
        raise ValueError(f"problem file {path}: {exc}") from exc
