"""Per-agent oracle for the stacked kernels, written from the textbook.

One curvature pair, one estimate, one saddle-point system at a time, in
plain 2-D numpy and independent of ``dqn_mesh``: the BFGS and DFP updates
in inverse and direct form (Nocedal & Wright, *Numerical Optimization*,
section 6.1), the curvature test, the spectrum clamp and a saddle-point
solve by block elimination, given the Hessian estimate B or its inverse
H.  The stacked code in ``dqn_mesh`` carries inverse estimates and must
reproduce the inverse forms bit for bit; the direct forms, and the
product forms of two updates, are kept as cross-checks to rounding.  At
the end, the paper's fixed-step bound with the contraction factor and
smoothness bounds it reads, one agent's exact logistic Hessian, and the
report text a trace's writers must produce byte for byte, formatted
whole in memory.
"""

import math

import numpy as np

CURVATURE_RTOL = 1e-10


class CurvatureError(ValueError):
    """A pair fails the curvature condition or an update's denominator is
    not positive; callers keep the previous estimate."""


class KktError(RuntimeError):
    """A saddle-point system could not be solved; the message names why."""


def curvature_ok(s, y, rtol=CURVATURE_RTOL):
    """True when y's is strictly positive and safely so relative to |y||s|."""
    ys = float(y @ s)
    return ys > 0.0 and bool(ys >= rtol * np.linalg.norm(y) * np.linalg.norm(s))


def _require_curvature(s, y):
    if not curvature_ok(s, y):
        raise CurvatureError(f"y's = {float(y @ s):.3e} fails the curvature condition")
    return float(y @ s)


def _sym(m):
    return 0.5 * (m + m.T)


# The four updates in expanded form (Nocedal & Wright, section 6.1): the
# BFGS inverse and the DFP direct update as M + (Q + Q'), the other two as
# a rank-two correction.  Each entry is computed from the same operands as
# its mirror entry, so a symmetric estimate stays exactly symmetric.


def bfgs_inverse_update(c, s, y):
    """C' = C + (Q + Q') with Q = sa', a = ((1 + y'Cy/r)/2 s - Cy)/r and
    r = y's: the product form below, multiplied out."""
    rho = _require_curvature(s, y)
    cy = c @ y
    a = (0.5 * (1.0 + float(y @ cy) / rho) * s - cy) / rho
    half = np.outer(s, a)
    return c + (half + half.T)


def dfp_inverse_update(c, s, y):
    """C' = C - Cyy'C/(y'Cy) + ss'/(y's)."""
    rho = _require_curvature(s, y)
    cy = c @ y
    denom = float(y @ cy)
    if denom <= 0:
        raise CurvatureError("y'Cy is not positive; estimate lost definiteness")
    return c - np.outer(cy, cy) / denom + np.outer(s, s) / rho


def bfgs_hessian_update(b, s, y):
    """B' = B - Bss'B/(s'Bs) + yy'/(y's)."""
    rho = _require_curvature(s, y)
    bs = b @ s
    denom = float(s @ bs)
    if denom <= 0:
        raise CurvatureError("s'Bs is not positive; estimate lost definiteness")
    return b - np.outer(bs, bs) / denom + np.outer(y, y) / rho


def dfp_hessian_update(b, s, y):
    """B' = B + (Q + Q') with Q = ya', a = ((1 + s'Bs/r)/2 y - Bs)/r and
    r = y's: the product form below, multiplied out."""
    rho = _require_curvature(s, y)
    bs = b @ s
    a = (0.5 * (1.0 + float(s @ bs) / rho) * y - bs) / rho
    half = np.outer(y, a)
    return b + (half + half.T)


INVERSE = {"bfgs": bfgs_inverse_update, "dfp": dfp_inverse_update}
DIRECT = {"bfgs": bfgs_hessian_update, "dfp": dfp_hessian_update}


# The product forms of the BFGS inverse and the DFP direct update, an
# independent cross-check of the expanded ones: they agree to rounding
# (PRODUCT_RTOL of the result's largest entry), not bit for bit, and cost
# two n x n matrix products each.

PRODUCT_RTOL = 1e-13


def bfgs_inverse_product(c, s, y):
    """C' = (I - sy'/r) C (I - ys'/r) + ss'/r with r = y's."""
    rho = _require_curvature(s, y)
    a = np.eye(s.size) - np.outer(s, y) / rho
    return a @ c @ a.T + np.outer(s, s) / rho


def dfp_hessian_product(b, s, y):
    """B' = (I - ys'/r) B (I - sy'/r) + yy'/r with r = y's."""
    rho = _require_curvature(s, y)
    a = np.eye(s.size) - np.outer(y, s) / rho
    return a @ b @ a.T + np.outer(y, y) / rho


def spectrum_clamp(matrix, floor, ceiling=None):
    """One symmetric matrix with its eigenvalues clipped into [floor, ceiling]."""
    vals, vecs = np.linalg.eigh(_sym(matrix))
    return _sym((vecs * np.clip(vals, floor, ceiling)) @ vecs.T)


def reference_kkt_solve(b_mat, a_mat, rhs_stat, rhs_prim):
    """One saddle-point system [[B, A'], [A, 0]] [dx; beta] = -[r_stat;
    r_prim] by block elimination (Boyd & Vandenberghe, *Convex
    Optimization*, section 10.4), written for a single agent: a Cholesky
    factorization tests that B is positive definite, one LU solve gives
    B^-1 [u | A'], a Cholesky factorization of the symmetric part of the
    Schur complement S = A B^-1 A' tests its rank, one LU solve of S gives
    the multipliers, then the residual check."""
    u = -rhs_stat
    w = -rhs_prim
    try:
        np.linalg.cholesky(b_mat)
    except np.linalg.LinAlgError as exc:
        raise KktError("hessian block is not positive definite") from exc
    binv = np.linalg.solve(b_mat, np.column_stack([u, a_mat.T]))
    binv_u, binv_at = binv[:, 0], binv[:, 1:]
    schur = a_mat @ binv_at
    try:
        np.linalg.cholesky(0.5 * (schur + schur.T))
    except np.linalg.LinAlgError as exc:
        raise KktError("constraint block is rank deficient") from exc
    beta = np.linalg.solve(schur, a_mat @ binv_u - w)
    delta_x = binv_u - binv_at @ beta

    scale = 1.0 + float(np.linalg.norm(np.concatenate([u, w])))
    res_stat = b_mat @ delta_x + a_mat.T @ beta - u
    res_prim = a_mat @ delta_x - w
    if not np.linalg.norm(np.concatenate([res_stat, res_prim])) <= 1e-10 * scale:
        raise KktError("saddle-point solve residual too large")
    return delta_x, beta


def reference_kkt_solve_inverse(h_mat, a_mat, rhs_stat, rhs_prim):
    """The same system given by the inverse estimate H = B^-1, [[H^-1,
    A'], [A, 0]] [dx; beta] = -[r_stat; r_prim], by block elimination in
    inverse form, written for a single agent: one product gives
    H [u | A'], a Cholesky factorization of the symmetric part of the
    Schur complement S = A H A' tests its rank, one LU solve of S (which
    may still find S exactly singular) gives the multipliers
    beta = S^-1 (A H u - w), dx = H u - H A' beta, then the residual check
    on [S beta - (A H u - w); A dx - w] against 1e-10 (1 + |[u; w]|).  No
    n x n matrix is factorized."""
    u = -rhs_stat
    w = -rhs_prim
    h_rhs = h_mat @ np.column_stack([u, a_mat.T])
    h_u, h_at = h_rhs[:, 0], h_rhs[:, 1:]
    schur = a_mat @ h_at
    schur_rhs = a_mat @ h_u - w
    try:
        np.linalg.cholesky(0.5 * (schur + schur.T))
        beta = np.linalg.solve(schur, schur_rhs)
    except np.linalg.LinAlgError as exc:
        raise KktError("constraint block A H A' is not positive definite") from exc
    delta_x = h_u - h_at @ beta

    scale = 1.0 + float(np.linalg.norm(np.concatenate([u, w])))
    res = np.concatenate([schur @ beta - schur_rhs, a_mat @ delta_x - w])
    if not np.linalg.norm(res) <= 1e-10 * scale:
        raise KktError("saddle-point solve residual too large")
    return delta_x, beta


# Two inverse estimates on which a saddle-point solve fails, for a
# constraint block A with orthonormal rows.


def reflection(a_row):
    """The symmetric indefinite I - 2 pp' with p = a_row / |a_row|: its
    Schur block a_row H a_row' is -|a_row|^2, so it has no Cholesky factor."""
    p = a_row / np.linalg.norm(a_row)
    return np.eye(p.size) - 2.0 * np.outer(p, p)


def ill_conditioned_schur(a):
    """A positive definite H whose Schur block S = A H A' has its smallest
    eigenvalue near 1e-14: the identity with almost all of its curvature
    along a mix of A's first two rows removed.  S passes its Cholesky
    test, but the solve with S fails the residual check."""
    p = (a[0] + a[1]) / np.sqrt(2.0)
    h = np.eye(a.shape[1]) - (1.0 - 1e-14) * np.outer(p, p)
    return 0.5 * (h + h.T)


# The paper's fixed-step bound and what it reads: the contraction factor of
# the mixing matrix and the smoothness of the mean objective, the mean of
# the agents' one-agent bounds.  No solver computes these; the tests use
# them to pick a step the convergence theorem covers.


def spectral_contraction(w):
    """Largest singular value of ``w`` minus the uniform averaging matrix."""
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    dev = w - np.full((n, n), 1.0 / n)
    return float(np.linalg.svd(dev, compute_uv=False)[0])


def safe_step_size(contraction, smoothness, gamma, dim, n_agents):
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


def smoothness_bound(family, record):
    """One agent's smoothness bound from its family record: the largest
    eigenvalue of P (quadratics), the ridge share plus a quarter of the
    largest eigenvalue of F'F (logistic regression), or the largest
    eigenvalue of A'A, the bound of the smooth part (basis pursuit)."""
    if family == "qp":
        return float(np.linalg.eigvalsh(record.p)[-1])
    if family == "logreg":
        feats = record.features
        return record.reg + 0.25 * float(np.linalg.eigvalsh(feats.T @ feats)[-1])
    return float(np.linalg.eigvalsh(record.a.T @ record.a)[-1])


def mean_smoothness(problem):
    """Smoothness bound of the mean objective: the mean one-agent bound."""
    return float(np.mean([smoothness_bound(problem.family, d) for d in problem.local_data]))


# One agent's exact logistic Hessian, the reference for the stacked sum
# the logistic reference solve builds over every agent's rows at once.


def logistic_hessian(record, x):
    """reg I + F' diag(w) F at x from one agent's features F, labels y and
    ridge share reg, with w = s(1 - s) = e / (1 + e)^2, e = exp(-|y Fx|),
    the logistic function's derivative at the margins written without
    overflow."""
    e = np.exp(-np.abs(record.labels * (record.features @ x)))
    w = e / (1.0 + e) ** 2
    return record.reg * np.eye(x.size) + (record.features.T * w) @ record.features


# The report text, formatted whole in memory from a trace's arrays: one row
# per (round, agent), the integer columns as ints and every float as its
# repr.  The writers in dqn_mesh stream the same bytes a block at a time.

TRACE_COLUMNS = (
    "round,agent,rse,x_consensus_err,v_consensus_err,mean_grad_norm,objective,bytes_sent"
)


def trace_csv_text(trace):
    """The text of ``trace.to_csv``: the pinned columns, plus feasibility
    and beta_norm when the trace has them."""
    extra = trace.feasibility is not None
    lines = [TRACE_COLUMNS + (",feasibility,beta_norm" if extra else "")]
    for k in range(trace.rounds + 1):
        shared = ",".join(repr(float(col[k])) for col in (
            trace.x_consensus, trace.v_consensus, trace.mean_grad_norm, trace.objective
        ))
        for i in range(trace.n_agents):
            row = f"{k},{i},{float(trace.rse[k, i])!r},{shared},{int(trace.bytes_sent[k, i])}"
            if extra:
                row += f",{float(trace.feasibility[k, i])!r},{float(trace.beta_norm[k, i])!r}"
            lines.append(row)
    return "\n".join(lines) + "\n"


def long_csv_text(traces):
    """The text of a sweep report's long.csv from its {(algo, kappa, seed):
    trace} dict: every trace's rse cells, in sorted key order."""
    lines = ["algo,kappa,seed,round,agent,rse"]
    for (algo, kappa, seed), trace in sorted(traces.items()):
        for k in range(trace.rounds + 1):
            lines.extend(f"{algo},{kappa},{seed},{k},{i},{float(trace.rse[k, i])!r}"
                         for i in range(trace.n_agents))
    return "\n".join(lines) + "\n"
