"""Per-agent oracle for the stacked kernels, written from the textbook.

One curvature pair, one estimate, one saddle-point system at a time, in
plain 2-D numpy and independent of ``dqn_mesh``: the BFGS and DFP updates
in inverse and direct form (Nocedal & Wright, *Numerical Optimization*,
section 6.1), the curvature test, the spectrum clamp and a saddle-point
solve by block elimination.  The stacked code in ``dqn_mesh`` must
reproduce these bit for bit.
"""

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


def bfgs_inverse_update(c, s, y):
    """C' = (I - sy'/r) C (I - ys'/r) + ss'/r with r = y's."""
    rho = _require_curvature(s, y)
    a = np.eye(s.size) - np.outer(s, y) / rho
    return _sym(a @ c @ a.T + np.outer(s, s) / rho)


def dfp_inverse_update(c, s, y):
    """C' = C - Cyy'C/(y'Cy) + ss'/(y's)."""
    rho = _require_curvature(s, y)
    cy = c @ y
    denom = float(y @ cy)
    if denom <= 0:
        raise CurvatureError("y'Cy is not positive; estimate lost definiteness")
    return _sym(c - np.outer(cy, cy) / denom + np.outer(s, s) / rho)


def bfgs_hessian_update(b, s, y):
    """B' = B - Bss'B/(s'Bs) + yy'/(y's)."""
    rho = _require_curvature(s, y)
    bs = b @ s
    denom = float(s @ bs)
    if denom <= 0:
        raise CurvatureError("s'Bs is not positive; estimate lost definiteness")
    return _sym(b - np.outer(bs, bs) / denom + np.outer(y, y) / rho)


def dfp_hessian_update(b, s, y):
    """B' = (I - ys'/r) B (I - sy'/r) + yy'/r with r = y's."""
    rho = _require_curvature(s, y)
    a = np.eye(s.size) - np.outer(y, s) / rho
    return _sym(a @ b @ a.T + np.outer(y, y) / rho)


INVERSE = {"bfgs": bfgs_inverse_update, "dfp": dfp_inverse_update}
DIRECT = {"bfgs": bfgs_hessian_update, "dfp": dfp_hessian_update}


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
    if np.linalg.norm(np.concatenate([res_stat, res_prim])) > 1e-10 * scale:
        raise KktError("saddle-point solve residual too large")
    return delta_x, beta
