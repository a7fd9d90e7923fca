"""Per-agent oracle for the stacked kernels, written from the textbook.

One curvature pair, one estimate, one saddle-point system at a time, in
plain 2-D numpy and independent of ``dqn_mesh``: the BFGS and DFP updates
in inverse and direct form (Nocedal & Wright, *Numerical Optimization*,
section 6.1), the curvature test, the spectrum clamp and a saddle-point
solve by block elimination.  The stacked code in ``dqn_mesh`` must
reproduce these bit for bit; the product forms of two updates are kept
as a cross-check to rounding.
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
