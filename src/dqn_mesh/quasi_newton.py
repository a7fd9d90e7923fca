"""Curvature-pair updates for stacked inverse-Hessian estimates.

Both update families, BFGS and DFP, come in their inverse form: the
estimate is of the inverse Hessian, which both solvers carry (the
constrained one solves its saddle-point systems with it by block
elimination).  Every accepted update preserves symmetry and positive
definiteness and satisfies the secant equation C'y = s for its pair.

Every kernel here is written once, for stacks: the curvature test, two
O(n^2) update kernels (Nocedal & Wright, *Numerical Optimization*,
section 6.1), the Cholesky probe and the spectrum clamp.  The solvers
refresh every agent's estimate at once through ``refresh_inverse_batch``,
the one refresh path.  Row i of every result equals the same call
on row i alone, and the same update written for one pair, bit for bit:
every dot product and norm is an ``np.vecdot`` and every matrix-vector
product an ``np.matvec``, which reduce in the same order as the per-pair
``y @ s`` and ``m @ q`` on C-contiguous stacks.  The curvature threshold
CURVATURE_RTOL and the DQN eigenvalue floor DEFAULT_FLOOR are module
constants; the spectrum box of a refresh is passed by its solver.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "curvature_ok",
    "cholesky_ok",
    "pd_safeguard",
    "BatchRefresh",
    "refresh_inverse_batch",
]

# pairs with y's <= 0 carry no usable curvature information; anything below
# this relative threshold is skipped rather than risking a blow-up
CURVATURE_RTOL = 1e-10

DEFAULT_FLOOR = 1e-8

_FLOAT_MAX = np.finfo(float).max
_NO_ROWS = np.empty(0, dtype=np.intp)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def curvature_ok(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of the pairs (s[i], y[i]) whose y's is strictly positive and
    at least CURVATURE_RTOL * |y||s|.

    The strict test matters for zero pairs (s = 0 or y = 0), where the
    relative bound is itself zero and an update would divide by y's = 0.
    """
    return _curvature_mask(np.vecdot(y, s), s, y)


def _curvature_mask(ys, s, y):
    """``curvature_ok`` given the pairs' y's."""
    bound = CURVATURE_RTOL * np.sqrt(np.vecdot(y, y)) * np.sqrt(np.vecdot(s, s))
    return (ys > 0.0) & (ys >= bound)


def cholesky_ok(m: np.ndarray) -> np.ndarray:
    """Mask of the rows of a stack m (N, n, n) that have a Cholesky factor.

    One batched call; only when it fails are the rows factorized one at a
    time, to find the failing ones.
    """
    ok = np.ones(len(m), dtype=bool)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        for i in range(len(m)):
            try:
                np.linalg.cholesky(m[i])
            except np.linalg.LinAlgError:
                ok[i] = False
    return ok


# Both kernels take m (N, n, n), p and q (N, n) and r = q'p (N,), and return
# the new estimates and, where the update has a second denominator, a mask
# of the rows where it was not found non-positive (None otherwise).  Each
# entry is computed from the same operands as its mirror entry, so a
# symmetric m gives an exactly symmetric result.  Each allocates two
# (N, n, n) arrays and works in place otherwise: a fresh array of that
# size can cost more than a pass over it.


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, :, None] * b[:, None, :]


def _product_rows(m, p, q, r):
    """M' = (I - pq'/r) M (I - qp'/r) + pp'/r, expanded: with w = Mq,
    M' = M + (Q + Q') where Q = pa' and a = ((1 + q'w/r)/2 p - w)/r.

    The BFGS inverse update as (C, s, y)."""
    w = np.matvec(m, q)
    k = 1.0 + np.vecdot(q, w) / r
    a = (0.5 * k[:, None] * p - w) / r[:, None]
    half = _outer(p, a)
    new = half + half.transpose(0, 2, 1)
    new += m
    return new, None


def _rank_two_rows(m, p, q, r):
    """M' = M - ww'/(q'w) + pp'/r with w = Mq.

    The DFP inverse update as (C, s, y)."""
    w = np.matvec(m, q)
    denom = np.vecdot(q, w)
    new = _outer(w, w)
    new /= denom[:, None, None]
    np.subtract(m, new, out=new)
    add = _outer(p, p)
    add /= r[:, None, None]
    new += add
    return new, ~(denom <= 0)


def pd_safeguard(matrix: np.ndarray, floor: float = DEFAULT_FLOOR, ceiling: float | None = None) -> np.ndarray:
    """Clamp the spectrum of each symmetric matrix of a stack (..., n, n)
    into [floor, ceiling].

    Full eigendecomposition; intended as the fallback when a cheap
    definiteness check fails, not as a per-iteration hot path.  Raises
    ValueError when any matrix is not symmetric.  Each matrix's result
    equals the call on that matrix alone.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    axes = (-2, -1)
    scale = np.maximum(1.0, np.max(np.abs(matrix), axis=axes))
    if np.any(np.max(np.abs(matrix - np.swapaxes(matrix, -1, -2)), axis=axes) > 1e-8 * scale):
        raise ValueError("matrix is not symmetric")
    if ceiling is not None and ceiling < floor:
        raise ValueError("ceiling below floor")
    vals, vecs = np.linalg.eigh(_sym(matrix))
    vals = np.clip(vals, floor, ceiling)
    return _sym((vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2))


# ---------------------------------------------------------------------------
# stacked refresh: one call updates every agent's estimate

# scheme -> kernel, which takes the pair as (p, q) = (s, y)
_INVERSE_ROWS = {"bfgs": _product_rows, "dfp": _rank_two_rows}


class BatchRefresh(NamedTuple):
    """Refreshed (N, n, n) estimates plus the number of pairs left
    unapplied and of estimates whose spectrum was repaired."""

    estimates: np.ndarray
    skipped: int
    repaired: int


def _apply_pairs(m, s, y, rows_update):
    """Masked rank-two update; returns (estimates, number applied).

    A pair is applied only where ``curvature_ok`` passes and the update's
    own denominator is not found non-positive (a NaN denominator applies).
    Every row is updated and the rows not applied are copied back, which
    allocates less than updating a selection.  The result never aliases
    ``m``.
    """
    ys = np.vecdot(y, s)
    ok = _curvature_mask(ys, s, y)
    if not np.count_nonzero(ok):
        return m.copy(), 0
    new, valid = rows_update(m, s, y, ys)
    if valid is not None:
        ok &= valid
    applied = int(np.count_nonzero(ok))
    if applied < len(m):
        new[~ok] = m[~ok]
    return new, applied


def _repair_rows(m: np.ndarray, ceiling: float) -> np.ndarray:
    """Indices of the estimates that are non-finite, above the Frobenius
    ceiling, or fail a Cholesky probe; no index array is built when none
    is.  One norm test does the first two: a non-finite entry makes the
    norm fail ``norm <= limit`` for any finite limit (a norm that
    overflows counts as non-finite)."""
    n_rows, n = m.shape[0], m.shape[1]
    flat = m.reshape(n_rows, n * n)
    fine = np.sqrt(np.vecdot(flat, flat)) <= min(ceiling, _FLOAT_MAX)
    clear = np.count_nonzero(fine) == n_rows
    probe = m if clear else m[fine]
    try:
        np.linalg.cholesky(probe)
    except np.linalg.LinAlgError:
        fine[np.flatnonzero(fine)] = cholesky_ok(probe)
        clear = False
    return _NO_ROWS if clear else np.flatnonzero(~fine)


def refresh_inverse_batch(
    c: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    scheme: str,
    floor: float,
    gamma: float,
    safeguard: Callable[..., np.ndarray] = pd_safeguard,
) -> BatchRefresh:
    """Refresh stacked inverse-Hessian estimates c (N, n, n) with the
    pairs (s[i], y[i]) by the BFGS or DFP inverse update.

    Pairs failing ``curvature_ok`` are skipped, and so is a DFP pair whose
    y'Cy is not positive.  Every refreshed estimate is then tested: it is
    flagged when it is non-finite, when its Frobenius norm exceeds gamma,
    or when it has no Cholesky factor.  The flagged estimates (their
    non-finite entries zeroed) have their spectrum clamped into
    [floor, gamma] by one ``safeguard`` call on their stack.  So every
    estimate returned is positive definite with its largest eigenvalue at
    most gamma; a flagged one may already have had its spectrum inside the
    box, since the Frobenius norm can exceed the largest eigenvalue.  The
    solvers pass their own module-level ``pd_safeguard`` name so that a
    wrapper installed on it sees each batch of repairs.
    """
    # a row may divide by zero or overflow: it is then restored or repaired
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out, applied = _apply_pairs(c, s, y, _INVERSE_ROWS[scheme])
        bad = _repair_rows(out, gamma)
    if bad.size:
        flagged = out[bad]
        out[bad] = safeguard(np.where(np.isfinite(flagged), flagged, 0.0), floor=floor, ceiling=gamma)
    return BatchRefresh(out, len(c) - applied, bad.size)
