"""Curvature-pair updates for stacked Hessian and inverse-Hessian estimates.

Both update families come in an inverse form (estimate of the inverse
Hessian, used by the unconstrained method) and a direct form (estimate of
the Hessian itself, used inside saddle-point solves).  Every accepted
update preserves symmetry and positive definiteness and satisfies the
secant equation for its pair.

Every kernel here is written once, for stacks: the curvature test, two
dual O(n^2) update kernels (Nocedal & Wright, *Numerical Optimization*,
section 6.1), the Cholesky probe and the spectrum clamp.  The solvers
refresh every agent's estimate at once through ``refresh_inverse_batch``
and ``refresh_hessian_batch``.  Row i of every result equals the same call
on row i alone, and the same update written for one pair, bit for bit:
every dot product and norm is an ``np.vecdot`` and every matrix-vector
product an ``np.matvec``, which reduce in the same order as the per-pair
``y @ s`` and ``m @ q`` on C-contiguous stacks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "curvature_ok",
    "cholesky_ok",
    "pd_safeguard",
    "BatchRefresh",
    "refresh_inverse_batch",
    "refresh_hessian_batch",
]

# pairs with y's <= 0 carry no usable curvature information; anything below
# this relative threshold is skipped rather than risking a blow-up
CURVATURE_RTOL = 1e-10

DEFAULT_FLOOR = 1e-8

_FLOAT_MAX = np.finfo(float).max
_NO_ROWS = np.empty(0, dtype=np.intp)


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def curvature_ok(s: np.ndarray, y: np.ndarray, rtol: float = CURVATURE_RTOL) -> np.ndarray:
    """Mask of the pairs (s[i], y[i]) whose y's is strictly positive and
    safely so relative to |y||s|.

    The strict test matters for zero pairs (s = 0 or y = 0), where the
    relative bound is itself zero and an update would divide by y's = 0.
    """
    return _curvature_mask(np.vecdot(y, s), s, y, rtol)


def _curvature_mask(ys, s, y, rtol=CURVATURE_RTOL):
    """``curvature_ok`` given the pairs' y's."""
    return (ys > 0.0) & (ys >= rtol * np.sqrt(np.vecdot(y, y)) * np.sqrt(np.vecdot(s, s)))


@lru_cache(maxsize=8)
def _eye(n: int) -> np.ndarray:
    """The n x n identity, shared and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


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

    BFGS inverse as (C, s, y), DFP direct as (B, y, s)."""
    w = np.matvec(m, q)
    k = 1.0 + np.vecdot(q, w) / r
    a = (0.5 * k[:, None] * p - w) / r[:, None]
    half = _outer(p, a)
    new = half + half.transpose(0, 2, 1)
    new += m
    return new, None


def _rank_two_rows(m, p, q, r):
    """M' = M - ww'/(q'w) + pp'/r with w = Mq.

    DFP inverse as (C, s, y), BFGS direct as (B, y, s)."""
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

# scheme -> kernel; the inverse forms take the pair as (p, q) = (s, y) and
# the direct forms, their duals, as (y, s)
_INVERSE_ROWS = {"bfgs": _product_rows, "dfp": _rank_two_rows}
_HESSIAN_ROWS = {"bfgs": _rank_two_rows, "dfp": _product_rows}


class BatchRefresh(NamedTuple):
    """Refreshed (N, n, n) estimates plus the number of pairs left
    unapplied and of estimates whose spectrum was repaired."""

    estimates: np.ndarray
    skipped: int
    repaired: int


def _apply_pairs(m, s, y, rows_update, direct):
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
    new, valid = rows_update(m, *((y, s) if direct else (s, y)), ys)
    if valid is not None:
        ok &= valid
    applied = int(np.count_nonzero(ok))
    if applied < len(m):
        new[~ok] = m[~ok]
    return new, applied


def _repair_rows(m: np.ndarray, ceiling: float, shift: float) -> np.ndarray:
    """Indices of the estimates that are non-finite, above the Frobenius
    ceiling, or fail a Cholesky probe of ``m - shift * I``; no index array
    is built when none is.  One norm test does the first two: a non-finite
    entry makes the norm fail ``norm <= limit`` for any finite limit (a
    norm that overflows counts as non-finite)."""
    n_rows, n = m.shape[0], m.shape[1]
    flat = m.reshape(n_rows, n * n)
    fine = np.sqrt(np.vecdot(flat, flat)) <= min(ceiling, _FLOAT_MAX)
    clear = np.count_nonzero(fine) == n_rows
    probe = m if clear else m[fine]
    if shift:
        probe = probe - shift * _eye(n)
    try:
        np.linalg.cholesky(probe)
    except np.linalg.LinAlgError:
        fine[np.flatnonzero(fine)] = cholesky_ok(probe)
        clear = False
    return _NO_ROWS if clear else np.flatnonzero(~fine)


def _refresh_batch(m, s, y, rows_update, direct, floor, ceiling, shift, safeguard):
    # a row may divide by zero or overflow: it is then restored or repaired
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out, applied = _apply_pairs(m, s, y, rows_update, direct)
        bad = _repair_rows(out, ceiling, shift)
    if bad.size:
        flagged = out[bad]
        out[bad] = safeguard(np.where(np.isfinite(flagged), flagged, 0.0), floor=floor, ceiling=ceiling)
    return BatchRefresh(out, len(m) - applied, bad.size)


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
    y'Cy is not positive.  The estimates that are then non-finite, have
    Frobenius norm above gamma, or fail a Cholesky probe are clamped into
    [floor, gamma] by one ``safeguard`` call on their stack; the solvers
    pass their own module-level ``pd_safeguard`` name so that a wrapper
    installed on it sees each batch of repairs.
    """
    return _refresh_batch(c, s, y, _INVERSE_ROWS[scheme], False, floor, gamma, 0.0, safeguard)


def refresh_hessian_batch(
    b: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    scheme: str,
    floor: float,
    ceiling: float,
    safeguard: Callable[..., np.ndarray] = pd_safeguard,
) -> BatchRefresh:
    """Refresh stacked direct Hessian estimates b (N, n, n) by the BFGS
    or DFP direct update (a BFGS pair with s'Bs not positive is skipped).

    As ``refresh_inverse_batch``, but the probe is shifted by half the
    floor, so estimates clamped exactly at the floor pass untouched, and
    the spectrum box is [floor, ceiling].
    """
    return _refresh_batch(
        b, s, y, _HESSIAN_ROWS[scheme], True, floor, ceiling, 0.5 * floor, safeguard
    )
