"""Curvature-pair updates for Hessian and inverse-Hessian estimates.

Both update families come in an inverse form (estimate of the inverse
Hessian, used by the unconstrained method) and a direct form (estimate of
the Hessian itself, used inside saddle-point solves).  Every accepted
update preserves symmetry and positive definiteness and satisfies the
secant equation for its pair.

Each update formula is written once, for stacks of estimates.  The
per-pair functions apply it to one agent; the solvers refresh every agent
at once through ``refresh_inverse_batch`` and ``refresh_hessian_batch``,
which reproduce the per-pair results bit for bit: every dot product and
norm that feeds a decision is a stacked ``matmul``, which reduces in the
same order as the per-pair ``y @ s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CurvaturePair",
    "InverseHessianEstimate",
    "HessianEstimate",
    "CurvatureError",
    "curvature_ok",
    "bfgs_inverse_update",
    "dfp_inverse_update",
    "bfgs_hessian_update",
    "dfp_hessian_update",
    "pd_safeguard",
    "row_dots",
    "BatchRefresh",
    "refresh_inverse_batch",
    "refresh_hessian_batch",
]

# pairs with y's <= 0 carry no usable curvature information; anything below
# this relative threshold is skipped rather than risking a blow-up
CURVATURE_RTOL = 1e-10

DEFAULT_GAMMA = 1e3
DEFAULT_FLOOR = 1e-8


class CurvatureError(ValueError):
    """Raised when a pair fails the curvature condition; callers keep the
    previous estimate."""


@dataclass(frozen=True)
class CurvaturePair:
    """Step difference s and gradient (or tracker) difference y."""

    s: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if s.shape != y.shape or s.ndim != 1:
            raise ValueError("s and y must be vectors of equal length")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class InverseHessianEstimate:
    """Symmetric positive definite estimate of an inverse Hessian.

    gamma is the eigenvalue ceiling enforced by the safeguard; it also
    bounds the step energy a single agent can inject per round.
    """

    c: np.ndarray
    gamma: float = DEFAULT_GAMMA


@dataclass(frozen=True)
class HessianEstimate:
    """Symmetric positive definite estimate of a Hessian."""

    b: np.ndarray


def curvature_ok(pair: CurvaturePair, rtol: float = CURVATURE_RTOL) -> bool:
    """True when y's is strictly positive and safely so relative to |y||s|.

    The strict test matters for zero pairs (s = 0 or y = 0), where the
    relative bound is itself zero and an update would divide by y's = 0.
    """
    ys = float(pair.y @ pair.s)
    return ys > 0.0 and bool(ys >= rtol * np.linalg.norm(pair.y) * np.linalg.norm(pair.s))


def _require_curvature(pair: CurvaturePair) -> float:
    rho = float(pair.y @ pair.s)
    if not curvature_ok(pair):
        raise CurvatureError(f"y's = {rho:.3e} fails the curvature condition")
    return rho


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, k) stacks, bitwise equal to the
    per-row ``a[i] @ b[i]``; ``einsum`` and ``sum(axis=...)`` reduce in a
    different order and are not."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# Each update is written once, for stacks: m (N, n, n), s and y (N, n),
# rho = y's (N,).  Each returns the unsymmetrized estimates and, where the
# update has a second denominator, a mask of the rows where it was not
# found non-positive (None otherwise).


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[:, :, None] * b[:, None, :]


def _bfgs_inverse_rows(c, s, y, rho):
    a = np.eye(s.shape[1]) - _outer(s, y) / rho[:, None, None]
    return a @ c @ a.transpose(0, 2, 1) + _outer(s, s) / rho[:, None, None], None


def _dfp_inverse_rows(c, s, y, rho):
    cy = (c @ y[:, :, None])[:, :, 0]
    denom = row_dots(y, cy)
    c_new = c - _outer(cy, cy) / denom[:, None, None] + _outer(s, s) / rho[:, None, None]
    return c_new, ~(denom <= 0)


def _bfgs_hessian_rows(b, s, y, rho):
    bs = (b @ s[:, :, None])[:, :, 0]
    denom = row_dots(s, bs)
    b_new = b - _outer(bs, bs) / denom[:, None, None] + _outer(y, y) / rho[:, None, None]
    return b_new, ~(denom <= 0)


def _dfp_hessian_rows(b, s, y, rho):
    a = np.eye(s.shape[1]) - _outer(y, s) / rho[:, None, None]
    return a @ b @ a.transpose(0, 2, 1) + _outer(y, y) / rho[:, None, None], None


def _update_one(rows_update, m: np.ndarray, pair: CurvaturePair) -> np.ndarray:
    rho = _require_curvature(pair)
    with np.errstate(divide="ignore", invalid="ignore"):
        new, valid = rows_update(m[None], pair.s[None], pair.y[None], np.array([rho]))
    if valid is not None and not valid[0]:
        raise CurvatureError("update denominator is not positive; estimate lost definiteness")
    return _sym(new[0])


def bfgs_inverse_update(est: InverseHessianEstimate, pair: CurvaturePair) -> InverseHessianEstimate:
    """Rank-two inverse-Hessian update C' = (I - sy'/r) C (I - ys'/r) + ss'/r
    with r = y's.  The result maps y to s exactly."""
    return InverseHessianEstimate(c=_update_one(_bfgs_inverse_rows, est.c, pair), gamma=est.gamma)


def dfp_inverse_update(est: InverseHessianEstimate, pair: CurvaturePair) -> InverseHessianEstimate:
    """Rank-two inverse-Hessian update C' = C - Cyy'C/(y'Cy) + ss'/(y's)."""
    return InverseHessianEstimate(c=_update_one(_dfp_inverse_rows, est.c, pair), gamma=est.gamma)


def bfgs_hessian_update(est: HessianEstimate, pair: CurvaturePair) -> HessianEstimate:
    """Direct-form update B' = B - Bss'B/(s'Bs) + yy'/(y's); inverse of the
    inverse-form update applied to B^-1."""
    return HessianEstimate(b=_update_one(_bfgs_hessian_rows, est.b, pair))


def dfp_hessian_update(est: HessianEstimate, pair: CurvaturePair) -> HessianEstimate:
    """Direct-form update B' = (I - ys'/r) B (I - sy'/r) + yy'/r with r = y's."""
    return HessianEstimate(b=_update_one(_dfp_hessian_rows, est.b, pair))


def pd_safeguard(matrix: np.ndarray, floor: float = DEFAULT_FLOOR, ceiling: float | None = None) -> np.ndarray:
    """Clamp the spectrum of a symmetric matrix into [floor, ceiling].

    Full eigendecomposition; intended as the fallback when a cheap
    definiteness check fails, not as a per-iteration hot path.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if np.max(np.abs(matrix - matrix.T)) > 1e-8 * scale:
        raise ValueError("matrix is not symmetric")
    if ceiling is not None and ceiling < floor:
        raise ValueError("ceiling below floor")
    vals, vecs = np.linalg.eigh(_sym(matrix))
    vals = np.clip(vals, floor, ceiling)
    return _sym((vecs * vals) @ vecs.T)


# ---------------------------------------------------------------------------
# stacked refresh: one call updates every agent's estimate

_INVERSE_ROWS = {"bfgs": _bfgs_inverse_rows, "dfp": _dfp_inverse_rows}
_HESSIAN_ROWS = {"bfgs": _bfgs_hessian_rows, "dfp": _dfp_hessian_rows}


class BatchRefresh(NamedTuple):
    """Refreshed (N, n, n) estimates plus the number of pairs left
    unapplied and of estimates whose spectrum was repaired."""

    estimates: np.ndarray
    skipped: int
    repaired: int


def _apply_pairs(m, s, y, rows_update):
    """Masked rank-two update; returns (estimates, number applied).

    A pair is applied only where the per-pair curvature test would pass
    and the update's own denominator is not found non-positive (a NaN
    denominator applies, as in the per-pair update).  The result never
    aliases ``m``.
    """
    ys = row_dots(y, s)
    ok = (ys > 0.0) & (ys >= CURVATURE_RTOL * np.sqrt(row_dots(y, y)) * np.sqrt(row_dots(s, s)))
    rows = np.flatnonzero(ok)
    if rows.size == 0:
        return m.copy(), 0
    whole = rows.size == len(m)
    sel = slice(None) if whole else rows
    # a second denominator may vanish; such rows are discarded below
    with np.errstate(divide="ignore", invalid="ignore"):
        new, valid = rows_update(m[sel], s[sel], y[sel], ys[sel])
    new = _sym(new)
    if valid is not None and not valid.all():
        new, rows = new[valid], rows[valid]
        whole = False
    if whole:
        return new, rows.size
    out = m.copy()
    out[rows] = new
    return out, rows.size


def _needs_repair(m: np.ndarray, ceiling: float, shift: float) -> np.ndarray:
    """Mask of estimates that are non-finite, above the Frobenius ceiling,
    or fail a Cholesky probe of ``m - shift * I``."""
    n_rows, n = m.shape[0], m.shape[1]
    flat = m.reshape(n_rows, n * n)
    bad = ~np.isfinite(flat).all(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        bad |= np.sqrt(row_dots(flat, flat)) > ceiling
    probe = np.flatnonzero(~bad)
    if probe.size:
        shifted = m if probe.size == n_rows else m[probe]
        if shift:
            shifted = shifted - shift * np.eye(n)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            for k, i in enumerate(probe):
                try:
                    np.linalg.cholesky(shifted[k])
                except np.linalg.LinAlgError:
                    bad[i] = True
    return bad


def _refresh_batch(m, s, y, rows_update, floor, ceiling, shift, safeguard):
    out, applied = _apply_pairs(m, s, y, rows_update)
    bad = np.flatnonzero(_needs_repair(out, ceiling, shift))
    for i in bad:
        out[i] = safeguard(np.where(np.isfinite(out[i]), out[i], 0.0), floor=floor, ceiling=ceiling)
    return BatchRefresh(out, len(m) - applied, int(bad.size))


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
    pairs (s[i], y[i]).

    Pairs failing the curvature test are skipped.  An estimate that is
    then non-finite, has Frobenius norm above gamma, or fails a Cholesky
    probe is clamped into [floor, gamma] by ``safeguard``, one agent at a
    time; the solvers pass their own module-level ``pd_safeguard`` name so
    that a wrapper installed on it sees each repair.  Agent i's result
    equals the per-pair update of ``InverseHessianEstimate(c[i], gamma)``
    followed by the same probe.
    """
    return _refresh_batch(c, s, y, _INVERSE_ROWS[scheme], floor, gamma, 0.0, safeguard)


def refresh_hessian_batch(
    b: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    scheme: str,
    floor: float,
    ceiling: float,
    safeguard: Callable[..., np.ndarray] = pd_safeguard,
) -> BatchRefresh:
    """Refresh stacked direct Hessian estimates b (N, n, n).

    As ``refresh_inverse_batch``, but the probe is shifted by half the
    floor, so estimates clamped exactly at the floor pass untouched, and
    the spectrum box is [floor, ceiling].
    """
    return _refresh_batch(b, s, y, _HESSIAN_ROWS[scheme], floor, ceiling, 0.5 * floor, safeguard)
