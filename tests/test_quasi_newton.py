"""Curvature updates: secant equations, definiteness, duality, safeguards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqn_mesh.quasi_newton import (
    CURVATURE_RTOL,
    CurvatureError,
    CurvaturePair,
    HessianEstimate,
    InverseHessianEstimate,
    bfgs_hessian_update,
    bfgs_inverse_update,
    curvature_ok,
    dfp_hessian_update,
    dfp_inverse_update,
    pd_safeguard,
)


def random_spd(rng, n, lo=0.2, hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


def good_pair(rng, n):
    # draw until the pair clears the curvature threshold with margin
    while True:
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if y @ s > 1e-3 * np.linalg.norm(y) * np.linalg.norm(s):
            return CurvaturePair(s=s, y=y)


def consistent_pair(rng, n):
    # step/gradient-difference pair generated by an actual quadratic, so the
    # curvature angle is bounded away from zero and products stay conditioned
    s = rng.standard_normal(n)
    return CurvaturePair(s=s, y=random_spd(rng, n) @ s)


# expanded-form oracles, algebraically identical but coded independently


def oracle_bfgs_inverse(c, s, y):
    rho = y @ s
    cy = c @ y
    term = np.outer(s, cy) + np.outer(cy, s)
    return c - term / rho + (1.0 + (y @ cy) / rho) * np.outer(s, s) / rho


def oracle_dfp_hessian(b, s, y):
    rho = y @ s
    bs = b @ s
    term = np.outer(y, bs) + np.outer(bs, y)
    return b - term / rho + (1.0 + (s @ bs) / rho) * np.outer(y, y) / rho


class TestCurvaturePair:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CurvaturePair(s=np.ones(3), y=np.ones(2))

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            CurvaturePair(s=np.ones((2, 2)), y=np.ones((2, 2)))

    def test_curvature_ok_boundary(self):
        s = np.array([1.0, 0.0])
        assert curvature_ok(CurvaturePair(s=s, y=s))
        assert not curvature_ok(CurvaturePair(s=s, y=-s))
        # orthogonal pair: y's = 0 < rtol * |y||s|
        assert not curvature_ok(CurvaturePair(s=s, y=np.array([0.0, 1.0])))
        # zero pairs carry no curvature; the update would divide by y's = 0
        zero = np.zeros(2)
        assert not curvature_ok(CurvaturePair(s=zero, y=s))
        assert not curvature_ok(CurvaturePair(s=s, y=zero))
        assert not curvature_ok(CurvaturePair(s=zero, y=zero))

    def test_threshold_is_relative(self):
        s = np.array([1e8, 0.0])
        y = np.array([1e-8, 0.0])
        # tiny absolute product but perfectly aligned
        assert curvature_ok(CurvaturePair(s=s, y=y))
        assert CURVATURE_RTOL == 1e-10


class TestFrozenExamples:
    def test_dfp_inverse_hand_example(self):
        est = dfp_inverse_update(
            InverseHessianEstimate(c=2.0 * np.eye(2)),
            CurvaturePair(s=np.array([1.0, 1.0]), y=np.array([1.0, 0.0])),
        )
        assert np.allclose(est.c, np.array([[1.0, 1.0], [1.0, 3.0]]), atol=1e-14)

    def test_bfgs_inverse_hand_example(self):
        est = bfgs_inverse_update(
            InverseHessianEstimate(c=np.eye(2)),
            CurvaturePair(s=np.array([1.0, 0.0]), y=np.array([2.0, 1.0])),
        )
        assert np.allclose(est.c, np.array([[0.75, -0.5], [-0.5, 1.0]]), atol=1e-14)

    def test_identity_pair_is_fixed_point(self):
        # s = y and C = I: every scheme returns the identity
        pair = CurvaturePair(s=np.array([1.0, 0.0]), y=np.array([1.0, 0.0]))
        assert np.allclose(bfgs_inverse_update(InverseHessianEstimate(c=np.eye(2)), pair).c, np.eye(2))
        assert np.allclose(dfp_inverse_update(InverseHessianEstimate(c=np.eye(2)), pair).c, np.eye(2))
        assert np.allclose(bfgs_hessian_update(HessianEstimate(b=np.eye(2)), pair).b, np.eye(2))
        assert np.allclose(dfp_hessian_update(HessianEstimate(b=np.eye(2)), pair).b, np.eye(2))


class TestCurvatureRejection:
    def test_all_updates_raise_on_negative_curvature(self):
        pair = CurvaturePair(s=np.array([1.0, 0.0]), y=np.array([-1.0, 0.0]))
        with pytest.raises(CurvatureError):
            bfgs_inverse_update(InverseHessianEstimate(c=np.eye(2)), pair)
        with pytest.raises(CurvatureError):
            dfp_inverse_update(InverseHessianEstimate(c=np.eye(2)), pair)
        with pytest.raises(CurvatureError):
            bfgs_hessian_update(HessianEstimate(b=np.eye(2)), pair)
        with pytest.raises(CurvatureError):
            dfp_hessian_update(HessianEstimate(b=np.eye(2)), pair)


@given(n=st.integers(2, 20), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_inverse_updates_satisfy_secant(n, seed):
    rng = np.random.default_rng(seed)
    c = random_spd(rng, n)
    pair = good_pair(rng, n)
    for update in (bfgs_inverse_update, dfp_inverse_update):
        new = update(InverseHessianEstimate(c=c), pair).c
        # inverse-form secant: C'y = s
        resid = np.linalg.norm(new @ pair.y - pair.s)
        assert resid <= 1e-10 * (1 + np.linalg.norm(pair.s))
        assert np.max(np.abs(new - new.T)) <= 1e-12 * max(1, np.abs(new).max())
        assert np.linalg.eigvalsh(new)[0] > 0


@given(n=st.integers(2, 20), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_hessian_updates_satisfy_secant(n, seed):
    rng = np.random.default_rng(seed)
    b = random_spd(rng, n)
    pair = good_pair(rng, n)
    for update in (bfgs_hessian_update, dfp_hessian_update):
        new = update(HessianEstimate(b=b), pair).b
        # direct-form secant: B's = y
        resid = np.linalg.norm(new @ pair.s - pair.y)
        assert resid <= 1e-10 * (1 + np.linalg.norm(pair.y))
        assert np.max(np.abs(new - new.T)) <= 1e-12 * max(1, np.abs(new).max())
        assert np.linalg.eigvalsh(new)[0] > 0


@given(n=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_updates_match_expanded_form_oracles(n, seed):
    rng = np.random.default_rng(seed)
    m = random_spd(rng, n)
    pair = good_pair(rng, n)
    got = bfgs_inverse_update(InverseHessianEstimate(c=m), pair).c
    want = oracle_bfgs_inverse(m, pair.s, pair.y)
    assert np.allclose(got, want, atol=1e-10 * max(1, np.abs(want).max()))
    got = dfp_hessian_update(HessianEstimate(b=m), pair).b
    want = oracle_dfp_hessian(m, pair.s, pair.y)
    assert np.allclose(got, want, atol=1e-10 * max(1, np.abs(want).max()))


@given(n=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_same_scheme_duality(n, seed):
    # the direct and inverse forms of one scheme stay mutual inverses when
    # started from a matrix and its exact inverse
    rng = np.random.default_rng(seed)
    b = random_spd(rng, n)
    pair = consistent_pair(rng, n)
    for hess_up, inv_up in (
        (bfgs_hessian_update, bfgs_inverse_update),
        (dfp_hessian_update, dfp_inverse_update),
    ):
        new_b = hess_up(HessianEstimate(b=b), pair).b
        new_c = inv_up(InverseHessianEstimate(c=np.linalg.inv(b)), pair).c
        assert np.allclose(new_b @ new_c, np.eye(n), atol=1e-8)


class TestPdSafeguard:
    def test_clamps_floor(self):
        m = np.diag([1.0, -2.0, 1e-12])
        out = pd_safeguard(m, floor=1e-3)
        vals = np.linalg.eigvalsh(out)
        assert vals[0] >= 1e-3 * (1 - 1e-12)

    def test_clamps_ceiling(self):
        m = np.diag([1.0, 50.0])
        out = pd_safeguard(m, floor=1e-8, ceiling=10.0)
        assert np.linalg.eigvalsh(out)[-1] <= 10.0 * (1 + 1e-12)

    def test_identity_untouched(self):
        assert np.allclose(pd_safeguard(np.eye(3)), np.eye(3), atol=1e-14)

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            pd_safeguard(m)

    def test_rejects_ceiling_below_floor(self):
        with pytest.raises(ValueError, match="ceiling"):
            pd_safeguard(np.eye(2), floor=1.0, ceiling=0.5)

    def test_preserves_eigenbasis(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        m = (q * np.array([-1.0, 0.5, 2.0, 3.0])) @ q.T
        out = pd_safeguard(m, floor=0.1)
        want = (q * np.array([0.1, 0.5, 2.0, 3.0])) @ q.T
        assert np.allclose(out, want, atol=1e-12)


def test_bfgs_drives_quadratic_to_optimum():
    # centralized sanity: inverse-form updates with exact line search solve
    # a strictly convex quadratic
    rng = np.random.default_rng(5)
    n = 6
    a = random_spd(rng, n, lo=0.5, hi=4.0)
    b = rng.standard_normal(n)
    x = rng.standard_normal(n)
    est = InverseHessianEstimate(c=np.eye(n))
    g = a @ x - b
    for _ in range(40):
        d = -est.c @ g
        step = -(g @ d) / (d @ a @ d)
        x_new = x + step * d
        g_new = a @ x_new - b
        pair = CurvaturePair(s=x_new - x, y=g_new - g)
        if curvature_ok(pair):
            est = bfgs_inverse_update(est, pair)
        x, g = x_new, g_new
        if np.linalg.norm(g) < 1e-12:
            break
    assert np.linalg.norm(a @ x - b) <= 1e-10
