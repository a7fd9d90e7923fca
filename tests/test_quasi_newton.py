"""Curvature updates: secant equations, definiteness, duality, safeguards.

The stacked kernels are checked against their algebra, against the
per-pair textbook forms of ``oracle.py`` and, to rounding, against its
product forms.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from dqn_mesh import dqn, ecdqn, quasi_newton
from dqn_mesh.dqn import RunConfig, SyncNetwork, dqn_run
from dqn_mesh.ecdqn import EcRunConfig, ecdqn_run
from dqn_mesh.problems import logreg_family, qp_family
from dqn_mesh.quasi_newton import (
    CURVATURE_RTOL,
    cholesky_ok,
    curvature_ok,
    pd_safeguard,
    refresh_hessian_batch,
    refresh_inverse_batch,
)
from dqn_mesh.topology import CommGraph, metropolis_weights, random_connected_graph

REFRESH = {"inverse": refresh_inverse_batch, "hessian": refresh_hessian_batch}


def random_spd(rng, n, lo=0.2, hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


def good_pair(rng, n):
    # draw until the pair clears the curvature threshold with margin
    while True:
        s = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if y @ s > 1e-3 * np.linalg.norm(y) * np.linalg.norm(s):
            return s, y


def consistent_pair(rng, n):
    # step/gradient-difference pair generated by an actual quadratic, so the
    # curvature angle is bounded away from zero and products stay conditioned
    s = rng.standard_normal(n)
    return s, random_spd(rng, n) @ s


# The secant residual |M'q - p| of an update (C'y = s for the inverse
# form, B's = y for the direct one) is rounding: at most
# k n eps (|M'|_2 |q| + |p|).  Over 20,000 draws from the generators
# below (all four updates each) the largest ratio of the residual to
# n eps (|M'|_2 |q| + |p|) was 2.03, and 1.73 over 20,000 more; k = 8
# leaves a factor of four.  A bound without |M'| fails whenever y's is
# near good_pair's floor and the estimate's entries reach 1e6.
SECANT_K = 8.0


def secant_bound(new, q, p):
    eps = np.finfo(float).eps
    return SECANT_K * len(q) * eps * (np.linalg.norm(new, 2) * np.linalg.norm(q) + np.linalg.norm(p))


def update(form, scheme, m, s, y):
    """One estimate refreshed by the batched update; no spectrum box."""
    out = REFRESH[form](m[None], s[None], y[None], scheme, 1e-8, np.inf)
    assert out.repaired == 0
    return out.estimates[0]


class TestCurvaturePair:
    def test_curvature_ok_boundary(self):
        s = np.array([1.0, 0.0])
        zero = np.zeros(2)
        # aligned; opposite; orthogonal (y's = 0 < rtol * |y||s|); zero pairs,
        # which carry no curvature: the update would divide by y's = 0
        ss = np.array([s, s, s, zero, s, zero])
        ys = np.array([s, -s, [0.0, 1.0], s, zero, zero])
        want = [True, False, False, False, False, False]
        assert curvature_ok(ss, ys).tolist() == want
        assert [oracle.curvature_ok(a, b) for a, b in zip(ss, ys)] == want

    def test_threshold_is_relative(self):
        s = np.array([[1e8, 0.0]])
        y = np.array([[1e-8, 0.0]])
        # tiny absolute product but perfectly aligned
        assert curvature_ok(s, y).tolist() == [True]
        assert CURVATURE_RTOL == oracle.CURVATURE_RTOL == 1e-10


def with_layout(rng, shape, layout):
    """A standard-normal array of the given shape, stored C-contiguous, as
    a view whose last two axes are transposed, or as a column slice of a
    wider array."""
    if layout == "contiguous":
        return rng.standard_normal(shape)
    if layout == "transposed":
        return np.swapaxes(rng.standard_normal(shape[:-2] + shape[-2:][::-1]), -1, -2)
    return rng.standard_normal(shape[:-1] + (shape[-1] + 3,))[..., 1 : shape[-1] + 1]


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "column-slice"])
def test_stacked_products_equal_per_row_products(layout):
    # np.vecdot, np.matvec and np.vecmat, which every stacked kernel uses,
    # equal the per-row a[i] @ b[i], m[i] @ q[i] and q[i] @ m[i] bit for
    # bit; a (k, N) stack read transposed counts as a transposed vector
    # stack.  A stack of matrices whose agent axis varies fastest is not
    # among these layouts: there np.matvec and the per-row product differ
    # in the last bit, which is why the solvers hold C-contiguous
    # estimate stacks (test_refreshed_stacks_stay_exactly_symmetric_through_runs).
    rng = np.random.default_rng(29)
    for _ in range(200):
        rows, k, n = int(rng.integers(1, 51)), int(rng.integers(1, 121)), int(rng.integers(1, 41))
        a, b = (with_layout(rng, (rows, k), layout) for _ in range(2))
        assert np.vecdot(a, b).tobytes() == np.array([a[i] @ b[i] for i in range(rows)]).tobytes()
        m, q = with_layout(rng, (rows, n, n), layout), with_layout(rng, (rows, n), layout)
        assert np.matvec(m, q).tobytes() == np.array([m[i] @ q[i] for i in range(rows)]).tobytes()
        assert np.vecmat(q, m).tobytes() == np.array([q[i] @ m[i] for i in range(rows)]).tobytes()
        # one matrix broadcast over the stack, as EC-DQN's constraint block
        single = with_layout(rng, (int(rng.integers(1, 10)), n), layout)
        want = np.array([single @ q[i] for i in range(rows)])
        assert np.matvec(single, q).tobytes() == want.tobytes()


class TestFrozenExamples:
    def test_dfp_inverse_hand_example(self):
        c = update("inverse", "dfp", 2.0 * np.eye(2), np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert np.allclose(c, np.array([[1.0, 1.0], [1.0, 3.0]]), atol=1e-14)

    def test_bfgs_inverse_hand_example(self):
        c = update("inverse", "bfgs", np.eye(2), np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        assert np.allclose(c, np.array([[0.75, -0.5], [-0.5, 1.0]]), atol=1e-14)

    def test_identity_pair_is_fixed_point(self):
        # s = y and C = I: every scheme returns the identity
        s = np.array([1.0, 0.0])
        for form in REFRESH:
            for scheme in ("bfgs", "dfp"):
                assert np.allclose(update(form, scheme, np.eye(2), s, s), np.eye(2))


class TestCurvatureRejection:
    def test_all_updates_raise_on_negative_curvature(self):
        # the per-pair forms raise; the batched refresh skips the pair and
        # keeps the estimate
        s, y = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        for update_one in (*oracle.INVERSE.values(), *oracle.DIRECT.values()):
            with pytest.raises(oracle.CurvatureError):
                update_one(np.eye(2), s, y)
        for refresh in REFRESH.values():
            for scheme in ("bfgs", "dfp"):
                out = refresh(np.eye(2)[None], s[None], y[None], scheme, 1e-8, np.inf)
                assert out.skipped == 1 and out.repaired == 0
                assert np.array_equal(out.estimates[0], np.eye(2))


@given(n=st.integers(2, 20), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_inverse_updates_satisfy_secant(n, seed):
    rng = np.random.default_rng(seed)
    c = random_spd(rng, n)
    s, y = good_pair(rng, n)
    for scheme in ("bfgs", "dfp"):
        new = update("inverse", scheme, c, s, y)
        # inverse-form secant: C'y = s
        assert np.linalg.norm(new @ y - s) <= secant_bound(new, y, s)
        assert np.max(np.abs(new - new.T)) <= 1e-12 * max(1, np.abs(new).max())
        assert np.linalg.eigvalsh(new)[0] > 0


@given(n=st.integers(2, 20), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_hessian_updates_satisfy_secant(n, seed):
    rng = np.random.default_rng(seed)
    b = random_spd(rng, n)
    s, y = good_pair(rng, n)
    for scheme in ("bfgs", "dfp"):
        new = update("hessian", scheme, b, s, y)
        # direct-form secant: B's = y
        assert np.linalg.norm(new @ s - y) <= secant_bound(new, s, y)
        assert np.max(np.abs(new - new.T)) <= 1e-12 * max(1, np.abs(new).max())
        assert np.linalg.eigvalsh(new)[0] > 0


@given(n=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_updates_match_expanded_form_oracles(n, seed):
    # every update equals its per-pair form bit for bit and keeps a
    # symmetric estimate exactly symmetric; the two with a product form
    # agree with it to oracle.PRODUCT_RTOL of the largest entry
    rng = np.random.default_rng(seed)
    m = random_spd(rng, n)
    m = 0.5 * (m + m.T)
    s, y = good_pair(rng, n)
    for form, per_pair in (("inverse", oracle.INVERSE), ("hessian", oracle.DIRECT)):
        for scheme in ("bfgs", "dfp"):
            got = update(form, scheme, m, s, y)
            assert np.array_equal(got, per_pair[scheme](m, s, y))
            assert np.array_equal(got, got.T)
    for form, scheme, product in (
        ("inverse", "bfgs", oracle.bfgs_inverse_product),
        ("hessian", "dfp", oracle.dfp_hessian_product),
    ):
        got = update(form, scheme, m, s, y)
        want = product(m, s, y)
        assert np.max(np.abs(got - want)) <= oracle.PRODUCT_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("scheme", ["bfgs", "dfp"])
def test_refreshed_stacks_stay_exactly_symmetric_through_runs(scheme, monkeypatch):
    # every refresh of a whole DQN and EC-DQN run returns a bitwise
    # symmetric stack, on rows whose pair was applied, skipped or repaired;
    # every estimate stack the solvers hold (initial, refreshed, repaired,
    # and the one a KKT retry repairs) is C-contiguous, the layout on which
    # np.matvec equals the per-agent product
    seen, held = {}, []

    def spy(module, name, stacks):
        real = getattr(module, name)
        seen[name] = []

        def recorded(*args, **kwargs):
            out = real(*args, **kwargs)
            seen[name].append(out)
            held.extend(stacks(args, out))
            return out

        monkeypatch.setattr(module, name, recorded)

    spy(dqn, "init_dqn_states", lambda args, out: [out.c])
    spy(dqn, "refresh_inverse_batch", lambda args, out: [out.estimates])
    spy(ecdqn, "init_ecdqn_states", lambda args, out: [out.b])
    # the first argument is the stack the KKT solves used, retries included
    spy(ecdqn, "refresh_hessian_batch", lambda args, out: [args[0], out.estimates])
    with monkeypatch.context() as m:
        m.setattr(dqn, "GAMMA", 0.5)
        dqn_run(
            qp_family(6, 5, (2.0, 20.0), 3),
            random_connected_graph(6, 0.9, 1),
            RunConfig(scheme=scheme, alpha=0.8, max_iters=200, rse_tol=1e-10, seed=2),
        )
    with monkeypatch.context() as m:
        m.setattr(ecdqn, "EIG_CEILING", 1.5)
        ecdqn_run(
            logreg_family(5, 5, 1e-2, 4, constraint=True),
            random_connected_graph(5, 0.7, 2),
            EcRunConfig(scheme=scheme, alpha=1.0, max_iters=120, seed=1),
        )
    # one round whose KKT solve fails on an indefinite estimate and is retried
    graph = CommGraph(3, ((0, 1), (1, 2), (0, 2)))
    net = SyncNetwork(graph=graph, w=metropolis_weights(graph))
    prob = logreg_family(3, 4, 1e-2, 9, constraint=True)
    state = ecdqn.init_ecdqn_states(prob, seed=2)
    b = state.b.copy()
    b[1] = np.diag([-1.0, 1.0, 1.0, 1.0])
    stepped = ecdqn.ecdqn_step(net, replace(state, b=b), prob, EcRunConfig(scheme=scheme))
    assert stepped.kkt_retries == 1
    for name in ("refresh_inverse_batch", "refresh_hessian_batch"):
        outs = seen[name]
        for out in outs:
            assert np.array_equal(out.estimates, out.estimates.transpose(0, 2, 1))
        assert sum(len(out.estimates) - out.skipped for out in outs) > 0
        assert sum(out.skipped for out in outs) > 0
        assert sum(out.repaired for out in outs) > 0
    assert all(stack.flags.c_contiguous for stack in held)


# the solvers' spectrum boxes: [1e-8, 1e3] for the inverse form, [1e-3, 1e3]
# for the direct form
BOX = {"inverse": (1e-8, 1e3), "hessian": (1e-3, 1e3)}

# (estimate, pair) cases that leave the all-clear path of the refresh: a
# skipped pair, an estimate above the Frobenius ceiling only, one that
# fails only the Cholesky probe, and a non-finite one
FLAGGED = [
    (estimate, pair)
    for estimate in ("spd", "large", "indefinite", "non-finite")
    for pair in ("applied", "skipped")
    if (estimate, pair) != ("spd", "applied")
]


def flagged_row(rng, n, estimate, pair):
    if estimate == "large":
        m = 10 * BOX["inverse"][1] * np.eye(n)
    elif estimate == "indefinite":
        m = np.diag([-1.0] * 3 + [1.0] * (n - 3))
    else:
        m = random_spd(rng, n)
    if estimate == "non-finite":
        m[0, 1] = m[1, 0] = np.nan
    s, y = consistent_pair(rng, n)
    return m, s, -s if pair == "skipped" else y


@pytest.mark.parametrize("form", ["inverse", "hessian"])
@pytest.mark.parametrize("scheme", ["bfgs", "dfp"])
@pytest.mark.parametrize("cases", [[case] for case in FLAGGED] + [FLAGGED], ids=str)
def test_all_clear_and_flagged_refresh_paths_agree(form, scheme, cases):
    # a stack whose pairs all apply and whose estimates all pass the repair
    # test takes the all-clear path; the same rows stacked with flagged ones
    # take the index path and come out the same, bit for bit, and the
    # flagged rows as they do alone; the counters add up
    rng = np.random.default_rng(17)
    n, k = 6, 5

    def refresh(m, s, y):
        return REFRESH[form](m, s, y, scheme, *BOX[form])

    m = np.stack([random_spd(rng, n) for _ in range(k)])
    s, y = (np.stack(col) for col in zip(*(consistent_pair(rng, n) for _ in range(k))))
    clear = refresh(m, s, y)
    assert clear.skipped == clear.repaired == 0
    rows = [flagged_row(rng, n, *case) for case in cases]
    alone = [refresh(*(part[None] for part in row)) for row in rows]
    for (estimate, pair), out in zip(cases, alone):
        assert out.repaired == (estimate != "spd")
        # an indefinite estimate may also fail the update's own denominator
        assert out.skipped == (pair == "skipped") or estimate == "indefinite"
    both = refresh(*(np.concatenate([a, np.stack(b)]) for a, b in zip((m, s, y), zip(*rows))))
    assert np.array_equal(both.estimates[:k], clear.estimates)
    for got, out in zip(both.estimates[k:], alone):
        assert np.array_equal(got, out.estimates[0])
    assert both.skipped == sum(out.skipped for out in alone)
    assert both.repaired == sum(out.repaired for out in alone)
    # the counters reach run summaries, which JSON serializes
    assert all(type(count) is int for out in (clear, both, *alone) for count in out[1:])
    shift = 0.0 if form == "inverse" else 0.5 * BOX[form][0]
    assert quasi_newton._repair_rows(clear.estimates, BOX[form][1], shift) is quasi_newton._NO_ROWS


@given(n=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_same_scheme_duality(n, seed):
    # the direct and inverse forms of one scheme stay mutual inverses when
    # started from a matrix and its exact inverse
    rng = np.random.default_rng(seed)
    b = random_spd(rng, n)
    s, y = consistent_pair(rng, n)
    for scheme in ("bfgs", "dfp"):
        new_b = update("hessian", scheme, b, s, y)
        new_c = update("inverse", scheme, np.linalg.inv(b), s, y)
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
        # one asymmetric matrix in a stack is enough
        with pytest.raises(ValueError, match="symmetric"):
            pd_safeguard(np.stack([np.eye(2), m, np.eye(2)]))

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

    def test_stack_matches_per_matrix_calls(self):
        # each matrix of a stack clamps as it would alone, and as the
        # textbook clamp does, bit for bit; indefinite ones included
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 41))
            stack = np.stack([
                random_spd(rng, n, -2.0, 3.0) if rng.uniform() < 0.5 else random_spd(rng, n)
                for _ in range(int(rng.integers(1, 12)))
            ])
            stack = 0.5 * (stack + stack.transpose(0, 2, 1))
            floor, ceiling = 1e-3, float(rng.choice([2.0, 1e3]))
            out = pd_safeguard(stack, floor=floor, ceiling=ceiling)
            for m, got in zip(stack, out):
                assert np.array_equal(got, pd_safeguard(m, floor=floor, ceiling=ceiling))
                assert np.array_equal(got, oracle.spectrum_clamp(m, floor, ceiling))


def test_cholesky_ok_flags_exactly_the_failing_rows():
    rng = np.random.default_rng(3)
    stack = np.stack([random_spd(rng, 4) for _ in range(5)])
    assert cholesky_ok(stack).tolist() == [True] * 5
    bad = stack.copy()
    bad[1] = np.diag([1.0, -1.0, 1.0, 1.0])
    bad[4, 0, 0] = 0.0
    assert cholesky_ok(bad).tolist() == [True, False, True, True, False]


def test_bfgs_drives_quadratic_to_optimum():
    # centralized sanity: inverse-form updates with exact line search solve
    # a strictly convex quadratic
    rng = np.random.default_rng(5)
    n = 6
    a = random_spd(rng, n, lo=0.5, hi=4.0)
    b = rng.standard_normal(n)
    x = rng.standard_normal(n)
    c = np.eye(n)[None]
    g = a @ x - b
    for _ in range(40):
        d = -c[0] @ g
        step = -(g @ d) / (d @ a @ d)
        x_new = x + step * d
        g_new = a @ x_new - b
        c = refresh_inverse_batch(c, (x_new - x)[None], (g_new - g)[None], "bfgs", 1e-8, np.inf).estimates
        x, g = x_new, g_new
        if np.linalg.norm(g) < 1e-12:
            break
    assert np.linalg.norm(a @ x - b) <= 1e-10
