"""Tests for the equality-constrained distributed solver."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqn_mesh import ecdqn
from dqn_mesh.dqn import QnState, SyncNetwork, run_rounds
from dqn_mesh.ecdqn import (
    STALL_ROUNDS,
    EcRunConfig,
    KktSystem,
    ecdqn_run,
    ecdqn_step,
    init_ecdqn_states,
    kkt_solve,
)
from dqn_mesh.problems import (
    QpLocalData,
    SeparableProblem,
    logreg_family,
    solve_reference,
)
from dqn_mesh.topology import CommGraph, metropolis_weights, random_connected_graph
from one_agent import agent_problems
from oracle import (
    KktError,
    ill_conditioned_schur,
    reference_kkt_solve,
    reference_kkt_solve_inverse,
    reflection,
)

TRIANGLE = CommGraph(3, ((0, 1), (1, 2), (0, 2)))
SINGLE = CommGraph(1, ())

# the saddle-point solve given H = inv(B) agrees with the one given B to
# this relative tolerance; the largest relative gap on the (N, n, m)
# grids of test_inverse_form_matches_direct_form_oracle is 7.6e-16
KKT_FORM_RTOL = 1e-12


def make_network(graph):
    return SyncNetwork(graph=graph, w=metropolis_weights(graph))


def kkt_directions(prob, state):
    """Every agent's primal direction from its own reference saddle-point
    solve, as the solver's round computes it."""
    a, b = prob.constraint
    return np.stack([
        reference_kkt_solve_inverse(state.h[i], a, state.v[i], a @ state.x[i] - b)[0]
        for i in range(prob.n_agents)
    ])


def random_spd(rng, n, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


def constrained_quadratic(n_agents, dim, m, seed):
    """Strongly convex quadratic locals under a shared equality constraint,
    with the exact minimizer attached."""
    rng = np.random.default_rng(seed)
    ps = [random_spd(rng, dim, 0.5, 3.0) for _ in range(n_agents)]
    qs = [rng.standard_normal(dim) for _ in range(n_agents)]
    raw = rng.standard_normal((m, dim))
    q_mat, _ = np.linalg.qr(raw.T)
    a = q_mat[:, :m].T
    b = a @ rng.standard_normal(dim)
    prob = SeparableProblem(
        "qp", [QpLocalData(p=p, q=q) for p, q in zip(ps, qs)], constraint=(a, b)
    )
    p_bar = sum(ps) / n_agents
    q_bar = sum(qs) / n_agents
    kkt = np.block([[p_bar, a.T], [a, np.zeros((m, m))]])
    sol = np.linalg.solve(kkt, np.concatenate([-q_bar, b]))
    prob.reference_solution = sol[:dim]
    return prob


# ---------------------------------------------------------------------------
# saddle-point solver


def solve_one(h, a, rhs_stat, rhs_prim):
    """kkt_solve on a one-row stack: that row's dx, beta and ok."""
    dx, beta, ok = kkt_solve(
        KktSystem(h=h[None], a=a, rhs_stat=rhs_stat[None], rhs_prim=rhs_prim[None])
    )
    return dx[0], beta[0], bool(ok[0])


class TestKktSystem:
    def test_rejects_inconsistent_blocks(self):
        with pytest.raises(ValueError, match="block shapes"):
            KktSystem(
                h=np.eye(3)[None], a=np.ones((1, 2)), rhs_stat=np.zeros((1, 3)),
                rhs_prim=np.zeros((1, 1)),
            )

    def test_rejects_inconsistent_rhs(self):
        with pytest.raises(ValueError, match="right-hand-side"):
            KktSystem(
                h=np.eye(2)[None], a=np.ones((1, 2)), rhs_stat=np.zeros((1, 2)),
                rhs_prim=np.zeros((1, 2)),
            )

    def test_rejects_an_unstacked_system(self):
        # one system's blocks are not a stack of one: a ValueError, not an
        # unpacking error
        with pytest.raises(ValueError, match="stack"):
            KktSystem(
                h=np.eye(2), a=np.ones((1, 2)), rhs_stat=np.zeros(2), rhs_prim=np.zeros(1)
            )


class TestKktSolve:
    def test_frozen_pure_feasibility_step(self):
        # identity Hessian, constraint x1 = fixed: the step restores
        # feasibility along the first axis and the multiplier balances it
        dx, beta, ok = solve_one(
            h=np.eye(2),
            a=np.array([[1.0, 0.0]]),
            rhs_stat=np.zeros(2),
            rhs_prim=np.array([1.0]),
        )
        assert ok
        assert np.allclose(dx, [-1.0, 0.0])
        assert np.allclose(beta, [1.0])

    def test_frozen_mixed_residuals(self):
        # by hand: 2*dx + A'beta = -(2,0), dx2 = -3 => beta = 6, dx1 = -1
        dx, beta, ok = solve_one(
            h=0.5 * np.eye(2),
            a=np.array([[0.0, 1.0]]),
            rhs_stat=np.array([2.0, 0.0]),
            rhs_prim=np.array([3.0]),
        )
        assert ok
        assert np.allclose(dx, [-1.0, -3.0])
        assert np.allclose(beta, [6.0])

    def test_zero_residuals_give_zero_step(self):
        dx, beta, ok = solve_one(
            h=np.diag([0.5, 1.0 / 3.0]),
            a=np.array([[1.0, 1.0]]),
            rhs_stat=np.zeros(2),
            rhs_prim=np.zeros(1),
        )
        assert ok
        assert np.array_equal(dx, np.zeros(2))
        assert np.array_equal(beta, np.zeros(1))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 10),
        m_frac=st.integers(1, 9),
        seed=st.integers(0, 100_000),
    )
    def test_matches_dense_solve(self, n, m_frac, seed):
        m = max(1, min(n - 1, (m_frac * n) // 10))
        rng = np.random.default_rng(seed)
        b = random_spd(rng, n, 0.5, 4.0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q[:, :m].T
        rs = rng.standard_normal(n)
        rp = rng.standard_normal(m)
        dx, beta, ok = solve_one(np.linalg.inv(b), a, rs, rp)
        assert ok
        full = np.block([[b, a.T], [a, np.zeros((m, m))]])
        sol = np.linalg.solve(full, np.concatenate([-rs, -rp]))
        scale = 1.0 + np.linalg.norm(sol)
        assert np.linalg.norm(dx - sol[:n]) <= 1e-8 * scale
        assert np.linalg.norm(beta - sol[n:]) <= 1e-8 * scale

    def test_indefinite_schur_block_rejected(self):
        # no n x n block is factorized: an indefinite estimate fails only
        # where it makes the Schur block A H A' indefinite
        h = np.diag([1.0, -1.0])
        a = np.array([[0.0, 1.0]])
        assert not solve_one(h, a, np.zeros(2), np.zeros(1))[2]
        with pytest.raises(KktError, match="constraint block"):
            reference_kkt_solve_inverse(h, a, np.zeros(2), np.zeros(1))
        dx, beta, ok = solve_one(h, np.array([[1.0, 0.0]]), np.zeros(2), np.zeros(1))
        assert ok
        assert np.array_equal(dx, np.zeros(2)) and np.array_equal(beta, np.zeros(1))

    def test_rank_deficient_constraint_rejected(self):
        a = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert not solve_one(np.eye(3), a, np.zeros(3), np.zeros(2))[2]
        with pytest.raises(KktError, match="constraint block"):
            reference_kkt_solve_inverse(np.eye(3), a, np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("n_agents,n,m", [(3, 4, 2), (3, 3, 3), (1, 2, 2), (2, 5, 1)])
    def test_same_result_under_numpy1_solve_rule(self, monkeypatch, n_agents, n, m):
        # numpy 1.x reads solve(a, b) with b.ndim == a.ndim - 1 as a stack
        # of vectors, numpy 2.x as one matrix; under the 1.x rule the
        # batched solve must give the same bits (or fail loudly if not)
        real_solve = np.linalg.solve

        def numpy1_solve(a, b):
            a, b = np.asarray(a), np.asarray(b)
            if b.ndim == a.ndim - 1:
                return real_solve(a, b[..., None])[..., 0]
            return real_solve(a, b)

        rng = np.random.default_rng(n_agents * 100 + n * 10 + m)
        h = np.stack([random_spd(rng, n) for _ in range(n_agents)])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q[:, :m].T
        rs = rng.standard_normal((n_agents, n))
        rp = rng.standard_normal((n_agents, m))
        dx, beta, ok = kkt_solve(KktSystem(h, a, rs, rp))
        assert ok.all()
        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        dx1, beta1, ok1 = kkt_solve(KktSystem(h, a, rs, rp))
        assert np.array_equal(dx1, dx)
        assert np.array_equal(beta1, beta)
        assert ok1.all()

    @pytest.mark.parametrize("stage", ["constraint block", "residual"])
    def test_batch_flags_only_the_failing_row(self, stage):
        rng = np.random.default_rng(8)
        h = np.stack([random_spd(rng, 4) for _ in range(5)])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q[:, :2].T
        rs = rng.standard_normal((5, 4))
        rp = rng.standard_normal((5, 2))
        dx, beta, ok = kkt_solve(KktSystem(h, a, rs, rp))
        assert ok.all()
        if stage == "constraint block":
            bad = reflection(a[0])
        else:
            # positive definite, with a Schur block that passes its
            # Cholesky test but is too ill-conditioned for the residual check
            bad = ill_conditioned_schur(a)
            np.linalg.cholesky(bad)
        with pytest.raises(KktError, match=stage):
            reference_kkt_solve_inverse(bad, a, rs[2], rp[2])
        assert not solve_one(bad, a, rs[2], rp[2])[2]
        h[2] = bad
        dx_bad, beta_bad, ok = kkt_solve(KktSystem(h, a, rs, rp))
        assert ok.tolist() == [True, True, False, True, True]
        # the other rows keep the all-good batch's bits
        assert np.array_equal(dx_bad[ok], dx[ok])
        assert np.array_equal(beta_bad[ok], beta[ok])

    def test_batch_rows_equal_the_oracle(self):
        rng = np.random.default_rng(11)
        h = np.stack([random_spd(rng, 6, 0.01, 50.0) for _ in range(7)])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = q[:, :3].T
        rs = rng.standard_normal((7, 6))
        rp = rng.standard_normal((7, 3))
        dx, beta, ok = kkt_solve(KktSystem(h, a, rs, rp))
        assert ok.all()
        for i in range(7):
            dx_i, beta_i = reference_kkt_solve_inverse(h[i], a, rs[i], rp[i])
            assert np.array_equal(dx[i], dx_i)
            assert np.array_equal(beta[i], beta_i)

    @pytest.mark.parametrize("n_agents,n,m", [(10, 20, 5), (30, 20, 3), (50, 24, 4)])
    def test_inverse_form_matches_direct_form_oracle(self, n_agents, n, m):
        # the solve given H = inv(B) agrees with the textbook solve given B,
        # which factorizes B, to KKT_FORM_RTOL relative to each result
        rng = np.random.default_rng(n_agents + n + m)
        b = np.stack([random_spd(rng, n, 0.5, 2.0) for _ in range(n_agents)])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q[:, :m].T
        rs = rng.standard_normal((n_agents, n))
        rp = rng.standard_normal((n_agents, m))
        dx, beta, ok = kkt_solve(KktSystem(np.linalg.inv(b), a, rs, rp))
        assert ok.all()
        for i in range(n_agents):
            dx_i, beta_i = reference_kkt_solve(b[i], a, rs[i], rp[i])
            assert np.linalg.norm(dx[i] - dx_i) <= KKT_FORM_RTOL * np.linalg.norm(dx_i)
            assert np.linalg.norm(beta[i] - beta_i) <= KKT_FORM_RTOL * np.linalg.norm(beta_i)

    def test_singular_row_is_flagged_without_raising(self):
        rng = np.random.default_rng(9)
        h = np.stack([random_spd(rng, 4) for _ in range(5)])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q[:, :2].T
        rs = rng.standard_normal((5, 4))
        rp = rng.standard_normal((5, 2))
        dx, beta, ok = kkt_solve(KktSystem(h, a, rs, rp))
        assert ok.all()
        h[3] = 0.0
        # its Schur block is zero, which a stacked solve would raise on
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a @ h @ a.T, rp[:, :, None])
        dx_bad, beta_bad, ok = kkt_solve(KktSystem(h, a, rs, rp))
        assert ok.tolist() == [True, True, True, False, True]
        assert np.array_equal(dx_bad[ok], dx[ok])
        assert np.array_equal(beta_bad[ok], beta[ok])
        assert not solve_one(h[3], a, rs[3], rp[3])[2]
        with pytest.raises(KktError, match="constraint block"):
            reference_kkt_solve_inverse(h[3], a, rs[3], rp[3])

    def test_non_finite_right_hand_side_is_flagged(self):
        # a NaN residual norm fails the residual check instead of passing it
        h = np.stack([np.eye(3)] * 2)
        a = np.array([[1.0, 0.0, 0.0]])
        rs = np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])
        rp = np.zeros((2, 1))
        dx, beta, ok = kkt_solve(KktSystem(h, a, rs, rp))
        assert ok.tolist() == [False, True]
        dx_1, beta_1, ok_1 = solve_one(h[1], a, rs[1], rp[1])
        assert ok_1 and np.array_equal(dx[1], dx_1) and np.array_equal(beta[1], beta_1)
        assert not solve_one(h[0], a, rs[0], rp[0])[2]
        with pytest.raises(KktError, match="residual"):
            reference_kkt_solve_inverse(h[0], a, rs[0], rp[0])

    def test_rank_deficient_constraint_flags_every_row(self):
        rng = np.random.default_rng(10)
        h = np.stack([random_spd(rng, 4) for _ in range(4)])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        # the second constraint row repeats the first
        a = np.stack([q[:, 0], q[:, 0], q[:, 1]])
        rs = rng.standard_normal((4, 4))
        rp = rng.standard_normal((4, 3))
        dx, beta, ok = kkt_solve(KktSystem(h, a, rs, rp))
        assert not ok.any()
        for i in range(4):
            assert not solve_one(h[i], a, rs[i], rp[i])[2]
            with pytest.raises(KktError, match="constraint block"):
                reference_kkt_solve_inverse(h[i], a, rs[i], rp[i])


@pytest.mark.parametrize("retry", [False, True], ids=["clean", "retry"])
def test_step_factorizes_only_m_by_m_blocks(monkeypatch, retry):
    # no n x n block is factorized or solved: every matrix a round hands to
    # np.linalg.solve or to the Cholesky probe is an m x m Schur block,
    # in a retried round too.  The round solves through the module's
    # kkt_solve name, once, and once more for the retried rows
    prob = logreg_family(5, 8, 1e-2, 3, constraint=True)
    m = prob.constraint[0].shape[0]
    assert m < prob.dim
    net = make_network(random_connected_graph(5, 0.7, 1))
    state = init_ecdqn_states(prob, seed=2)
    if retry:
        h = state.h.copy()
        h[3] = reflection(prob.constraint[0][0])
        state = replace(state, h=h)
    shapes = []

    def spy(fn):
        def recorded(mat, *args):
            shapes.append(np.shape(mat)[-2:])
            return fn(mat, *args)

        return recorded

    solved = []

    def spy_kkt(system):
        solved.append(len(system.h))
        return kkt_solve(system)

    monkeypatch.setattr(np.linalg, "solve", spy(np.linalg.solve))
    monkeypatch.setattr(ecdqn, "cholesky_ok", spy(ecdqn.cholesky_ok))
    monkeypatch.setattr(ecdqn, "kkt_solve", spy_kkt)
    stepped = ecdqn_step(net, state, prob, EcRunConfig(alpha=0.5))
    assert stepped.kkt_retries == int(retry)
    assert len(shapes) == (4 if retry else 2)
    assert set(shapes) == {(m, m)}
    assert solved == ([5, 1] if retry else [5])


# ---------------------------------------------------------------------------
# initialization


class TestInit:
    def test_requires_constraint(self):
        prob = constrained_quadratic(3, 4, 1, 0)
        unconstrained = SeparableProblem("qp", prob.local_data)
        with pytest.raises(ValueError, match="constraint"):
            init_ecdqn_states(unconstrained)

    def test_estimate_spectrum_in_requested_band(self):
        # every H0 is the inverse of a B0 with its spectrum in B0_SPECTRUM
        prob = constrained_quadratic(3, 5, 2, 1)
        state = init_ecdqn_states(prob, seed=3)
        assert state.h.shape == (3, 5, 5)
        lo, hi = ecdqn.B0_SPECTRUM
        for h in state.h:
            vals = np.linalg.eigvalsh(h)
            assert vals[0] >= (1 / hi) * (1 - 1e-10)
            assert vals[-1] <= (1 / lo) * (1 + 1e-10)
            assert np.array_equal(h, h.T)

    def test_tracker_and_multiplier_start(self):
        prob = constrained_quadratic(3, 4, 2, 2)
        state = init_ecdqn_states(prob, seed=0)
        agents = agent_problems(prob)
        for i in range(3):
            assert np.allclose(state.v[i], agents[i].gradients(state.x[i][None])[0])
        assert np.array_equal(state.beta, np.zeros((3, 2)))

    def test_seed_reproducibility(self):
        prob = constrained_quadratic(3, 4, 1, 0)
        a = init_ecdqn_states(prob, seed=11)
        b = init_ecdqn_states(prob, seed=11)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.h, b.h)


# ---------------------------------------------------------------------------
# one-agent exactness: a true-Hessian step lands on the constrained optimum


class TestSingleAgentNewton:
    def test_exact_hessian_solves_in_one_step(self):
        prob = constrained_quadratic(1, 5, 2, 7)
        a, b = prob.constraint
        net = make_network(SINGLE)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(5)
        (agent,) = agent_problems(prob)
        g0 = agent.gradients(x0[None])[0]
        # recover the exact quadratic Hessian column by column
        g_origin = agent.gradients(np.zeros((1, 5)))[0]
        p = np.array([agent.gradients(e[None])[0] - g_origin for e in np.eye(5)]).T
        state = QnState(
            x=x0[None, :],
            v=g0[None, :].copy(),
            d=np.zeros((1, 5)),
            h=np.linalg.inv(0.5 * (p + p.T))[None, :, :],
            last_gradient=g0[None, :].copy(),
            beta=np.zeros((1, 2)),
            kkt_retries=0,
        )
        state = ecdqn_step(net, state, prob, EcRunConfig())
        x1 = state.x[0]
        assert np.linalg.norm(x1 - prob.reference_solution) <= 1e-10
        assert np.linalg.norm(a @ x1 - b) <= 1e-10


# ---------------------------------------------------------------------------
# byte ledger and fusion switch


class TestLedgerAndFusion:
    def test_fused_rounds_cost_24_n_deg(self):
        prob = constrained_quadratic(3, 4, 1, 5)
        trace = ecdqn_run(prob, TRIANGLE, EcRunConfig(max_iters=8, rse_tol=0.0))
        deg = TRIANGLE.degrees()
        k = np.arange(trace.rounds + 1)
        assert np.array_equal(trace.bytes_sent, 24 * 4 * np.outer(k, deg))

    def test_unfused_rounds_cost_16_n_deg(self):
        prob = constrained_quadratic(3, 4, 1, 5)
        trace = ecdqn_run(prob, TRIANGLE, EcRunConfig(max_iters=8, rse_tol=0.0, fusion=False))
        deg = TRIANGLE.degrees()
        k = np.arange(trace.rounds + 1)
        assert np.array_equal(trace.bytes_sent, 16 * 4 * np.outer(k, deg))

    def test_fusion_mixes_directions(self):
        prob = constrained_quadratic(3, 4, 1, 2)
        net = make_network(TRIANGLE)
        state = init_ecdqn_states(prob, seed=1)
        stepped = ecdqn_step(net, state, prob, EcRunConfig(fusion=True))
        dx = kkt_directions(prob, state)
        assert np.array_equal(stepped.x, net.w @ (state.x + 1.0 * (net.w @ dx)))

    def test_no_fusion_keeps_local_directions(self):
        prob = constrained_quadratic(3, 4, 1, 2)
        net = make_network(TRIANGLE)
        state = init_ecdqn_states(prob, seed=1)
        stepped = ecdqn_step(net, state, prob, EcRunConfig(fusion=False))
        dx = kkt_directions(prob, state)
        assert np.array_equal(stepped.x, net.w @ (state.x + 1.0 * dx))


# ---------------------------------------------------------------------------
# every inverse estimate stays positive definite with |H|_F <= EIG_CEILING,
# so every B = H^-1 has its smallest eigenvalue at least EIG_FLOOR


def box_config(monkeypatch):
    """The run config of a round whose spectrum box is [1e-3, 1e3]."""
    monkeypatch.setattr(ecdqn, "EIG_FLOOR", 1e-3)
    monkeypatch.setattr(ecdqn, "EIG_CEILING", 1e3)
    return EcRunConfig()


def assert_in_box(h):
    """H is positive definite and its largest eigenvalue, 1 / lambda_min(B),
    is at most the ceiling 1e3."""
    vals = np.linalg.eigvalsh(h)
    assert vals[0] > 0.0
    assert vals[-1] <= 1e3 * (1 + 1e-12)


class TestSpectrumBox:
    def test_tiny_eigenvalue_is_repaired(self, monkeypatch):
        # B with eigenvalue 1e-9 is H with eigenvalue 1e9
        prob = constrained_quadratic(3, 4, 1, 9)
        net = make_network(TRIANGLE)
        state = init_ecdqn_states(prob, seed=2)
        h = state.h.copy()
        h[1] = np.diag([1e9, 1.0, 1.0, 1.0])
        box = box_config(monkeypatch)
        stepped = ecdqn_step(net, replace(state, h=h), prob, box)
        assert stepped.safeguard_repairs >= 1
        for h in stepped.h:
            assert_in_box(h)

    def test_indefinite_estimate_is_repaired_before_kkt_retry(self, monkeypatch):
        prob = constrained_quadratic(3, 4, 1, 9)
        net = make_network(TRIANGLE)
        state = init_ecdqn_states(prob, seed=2)
        h = state.h.copy()
        # indefinite, with a negative Schur block, so the solve fails
        h[1] = reflection(prob.constraint[0][0])
        box = box_config(monkeypatch)
        stepped = ecdqn_step(net, replace(state, h=h), prob, box)
        assert stepped.kkt_retries == 1
        assert stepped.safeguard_repairs >= 1
        assert_in_box(stepped.h[1])

    def test_box_holds_over_many_rounds(self):
        prob = logreg_family(4, 6, 1e-2, 3, constraint=True)
        solve_reference(prob)
        graph = random_connected_graph(4, 0.7, 1)
        net = make_network(graph)
        state = init_ecdqn_states(prob, seed=4)
        config = EcRunConfig(scheme="dfp", alpha=0.5)
        for _ in range(15):
            state = ecdqn_step(net, state, prob, config)
            for h in state.h:
                assert_in_box(h)


# ---------------------------------------------------------------------------
# full runs


class TestEcRun:
    def test_converges_on_constrained_quadratic(self):
        prob = constrained_quadratic(4, 5, 2, 0)
        graph = random_connected_graph(4, 1.0, 0)
        trace = ecdqn_run(prob, graph, EcRunConfig(max_iters=600, rse_tol=1e-8))
        assert trace.converged
        assert np.max(trace.rse[trace.rounds]) <= 1e-8
        assert trace.algo == "ecdqn-bfgs"
        assert trace.fusion is True

    def test_final_iterates_feasible(self):
        prob = constrained_quadratic(4, 5, 2, 1)
        graph = random_connected_graph(4, 1.0, 0)
        trace = ecdqn_run(prob, graph, EcRunConfig(max_iters=600, rse_tol=1e-8))
        assert trace.converged
        assert trace.feasibility is not None
        assert trace.feasibility.shape == (trace.rounds + 1, 4)
        assert np.max(trace.feasibility[trace.rounds]) <= 1e-6
        assert trace.beta_norm is not None
        a, b = prob.constraint
        assert np.allclose(
            np.linalg.norm(trace.x_final @ a.T - b, axis=1),
            trace.feasibility[trace.rounds],
        )

    def test_requires_constraint(self):
        prob = constrained_quadratic(3, 4, 1, 0)
        unconstrained = SeparableProblem("qp", prob.local_data)
        unconstrained.reference_solution = np.zeros(4)
        with pytest.raises(ValueError, match="constraint"):
            ecdqn_run(unconstrained, TRIANGLE, EcRunConfig(max_iters=2))

    def test_stalls_at_machine_precision(self):
        # an unreachable tolerance forces the run to saturate; the stall
        # detector must end it instead of burning the whole budget
        prob = constrained_quadratic(1, 4, 1, 3)
        x0 = np.tile(prob.reference_solution + 1e-8, (1, 1))

        # the seeded estimates, started next to the optimum
        g0 = prob.gradients(x0)
        start = replace(init_ecdqn_states(prob), x=x0, v=g0.copy(), last_gradient=g0)
        trace = run_rounds(
            "ecdqn-bfgs", prob, SINGLE, EcRunConfig(max_iters=200, rse_tol=1e-300), start,
            ecdqn_step, stall=(STALL_ROUNDS, 1e-12),
        )
        assert trace.stalled
        assert not trace.converged
        assert trace.rounds < 200

    def test_divergence_is_flagged(self):
        prob = constrained_quadratic(3, 4, 1, 4)
        trace = ecdqn_run(prob, TRIANGLE, EcRunConfig(alpha=1e6, max_iters=100))
        assert trace.diverged and not trace.converged

    def test_default_alpha_is_unit_step(self):
        prob = constrained_quadratic(3, 4, 1, 5)
        trace = ecdqn_run(prob, TRIANGLE, EcRunConfig(max_iters=2, rse_tol=0.0))
        assert trace.alpha == 1.0

    def test_rejects_auto_alpha(self):
        # a step size is a number: "auto" is no longer a form of alpha
        with pytest.raises(ValueError, match="positive number"):
            EcRunConfig(alpha="auto")

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="positive"):
            EcRunConfig(alpha=-1.0)

    @pytest.mark.parametrize("alpha", [np.inf, float("nan")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite positive number"):
            EcRunConfig(alpha=alpha)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            EcRunConfig(scheme="memoryless")

    def test_deterministic_reruns(self):
        prob = logreg_family(4, 5, 1e-2, 8, constraint=True)
        solve_reference(prob)
        graph = random_connected_graph(4, 0.8, 0)
        cfg = EcRunConfig(alpha=0.5, max_iters=20, rse_tol=0.0)
        a = ecdqn_run(prob, graph, cfg)
        b = ecdqn_run(prob, graph, cfg)
        assert np.array_equal(a.rse, b.rse)
        assert np.array_equal(a.bytes_sent, b.bytes_sent)

    def test_csv_gains_constraint_columns(self, tmp_path):
        prob = constrained_quadratic(3, 4, 1, 5)
        trace = ecdqn_run(prob, TRIANGLE, EcRunConfig(max_iters=4, rse_tol=0.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        header = path.read_text().split("\n", 1)[0]
        assert header.endswith("bytes_sent,feasibility,beta_norm")
