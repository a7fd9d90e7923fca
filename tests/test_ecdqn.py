"""Tests for the equality-constrained distributed solver."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqn_mesh import ecdqn
from dqn_mesh.dqn import SyncNetwork, run_rounds
from dqn_mesh.ecdqn import (
    STALL_ROUNDS,
    EcDqnState,
    EcRunConfig,
    KktFactorizationError,
    KktSystem,
    ecdqn_run,
    ecdqn_step,
    init_ecdqn_states,
    kkt_solve,
    kkt_solve_batch,
)
from dqn_mesh.problems import (
    QpLocalData,
    SeparableProblem,
    logreg_family,
    solve_reference,
)
from dqn_mesh.topology import CommGraph, metropolis_weights, random_connected_graph
from oracle import KktError, reference_kkt_solve

TRIANGLE = CommGraph(3, ((0, 1), (1, 2), (0, 2)))
SINGLE = CommGraph(1, ())


def make_network(graph):
    return SyncNetwork(graph=graph, w=metropolis_weights(graph))


def kkt_directions(prob, state):
    """Every agent's primal direction from its own reference saddle-point
    solve, as the solver's round computes it."""
    a, b = prob.constraint
    return np.stack([
        reference_kkt_solve(state.b[i], a, state.v[i], a @ state.x[i] - b)[0]
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


class TestKktSystem:
    def test_rejects_inconsistent_blocks(self):
        with pytest.raises(ValueError, match="block shapes"):
            KktSystem(
                b=np.eye(3), a=np.ones((1, 2)), rhs_stat=np.zeros(3), rhs_prim=np.zeros(1)
            )

    def test_rejects_inconsistent_rhs(self):
        with pytest.raises(ValueError, match="right-hand-side"):
            KktSystem(
                b=np.eye(2), a=np.ones((1, 2)), rhs_stat=np.zeros(2), rhs_prim=np.zeros(2)
            )


class TestKktSolve:
    def test_frozen_pure_feasibility_step(self):
        # identity Hessian, constraint x1 = fixed: the step restores
        # feasibility along the first axis and the multiplier balances it
        sys_ = KktSystem(
            b=np.eye(2),
            a=np.array([[1.0, 0.0]]),
            rhs_stat=np.zeros(2),
            rhs_prim=np.array([1.0]),
        )
        dx, beta = kkt_solve(sys_)
        assert np.allclose(dx, [-1.0, 0.0])
        assert np.allclose(beta, [1.0])

    def test_frozen_mixed_residuals(self):
        # by hand: 2*dx + A'beta = -(2,0), dx2 = -3 => beta = 6, dx1 = -1
        sys_ = KktSystem(
            b=2.0 * np.eye(2),
            a=np.array([[0.0, 1.0]]),
            rhs_stat=np.array([2.0, 0.0]),
            rhs_prim=np.array([3.0]),
        )
        dx, beta = kkt_solve(sys_)
        assert np.allclose(dx, [-1.0, -3.0])
        assert np.allclose(beta, [6.0])

    def test_zero_residuals_give_zero_step(self):
        sys_ = KktSystem(
            b=np.diag([2.0, 3.0]),
            a=np.array([[1.0, 1.0]]),
            rhs_stat=np.zeros(2),
            rhs_prim=np.zeros(1),
        )
        dx, beta = kkt_solve(sys_)
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
        dx, beta = kkt_solve(KktSystem(b=b, a=a, rhs_stat=rs, rhs_prim=rp))
        full = np.block([[b, a.T], [a, np.zeros((m, m))]])
        sol = np.linalg.solve(full, np.concatenate([-rs, -rp]))
        scale = 1.0 + np.linalg.norm(sol)
        assert np.linalg.norm(dx - sol[:n]) <= 1e-8 * scale
        assert np.linalg.norm(beta - sol[n:]) <= 1e-8 * scale

    def test_indefinite_hessian_rejected(self):
        sys_ = KktSystem(
            b=np.diag([1.0, -1.0]),
            a=np.array([[1.0, 0.0]]),
            rhs_stat=np.zeros(2),
            rhs_prim=np.zeros(1),
        )
        with pytest.raises(KktFactorizationError, match="hessian block"):
            kkt_solve(sys_)

    def test_rank_deficient_constraint_rejected(self):
        sys_ = KktSystem(
            b=np.eye(3),
            a=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            rhs_stat=np.zeros(3),
            rhs_prim=np.zeros(2),
        )
        with pytest.raises(KktFactorizationError, match="constraint block"):
            kkt_solve(sys_)

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
        b = np.stack([random_spd(rng, n) for _ in range(n_agents)])
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q[:, :m].T
        rs = rng.standard_normal((n_agents, n))
        rp = rng.standard_normal((n_agents, m))
        dx, beta, ok = kkt_solve_batch(b, a, rs, rp)
        assert ok.all()
        monkeypatch.setattr(np.linalg, "solve", numpy1_solve)
        dx1, beta1, ok1 = kkt_solve_batch(b, a, rs, rp)
        assert np.array_equal(dx1, dx)
        assert np.array_equal(beta1, beta)
        assert ok1.all()

    @pytest.mark.parametrize("stage", ["hessian", "residual"])
    def test_batch_flags_only_the_failing_row(self, stage):
        rng = np.random.default_rng(8)
        b = np.stack([random_spd(rng, 4) for _ in range(5)])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q[:, :2].T
        rs = rng.standard_normal((5, 4))
        rp = rng.standard_normal((5, 2))
        dx, beta, ok = kkt_solve_batch(b, a, rs, rp)
        assert ok.all()
        if stage == "hessian":
            bad = np.diag([-1.0, 1.0, 1.0, 1.0])
        else:
            # positive definite, so its Cholesky succeeds, but too
            # ill-conditioned for the solve to pass the residual check
            q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
            bad = (q * np.array([1.0, 1.0, 1.0, 1e-14])) @ q.T
            bad = 0.5 * (bad + bad.T)
        with pytest.raises(KktError, match=stage):
            reference_kkt_solve(bad, a, rs[2], rp[2])
        with pytest.raises(KktFactorizationError, match=stage):
            kkt_solve(KktSystem(b=bad, a=a, rhs_stat=rs[2], rhs_prim=rp[2]))
        b[2] = bad
        dx_bad, beta_bad, ok = kkt_solve_batch(b, a, rs, rp)
        assert ok.tolist() == [True, True, False, True, True]
        # the other rows keep the all-good batch's bits
        assert np.array_equal(dx_bad[ok], dx[ok])
        assert np.array_equal(beta_bad[ok], beta[ok])

    def test_batch_rows_equal_the_oracle(self):
        rng = np.random.default_rng(11)
        b = np.stack([random_spd(rng, 6, 0.01, 50.0) for _ in range(7)])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = q[:, :3].T
        rs = rng.standard_normal((7, 6))
        rp = rng.standard_normal((7, 3))
        dx, beta, ok = kkt_solve_batch(b, a, rs, rp)
        assert ok.all()
        for i in range(7):
            dx_i, beta_i = reference_kkt_solve(b[i], a, rs[i], rp[i])
            assert np.array_equal(dx[i], dx_i)
            assert np.array_equal(beta[i], beta_i)

    def test_singular_row_is_flagged_without_raising(self):
        rng = np.random.default_rng(9)
        b = np.stack([random_spd(rng, 4) for _ in range(5)])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q[:, :2].T
        rs = rng.standard_normal((5, 4))
        rp = rng.standard_normal((5, 2))
        dx, beta, ok = kkt_solve_batch(b, a, rs, rp)
        assert ok.all()
        b[3] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(b, rs[:, :, None])
        dx_bad, beta_bad, ok = kkt_solve_batch(b, a, rs, rp)
        assert ok.tolist() == [True, True, True, False, True]
        assert np.array_equal(dx_bad[ok], dx[ok])
        assert np.array_equal(beta_bad[ok], beta[ok])
        with pytest.raises(KktFactorizationError, match="hessian block"):
            kkt_solve(KktSystem(b=b[3], a=a, rhs_stat=rs[3], rhs_prim=rp[3]))

    def test_non_finite_right_hand_side_is_flagged(self):
        # a NaN residual norm fails the residual check instead of passing it
        b = np.stack([np.eye(3)] * 2)
        a = np.array([[1.0, 0.0, 0.0]])
        rs = np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])
        rp = np.zeros((2, 1))
        dx, beta, ok = kkt_solve_batch(b, a, rs, rp)
        assert ok.tolist() == [False, True]
        dx_1, beta_1 = kkt_solve(KktSystem(b=b[1], a=a, rhs_stat=rs[1], rhs_prim=rp[1]))
        assert np.array_equal(dx[1], dx_1) and np.array_equal(beta[1], beta_1)
        with pytest.raises(KktFactorizationError, match="residual"):
            kkt_solve(KktSystem(b=b[0], a=a, rhs_stat=rs[0], rhs_prim=rp[0]))
        with pytest.raises(KktError, match="residual"):
            reference_kkt_solve(b[0], a, rs[0], rp[0])

    def test_rank_deficient_constraint_flags_every_row(self):
        rng = np.random.default_rng(10)
        b = np.stack([random_spd(rng, 4) for _ in range(4)])
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        # the second constraint row repeats the first
        a = np.stack([q[:, 0], q[:, 0], q[:, 1]])
        rs = rng.standard_normal((4, 4))
        rp = rng.standard_normal((4, 3))
        dx, beta, ok = kkt_solve_batch(b, a, rs, rp)
        assert not ok.any()
        for i in range(4):
            with pytest.raises(KktFactorizationError, match="constraint block"):
                kkt_solve(KktSystem(b=b[i], a=a, rhs_stat=rs[i], rhs_prim=rp[i]))


# ---------------------------------------------------------------------------
# initialization


class TestInit:
    def test_requires_constraint(self):
        prob = constrained_quadratic(3, 4, 1, 0)
        unconstrained = SeparableProblem("qp", prob.local_data)
        with pytest.raises(ValueError, match="constraint"):
            init_ecdqn_states(unconstrained)

    def test_estimate_spectrum_in_requested_band(self):
        prob = constrained_quadratic(3, 5, 2, 1)
        state = init_ecdqn_states(prob, seed=3)
        assert state.b.shape == (3, 5, 5)
        for b in state.b:
            vals = np.linalg.eigvalsh(b)
            assert vals[0] >= 0.5 * (1 - 1e-10)
            assert vals[-1] <= 2.0 * (1 + 1e-10)
            assert np.allclose(b, b.T)

    def test_tracker_and_multiplier_start(self):
        prob = constrained_quadratic(3, 4, 2, 2)
        state = init_ecdqn_states(prob, seed=0)
        for i in range(3):
            assert np.allclose(state.v[i], prob.locals[i].gradient(state.x[i]))
        assert np.array_equal(state.beta, np.zeros((3, 2)))

    def test_seed_reproducibility(self):
        prob = constrained_quadratic(3, 4, 1, 0)
        a = init_ecdqn_states(prob, seed=11)
        b = init_ecdqn_states(prob, seed=11)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.b, b.b)


# ---------------------------------------------------------------------------
# one-agent exactness: a true-Hessian step lands on the constrained optimum


class TestSingleAgentNewton:
    def test_exact_hessian_solves_in_one_step(self):
        prob = constrained_quadratic(1, 5, 2, 7)
        a, b = prob.constraint
        net = make_network(SINGLE)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(5)
        g0 = prob.locals[0].gradient(x0)
        # recover the exact quadratic Hessian column by column
        g_origin = prob.locals[0].gradient(np.zeros(5))
        p = np.array([prob.locals[0].gradient(e) - g_origin for e in np.eye(5)]).T
        state = EcDqnState(
            x=x0[None, :],
            v=g0[None, :].copy(),
            b=0.5 * (p + p.T)[None, :, :],
            beta=np.zeros((1, 2)),
            last_gradient=g0[None, :].copy(),
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
# estimate spectrum stays inside the box [EIG_FLOOR, EIG_CEILING]


def box_config(monkeypatch):
    """The run config of a round whose spectrum box is [1e-3, 1e3]."""
    monkeypatch.setattr(ecdqn, "EIG_FLOOR", 1e-3)
    monkeypatch.setattr(ecdqn, "EIG_CEILING", 1e3)
    return EcRunConfig()


class TestSpectrumBox:
    def test_tiny_eigenvalue_is_repaired(self, monkeypatch):
        prob = constrained_quadratic(3, 4, 1, 9)
        net = make_network(TRIANGLE)
        state = init_ecdqn_states(prob, seed=2)
        b = state.b.copy()
        b[1] = np.diag([1e-9, 1.0, 1.0, 1.0])
        box = box_config(monkeypatch)
        stepped = ecdqn_step(net, replace(state, b=b), prob, box)
        assert stepped.safeguard_repairs >= 1
        for b in stepped.b:
            vals = np.linalg.eigvalsh(b)
            assert vals[0] > 0.49e-3
            assert vals[-1] <= 1e3 * (1 + 1e-12)

    def test_indefinite_estimate_is_repaired_before_kkt_retry(self, monkeypatch):
        prob = constrained_quadratic(3, 4, 1, 9)
        net = make_network(TRIANGLE)
        state = init_ecdqn_states(prob, seed=2)
        b = state.b.copy()
        b[1] = np.diag([-1.0, 1.0, 1.0, 1.0])
        box = box_config(monkeypatch)
        stepped = ecdqn_step(net, replace(state, b=b), prob, box)
        assert stepped.kkt_retries == 1
        assert stepped.safeguard_repairs >= 1
        assert np.linalg.eigvalsh(stepped.b[1])[0] > 0.49e-3

    def test_box_holds_over_many_rounds(self):
        prob = logreg_family(4, 6, 1e-2, 3, constraint=True)
        solve_reference(prob)
        graph = random_connected_graph(4, 0.7, 1)
        net = make_network(graph)
        state = init_ecdqn_states(prob, seed=4)
        config = EcRunConfig(scheme="dfp", alpha=0.5)
        for _ in range(15):
            state = ecdqn_step(net, state, prob, config)
            for b in state.b:
                vals = np.linalg.eigvalsh(b)
                assert vals[0] > 0.49e-3
                assert vals[-1] <= 1e3 * (1 + 1e-12)


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

        def start(network):
            # the seeded estimates, started next to the optimum
            g0 = prob.gradients(x0)
            return replace(init_ecdqn_states(prob), x=x0, v=g0.copy(), last_gradient=g0)

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
