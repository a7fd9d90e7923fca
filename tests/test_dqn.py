"""Tests for the unconstrained distributed solver and its baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqn_mesh import dqn
from dqn_mesh.dqn import (
    DIVERGENCE_LIMIT,
    GAMMA,
    DivergedError,
    _blown_up,
    RunConfig,
    SyncNetwork,
    diging_atc_run,
    dqn_run,
    dqn_step,
    init_dqn_states,
    track_gradient,
)
from dqn_mesh.ecdqn import EcRunConfig, ecdqn_run
from dqn_mesh.problems import (
    QpLocalData,
    SeparableProblem,
    logreg_family,
    qp_family,
    solve_reference,
)
from dqn_mesh.topology import CommGraph, metropolis_weights, random_connected_graph
from one_agent import agent_problems
from oracle import curvature_ok, mean_smoothness, safe_step_size, spectral_contraction

TRIANGLE = CommGraph(3, ((0, 1), (1, 2), (0, 2)))
PATH3 = CommGraph(3, ((0, 1), (1, 2)))
SINGLE = CommGraph(1, ())


def make_network(graph):
    return SyncNetwork(graph=graph, w=metropolis_weights(graph))


def quadratic_problem(n_agents=3, dim=4, seed=0):
    return qp_family(n_agents, dim, (2.0, 10.0), seed)


def single_agent_quadratic(dim, seed):
    # the quadratic generator needs several agents to assemble a positive
    # definite aggregate, so one-agent tests build their local by hand
    rng = np.random.default_rng(seed)
    q_mat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    p = (q_mat * rng.uniform(0.5, 2.0, size=dim)) @ q_mat.T
    lin = rng.standard_normal(dim)
    prob = SeparableProblem("qp", [QpLocalData(p=p, q=lin)])
    prob.reference_solution = np.linalg.solve(p, -lin)
    return prob


# ---------------------------------------------------------------------------
# mixing engine and byte ledger


class TestSyncNetwork:
    def test_mix_applies_weight_matrix(self):
        net = make_network(TRIANGLE)
        rows = np.arange(6.0).reshape(3, 2)
        assert np.allclose(net.mix(rows, account=False), net.w @ rows)

    def test_bytes_per_payload(self):
        net = make_network(PATH3)
        rows = np.zeros((3, 5))
        net.mix(rows)
        # 8 bytes per scalar, 5 scalars, one copy per neighbor
        assert net.sent_bytes.tolist() == [40, 80, 40]
        net.mix(rows, account=False)
        assert net.sent_bytes.tolist() == [40, 80, 40]

    def test_each_payload_width_costs_its_own_bytes(self):
        # the cost of a width is computed once and reused, per width
        net = make_network(PATH3)
        for width in (5, 2, 5):
            net.mix(np.zeros((3, width)))
        assert net.sent_bytes.tolist() == [96, 192, 96]

    def test_rejects_row_mismatch(self):
        net = make_network(TRIANGLE)
        with pytest.raises(ValueError, match="row count"):
            net.mix(np.zeros((2, 4)))

    def test_rejects_weight_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match the graph"):
            SyncNetwork(graph=TRIANGLE, w=np.eye(2))


class TestByteLedger:
    def test_quasi_newton_rounds_cost_24_n_deg(self):
        prob = quadratic_problem()
        graph = PATH3
        trace = dqn_run(prob, graph, RunConfig(alpha=0.3, max_iters=12, rse_tol=0.0))
        deg = graph.degrees()
        k = np.arange(trace.rounds + 1)
        expected = 24 * prob.dim * np.outer(k, deg)
        assert np.array_equal(trace.bytes_sent, expected)

    def test_baseline_rounds_cost_16_n_deg(self):
        prob = quadratic_problem()
        graph = TRIANGLE
        trace = diging_atc_run(prob, graph, RunConfig(alpha=0.2, max_iters=9, rse_tol=0.0))
        deg = graph.degrees()
        k = np.arange(trace.rounds + 1)
        expected = 16 * prob.dim * np.outer(k, deg)
        assert np.array_equal(trace.bytes_sent, expected)

    def test_setup_round_is_free(self):
        prob = quadratic_problem()
        trace = dqn_run(prob, TRIANGLE, RunConfig(alpha=0.3, max_iters=3, rse_tol=0.0))
        assert np.array_equal(trace.bytes_sent[0], np.zeros(3))


# ---------------------------------------------------------------------------
# initialization


class TestInit:
    def test_tracker_starts_at_local_gradients(self):
        prob = quadratic_problem()
        state = init_dqn_states(prob, seed=5)
        assert state.h.shape == (3, prob.dim, prob.dim)
        agents = agent_problems(prob)
        for i in range(3):
            g = agents[i].gradients(state.x[i][None])[0]
            assert np.allclose(state.v[i], g)
            assert np.allclose(state.last_gradient[i], g)
            assert np.allclose(state.h[i], 0.1 * np.eye(prob.dim))

    def test_round_zero_is_unmetered(self):
        # every method's round-0 state has sent nothing, and DQN's round-0
        # direction is zero: each round forms its direction when it starts
        prob = quadratic_problem()
        assert not init_dqn_states(prob).d.any()
        cfg = RunConfig(alpha=0.3, max_iters=3, rse_tol=0.0)
        traces = [dqn_run(prob, TRIANGLE, cfg), diging_atc_run(prob, TRIANGLE, cfg)]
        ec_prob = logreg_family(3, 4, 1e-2, 0, constraint=True)
        traces.append(ecdqn_run(ec_prob, TRIANGLE, EcRunConfig(max_iters=3, rse_tol=0.0)))
        for trace in traces:
            assert trace.bytes_sent[0].tolist() == [0, 0, 0]
        assert traces[0].z_consensus[0] == 0.0

    def test_rejects_constrained_problem(self):
        prob = logreg_family(3, 4, 1e-2, 0, constraint=True)
        with pytest.raises(ValueError, match="constraint"):
            init_dqn_states(prob)


# ---------------------------------------------------------------------------
# gradient tracking invariant


class TestTracking:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5_000), rounds=st.integers(1, 30))
    def test_tracker_mean_equals_gradient_mean(self, seed, rounds):
        prob = qp_family(4, 4, (2.0, 8.0), seed)
        graph = random_connected_graph(4, 0.7, seed)
        net = make_network(graph)
        state = init_dqn_states(prob, seed=seed)
        for _ in range(rounds):
            state = dqn_step(net, state, prob, RunConfig(alpha=0.2))
        v_bar = state.v.mean(axis=0)
        g_bar = state.last_gradient.mean(axis=0)
        assert np.linalg.norm(v_bar - g_bar) <= 1e-10 * (1.0 + np.linalg.norm(g_bar))

    def test_track_gradient_returns_fresh_gradients(self):
        prob = quadratic_problem()
        net = make_network(TRIANGLE)
        state = init_dqn_states(prob)
        new_x = state.x * 0.5
        new_v, new_g = track_gradient(net, state, new_x, prob)
        agents = agent_problems(prob)
        for i in range(3):
            assert np.allclose(new_g[i], agents[i].gradients(new_x[i][None])[0])
        assert np.allclose(new_v, net.w @ (state.v + new_g - state.last_gradient))


# ---------------------------------------------------------------------------
# single-agent runs collapse to centralized methods


def centralized_qn_oracle(problem, alpha, c0_scale, scheme, steps, seed):
    # straight-line reimplementation of the one-agent recursion: with a
    # single node every mixing step is the identity and the tracker equals
    # the gradient, so this is a plain curvature-estimating descent loop
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(problem.dim)
    (agent,) = agent_problems(problem)
    g = agent.gradients(x[None])[0]
    c = c0_scale * np.eye(problem.dim)
    z = -(c @ g)
    history = [x.copy()]
    for _ in range(steps):
        x_new = x + alpha * z
        g_new = agent.gradients(x_new[None])[0]
        s, y = x_new - x, g_new - g
        rho = y @ s
        if rho > 1e-10 * np.linalg.norm(y) * np.linalg.norm(s):
            if scheme == "bfgs":
                cy = c @ y
                c = c - (np.outer(s, cy) + np.outer(cy, s)) / rho
                c = c + (1.0 + (y @ cy) / rho) * np.outer(s, s) / rho
            else:
                cy = c @ y
                c = c + np.outer(s, s) / rho - np.outer(cy, cy) / (y @ cy)
        z = -(c @ g_new)
        x, g = x_new, g_new
        history.append(x.copy())
    return np.stack(history)


class TestSingleAgent:
    @pytest.mark.parametrize("scheme", ["bfgs", "dfp"])
    def test_matches_centralized_quasi_newton(self, scheme):
        prob = single_agent_quadratic(5, 3)
        net = make_network(SINGLE)
        state = init_dqn_states(prob, seed=9)
        xs = [state.x[0].copy()]
        for _ in range(50):
            state = dqn_step(net, state, prob, RunConfig(scheme=scheme, alpha=0.5))
            xs.append(state.x[0].copy())
        oracle = centralized_qn_oracle(prob, 0.5, 0.1, scheme, 50, seed=9)
        assert np.allclose(np.stack(xs), oracle, atol=1e-12, rtol=0.0)

    def test_baseline_is_gradient_descent(self):
        prob = single_agent_quadratic(4, 1)
        trace = diging_atc_run(prob, SINGLE, RunConfig(alpha=0.4, max_iters=30, rse_tol=0.0, seed=2))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4)
        (agent,) = agent_problems(prob)
        x_star = prob.reference_solution
        for k in range(31):
            assert trace.rse[k, 0] == pytest.approx(
                np.linalg.norm(x - x_star) / np.linalg.norm(x_star), abs=1e-12
            )
            x = x - 0.4 * agent.gradients(x[None])[0]


# ---------------------------------------------------------------------------
# joint-form oracle: all agents stacked into one big vector


def kron_joint_oracle(problem, w, state, alpha, rounds):
    # independent implementation of the same rounds using the Kronecker
    # lift: mixing n-vectors agent-wise equals multiplying the stacked
    # vector by kron(W, I)
    n_agents, dim = w.shape[0], problem.dim
    big_w = np.kron(w, np.eye(dim))
    x = state.x.ravel()
    v = state.v.ravel()
    g = state.last_gradient.ravel()
    cs = list(state.h.copy())
    agents = agent_problems(problem)

    def grad_stack(xf):
        return np.concatenate(
            [agents[i].gradients(xf[None, i * dim : (i + 1) * dim])[0] for i in range(n_agents)]
        )

    for _ in range(rounds):
        # every round forms its direction from the state it starts from
        z = big_w @ np.concatenate(
            [-(cs[i] @ v[i * dim : (i + 1) * dim]) for i in range(n_agents)]
        )
        x_new = big_w @ (x + alpha * z)
        g_new = grad_stack(x_new)
        v_new = big_w @ (v + g_new - g)
        for i in range(n_agents):
            sl = slice(i * dim, (i + 1) * dim)
            s_vec, y_vec = x_new[sl] - x[sl], v_new[sl] - v[sl]
            rho = y_vec @ s_vec
            # early transient rounds can produce flat or negative pairs;
            # those rounds keep the previous estimate
            if rho > 1e-10 * np.linalg.norm(y_vec) * np.linalg.norm(s_vec):
                cy = cs[i] @ y_vec
                c = cs[i] - (np.outer(s_vec, cy) + np.outer(cy, s_vec)) / rho
                cs[i] = c + (1.0 + (y_vec @ cy) / rho) * np.outer(s_vec, s_vec) / rho
        x, v, g = x_new, v_new, g_new
    # z is the direction the last round used
    return x, v, z


class TestJointFormOracle:
    def test_two_rounds_match_stacked_recursion(self):
        prob = quadratic_problem(n_agents=3, dim=4, seed=6)
        net = make_network(TRIANGLE)
        state = init_dqn_states(prob, seed=4)
        ox, ov, oz = kron_joint_oracle(prob, net.w, state, 0.3, rounds=2)
        for _ in range(2):
            state = dqn_step(net, state, prob, RunConfig(scheme="bfgs", alpha=0.3))
        assert np.allclose(state.x.ravel(), ox, atol=1e-12, rtol=0.0)
        assert np.allclose(state.v.ravel(), ov, atol=1e-12, rtol=0.0)
        assert np.allclose(state.d.ravel(), oz, atol=1e-12, rtol=0.0)


# ---------------------------------------------------------------------------
# execution modes and failure handling


class TestRunBehavior:
    def test_divergence_is_flagged(self):
        prob = quadratic_problem()
        trace = dqn_run(prob, TRIANGLE, RunConfig(alpha=50.0, max_iters=200))
        assert trace.diverged and not trace.converged
        assert trace.rounds < 200
        assert trace.rse.shape[0] == trace.rounds + 1

    def test_baseline_divergence_is_flagged(self):
        prob = quadratic_problem()
        trace = diging_atc_run(prob, TRIANGLE, RunConfig(alpha=1e4, max_iters=200))
        assert trace.diverged and not trace.converged

    @pytest.mark.parametrize("run", [dqn_run, diging_atc_run])
    def test_runs_reject_constrained_problem(self, run):
        # the unconstrained methods would ignore the constraint while the
        # reference is the constrained optimum
        prob = logreg_family(5, 3, 1e-2, 0, constraint=True)
        solve_reference(prob)
        graph = random_connected_graph(5, 0.8, 0)
        with pytest.raises(ValueError, match="constraint"):
            run(prob, graph, RunConfig(alpha=0.3, max_iters=0))

    @pytest.mark.parametrize("run", [dqn_run, diging_atc_run, ecdqn_run])
    def test_runs_reject_a_graph_of_another_size(self, monkeypatch, run):
        # the mismatch is named before the reference is solved, not found
        # at the first mix
        prob = logreg_family(5, 3, 1e-2, 0, constraint=run is ecdqn_run)
        assert prob.reference_solution is None
        monkeypatch.setattr(dqn, "solve_reference", lambda problem: pytest.fail("solved"))
        config = EcRunConfig() if run is ecdqn_run else RunConfig(alpha=0.3)
        with pytest.raises(ValueError, match="graph has 3 agents, the problem 5"):
            run(prob, TRIANGLE, config)

    @pytest.mark.parametrize(
        "values, blown",
        [
            ([0.0, np.nan], True),
            ([1.0, np.inf], True),
            ([-np.inf, 1.0], True),
            ([[np.nan, np.inf], [-np.inf, 0.0]], True),
            ([DIVERGENCE_LIMIT, -1.0], False),
            ([-DIVERGENCE_LIMIT, 1.0], False),
            ([np.nextafter(DIVERGENCE_LIMIT, np.inf), 0.0], True),
            ([[1.0, 2.0], [-2e50, 3.0]], True),
            ([[1.0, -2.0], [3.5e-300, 0.0]], False),
            ([[0.0, 0.0]], False),
        ],
    )
    def test_blown_up_cuts_at_the_divergence_limit(self, values, blown):
        # a NaN anywhere counts, and the limit itself still counts as finite
        assert _blown_up(np.array(values, dtype=float)) is blown

    def test_huge_step_raises_diverged_error(self):
        prob = quadratic_problem()
        net = make_network(TRIANGLE)
        state = init_dqn_states(prob)
        with pytest.raises(DivergedError):
            for _ in range(50):
                state = dqn_step(net, state, prob, RunConfig(alpha=1e20))

    def test_convergence_on_well_conditioned_quadratic(self):
        prob = quadratic_problem(n_agents=4, dim=4, seed=2)
        graph = random_connected_graph(4, 0.9, 1)
        trace = dqn_run(prob, graph, RunConfig(alpha=0.3, max_iters=500, rse_tol=1e-9))
        assert trace.converged
        assert np.max(trace.rse[trace.rounds]) <= 1e-9
        assert trace.x_final.shape == (4, 4)
        final_rse = np.linalg.norm(
            trace.x_final - prob.reference_solution, axis=1
        ) / np.linalg.norm(prob.reference_solution)
        assert np.allclose(final_rse, trace.rse[trace.rounds])

    def test_zero_reference_falls_back_to_absolute_error(self):
        prob = SeparableProblem("qp", [QpLocalData(p=np.eye(3), q=np.zeros(3))] * 3)
        solve_reference(prob)
        assert np.linalg.norm(prob.reference_solution) == 0.0
        net_seed = 7
        trace = dqn_run(prob, TRIANGLE, RunConfig(alpha=0.5, max_iters=5, rse_tol=0.0, seed=net_seed))
        rng = np.random.default_rng(net_seed)
        x0 = rng.standard_normal((3, 3))
        assert np.allclose(trace.rse[0], np.linalg.norm(x0, axis=1))

    def test_stop_on_tolerance_freezes_ledger(self):
        prob = quadratic_problem(n_agents=4, dim=4, seed=5)
        graph = random_connected_graph(4, 1.0, 0)
        trace = dqn_run(prob, graph, RunConfig(alpha=0.3, max_iters=800, rse_tol=1e-8))
        assert trace.converged
        deg = graph.degrees()
        assert np.array_equal(trace.bytes_sent[trace.rounds], 24 * 4 * trace.rounds * deg)


# ---------------------------------------------------------------------------
# step-size guardrails


class TestSafeStepSize:
    def test_fully_mixing_network_is_unrestricted(self):
        assert safe_step_size(0.0, 1.0, 1e3, 10, 5) == np.inf

    def test_shrinks_with_contraction(self):
        vals = [safe_step_size(c, 1.0, 1e3, 10, 5) for c in (0.1, 0.5, 0.9)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_formula_value(self):
        # (1 - 0.5) / (2 * 0.125 * 2 * 1000 * sqrt(4))
        expected = 0.5 / (2 * 0.125 * 2.0 * 1e3 * 2.0)
        assert safe_step_size(0.5, 2.0, 1e3, 7, 4) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="contraction"):
            safe_step_size(1.0, 1.0, 1e3, 4, 4)
        with pytest.raises(ValueError, match="positive"):
            safe_step_size(0.5, 0.0, 1e3, 4, 4)

    def test_auto_alpha_makes_steady_progress(self):
        # 90% of the guaranteed step, capped at 1, with the curvature
        # ceiling GAMMA; the guaranteed step is very conservative, so check
        # contraction of the error rather than full convergence inside the
        # round budget
        prob = quadratic_problem(n_agents=4, dim=4, seed=0)
        graph = random_connected_graph(4, 1.0, 0)
        contraction = spectral_contraction(metropolis_weights(graph))
        bound = safe_step_size(contraction, mean_smoothness(prob), GAMMA, prob.dim, prob.n_agents)
        alpha = min(1.0, 0.9 * bound)
        trace = dqn_run(prob, graph, RunConfig(alpha=alpha, max_iters=2000, rse_tol=1e-8))
        assert 0 < trace.alpha <= 1.0
        assert not trace.diverged
        worst0 = float(np.max(trace.rse[0]))
        worst_end = float(np.max(trace.rse[trace.rounds]))
        assert worst_end <= 0.05 * worst0


class TestRunConfig:
    def test_diging_rejects_a_scheme(self):
        # DIGing-ATC has no curvature estimate, so a scheme would change
        # nothing; RunConfig's default (which an explicit "bfgs" equals) runs
        prob = quadratic_problem()
        with pytest.raises(ValueError, match="DIGing-ATC has no curvature estimate"):
            diging_atc_run(prob, TRIANGLE, RunConfig(alpha=0.2, scheme="dfp"))
        assert diging_atc_run(prob, TRIANGLE, RunConfig(alpha=0.2, max_iters=3)).rounds == 3

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown quasi-Newton scheme"):
            RunConfig(alpha=0.1, scheme="sr1")

    def test_rejects_alpha_typo(self):
        with pytest.raises(ValueError, match="positive number"):
            RunConfig(alpha="fast")

    def test_rejects_auto_alpha(self):
        # a step size is a number: "auto" is no longer a form of alpha
        with pytest.raises(ValueError, match="positive number"):
            RunConfig(alpha="auto")

    def test_alpha_is_required(self):
        with pytest.raises(TypeError, match="alpha"):
            RunConfig()

    @pytest.mark.parametrize("alpha", [0, -1.0, -0.1])
    def test_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(ValueError, match="positive number"):
            RunConfig(alpha=alpha)

    @pytest.mark.parametrize("alpha", [np.inf, float("nan")])
    def test_rejects_non_finite_alpha(self, alpha):
        # an infinite step makes every mixed iterate non-finite in round one
        with pytest.raises(ValueError, match="finite positive number"):
            RunConfig(alpha=alpha)


# ---------------------------------------------------------------------------
# trace serialization


class TestRunTrace:
    def test_csv_header_and_shape(self, tmp_path):
        prob = quadratic_problem()
        trace = dqn_run(prob, TRIANGLE, RunConfig(alpha=0.3, max_iters=4, rse_tol=0.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == (
            "round,agent,rse,x_consensus_err,v_consensus_err,"
            "mean_grad_norm,objective,bytes_sent"
        )
        assert len(lines) == 1 + 3 * (trace.rounds + 1)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[-1] == "0"

    def test_csv_round_trips_reproducibly(self, tmp_path):
        prob = quadratic_problem()
        cfg = RunConfig(alpha=0.3, max_iters=6, rse_tol=0.0)
        a = dqn_run(prob, TRIANGLE, cfg)
        b = dqn_run(prob, TRIANGLE, cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_text() == pb.read_text()

    def test_summary_dict_fields(self):
        prob = quadratic_problem()
        trace = dqn_run(prob, TRIANGLE, RunConfig(alpha=0.3, max_iters=4, rse_tol=0.0))
        d = trace.summary_dict()
        assert d["algo"] == "dqn-bfgs"
        assert d["rounds"] == 4
        assert d["converged"] is False
        assert len(d["tracking_residuals"]) == 5
        assert d["wall_time_ms"] >= 0.0
        # recount the skipped pairs with the per-pair curvature test
        net = make_network(TRIANGLE)
        state = init_dqn_states(prob)
        skipped = 0
        for _ in range(4):
            new = dqn_step(net, state, prob, RunConfig(alpha=0.3))
            skipped += sum(
                not curvature_ok(new.x[i] - state.x[i], new.v[i] - state.v[i])
                for i in range(3)
            )
            state = new
        assert skipped > 0
        assert d["skipped_pairs"] == skipped
        assert d["safeguard_repairs"] == 0
        assert d["kkt_retries"] is None
