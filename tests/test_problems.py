"""Tests for the benchmark problem generators and reference solvers."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqn_mesh.problems import (
    REFERENCE_TOL,
    BasisPursuitLocalData,
    LogRegLocalData,
    QpLocalData,
    ReferenceSolveError,
    SeparableProblem,
    basis_pursuit_family,
    load_problem,
    logreg_family,
    qp_family,
    save_problem,
    solve_reference,
)
from one_agent import agent_problems
from oracle import logistic_hessian, mean_smoothness, smoothness_bound


def fd_gradient(fun, x, h=1e-6):
    # central-difference oracle, coded independently of any gradient rule
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def assert_gradient_matches(agent, x, rtol=1e-5):
    """One agent's gradient, from its one-agent problem, against finite
    differences of that problem's value."""
    g = agent.gradients(x[None])[0]
    g_fd = fd_gradient(agent.objective_value, x)
    assert np.linalg.norm(g - g_fd) <= rtol * (1.0 + np.linalg.norm(g))


# ---------------------------------------------------------------------------
# frozen local-objective examples, verified by hand


class TestFrozenLocals:
    def test_quadratic_value_and_gradient(self):
        data = QpLocalData(p=np.diag([2.0, 4.0]), q=np.array([1.0, -1.0]))
        agent = SeparableProblem("qp", [data])
        x = np.array([1.0, 1.0])
        # 0.5*(2+4) + (1-1) = 3
        assert agent.objective_value(x) == pytest.approx(3.0)
        assert np.allclose(agent.gradients(x[None])[0], [3.0, 3.0])
        assert smoothness_bound("qp", data) == pytest.approx(4.0)

    def test_logistic_at_origin(self):
        data = LogRegLocalData(
            features=np.array([[1.0, 0.0]]), labels=np.array([1.0]), reg=0.0
        )
        agent = SeparableProblem("logreg", [data])
        x = np.zeros(2)
        assert agent.objective_value(x) == pytest.approx(np.log(2.0))
        # d/dx log(1+exp(-x1)) at 0 is -sigma(0) = -1/2 on the first coordinate
        assert np.allclose(agent.gradients(x[None])[0], [-0.5, 0.0])

    def test_l1_least_squares_off_kink(self):
        data = BasisPursuitLocalData(
            a=np.array([[1.0, 0.0]]), b=np.array([1.0]), l1=0.5
        )
        agent = SeparableProblem("basis-pursuit", [data])
        x = np.array([2.0, -3.0])
        # residual 1, so 0.5 + 0.5*(|2|+|-3|) = 3
        assert agent.objective_value(x) == pytest.approx(3.0)
        assert np.allclose(agent.gradients(x[None])[0], [1.5, -0.5])
        # the l1 family is the nonsmooth one: its gradient is a subgradient
        assert agent.family == "basis-pursuit"


# ---------------------------------------------------------------------------
# gradient callables against the finite-difference oracle


class TestGradients:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_quadratic_gradients(self, seed):
        prob = qp_family(4, 8, (2.0, 50.0), seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(8)
        for agent in agent_problems(prob):
            assert_gradient_matches(agent, x)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_logistic_gradients(self, seed):
        prob = logreg_family(4, 6, 1e-2, seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(6)
        for agent in agent_problems(prob):
            assert_gradient_matches(agent, x)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_l1_gradients_away_from_kinks(self, seed):
        prob = basis_pursuit_family(4, 8, 1e-2, seed)
        rng = np.random.default_rng(seed + 1)
        # keep every coordinate well clear of zero so the subgradient is a
        # plain gradient in the differencing neighborhood
        x = rng.choice([-1.0, 1.0], size=8) * rng.uniform(0.5, 1.5, size=8)
        for agent in agent_problems(prob):
            assert_gradient_matches(agent, x)


# ---------------------------------------------------------------------------
# container validation and aggregation


def tiny_quadratic(dim, scale=1.0):
    """The record of 0.5 * scale * ||x||^2."""
    return QpLocalData(p=scale * np.eye(dim), q=np.zeros(dim))


class TestSeparableProblem:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SeparableProblem("qp", [])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="share one dimension"):
            SeparableProblem("qp", [tiny_quadratic(2), tiny_quadratic(3)])

    def test_rejects_bad_constraint_shapes(self):
        data = [tiny_quadratic(4)]
        with pytest.raises(ValueError, match="shapes"):
            SeparableProblem("qp", data, constraint=(np.ones((1, 3)), np.ones(1)))
        with pytest.raises(ValueError, match="shapes"):
            SeparableProblem("qp", data, constraint=(np.ones((1, 4)), np.ones(2)))

    def test_rejects_rank_deficient_constraint(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="full row rank"):
            SeparableProblem("qp", [tiny_quadratic(3)], constraint=(a, np.zeros(2)))

    def test_rejects_overdetermined_constraint(self):
        a = np.vstack([np.eye(2), np.ones((1, 2))])
        with pytest.raises(ValueError, match="more constraints"):
            SeparableProblem("qp", [tiny_quadratic(2)], constraint=(a, np.zeros(3)))

    def test_mean_aggregation(self):
        prob = SeparableProblem("qp", [tiny_quadratic(3, 1.0), tiny_quadratic(3, 3.0)])
        x = np.array([1.0, 2.0, -1.0])
        # means of 0.5||x||^2 and 1.5||x||^2
        assert prob.objective_value(x) == pytest.approx(6.0)
        assert np.allclose(prob.mean_gradient(x), 2.0 * x)
        assert mean_smoothness(prob) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: qp_family(4, 5, (2.0, 20.0), 3),
            lambda: logreg_family(4, 5, 1e-2, 3),
            lambda: basis_pursuit_family(4, 5, 1e-2, 3),
        ],
        ids=["qp", "logreg", "basis-pursuit"],
    )
    def test_smoothness_is_the_mean_record_bound(self, make):
        # every family's record has a bound, so the mean objective's is a number
        prob = make()
        bounds = [smoothness_bound(prob.family, d) for d in prob.local_data]
        assert all(np.isfinite(b) and b > 0.0 for b in bounds)
        assert mean_smoothness(prob) == float(np.mean(bounds))


# ---------------------------------------------------------------------------
# quadratic family


class TestQpFamily:
    def test_conditioning_lands_in_range(self):
        for seed in range(5):
            prob = qp_family(6, 12, (5.0, 80.0), seed)
            assert 5.0 * (1 - 1e-6) <= prob.achieved_cond <= 80.0 * (1 + 1e-6)

    def test_degenerate_range_hits_target(self):
        prob = qp_family(5, 10, (25.0, 25.0), 3)
        assert prob.achieved_cond == pytest.approx(25.0, rel=1e-6)

    def test_aggregate_smoothness_normalized(self):
        prob = qp_family(5, 10, (2.0, 30.0), 7)
        p_mean = sum(d.p for d in prob.local_data) / prob.n_agents
        assert np.linalg.eigvalsh(p_mean)[-1] == pytest.approx(1.0, rel=1e-9)

    def test_local_blocks_rank_deficient(self):
        prob = qp_family(6, 16, (2.0, 30.0), 11)
        for d in prob.local_data:
            assert np.linalg.matrix_rank(d.p) < 16

    def test_seed_determinism(self):
        a = qp_family(4, 8, (2.0, 20.0), 42)
        b = qp_family(4, 8, (2.0, 20.0), 42)
        for da, db in zip(a.local_data, b.local_data):
            assert np.array_equal(da.p, db.p)
            assert np.array_equal(da.q, db.q)

    def test_rejects_scalar_dimension(self):
        with pytest.raises(ValueError, match="dim >= 2"):
            qp_family(3, 1, (2.0, 5.0), 0)

    def test_rejects_infeasible_row_budget(self):
        # one agent can never contribute enough rows for a full-rank aggregate
        with pytest.raises(ValueError, match="too few agents"):
            qp_family(1, 5, (2.0, 5.0), 0)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError, match="1 <= lo <= hi"):
            qp_family(3, 8, (5.0, 2.0), 0)

    def test_reference_is_stationary(self):
        prob = qp_family(5, 10, (2.0, 40.0), 2)
        x = solve_reference(prob)
        assert np.linalg.norm(prob.mean_gradient(x)) <= 1e-10
        assert prob.reference_solution is x

    @pytest.mark.parametrize("n_agents, dim", [(5, 10), (50, 24), (50, 40), (100, 10)])
    def test_reference_is_the_linear_solve(self, n_agents, dim):
        # the KKT solve with no constraint rows is the solve of P x = -q
        prob = qp_family(n_agents, dim, (2.0, 40.0), 3)
        p = sum(d.p for d in prob.local_data)
        q = sum(d.q for d in prob.local_data)
        assert np.array_equal(solve_reference(prob), np.linalg.solve(p, -q))

    def test_constrained_quadratic_reference_satisfies_kkt(self):
        # quadratic locals assembled by hand around an equality constraint
        base = qp_family(4, 8, (2.0, 20.0), 9)
        f = np.zeros((2, 8))
        f[0, 0] = 1.0
        f[1, 3] = 1.0
        e = np.array([0.5, -0.25])
        prob = SeparableProblem("qp", base.local_data, constraint=(f, e))
        x = solve_reference(prob)
        assert np.linalg.norm(f @ x - e) <= 1e-10
        g = prob.mean_gradient(x)
        # stationarity modulo the constraint normals: g must lie in range(F')
        beta, *_ = np.linalg.lstsq(f.T, -g, rcond=None)
        assert np.linalg.norm(g + f.T @ beta) <= 1e-10 * (1.0 + np.linalg.norm(g))


# ---------------------------------------------------------------------------
# stacked quadratic evaluators


def assert_stacked_quadratics_exact(prob, rng):
    """The stacked evaluators equal both the one-agent problems and the
    textbook per-agent expressions bit for bit."""
    x_rows = rng.standard_normal((prob.n_agents, prob.dim))
    x = rng.standard_normal(prob.dim)
    stacked = prob.gradients(x_rows)
    agents = agent_problems(prob)
    closures = np.stack([a.gradients(xi[None])[0] for a, xi in zip(agents, x_rows)])
    by_hand = np.stack([d.p @ xi + d.q for d, xi in zip(prob.local_data, x_rows)])
    assert np.array_equal(stacked, closures)
    assert np.array_equal(stacked, by_hand)
    value = prob.objective_value(x)
    assert value == sum(a.objective_value(x) for a in agents) / prob.n_agents
    assert value == sum(float(0.5 * x @ d.p @ x + d.q @ x) for d in prob.local_data) / prob.n_agents


class TestStackedQuadratics:
    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(2, 12),
        extra=st.integers(0, 6),
        keep=st.integers(1, 20),
        seed=st.integers(0, 10_000),
    )
    def test_match_closures_exactly(self, dim, extra, keep, seed):
        # every agent holds at least one row, so dim + 2 agents always suffice
        base = qp_family(dim + 2 + extra, dim, (2.0, 20.0), seed)
        # a prefix of the agents, down to a single one, is a qp problem too
        k = min(keep, base.n_agents)
        prob = SeparableProblem("qp", base.local_data[:k])
        assert_stacked_quadratics_exact(prob, np.random.default_rng(seed))

    def test_loaded_problem_matches_closures_exactly(self, tmp_path):
        prob = qp_family(5, 2, (2.0, 20.0), 8)
        save_problem(prob, tmp_path / "qp.json")
        back = load_problem(tmp_path / "qp.json")
        assert_stacked_quadratics_exact(back, np.random.default_rng(1))
        x_rows = np.random.default_rng(2).standard_normal((5, 2))
        assert np.array_equal(back.gradients(x_rows), prob.gradients(x_rows))

    def test_rejects_local_data_of_another_length(self):
        # a problem is its records: locals is no field, and reads empty
        base = qp_family(5, 3, (2.0, 20.0), 0)
        with pytest.raises(TypeError, match="locals"):
            SeparableProblem("qp", base.local_data[:4], locals=base.locals)
        assert SeparableProblem("qp", base.local_data[:4]).n_agents == 4
        assert qp_family(5, 4, (2, 10), 0).locals == []


# ---------------------------------------------------------------------------
# stacked logistic and l1 evaluators


def closure_sums(prob, x_rows, points, x):
    """gradients, objective_values, objective_value and mean_gradient as
    loops over the agents' own one-agent problems."""
    agents = agent_problems(prob)
    grads = np.stack([a.gradients(xi[None])[0] for a, xi in zip(agents, x_rows)])
    values = [sum(a.objective_value(pt) for a in agents) / prob.n_agents for pt in points]
    value = sum(a.objective_value(x) for a in agents) / prob.n_agents
    g = np.zeros(prob.dim)
    for a in agents:
        g += a.gradients(x[None])[0]
    return grads, values, value, g / prob.n_agents


def assert_stacked_rows_exact(prob, x_rows, points, x):
    """The stacked evaluators equal the one-agent loops bit for bit."""
    grads, values, value, mean_grad = closure_sums(prob, x_rows, points, x)
    assert np.array_equal(prob.gradients(x_rows), grads)
    assert prob.objective_values(points).tolist() == values
    assert prob.objective_value(x) == value
    assert np.array_equal(prob.mean_gradient(x), mean_grad)


def textbook_forms(data, x):
    """One agent's (value, gradient) from the textbook formulas."""
    if isinstance(data, LogRegLocalData):
        z = data.labels * (data.features @ x)
        sig = 1.0 / (1.0 + np.exp(z))
        value = 0.5 * data.reg * x @ x + np.sum(np.log1p(np.exp(-z)))
        return value, data.reg * x - data.features.T @ (data.labels * sig)
    r = data.a @ x - data.b
    return 0.5 * r @ r + data.l1 * np.sum(np.abs(x)), data.a.T @ r + data.l1 * np.sign(x)


ROW_FAMILIES = {
    "logreg": lambda seed: logreg_family(6, 5, 1e-2, seed, constraint=True),
    "basis-pursuit": lambda seed: basis_pursuit_family(6, 8, 1e-2, seed),
}


class TestStackedRows:
    @pytest.mark.parametrize("family", sorted(ROW_FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_closures_exactly(self, family, seed):
        prob = ROW_FAMILIES[family](seed)
        rows = [len(d.labels if family == "logreg" else d.b) for d in prob.local_data]
        assert len(set(rows)) > 1
        rng = np.random.default_rng(seed)
        x_rows = rng.standard_normal((prob.n_agents, prob.dim))
        points = rng.standard_normal((7, prob.dim))
        assert_stacked_rows_exact(prob, x_rows, points, rng.standard_normal(prob.dim))
        # and the one-agent problems compute the textbook formulas
        for d, agent, xi in zip(prob.local_data, agent_problems(prob), x_rows):
            value, grad = textbook_forms(d, xi)
            assert agent.objective_value(xi) == pytest.approx(value, rel=1e-12)
            assert np.allclose(agent.gradients(xi[None])[0], grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", sorted(ROW_FAMILIES))
    def test_one_agent_problem(self, family):
        base = ROW_FAMILIES[family](3)
        prob = SeparableProblem(family, base.local_data[:1])
        rng = np.random.default_rng(3)
        x = rng.standard_normal(prob.dim)
        assert_stacked_rows_exact(prob, x[None], rng.standard_normal((4, prob.dim)), x)
        assert np.array_equal(prob.gradients(x[None]), base.gradients(
            np.broadcast_to(x, (base.n_agents, base.dim))
        )[:1])

    def test_l1_at_exact_zeros(self):
        prob = basis_pursuit_family(6, 8, 1e-2, 4)
        rng = np.random.default_rng(4)
        x_rows = rng.standard_normal((prob.n_agents, prob.dim))
        x_rows[:, ::3] = 0.0
        x_rows[2] = 0.0
        points = np.vstack([np.zeros(prob.dim), x_rows[:3]])
        assert_stacked_rows_exact(prob, x_rows, points, x_rows[0])
        # sign(0) = 0: at a zero coordinate the l1 term adds nothing
        for d, g, xi in zip(prob.local_data, prob.gradients(x_rows), x_rows):
            assert np.allclose(g, d.a.T @ (d.a @ xi - d.b) + d.l1 * np.sign(xi), atol=1e-14)
            zero = xi == 0.0
            assert np.allclose(g[zero], (d.a.T @ (d.a @ xi - d.b))[zero], atol=1e-14)

    @pytest.mark.parametrize("family", sorted(ROW_FAMILIES))
    def test_loaded_problem_matches_closures_exactly(self, family, tmp_path):
        prob = ROW_FAMILIES[family](5)
        save_problem(prob, tmp_path / "problem.json")
        back = load_problem(tmp_path / "problem.json")
        rng = np.random.default_rng(5)
        x_rows = rng.standard_normal((prob.n_agents, prob.dim))
        points = rng.standard_normal((3, prob.dim))
        assert_stacked_rows_exact(back, x_rows, points, points[0])
        assert np.array_equal(back.gradients(x_rows), prob.gradients(x_rows))
        assert np.array_equal(back.objective_values(points), prob.objective_values(points))

    def test_rejects_an_agent_without_rows(self):
        base = logreg_family(3, 4, 1e-2, 0)
        empty = LogRegLocalData(features=np.zeros((0, 4)), labels=np.zeros(0), reg=0.0)
        with pytest.raises(ValueError, match="at least one data row"):
            SeparableProblem("logreg", base.local_data[:2] + [empty])


# ---------------------------------------------------------------------------
# logistic family


class TestLogRegFamily:
    def test_labels_are_signs_and_reg_split(self):
        prob = logreg_family(5, 6, 1e-2, 0)
        for d in prob.local_data:
            assert set(np.unique(d.labels)) <= {-1.0, 1.0}
            assert d.reg == pytest.approx(1e-2 / 5)
            assert 5 <= d.features.shape[0] <= 29

    def test_rejects_negative_ridge(self):
        with pytest.raises(ValueError, match="nonnegative"):
            logreg_family(3, 4, -1.0, 0)

    def test_unconstrained_reference_is_stationary(self):
        prob = logreg_family(6, 8, 1e-2, 1)
        x = solve_reference(prob)
        assert np.linalg.norm(prob.mean_gradient(x)) <= 1e-10

    @pytest.mark.parametrize(
        "n_agents, dim, seed", [(10, 10, 21), (10, 10, 27), (10, 10, 95), (10, 10, 99), (50, 24, 4)]
    )
    def test_unconstrained_reference_below_objective_rounding(self, n_agents, dim, seed):
        # near these optima the objective's decrease is below its rounding,
        # so only backtracking on the residual norm reaches the tolerance
        prob = logreg_family(n_agents, dim, 1e-2, seed)
        x = solve_reference(prob)
        assert np.linalg.norm(prob.mean_gradient(x)) <= 10 * REFERENCE_TOL

    def test_constrained_reference_satisfies_kkt(self):
        prob = logreg_family(6, 12, 1e-2, 4, constraint=True)
        f, e = prob.constraint
        x = solve_reference(prob)
        g = prob.mean_gradient(x)
        assert np.linalg.norm(f @ x - e) <= 1e-10 * (1.0 + np.linalg.norm(e))
        # rows of F are orthonormal, so I - F'F projects onto the null space
        assert np.linalg.norm(g - f.T @ (f @ g)) <= 1e-9 * (1.0 + np.linalg.norm(g))

    def test_drawn_constraint_rows_orthonormal(self):
        for seed in range(6):
            prob = logreg_family(4, 16, 1e-2, seed, constraint=True)
            f, e = prob.constraint
            m = f.shape[0]
            assert 2 <= m <= 4
            assert np.allclose(f @ f.T, np.eye(m), atol=1e-12)
            assert e.shape == (m,)

    def test_explicit_constraint_passthrough(self):
        f = np.eye(2, 5)
        e = np.array([1.0, 2.0])
        base = logreg_family(3, 5, 1e-2, 0)
        prob = SeparableProblem("logreg", base.local_data, constraint=(f, e))
        assert np.array_equal(prob.constraint[0], f)
        assert np.array_equal(prob.constraint[1], e)

    def test_constraint_is_drawn_or_absent(self):
        # a given (F, e) is not a generator option: it would not be drawn
        with pytest.raises(TypeError, match="True or False"):
            logreg_family(3, 5, 1e-2, 0, constraint=(np.eye(2, 5), np.ones(2)))

    @pytest.mark.parametrize("xi", [0.0, 1e-2])
    @pytest.mark.parametrize("n_agents, dim", [(1, 5), (3, 5), (30, 20), (50, 24)])
    def test_stacked_hessian_is_the_agent_sum(self, n_agents, dim, xi):
        # the one-agent case holds a single data row; (50, 24) at xi 1e-2
        # is the paper-scale problem
        if n_agents == 1:
            rng = np.random.default_rng(dim)
            record = LogRegLocalData(features=rng.standard_normal((1, dim)),
                                     labels=np.array([-1.0]), reg=xi)
            prob = SeparableProblem("logreg", [record])
        else:
            prob = logreg_family(n_agents, dim, xi, 0, constraint=True)
        rng = np.random.default_rng(n_agents)
        # the origin, a typical point, and one far out where most margins
        # saturate the logistic function
        for x in (np.zeros(dim), rng.standard_normal(dim), 30.0 * rng.standard_normal(dim)):
            want = np.zeros((dim, dim))
            for d in prob.local_data:
                want += logistic_hessian(d, x)
            got = prob._stack._hessian_sum(x)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("n_agents, dim", [(4, 6), (10, 10), (30, 20)])
    def test_reference_certifies_stationarity(self, n_agents, dim, constrained):
        # g + F'beta = 0 and Fx = e to the Newton tolerance, with beta the
        # least-squares multiplier -Fg (F has orthonormal rows)
        for seed in range(4):
            prob = logreg_family(n_agents, dim, 1e-2, seed, constraint=constrained)
            x = solve_reference(prob)
            g = prob.mean_gradient(x)
            if constrained:
                f, e = prob.constraint
                assert np.linalg.norm(f @ x - e) <= 10 * REFERENCE_TOL
                g = g - f.T @ (f @ g)
            assert np.linalg.norm(g) <= 10 * REFERENCE_TOL

    def test_reference_evaluates_each_accepted_point_once(self, monkeypatch):
        # six Newton steps, each accepting the full step: one residual at
        # the start and one per trial point, none re-evaluated
        prob = logreg_family(30, 20, 1e-2, 11, constraint=True)
        calls = []
        mean_gradient = SeparableProblem.mean_gradient

        def counted(self, x):
            calls.append(None)
            return mean_gradient(self, x)

        monkeypatch.setattr(SeparableProblem, "mean_gradient", counted)
        solve_reference(prob)
        assert len(calls) == 7

    def test_seed_determinism(self):
        a = logreg_family(4, 6, 1e-2, 5)
        b = logreg_family(4, 6, 1e-2, 5)
        for da, db in zip(a.local_data, b.local_data):
            assert np.array_equal(da.features, db.features)
            assert np.array_equal(da.labels, db.labels)


# ---------------------------------------------------------------------------
# l1 family


def assert_l1_kkt(prob, x):
    # independent optimality certificate for the constrained l1 problem:
    # on the support the smooth gradient balances xi*sign plus constraint
    # normals, off the support the dual variable stays inside the l1 ball
    p = sum(d.a.T @ d.a for d in prob.local_data)
    q = -sum(d.a.T @ d.b for d in prob.local_data)
    xi = prob.n_agents * prob.local_data[0].l1
    f, e = prob.constraint
    assert np.linalg.norm(f @ x - e) <= 1e-9 * (1.0 + np.linalg.norm(e))
    r = p @ x + q
    support = np.abs(x) > 1e-9
    scale = 1.0 + np.linalg.norm(r)
    if support.any():
        target = -(r[support] + xi * np.sign(x[support]))
        beta, *_ = np.linalg.lstsq(f[:, support].T, target, rcond=None)
        assert np.linalg.norm(f[:, support].T @ beta - target) <= 1e-8 * scale
    else:
        beta = np.zeros(f.shape[0])
    dual = r + f.T @ beta
    if (~support).any():
        assert np.all(np.abs(dual[~support]) <= xi * (1.0 + 1e-6) + 1e-8 * scale)


class TestBasisPursuitFamily:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            basis_pursuit_family(4, 8, -1e-2, 0)

    def test_rejects_infeasible_row_budget(self):
        with pytest.raises(ValueError, match="too few agents"):
            basis_pursuit_family(1, 8, 1e-2, 0)

    def test_local_blocks_underdetermined(self):
        prob = basis_pursuit_family(5, 12, 1e-2, 3)
        for d in prob.local_data:
            assert d.a.shape[0] < 12
            assert np.linalg.matrix_rank(d.a) < 12
            assert d.l1 == pytest.approx(1e-2 / 5)

    def test_aggregate_gram_normalized(self):
        prob = basis_pursuit_family(5, 10, 1e-2, 6)
        gram = sum(d.a.T @ d.a for d in prob.local_data) / prob.n_agents
        assert np.linalg.eigvalsh(gram)[-1] == pytest.approx(1.0, rel=1e-9)

    def test_conditioning_control(self):
        prob = basis_pursuit_family(5, 10, 1e-2, 0, cond_range=(30.0, 30.0))
        assert prob.achieved_cond == pytest.approx(30.0, rel=1e-6)

    def test_reference_certified_optimal(self):
        for seed in (0, 1, 2):
            prob = basis_pursuit_family(5, 12, 5e-3, seed)
            x = solve_reference(prob)
            assert_l1_kkt(prob, x)

    def test_reference_may_sit_on_the_kink(self):
        # exact zeros are generic for l1 problems: this certified minimizer
        # has one coordinate at 0.0, where sign(0) = 0 is the subgradient used
        prob = basis_pursuit_family(10, 20, 2e-3, 2)
        x = solve_reference(prob)
        assert int(np.sum(x == 0.0)) == 1
        assert_l1_kkt(prob, x)

    def test_zero_weight_reduces_to_equality_least_squares(self):
        prob = basis_pursuit_family(5, 10, 0.0, 4)
        x = solve_reference(prob)
        f, e = prob.constraint
        g = prob.mean_gradient(x)
        assert np.linalg.norm(f @ x - e) <= 1e-9
        assert np.linalg.norm(g - f.T @ (f @ g)) <= 1e-9 * (1.0 + np.linalg.norm(g))

    def test_seed_determinism(self):
        a = basis_pursuit_family(4, 8, 1e-2, 7)
        b = basis_pursuit_family(4, 8, 1e-2, 7)
        for da, db in zip(a.local_data, b.local_data):
            assert np.array_equal(da.a, db.a)
            assert np.array_equal(da.b, db.b)
        assert np.array_equal(a.constraint[0], b.constraint[0])


# ---------------------------------------------------------------------------
# reference dispatch


class TestSolveReference:
    def test_objective_values_match_one_point_at_a_time(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((7, 5))
        for prob in (
            qp_family(6, 5, (2.0, 20.0), 1),
            logreg_family(4, 5, 1e-2, 2),
            basis_pursuit_family(4, 5, 1e-2, 3),
        ):
            expected = [prob.objective_value(x) for x in points]
            assert prob.objective_values(points).tolist() == expected

    @pytest.mark.parametrize("seed", [5, 6, 9, 10])
    def test_uncertifiable_logistic_reference_names_the_problem(self, seed):
        # unregularized, 3 agents in dimension 40: no minimizer to certify.
        # Which way the Newton solve fails (a singular system or no progress)
        # moves with the rounding of its Hessian, so only the type and the
        # problem are pinned
        prob = logreg_family(3, 40, 0.0, seed, constraint=True)
        with pytest.raises(ReferenceSolveError, match=re.escape(
            f"no reference solution for the constrained logreg problem (3 agents, dim 40, "
            f"seed {seed}): "
        )):
            solve_reference(prob)
        assert prob.reference_solution is None

    def test_constrained_custom_rejected(self):
        # a problem is one of the families; there is no closure-built "custom"
        f = np.eye(1, 3)
        with pytest.raises(ValueError, match="unknown problem family 'custom'"):
            SeparableProblem("custom", [tiny_quadratic(3)], constraint=(f, np.zeros(1)))


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: qp_family(4, 8, (2.0, 20.0), 13),
            lambda: logreg_family(4, 6, 1e-2, 13, constraint=True),
            lambda: basis_pursuit_family(4, 8, 1e-2, 13),
        ],
        ids=["qp", "logreg", "basis-pursuit"],
    )
    def test_round_trip(self, make, tmp_path):
        prob = make()
        solve_reference(prob)
        path = tmp_path / "problem.json"
        save_problem(prob, path)
        back = load_problem(path)
        assert back.family == prob.family
        assert back.n_agents == prob.n_agents
        assert back.dim == prob.dim
        assert back.seed == prob.seed
        assert back.xi == prob.xi
        assert back.achieved_cond == prob.achieved_cond
        assert np.array_equal(back.reference_solution, prob.reference_solution)
        if prob.constraint is None:
            assert back.constraint is None
        else:
            assert np.array_equal(back.constraint[0], prob.constraint[0])
            assert np.array_equal(back.constraint[1], prob.constraint[1])
        rng = np.random.default_rng(0)
        x = rng.standard_normal(prob.dim)
        for la, lb in zip(agent_problems(prob), agent_problems(back)):
            assert la.objective_value(x) == pytest.approx(lb.objective_value(x), rel=1e-12)
            assert np.allclose(la.gradients(x[None])[0], lb.gradients(x[None])[0])
        # every field of every record comes back exactly, and saves the same
        for da, db in zip(prob.local_data, back.local_data):
            assert type(db) is type(da)
            for f in fields(da):
                assert np.array_equal(getattr(db, f.name), getattr(da, f.name))
        save_problem(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_qp_record_with_extra_keys(self, tmp_path):
        # older saves, and files written outside the generators, carry each
        # agent's rows a and targets b next to p and q
        prob = qp_family(4, 8, (2.0, 20.0), 13)
        path = tmp_path / "problem.json"
        save_problem(prob, path)
        payload = json.loads(path.read_text())
        assert all(set(entry) == {"p", "q"} for entry in payload["locals"])
        for entry in payload["locals"]:
            entry["a"] = [[1.0] * 8]
            entry["b"] = [2.0]
        path.write_text(json.dumps(payload))
        back = load_problem(path)
        for da, db in zip(prob.local_data, back.local_data):
            assert [f.name for f in fields(db)] == ["p", "q"]
            assert np.array_equal(db.p, da.p) and np.array_equal(db.q, da.q)

    def test_handmade_problem_round_trips(self, tmp_path):
        prob = SeparableProblem("qp", [tiny_quadratic(2, 1.0), tiny_quadratic(2, 3.0)])
        save_problem(prob, tmp_path / "handmade.json")
        back = load_problem(tmp_path / "handmade.json")
        assert back.family == "qp" and back.seed is None
        for da, db in zip(prob.local_data, back.local_data):
            assert np.array_equal(db.p, da.p) and np.array_equal(db.q, da.q)
        x = np.array([1.0, -2.0])
        assert back.objective_value(x) == prob.objective_value(x)

    def test_rejects_unknown_family_on_load(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"family": "mystery", "locals": []}')
        with pytest.raises(ValueError, match="unknown problem family"):
            load_problem(path)
