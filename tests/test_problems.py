"""Tests for the benchmark problem generators and reference solvers."""

import json
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqn_mesh.problems import (
    BasisPursuitLocalData,
    LocalObjective,
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


def fd_gradient(fun, x, h=1e-6):
    # central-difference oracle, coded independently of any gradient rule
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


def assert_gradient_matches(loc, x, rtol=1e-5):
    g = loc.gradient(x)
    g_fd = fd_gradient(loc.value, x)
    assert np.linalg.norm(g - g_fd) <= rtol * (1.0 + np.linalg.norm(g))


# ---------------------------------------------------------------------------
# frozen local-objective examples, verified by hand


class TestFrozenLocals:
    def test_quadratic_value_and_gradient(self):
        data = QpLocalData(p=np.diag([2.0, 4.0]), q=np.array([1.0, -1.0]))
        from dqn_mesh.problems import _qp_local

        loc = _qp_local(data)
        x = np.array([1.0, 1.0])
        # 0.5*(2+4) + (1-1) = 3
        assert loc.value(x) == pytest.approx(3.0)
        assert np.allclose(loc.gradient(x), [3.0, 3.0])
        assert loc.smoothness_bound == pytest.approx(4.0)

    def test_logistic_at_origin(self):
        from dqn_mesh.problems import _logreg_local

        data = LogRegLocalData(
            features=np.array([[1.0, 0.0]]), labels=np.array([1.0]), reg=0.0
        )
        loc = _logreg_local(data)
        x = np.zeros(2)
        assert loc.value(x) == pytest.approx(np.log(2.0))
        # d/dx log(1+exp(-x1)) at 0 is -sigma(0) = -1/2 on the first coordinate
        assert np.allclose(loc.gradient(x), [-0.5, 0.0])

    def test_l1_least_squares_off_kink(self):
        from dqn_mesh.problems import _bp_local

        data = BasisPursuitLocalData(
            a=np.array([[1.0, 0.0]]), b=np.array([1.0]), l1=0.5
        )
        loc = _bp_local(data)
        x = np.array([2.0, -3.0])
        # residual 1, so 0.5 + 0.5*(|2|+|-3|) = 3
        assert loc.value(x) == pytest.approx(3.0)
        assert np.allclose(loc.gradient(x), [1.5, -0.5])
        assert not loc.smooth


# ---------------------------------------------------------------------------
# gradient callables against the finite-difference oracle


class TestGradients:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_quadratic_gradients(self, seed):
        prob = qp_family(4, 8, (2.0, 50.0), seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(8)
        for loc in prob.locals:
            assert_gradient_matches(loc, x)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_logistic_gradients(self, seed):
        prob = logreg_family(4, 6, 1e-2, seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(6)
        for loc in prob.locals:
            assert_gradient_matches(loc, x)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_l1_gradients_away_from_kinks(self, seed):
        prob = basis_pursuit_family(4, 8, 1e-2, seed)
        rng = np.random.default_rng(seed + 1)
        # keep every coordinate well clear of zero so the subgradient is a
        # plain gradient in the differencing neighborhood
        x = rng.choice([-1.0, 1.0], size=8) * rng.uniform(0.5, 1.5, size=8)
        for loc in prob.locals:
            assert_gradient_matches(loc, x)


# ---------------------------------------------------------------------------
# container validation and aggregation


def tiny_quadratic(dim, scale=1.0):
    p = scale * np.eye(dim)

    def value(x):
        return float(0.5 * x @ p @ x)

    def gradient(x):
        return p @ x

    return LocalObjective(dim=dim, value=value, gradient=gradient, smoothness_bound=scale)


class TestSeparableProblem:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SeparableProblem(locals=[])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="share one dimension"):
            SeparableProblem(locals=[tiny_quadratic(2), tiny_quadratic(3)])

    def test_rejects_bad_constraint_shapes(self):
        locs = [tiny_quadratic(4)]
        with pytest.raises(ValueError, match="shapes"):
            SeparableProblem(locals=locs, constraint=(np.ones((1, 3)), np.ones(1)))
        with pytest.raises(ValueError, match="shapes"):
            SeparableProblem(locals=locs, constraint=(np.ones((1, 4)), np.ones(2)))

    def test_rejects_rank_deficient_constraint(self):
        a = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="full row rank"):
            SeparableProblem(locals=[tiny_quadratic(3)], constraint=(a, np.zeros(2)))

    def test_rejects_overdetermined_constraint(self):
        a = np.vstack([np.eye(2), np.ones((1, 2))])
        with pytest.raises(ValueError, match="more constraints"):
            SeparableProblem(locals=[tiny_quadratic(2)], constraint=(a, np.zeros(3)))

    def test_mean_aggregation(self):
        prob = SeparableProblem(locals=[tiny_quadratic(3, 1.0), tiny_quadratic(3, 3.0)])
        x = np.array([1.0, 2.0, -1.0])
        # means of 0.5||x||^2 and 1.5||x||^2
        assert prob.objective_value(x) == pytest.approx(6.0)
        assert np.allclose(prob.mean_gradient(x), 2.0 * x)
        assert prob.smoothness() == pytest.approx(2.0)

    def test_smoothness_none_when_any_bound_missing(self):
        loc = LocalObjective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(2))
        prob = SeparableProblem(locals=[tiny_quadratic(2), loc])
        assert prob.smoothness() is None


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
            assert d.a.shape[0] < 16
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

    def test_constrained_quadratic_reference_satisfies_kkt(self):
        # quadratic locals assembled by hand around an equality constraint
        base = qp_family(4, 8, (2.0, 20.0), 9)
        f = np.zeros((2, 8))
        f[0, 0] = 1.0
        f[1, 3] = 1.0
        e = np.array([0.5, -0.25])
        prob = SeparableProblem(
            locals=base.locals,
            constraint=(f, e),
            family="qp",
            local_data=base.local_data,
        )
        x = solve_reference(prob)
        assert np.linalg.norm(f @ x - e) <= 1e-10
        g = prob.mean_gradient(x)
        # stationarity modulo the constraint normals: g must lie in range(F')
        beta, *_ = np.linalg.lstsq(f.T, -g, rcond=None)
        assert np.linalg.norm(g + f.T @ beta) <= 1e-10 * (1.0 + np.linalg.norm(g))


# ---------------------------------------------------------------------------
# stacked quadratic evaluators


def assert_stacked_quadratics_exact(prob, rng):
    """The stacked evaluators equal both the per-agent closures and the
    textbook per-agent expressions bit for bit."""
    x_rows = rng.standard_normal((prob.n_agents, prob.dim))
    x = rng.standard_normal(prob.dim)
    stacked = prob.gradients(x_rows)
    closures = np.stack([loc.gradient(xi) for loc, xi in zip(prob.locals, x_rows)])
    by_hand = np.stack([d.p @ xi + d.q for d, xi in zip(prob.local_data, x_rows)])
    assert np.array_equal(stacked, closures)
    assert np.array_equal(stacked, by_hand)
    value = prob.objective_value(x)
    assert value == sum(loc.value(x) for loc in prob.locals) / prob.n_agents
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
        prob = SeparableProblem(
            locals=base.locals[:k], family="qp", local_data=base.local_data[:k]
        )
        assert_stacked_quadratics_exact(prob, np.random.default_rng(seed))

    def test_loaded_problem_matches_closures_exactly(self, tmp_path):
        prob = qp_family(5, 2, (2.0, 20.0), 8)
        save_problem(prob, tmp_path / "qp.json")
        back = load_problem(tmp_path / "qp.json")
        assert_stacked_quadratics_exact(back, np.random.default_rng(1))
        x_rows = np.random.default_rng(2).standard_normal((5, 2))
        assert np.array_equal(back.gradients(x_rows), prob.gradients(x_rows))

    def test_rejects_local_data_of_another_length(self):
        base = qp_family(5, 3, (2.0, 20.0), 0)
        with pytest.raises(ValueError, match="one local_data entry per local"):
            SeparableProblem(locals=base.locals, family="qp", local_data=base.local_data[:4])

    def test_custom_problem_calls_its_closures(self):
        calls = {"value": 0, "gradient": 0}

        def counted(dim, scale):
            loc = tiny_quadratic(dim, scale)

            def value(x):
                calls["value"] += 1
                return loc.value(x)

            def gradient(x):
                calls["gradient"] += 1
                return loc.gradient(x)

            return LocalObjective(dim=dim, value=value, gradient=gradient)

        prob = SeparableProblem(locals=[counted(3, 1.0), counted(3, 2.0)], family="custom")
        x_rows = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(prob.gradients(x_rows), [[0.0, 1.0, 2.0], [6.0, 8.0, 10.0]])
        assert prob.objective_value(np.ones(3)) == pytest.approx(2.25)
        assert calls == {"value": 2, "gradient": 2}


# ---------------------------------------------------------------------------
# stacked logistic and l1 evaluators


def closure_sums(prob, x_rows, points, x):
    """gradients, objective_values, objective_value and mean_gradient as
    loops over the agents' own closures."""
    grads = np.stack([loc.gradient(xi) for loc, xi in zip(prob.locals, x_rows)])
    values = [sum(loc.value(pt) for loc in prob.locals) / prob.n_agents for pt in points]
    value = sum(loc.value(x) for loc in prob.locals) / prob.n_agents
    g = np.zeros(prob.dim)
    for loc in prob.locals:
        g += loc.gradient(x)
    return grads, values, value, g / prob.n_agents


def assert_stacked_rows_exact(prob, x_rows, points, x):
    """The stacked evaluators equal the closure loops bit for bit."""
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
        # and the closures compute the textbook formulas
        for d, loc, xi in zip(prob.local_data, prob.locals, x_rows):
            value, grad = textbook_forms(d, xi)
            assert loc.value(xi) == pytest.approx(value, rel=1e-12)
            assert np.allclose(loc.gradient(xi), grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", sorted(ROW_FAMILIES))
    def test_one_agent_problem(self, family):
        base = ROW_FAMILIES[family](3)
        prob = SeparableProblem(
            locals=base.locals[:1], family=family, local_data=base.local_data[:1]
        )
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
            SeparableProblem(
                locals=base.locals, family="logreg", local_data=base.local_data[:2] + [empty]
            )


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
        prob = logreg_family(3, 5, 1e-2, 0, constraint=(f, e))
        assert np.array_equal(prob.constraint[0], f)
        assert np.array_equal(prob.constraint[1], e)

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
    def test_requires_constraint(self):
        with pytest.raises(ValueError, match="requires an equality constraint"):
            basis_pursuit_family(4, 8, 1e-2, 0, constraint=False)

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
# reference dispatch and fallbacks


class TestSolveReference:
    def test_generic_fallback_for_custom_smooth(self):
        locs = [tiny_quadratic(4, 1.0), tiny_quadratic(4, 2.0)]
        prob = SeparableProblem(locals=locs, family="custom")
        x = solve_reference(prob)
        assert np.linalg.norm(prob.mean_gradient(x)) <= 1e-10

    @pytest.mark.parametrize("seed", [6, 9])
    def test_generic_fallback_gives_up_at_a_fixed_point(self, seed):
        # the line search shrinks the step to nothing by iteration 25, after
        # which every iteration would repeat the same x, gradient and estimate
        prob = SeparableProblem(locals=qp_family(6, 6, (5, 50), seed).locals, family="custom")
        start = time.perf_counter()
        with pytest.raises(ReferenceSolveError, match="quasi-Newton fallback failed"):
            solve_reference(prob)
        assert time.perf_counter() - start < 1.0

    def test_generic_fallback_certifies_a_fixed_point_within_its_slack(self):
        # this fixed point misses tol but meets the 10 * tol post-loop check
        prob = SeparableProblem(locals=qp_family(6, 6, (5, 50), 1).locals, family="custom")
        x = solve_reference(prob, tol=1e-12)
        assert 1e-12 < np.linalg.norm(prob.mean_gradient(x)) <= 1e-11

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

    def test_constrained_custom_rejected(self):
        f = np.eye(1, 3)
        prob = SeparableProblem(
            locals=[tiny_quadratic(3)], constraint=(f, np.zeros(1)), family="custom"
        )
        with pytest.raises(ReferenceSolveError, match="no reference solver"):
            solve_reference(prob)


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
        for la, lb in zip(prob.locals, back.locals):
            assert la.value(x) == pytest.approx(lb.value(x), rel=1e-12)
            assert np.allclose(la.gradient(x), lb.gradient(x))
        # every field of every record comes back exactly, and saves the same
        for da, db in zip(prob.local_data, back.local_data):
            assert type(db) is type(da)
            for f in fields(da):
                assert np.array_equal(getattr(db, f.name), getattr(da, f.name))
        save_problem(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_qp_record_without_rows(self, tmp_path):
        prob = qp_family(4, 8, (2.0, 20.0), 13)
        prob.local_data = [replace(d, a=None, b=None) for d in prob.local_data]
        path = tmp_path / "problem.json"
        save_problem(prob, path)
        assert all(
            entry["a"] is None and entry["b"] is None
            for entry in json.loads(path.read_text())["locals"]
        )
        back = load_problem(path)
        for da, db in zip(prob.local_data, back.local_data):
            assert db.a is None and db.b is None
            assert np.array_equal(db.p, da.p) and np.array_equal(db.q, da.q)
        # a file that leaves the optional fields out loads the same way
        payload = json.loads(path.read_text())
        for entry in payload["locals"]:
            del entry["a"], entry["b"]
        path.write_text(json.dumps(payload))
        assert all(d.a is None and d.b is None for d in load_problem(path).local_data)

    def test_rejects_handmade_problem(self, tmp_path):
        prob = SeparableProblem(locals=[tiny_quadratic(2)], family="custom")
        with pytest.raises(ValueError, match="generator-built"):
            save_problem(prob, tmp_path / "nope.json")

    def test_rejects_unknown_family_on_load(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"family": "mystery", "locals": []}')
        with pytest.raises(ValueError, match="unknown problem family"):
            load_problem(path)
