"""Acceptance gate: one test per release criterion, with pinned tolerances.

Each test drives the library end to end at desk scale and appends a
PASS/FAIL line to the terminal summary.  The tests are self-contained:
oracles used here are reimplemented inline rather than imported from the
unit-test modules, apart from the per-pair quasi-Newton forms, which
come from the test oracle (``oracle.py``).
"""

import json
import time

import numpy as np

from dqn_mesh.dqn import RunConfig, SyncNetwork, dqn_run, dqn_step, diging_atc_run, init_dqn_states
from dqn_mesh.ecdqn import EcRunConfig, KktSystem, ecdqn_run, kkt_solve
from dqn_mesh.harness import ExperimentConfig, emit_report, run_algo, run_experiment, tune_step_size
from dqn_mesh.problems import (
    QpLocalData,
    SeparableProblem,
    basis_pursuit_family,
    logreg_family,
    qp_family,
    solve_reference,
)
from dqn_mesh.quasi_newton import refresh_hessian_batch, refresh_inverse_batch
from dqn_mesh.topology import CommGraph, metropolis_weights, random_connected_graph
from oracle import (
    DIRECT,
    INVERSE,
    PRODUCT_RTOL,
    bfgs_inverse_product,
    dfp_hessian_product,
    spectral_contraction,
)


def _report(lines, num, name, body):
    try:
        body()
    except BaseException:
        lines.append(f"criterion {num} ({name}): FAIL")
        raise
    lines.append(f"criterion {num} ({name}): PASS")


def _random_spd(rng, n, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(lo, hi, size=n)) @ q.T


def test_criterion_1_mixing_matrix_suite(criterion_report):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(3, 51))
            kappa = float(rng.uniform(0.2, 1.0))
            # keep the edge target at or above the spanning-tree minimum
            kappa = min(1.0, max(kappa, (2.0 * n - 1.0) / (n * (n - 1.0))))
            graph = random_connected_graph(n, kappa, int(rng.integers(0, 2**31)))
            w = metropolis_weights(graph)
            ones = np.ones(n)
            assert np.max(np.abs(w @ ones - ones)) <= 1e-12
            assert np.max(np.abs(w.T @ ones - ones)) <= 1e-12
            assert np.min(w) >= 0.0
            assert spectral_contraction(w) < 1.0
        assert time.perf_counter() - start < 10.0

    _report(criterion_report, 1, "mixing matrix suite", body)


def test_criterion_2_quasi_newton_algebra(criterion_report):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 21))
            b0 = _random_spd(rng, n, 0.5, 3.0)
            c0 = np.linalg.inv(b0)
            s = rng.standard_normal(n)
            y = _random_spd(rng, n, 0.5, 3.0) @ s
            new = {}
            for scheme in ("bfgs", "dfp"):
                for key, refresh, m0, per_pair in (
                    (f"{scheme}_b", refresh_hessian_batch, b0, DIRECT[scheme]),
                    (f"{scheme}_c", refresh_inverse_batch, c0, INVERSE[scheme]),
                ):
                    out = refresh(m0[None], s[None], y[None], scheme, 1e-8, np.inf)
                    assert out.skipped == out.repaired == 0
                    new[key] = out.estimates[0]
                    # the batched update is the textbook per-pair one, bit for bit
                    assert np.array_equal(new[key], per_pair(m0, s, y))
            # and the product forms agree with it to rounding
            for key, product, m0 in (
                ("bfgs_c", bfgs_inverse_product, c0),
                ("dfp_b", dfp_hessian_product, b0),
            ):
                want = product(m0, s, y)
                assert np.max(np.abs(new[key] - want)) <= PRODUCT_RTOL * np.max(np.abs(want))
            for m in new.values():
                assert np.max(np.abs(m - m.T)) <= 1e-12
                assert np.linalg.eigvalsh(m)[0] > 0.0
            assert np.linalg.norm(new["bfgs_b"] @ s - y) <= 1e-10 * (1 + np.linalg.norm(y))
            assert np.linalg.norm(new["dfp_b"] @ s - y) <= 1e-10 * (1 + np.linalg.norm(y))
            assert np.linalg.norm(new["bfgs_c"] @ y - s) <= 1e-10 * (1 + np.linalg.norm(s))
            assert np.linalg.norm(new["dfp_c"] @ y - s) <= 1e-10 * (1 + np.linalg.norm(s))
            eye = np.eye(n)
            assert np.max(np.abs(new["bfgs_b"] @ new["bfgs_c"] - eye)) <= 1e-8
            assert np.max(np.abs(new["dfp_b"] @ new["dfp_c"] - eye)) <= 1e-8
        assert time.perf_counter() - start < 30.0

    _report(criterion_report, 2, "quasi-Newton algebra", body)


def test_criterion_3_mean_tracking_identity(criterion_report):
    def body():
        for seed in range(10):
            prob = qp_family(6, 6, (2.0, 10.0), seed)
            graph = random_connected_graph(6, 0.7, seed)
            trace = dqn_run(prob, graph, RunConfig(alpha=0.3, max_iters=80, rse_tol=0.0, seed=seed))
            for k in range(trace.rounds + 1):
                bound = 1e-12 * (1.0 + trace.mean_grad_norm[k])
                assert trace.tracking_residual[k] <= bound
        for seed in range(10):
            prob = logreg_family(6, 6, 1e-2, seed, constraint=True)
            graph = random_connected_graph(6, 0.7, seed + 100)
            trace = ecdqn_run(
                prob, graph, EcRunConfig(alpha=0.3, max_iters=60, rse_tol=0.0, seed=seed)
            )
            for k in range(trace.rounds + 1):
                bound = 1e-12 * (1.0 + trace.mean_grad_norm[k])
                assert trace.tracking_residual[k] <= bound

    _report(criterion_report, 3, "mean-tracking identity", body)


def test_criterion_4_well_conditioned_convergence(criterion_report):
    def body():
        start = time.perf_counter()
        for scheme in ("bfgs", "dfp"):
            for seed in range(20):
                prob = qp_family(10, 10, (2.0, 3.0), seed)
                graph = random_connected_graph(10, 0.8, seed)
                trace = dqn_run(
                    prob,
                    graph,
                    RunConfig(scheme=scheme, alpha=0.15, max_iters=1000, rse_tol=1e-10, seed=seed),
                )
                assert trace.converged, f"{scheme} seed {seed} did not converge"
                k = trace.rounds
                assert trace.x_consensus[k] <= 1e-8
                assert trace.v_consensus[k] <= 1e-8
                assert trace.z_consensus[k] <= 1e-8
                f_star = prob.objective_value(prob.reference_solution)
                assert abs(trace.objective[k] - f_star) <= 1e-8 * (1.0 + abs(f_star))
        assert time.perf_counter() - start < 60.0

    _report(criterion_report, 4, "well-conditioned convergence", body)


def test_criterion_5_ill_conditioned_separation(criterion_report):
    def body():
        converged = {"dqn-bfgs": 0, "diging-atc": 0}
        for seed in range(20):
            prob = qp_family(10, 10, (42.0, 172.0), seed)
            solve_reference(prob)
            graph = random_connected_graph(10, 0.6, seed)
            for algo in converged:
                _, trace = tune_step_size(
                    lambda a: run_algo(
                        algo, prob, graph, alpha=a, max_iters=1000, rse_tol=1e-10, seed=seed
                    ),
                    bracket=(1e-4, 2.0),
                    probes=12,
                    rse_tol=1e-10,
                    max_iters=1000,
                )
                converged[algo] += int(trace.converged)
        assert converged["dqn-bfgs"] == 20, f"quasi-Newton: {converged['dqn-bfgs']}/20"
        assert converged["diging-atc"] <= 10, f"baseline: {converged['diging-atc']}/20"

    _report(criterion_report, 5, "ill-conditioned separation", body)


def test_criterion_6_communication_ledger(criterion_report):
    def body():
        prob = qp_family(5, 6, (2.0, 10.0), 3)
        graph = random_connected_graph(5, 0.6, 1)
        deg = graph.degrees()

        trace = dqn_run(prob, graph, RunConfig(alpha=0.3, max_iters=25, rse_tol=0.0))
        k = np.arange(trace.rounds + 1)
        assert np.array_equal(trace.bytes_sent, 24 * 6 * np.outer(k, deg))

        trace = diging_atc_run(prob, graph, RunConfig(alpha=0.1, max_iters=25, rse_tol=0.0))
        k = np.arange(trace.rounds + 1)
        assert np.array_equal(trace.bytes_sent, 16 * 6 * np.outer(k, deg))

        cprob = logreg_family(5, 6, 1e-2, 3, constraint=True)
        trace = ecdqn_run(cprob, graph, EcRunConfig(alpha=0.5, max_iters=25, rse_tol=0.0))
        k = np.arange(trace.rounds + 1)
        assert np.array_equal(trace.bytes_sent, 24 * 6 * np.outer(k, deg))

        trace = ecdqn_run(
            cprob, graph, EcRunConfig(alpha=0.5, max_iters=25, rse_tol=0.0, fusion=False)
        )
        k = np.arange(trace.rounds + 1)
        assert np.array_equal(trace.bytes_sent, 16 * 6 * np.outer(k, deg))

    _report(criterion_report, 6, "communication ledger", body)


def _ec_cell(family, kappa, tol):
    """Run one constrained cell: tune the shared step on seed 0, then run
    all 20 seeds at that step."""

    def build(seed):
        if family == "logreg":
            return logreg_family(10, 10, 1e-2, seed, constraint=True)
        return basis_pursuit_family(10, 20, 2e-3, seed)

    prob0 = build(0)
    solve_reference(prob0)
    graph0 = random_connected_graph(10, kappa, 0)
    alpha, _ = tune_step_size(
        lambda a: run_algo(
            "ecdqn-dfp", prob0, graph0, alpha=a, max_iters=1000, rse_tol=tol, seed=0
        ),
        bracket=(0.05, 2.0),
        probes=12,
        rse_tol=tol,
        max_iters=1000,
    )
    outcomes = []
    for seed in range(20):
        prob = build(seed)
        solve_reference(prob)
        graph = random_connected_graph(10, kappa, seed)
        try:
            trace = run_algo(
                "ecdqn-dfp", prob, graph, alpha=alpha, max_iters=1000, rse_tol=tol, seed=seed
            )
        except Exception:
            outcomes.append((False, None, None))
            continue
        outcomes.append((trace.converged, trace, prob))
    return outcomes


def _assert_l1_stationarity(prob, x_bar):
    """KKT residual for the constrained l1 objective at a solved iterate.

    The pointwise gradient uses sign(x), which is wrong at components
    sitting on a kink, so the check splits by support: fitted multipliers
    must balance the smooth part plus xi*sign on the support, and the
    resulting dual must stay inside the l1 ball off it.
    """
    n = prob.n_agents
    r = sum(d.a.T @ (d.a @ x_bar - d.b) for d in prob.local_data) / n
    xi = sum(d.l1 for d in prob.local_data) / n
    f_mat, _ = prob.constraint
    support = np.abs(x_bar) > 1e-6
    scale = 1.0 + np.linalg.norm(r)
    if support.any():
        target = -(r[support] + xi * np.sign(x_bar[support]))
        beta, *_ = np.linalg.lstsq(f_mat[:, support].T, target, rcond=None)
        assert np.linalg.norm(f_mat[:, support].T @ beta - target) <= 1e-5 * scale
    else:
        beta = np.zeros(f_mat.shape[0])
    dual = r + f_mat.T @ beta
    if (~support).any():
        assert np.max(np.abs(dual[~support])) <= xi + 1e-5 * scale


def test_criterion_7_constrained_convergence(criterion_report):
    def body():
        start = time.perf_counter()
        cells = [("logreg", 0.3, 1e-7), ("logreg", 0.6, 1e-7),
                 ("basis-pursuit", 0.3, 1e-8), ("basis-pursuit", 0.6, 1e-8)]
        for family, kappa, tol in cells:
            outcomes = _ec_cell(family, kappa, tol)
            n_conv = sum(int(ok) for ok, _, _ in outcomes)
            assert n_conv >= 19, f"{family} kappa={kappa}: {n_conv}/20 converged"
            for ok, trace, prob in outcomes:
                if not ok:
                    continue
                assert np.max(trace.feasibility[trace.rounds]) <= 1e-6
                x_bar = trace.x_final.mean(axis=0)
                if family == "basis-pursuit":
                    _assert_l1_stationarity(prob, x_bar)
                    continue
                f_mat, _ = prob.constraint
                g_bar = prob.mean_gradient(x_bar)
                # rows of the constraint are orthonormal, so subtracting the
                # range component leaves the stationarity residual
                resid = g_bar - f_mat.T @ (f_mat @ g_bar)
                assert np.linalg.norm(resid) <= 1e-5 * (1.0 + np.linalg.norm(g_bar))
        assert time.perf_counter() - start < 300.0

    _report(criterion_report, 7, "constrained convergence", body)


def test_criterion_8_degenerate_and_oracle_checks(criterion_report):
    def body():
        # one agent: the distributed recursion collapses to a centralized
        # curvature-estimating descent loop
        rng = np.random.default_rng(3)
        dim = 5
        q_mat, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        p = (q_mat * rng.uniform(0.5, 2.0, size=dim)) @ q_mat.T
        lin = rng.standard_normal(dim)
        prob = SeparableProblem("qp", [QpLocalData(p=p, q=lin)])
        prob.reference_solution = np.linalg.solve(p, -lin)
        single = CommGraph(1, ())
        net = SyncNetwork(graph=single, w=metropolis_weights(single))
        state = init_dqn_states(prob, net, seed=9)
        xs = [state.x[0].copy()]
        for _ in range(50):
            state = dqn_step(net, state, prob, RunConfig(scheme="bfgs", alpha=0.5))
            xs.append(state.x[0].copy())
        x = np.random.default_rng(9).standard_normal(dim)
        g = p @ x + lin
        c = 0.1 * np.eye(dim)
        z = -(c @ g)
        ref = [x.copy()]
        for _ in range(50):
            x_new = x + 0.5 * z
            g_new = p @ x_new + lin
            s, y = x_new - x, g_new - g
            rho = y @ s
            if rho > 1e-10 * np.linalg.norm(y) * np.linalg.norm(s):
                cy = c @ y
                c = c - (np.outer(s, cy) + np.outer(cy, s)) / rho
                c = c + (1.0 + (y @ cy) / rho) * np.outer(s, s) / rho
            z = -(c @ g_new)
            x, g = x_new, g_new
            ref.append(x.copy())
        assert np.allclose(np.stack(xs), np.stack(ref), atol=1e-12, rtol=0.0)

        # saddle-point solves back-substitute to tight residuals
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n))
            b = _random_spd(rng, n, 0.5, 4.0)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = q[:, :m].T
            rs = rng.standard_normal(n)
            rp = rng.standard_normal(m)
            dx, beta = kkt_solve(KktSystem(b=b, a=a, rhs_stat=rs, rhs_prim=rp))
            scale = 1.0 + np.linalg.norm(np.concatenate([rs, rp]))
            assert np.linalg.norm(b @ dx + a.T @ beta + rs) <= 1e-10 * scale
            assert np.linalg.norm(a @ dx + rp) <= 1e-10 * scale

        # three agents, two rounds, against the stacked Kronecker recursion
        prob3 = qp_family(3, 4, (2.0, 10.0), 6)
        triangle = CommGraph(3, ((0, 1), (1, 2), (0, 2)))
        net3 = SyncNetwork(graph=triangle, w=metropolis_weights(triangle))
        state3 = init_dqn_states(prob3, net3, seed=4)
        big_w = np.kron(net3.w, np.eye(4))
        xf = state3.x.ravel()
        vf = state3.v.ravel()
        zf = state3.z.ravel()
        gf = state3.last_gradient.ravel()
        cs = list(state3.c.copy())
        for _ in range(2):
            x_new = big_w @ (xf + 0.3 * zf)
            g_new = np.concatenate(
                [prob3.locals[i].gradient(x_new[4 * i : 4 * i + 4]) for i in range(3)]
            )
            v_new = big_w @ (vf + g_new - gf)
            d_new = np.empty_like(xf)
            for i in range(3):
                sl = slice(4 * i, 4 * i + 4)
                s_vec, y_vec = x_new[sl] - xf[sl], v_new[sl] - vf[sl]
                rho = y_vec @ s_vec
                if rho > 1e-10 * np.linalg.norm(y_vec) * np.linalg.norm(s_vec):
                    cy = cs[i] @ y_vec
                    c = cs[i] - (np.outer(s_vec, cy) + np.outer(cy, s_vec)) / rho
                    cs[i] = c + (1.0 + (y_vec @ cy) / rho) * np.outer(s_vec, s_vec) / rho
                d_new[sl] = -(cs[i] @ v_new[sl])
            zf = big_w @ d_new
            xf, vf, gf = x_new, v_new, g_new
            state3 = dqn_step(net3, state3, prob3, RunConfig(scheme="bfgs", alpha=0.3))
        assert np.allclose(state3.x.ravel(), xf, atol=1e-12, rtol=0.0)
        assert np.allclose(state3.v.ravel(), vf, atol=1e-12, rtol=0.0)
        assert np.allclose(state3.z.ravel(), zf, atol=1e-12, rtol=0.0)

    _report(criterion_report, 8, "degenerate and oracle checks", body)


def test_criterion_9_determinism(criterion_report, tmp_path):
    def body():
        cfg = ExperimentConfig(
            family="qp",
            algos=("dqn-bfgs", "diging-atc"),
            n_agents=6,
            dim=6,
            cond_range=(2.0, 10.0),
            kappas=(0.8,),
            seeds=(0, 1, 2),
            alpha=0.3,
            max_iters=600,
            rse_tol=1e-8,
        )
        dirs = []
        for label in ("a", "b"):
            table, traces = run_experiment(cfg)
            out = tmp_path / label
            emit_report(table, traces, out)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            if name == "summary.json":
                continue
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        def strip_walls(path):
            payload = json.loads(path.read_text())
            for row in payload["table"]["rows"]:
                row["wall_ms_mean"] = None
            for run in payload["runs"].values():
                run["wall_time_ms"] = None
            return payload

        assert strip_walls(dirs[0] / "summary.json") == strip_walls(dirs[1] / "summary.json")

    _report(criterion_report, 9, "determinism", body)
