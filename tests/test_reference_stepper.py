"""Stacked solvers against a per-agent reference stepper, bit for bit.

The reference below steps every agent on its own through the textbook
per-pair updates, spectrum clamp and single-system saddle-point solve of
``oracle.py``, one curvature pair, one probe and one solve at a time, each
method with its own loop and stopping rules; it shares no numerical code
with the solvers.  The solvers hold the agents stacked,
refresh every estimate and solve every saddle-point system in one batched
call, and share one round loop; their traces and terminal flags must
equal the reference's exactly, not just closely.  EC-DQN's reference
carries the inverse estimate H, as the solver does; the same stepper
carrying the Hessian estimate B (direct-form updates, a shifted probe,
the saddle-point solve that factorizes B) is kept as a cross-check that
agrees with the solver to a stated tolerance where neither form repairs.
"""

import numpy as np
import pytest

from dataclasses import replace

from dqn_mesh import dqn, ecdqn
from dqn_mesh.dqn import (
    C0_SCALE,
    DivergedError,
    RunConfig,
    SyncNetwork,
    _Recorder,
    diging_atc_run,
    dqn_run,
)
from dqn_mesh.ecdqn import (
    B0_SPECTRUM,
    STALL_ROUNDS,
    EcRunConfig,
    ecdqn_run,
    ecdqn_step,
    init_ecdqn_states,
)
from dqn_mesh.problems import logreg_family, qp_family, solve_reference
from dqn_mesh.quasi_newton import DEFAULT_FLOOR, refresh_inverse_batch
from dqn_mesh.topology import metropolis_weights, random_connected_graph
from one_agent import agent_problems
from oracle import (
    DIRECT,
    INVERSE,
    CurvatureError,
    KktError,
    curvature_ok,
    reference_kkt_solve,
    ill_conditioned_schur,
    reference_kkt_solve_inverse,
    reflection,
    spectrum_clamp,
)


def blown_up(arr):
    return not np.all(np.isfinite(arr)) or float(np.max(np.abs(arr))) > 1e50


def probe_fails(m, shift=0.0):
    try:
        np.linalg.cholesky(m - shift * np.eye(m.shape[0]) if shift else m)
    except np.linalg.LinAlgError:
        return True
    return False


def refresh_one(m, s, y, update, floor, ceiling, shift):
    """One agent's refresh; returns (estimate, skipped, repaired)."""
    skipped = 1
    if curvature_ok(s, y):
        try:
            m = update(m, s, y)
            skipped = 0
        except CurvatureError:
            pass
    bad = not np.all(np.isfinite(m)) or np.linalg.norm(m) > ceiling or probe_fails(m, shift)
    if bad:
        m = spectrum_clamp(np.where(np.isfinite(m), m, 0.0), floor, ceiling)
    return m, skipped, int(bad)


def refresh_inverse(c, s, y, scheme, floor, gamma):
    return refresh_one(c, s, y, INVERSE[scheme], floor, gamma, 0.0)


def refresh_hessian(b, s, y, scheme, floor, ceiling):
    return refresh_one(b, s, y, DIRECT[scheme], floor, ceiling, 0.5 * floor)


class Log:
    """Every per-round column of a solver trace, in textbook form: norms
    through ``np.linalg.norm``, means through ``.mean(axis=0)`` and the
    objective summed over the agents' own one-agent problems."""

    def __init__(self, problem, payloads, degrees):
        self.problem = problem
        self.agents = agent_problems(problem)
        self.x_star = problem.reference_solution
        self.ledger = 8 * payloads * problem.dim * degrees
        self.rse, self.objective, self.bytes_sent = [], [], []
        self.x_consensus, self.v_consensus, self.z_consensus = [], [], []
        self.mean_grad_norm, self.tracking_residual = [], []
        self.feasibility, self.beta_norm = [], []
        self.skipped = self.repaired = self.retries = 0
        self.diverged = self.stalled = False

    def gradients(self, x):
        """Every agent's gradient at its own row of x, one agent at a time."""
        return np.stack([agent.gradients(xi[None])[0] for agent, xi in zip(self.agents, x)])

    def record(self, x, v, g, z=None, feas=None, beta=None):
        rse = np.linalg.norm(x - self.x_star, axis=1) / np.linalg.norm(self.x_star)
        self.rse.append(rse)
        x_bar, v_bar, g_bar = x.mean(axis=0), v.mean(axis=0), g.mean(axis=0)
        self.x_consensus.append(np.linalg.norm(x - x_bar))
        self.v_consensus.append(np.linalg.norm(v - v_bar))
        if z is not None:
            self.z_consensus.append(np.linalg.norm(z - z.mean(axis=0)))
        self.mean_grad_norm.append(np.linalg.norm(g_bar))
        self.tracking_residual.append(np.linalg.norm(v_bar - g_bar))
        values = [agent.objective_value(x_bar) for agent in self.agents]
        self.objective.append(sum(values) / self.problem.n_agents)
        self.bytes_sent.append(self.ledger * (len(self.rse) - 1))
        if feas is not None:
            self.feasibility.append(feas)
            self.beta_norm.append(beta)
        return float(np.max(rse))


def reference_dqn(problem, graph, cfg):
    n_agents, n = problem.n_agents, problem.dim
    w = metropolis_weights(graph)
    log = Log(problem, 3, graph.degrees())
    x = np.random.default_rng(cfg.seed).standard_normal((n_agents, n))
    g = log.gradients(x)
    v = g.copy()
    c = [C0_SCALE * np.eye(n) for _ in range(n_agents)]
    # round zero records a zero direction: a round forms its direction from
    # the state it starts from, and records the direction it used
    z = np.zeros((n_agents, n))
    worst = log.record(x, v, g, z)
    for _ in range(cfg.max_iters):
        if worst <= cfg.rse_tol:
            break
        z = w @ np.stack([-(c[i] @ v[i]) for i in range(n_agents)])
        new_x = w @ (x + cfg.alpha * z)
        if blown_up(new_x):
            log.diverged = True
            break
        new_g = log.gradients(new_x)
        new_v = w @ (v + new_g - g)
        if blown_up(new_v):
            log.diverged = True
            break
        for i in range(n_agents):
            c[i], skipped, repaired = refresh_inverse(
                c[i], new_x[i] - x[i], new_v[i] - v[i], cfg.scheme, DEFAULT_FLOOR, dqn.GAMMA
            )
            log.skipped += skipped
            log.repaired += repaired
        x, v, g = new_x, new_v, new_g
        worst = log.record(x, v, g, z)
    return log, x


def reference_diging(problem, graph, cfg):
    n_agents, n = problem.n_agents, problem.dim
    w = metropolis_weights(graph)
    log = Log(problem, 2, graph.degrees())
    x = np.random.default_rng(cfg.seed).standard_normal((n_agents, n))
    g = log.gradients(x)
    y = g.copy()
    worst = log.record(x, y, g)
    for _ in range(cfg.max_iters):
        if worst <= cfg.rse_tol:
            break
        new_x = w @ np.stack([x[i] - cfg.alpha * y[i] for i in range(n_agents)])
        if blown_up(new_x):
            log.diverged = True
            break
        new_g = log.gradients(new_x)
        y = w @ (y + new_g - g)
        if blown_up(y):
            log.diverged = True
            break
        x, g = new_x, new_g
        worst = log.record(x, y, g)
    return log, x


# EC-DQN's estimate forms: the saddle-point solve, the refresh, and the
# initial estimate from an orthogonal basis and the drawn B0 spectrum
EC_FORMS = {
    "inverse": (reference_kkt_solve_inverse, refresh_inverse, lambda q, vals: (q / vals) @ q.T),
    "direct": (reference_kkt_solve, refresh_hessian, lambda q, vals: (q * vals) @ q.T),
}


def reference_kkt_round(m, a_mat, b_vec, x, v, floor, ceiling, log, form="inverse"):
    """Every agent's saddle-point solve in turn, given its estimate in the
    list m; a failed solve repairs that estimate and retries once.
    Returns (dx, beta), or None when a retry fails too; every agent's
    solve and retry of the round is counted either way."""
    solve = EC_FORMS[form][0]
    dx, beta, lost = [], [], False
    for i in range(len(x)):
        r_prim = a_mat @ x[i] - b_vec
        try:
            sol = solve(m[i], a_mat, v[i], r_prim)
        except KktError:
            log.retries += 1
            log.repaired += 1
            m[i] = spectrum_clamp(m[i], floor, ceiling)
            try:
                sol = solve(m[i], a_mat, v[i], r_prim)
            except KktError:
                lost = True
                continue
        dx.append(sol[0])
        beta.append(sol[1])
    return None if lost else (np.stack(dx), np.stack(beta))


def reference_ecdqn(problem, graph, cfg, form="inverse"):
    n_agents, n = problem.n_agents, problem.dim
    a_mat, b_vec = problem.constraint
    floor, ceiling = ecdqn.EIG_FLOOR, ecdqn.EIG_CEILING
    _, refresh, start = EC_FORMS[form]
    w = metropolis_weights(graph)
    log = Log(problem, 3 if cfg.fusion else 2, graph.degrees())
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal((n_agents, n))
    m = []
    for _ in range(n_agents):
        q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m0 = start(q_mat, rng.uniform(*B0_SPECTRUM, size=n))
        m.append(0.5 * (m0 + m0.T))
    g = log.gradients(x)
    v = g.copy()

    def record(x, v, g, beta):
        feas = np.linalg.norm(x @ a_mat.T - b_vec, axis=1)
        beta_norm = np.array([np.linalg.norm(bi) for bi in beta])
        return log.record(x, v, g, feas=feas, beta=beta_norm)

    worst = record(x, v, g, np.zeros((n_agents, a_mat.shape[0])))
    stall_run = 0
    for _ in range(cfg.max_iters):
        if worst <= cfg.rse_tol:
            break
        sols = reference_kkt_round(m, a_mat, b_vec, x, v, floor, ceiling, log, form)
        if sols is None:
            log.diverged = True
            return log, x
        dx, beta = sols
        d = w @ dx if cfg.fusion else dx
        new_x = w @ (x + cfg.alpha * d)
        if blown_up(new_x):
            log.diverged = True
            break
        new_g = log.gradients(new_x)
        new_v = w @ (v + new_g - g)
        if blown_up(new_v):
            log.diverged = True
            break
        for i in range(n_agents):
            m[i], skipped, repaired = refresh(
                m[i], new_x[i] - x[i], new_v[i] - v[i], cfg.scheme, floor, ceiling
            )
            log.skipped += skipped
            log.repaired += repaired
        move = float(np.max(np.linalg.norm(new_x - x, axis=1)))
        x, v, g = new_x, new_v, new_g
        worst = record(x, v, g, beta)
        stall_run = stall_run + 1 if move <= ecdqn.STALL_TOL else 0
        if stall_run >= STALL_ROUNDS:
            # a round that meets the tolerance is a convergence, not a stall
            log.stalled = worst > cfg.rse_tol
            break
    return log, x


def assert_trace_matches(trace, log, x_final, rse_tol):
    assert trace.rounds == len(log.rse) - 1
    assert (trace.converged, trace.diverged, trace.stalled) == (
        float(np.max(log.rse[-1])) <= rse_tol, log.diverged, log.stalled
    )
    assert np.array_equal(trace.rse, np.stack(log.rse))
    for column in (
        "x_consensus", "v_consensus", "mean_grad_norm", "objective", "tracking_residual"
    ):
        assert np.array_equal(getattr(trace, column), np.array(getattr(log, column))), column
    if log.z_consensus:
        assert np.array_equal(trace.z_consensus, np.array(log.z_consensus))
    else:
        assert trace.z_consensus is None
    assert np.array_equal(trace.bytes_sent, np.stack(log.bytes_sent))
    assert np.array_equal(trace.x_final, x_final)
    if log.feasibility:
        assert np.array_equal(trace.feasibility, np.stack(log.feasibility))
        assert np.array_equal(trace.beta_norm, np.stack(log.beta_norm))
        assert trace.kkt_retries == log.retries
    if trace.algo == "diging-atc":
        # the first-order baseline has no curvature pairs to count
        assert trace.skipped_pairs is None and trace.safeguard_repairs is None
    else:
        assert trace.skipped_pairs == log.skipped
        assert trace.safeguard_repairs == log.repaired


DQN_CASES = {
    # name: (scheme, alpha, gamma, expected outcome)
    "bfgs": ("bfgs", 0.5, 1e3, "converged"),
    "bfgs-safeguard": ("bfgs", 0.8, 1e3, "repaired"),
    "dfp": ("dfp", 0.8, 1e3, "skipped"),
    "dfp-safeguard": ("dfp", 0.8, 0.5, "repaired"),
    "bfgs-diverges": ("bfgs", 50.0, 1e3, "diverged"),
}


@pytest.mark.parametrize("case", sorted(DQN_CASES))
def test_dqn_run_matches_reference(case, monkeypatch):
    scheme, alpha, gamma, outcome = DQN_CASES[case]
    monkeypatch.setattr(dqn, "GAMMA", gamma)
    prob = qp_family(6, 5, (2.0, 20.0), 3)
    solve_reference(prob)
    graph = random_connected_graph(6, 0.9, 1)
    cfg = RunConfig(scheme=scheme, alpha=alpha, max_iters=200, rse_tol=1e-10, seed=2)
    trace = dqn_run(prob, graph, cfg)
    log, x_final = reference_dqn(prob, graph, cfg)
    assert_trace_matches(trace, log, x_final, cfg.rse_tol)
    assert {
        "converged": trace.converged,
        "repaired": trace.safeguard_repairs > 0,
        "skipped": trace.skipped_pairs > 0,
        "diverged": trace.diverged,
    }[outcome]


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_trace_columns_across_block_boundaries(extra):
    # the recorder reduces its rounds a block at a time; a run of
    # 2 * BLOCK + extra records ends just short of, on, or just past a
    # block boundary
    prob = qp_family(6, 5, (2.0, 20.0), 3)
    solve_reference(prob)
    graph = random_connected_graph(6, 0.9, 1)
    max_iters = 2 * _Recorder.BLOCK + extra - 1
    cfg = RunConfig(scheme="bfgs", alpha=0.2, max_iters=max_iters, rse_tol=0.0, seed=2)
    trace = dqn_run(prob, graph, cfg)
    log, x_final = reference_dqn(prob, graph, cfg)
    assert trace.rounds == max_iters
    assert_trace_matches(trace, log, x_final, cfg.rse_tol)


DIGING_CASES = {
    # name: (alpha, expected outcome)
    "converges": (0.3, "converged"),
    "diverges": (5.0, "diverged"),
}


@pytest.mark.parametrize("case", sorted(DIGING_CASES))
def test_diging_run_matches_reference(case):
    alpha, outcome = DIGING_CASES[case]
    prob = qp_family(6, 5, (2.0, 20.0), 3)
    solve_reference(prob)
    graph = random_connected_graph(6, 0.9, 1)
    cfg = RunConfig(alpha=alpha, max_iters=1500, rse_tol=1e-8, seed=2)
    trace = diging_atc_run(prob, graph, cfg)
    log, x_final = reference_diging(prob, graph, cfg)
    assert_trace_matches(trace, log, x_final, cfg.rse_tol)
    assert {"converged": trace.converged, "diverged": trace.diverged}[outcome]


def ec_config(**kwargs):
    return EcRunConfig(**{"max_iters": 120, "rse_tol": 1e-8, "seed": 1, **kwargs})


# retries need an inverse estimate whose Schur block fails its solve: a
# wide spectrum box and a long step get there with BFGS on these seeds
# (with the solvers' own box no run of this grid retries)
RETRY = dict(scheme="bfgs", max_iters=150)
RETRY_BOX = {"EIG_FLOOR": 1e-6, "EIG_CEILING": 1e6}

EC_CASES = {
    # name: (problem seed, graph seed, config, ecdqn constants, expected outcome)
    "bfgs": (4, 2, ec_config(scheme="bfgs", alpha=0.3), {}, "converged"),
    "dfp": (4, 2, ec_config(scheme="dfp", alpha=0.3), {}, "converged"),
    "dfp-unfused": (4, 2, ec_config(scheme="dfp", alpha=0.5, fusion=False), {}, "converged"),
    "bfgs-safeguard": (
        4, 2, ec_config(scheme="bfgs", alpha=1.0), {"EIG_CEILING": 1.5}, "repaired"
    ),
    "dfp-diverges": (4, 2, ec_config(scheme="dfp", alpha=1e6), {}, "diverged"),
    "bfgs-stalls": (4, 2, ec_config(scheme="bfgs", alpha=0.3), {"STALL_TOL": 1e-3}, "stalled"),
    # runs all 150 rounds, two retries on the way
    "bfgs-retry": (50, 50, ec_config(**RETRY, alpha=0.5, seed=50), RETRY_BOX, "retried"),
    # runs all 150 rounds, one retry on the way
    "bfgs-unfused-retry": (
        27, 27, ec_config(**RETRY, alpha=1.0, fusion=False, seed=27), RETRY_BOX, "retried"
    ),
    # its one retry, in round 50, fails and ends the run; the summary still
    # counts that retry and its repair
    "bfgs-retry-fails": (
        92, 92, ec_config(**RETRY, alpha=0.5, seed=92), RETRY_BOX, "retry-failed"
    ),
}


@pytest.mark.parametrize("case", sorted(EC_CASES))
def test_ecdqn_run_matches_reference(case, monkeypatch):
    prob_seed, graph_seed, cfg, constants, outcome = EC_CASES[case]
    for name, value in constants.items():
        monkeypatch.setattr(ecdqn, name, value)
    prob = logreg_family(5, 5, 1e-2, prob_seed, constraint=True)
    solve_reference(prob)
    graph = random_connected_graph(5, 0.7, graph_seed)
    trace = ecdqn_run(prob, graph, cfg)
    log, x_final = reference_ecdqn(prob, graph, cfg)
    assert_trace_matches(trace, log, x_final, cfg.rse_tol)
    assert {
        "converged": trace.converged,
        "repaired": trace.safeguard_repairs > 0,
        "diverged": trace.diverged,
        "stalled": trace.stalled and 0 < trace.rounds < cfg.max_iters,
        "retried": trace.kkt_retries > 0,
        "retry-failed": trace.diverged and trace.kkt_retries > 0,
    }[outcome]


# The stepper carrying the Hessian estimate B agrees with the solver, which
# carries H = B^-1, to these tolerances on the cases below: the same
# rounds and flags, every round's worst relative error within RSE_ATOL and
# the final iterates within X_ATOL.  The largest gaps measured are 5.8e-8
# (dfp-unfused, where the direct form makes 101 repairs and the inverse
# form none) and 9.4e-11 (bfgs-stalls).
DIRECT_FORM_RSE_ATOL = 1e-6
DIRECT_FORM_X_ATOL = 1e-9


@pytest.mark.parametrize("case", ["bfgs", "bfgs-stalls", "dfp", "dfp-unfused"])
def test_ecdqn_run_agrees_with_direct_form_stepper(case, monkeypatch):
    prob_seed, graph_seed, cfg, constants, _ = EC_CASES[case]
    for name, value in constants.items():
        monkeypatch.setattr(ecdqn, name, value)
    prob = logreg_family(5, 5, 1e-2, prob_seed, constraint=True)
    solve_reference(prob)
    graph = random_connected_graph(5, 0.7, graph_seed)
    trace = ecdqn_run(prob, graph, cfg)
    log, x_final = reference_ecdqn(prob, graph, cfg, form="direct")
    assert trace.rounds == len(log.rse) - 1
    assert (trace.converged, trace.diverged, trace.stalled) == (
        float(np.max(log.rse[-1])) <= cfg.rse_tol, log.diverged, log.stalled
    )
    assert np.max(np.abs(trace.rse - np.stack(log.rse))) <= DIRECT_FORM_RSE_ATOL
    assert np.max(np.abs(trace.x_final - x_final)) <= DIRECT_FORM_X_ATOL


# the configuration of the single EC-DQN rounds below
EC_STEP = EcRunConfig(alpha=0.5)


def ec_step_setup(bad_agent_h):
    """A three-round-old EC-DQN state on a five-agent logistic problem
    whose agent 2 then gets the inverse estimate bad_agent_h(A), built
    from the constraint block A."""
    prob = logreg_family(5, 4, 1e-2, 3, constraint=True)
    graph = random_connected_graph(5, 0.7, 1)
    net = SyncNetwork(graph=graph, w=metropolis_weights(graph))
    state = init_ecdqn_states(prob, seed=2)
    for _ in range(3):
        state = ecdqn_step(net, state, prob, EC_STEP)
    h = state.h.copy()
    h[2] = bad_agent_h(prob.constraint[0])
    return prob, net, replace(state, h=h)


def indefinite_schur(a_mat):
    return reflection(a_mat[0])


def assert_step_matches_reference(monkeypatch, prob, net, state, floor=1e-3, ceiling=1e3):
    """One solver round against the saddle-point solves and curvature
    refresh done agent by agent; the pairs come from the solver's iterates
    and trackers."""
    log = Log(prob, 3, net.graph.degrees())
    h = list(state.h)
    a_mat, b_vec = prob.constraint
    dx, beta = reference_kkt_round(h, a_mat, b_vec, state.x, state.v, floor, ceiling, log)
    monkeypatch.setattr(ecdqn, "EIG_FLOOR", floor)
    monkeypatch.setattr(ecdqn, "EIG_CEILING", ceiling)
    stepped = ecdqn_step(net, state, prob, EC_STEP)
    # the fused step x' = W (x + alpha W dx) carries the directions
    assert np.array_equal(stepped.x, net.w @ (state.x + EC_STEP.alpha * (net.w @ dx)))
    assert np.array_equal(stepped.beta, beta)
    for i in range(prob.n_agents):
        h[i], skipped, repaired = refresh_inverse(
            h[i], stepped.x[i] - state.x[i], stepped.v[i] - state.v[i], "bfgs", floor, ceiling
        )
        log.skipped += skipped
        log.repaired += repaired
    assert np.array_equal(stepped.h, np.stack(h))
    assert stepped.kkt_retries - state.kkt_retries == log.retries == 1
    assert stepped.safeguard_repairs - state.safeguard_repairs == log.repaired
    assert stepped.skipped_pairs - state.skipped_pairs == log.skipped


def test_ecdqn_step_falls_back_on_indefinite_estimate(monkeypatch):
    prob, net, state = ec_step_setup(indefinite_schur)
    assert_step_matches_reference(monkeypatch, prob, net, state)


def test_ecdqn_step_falls_back_on_residual_failure(monkeypatch):
    # positive definite, and its Schur block passes its Cholesky test, but
    # is too ill-conditioned for the solve to pass the residual check
    prob, net, state = ec_step_setup(ill_conditioned_schur)
    bad = state.h[2]
    np.linalg.cholesky(bad)
    a_mat, b_vec = prob.constraint
    with pytest.raises(KktError, match="residual"):
        reference_kkt_solve_inverse(bad, a_mat, state.v[2], a_mat @ state.x[2] - b_vec)
    assert_step_matches_reference(monkeypatch, prob, net, state)


def test_ecdqn_step_diverges_when_the_retry_fails(monkeypatch):
    prob, net, state = ec_step_setup(indefinite_schur)
    # a repair that changes nothing leaves the retry to fail as well
    monkeypatch.setattr(ecdqn, "pd_safeguard", lambda m, floor, ceiling: m)
    with pytest.raises(DivergedError) as err:
        ecdqn_step(net, state, prob, EC_STEP)
    # the error carries the state with the round's retry and repair counted
    counted = err.value.state
    assert counted.kkt_retries - state.kkt_retries == 1
    assert counted.safeguard_repairs - state.safeguard_repairs == 1
    assert counted.x is state.x and counted.h is state.h


def awkward_stack(rng, n):
    """Six agents: a good pair, a zero pair, a negative pair, a flat pair
    on an indefinite estimate, a huge update, and a non-finite estimate."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spd = (q * rng.uniform(0.5, 2.0, size=n)) @ q.T
    m = np.stack([spd] * 6)
    m[3] = np.diag([-1.0] + [1.0] * (n - 1))
    m[5, 0, 0] = np.nan
    s = rng.standard_normal((6, n))
    y = s + 0.1 * rng.standard_normal((6, n))
    s[1] = 0.0
    y[2] = -s[2]
    y[3] = 0.0
    y[4] = 1e-6 * s[4]
    return m, s, y


@pytest.mark.parametrize("scheme", ["bfgs", "dfp"])
def test_batched_refresh_matches_per_pair(scheme):
    rng = np.random.default_rng(5)
    m, s, y = awkward_stack(rng, 4)
    # at DQN's floor and at EC-DQN's
    for args in ((1e-8, 50.0), (1e-3, 50.0)):
        out = refresh_inverse_batch(m, s, y, scheme, *args)
        expected = [refresh_inverse(m[i], s[i], y[i], scheme, *args) for i in range(6)]
        assert np.array_equal(out.estimates, np.stack([e[0] for e in expected]))
        assert out.skipped == sum(e[1] for e in expected) == 3
        assert out.repaired == sum(e[2] for e in expected) >= 2
    # the inputs are left alone
    m2, _, _ = awkward_stack(np.random.default_rng(5), 4)
    assert np.array_equal(m, m2, equal_nan=True)
