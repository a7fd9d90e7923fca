"""Tests for sweep orchestration, tuning, reporting, and validation."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from dqn_mesh.dqn import REPORT_BLOCK, RunConfig, RunTrace, diging_atc_run, dqn_run
from dqn_mesh.ecdqn import EcRunConfig, ecdqn_run
from dqn_mesh.harness import (
    ExperimentConfig,
    SummaryRow,
    SummaryTable,
    emit_report,
    make_problem,
    run_algo,
    run_experiment,
    tune_step_size,
    validate_run,
)
from dqn_mesh.problems import logreg_family, qp_family, solve_reference
from dqn_mesh.topology import random_connected_graph, save_graph
from oracle import long_csv_text, trace_csv_text


class TestExperimentConfig:
    def test_round_trips_through_json(self):
        cfg = ExperimentConfig(
            family="qp",
            algos=("dqn-bfgs", "diging-atc"),
            n_agents=6,
            dim=8,
            cond_range=(2.0, 40.0),
            kappas=(0.3, 0.6),
            seeds=(0, 1, 2),
            alpha=0.3,
        )
        payload = json.loads(json.dumps(asdict(cfg)))
        assert ExperimentConfig(**payload) == cfg

    @pytest.mark.parametrize("alpha", ["gold", -0.1, 0.0, None, "0.3", "auto"])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be"):
            ExperimentConfig(family="qp", algos=("dqn-bfgs",), alpha=alpha)

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="finite positive number"):
            ExperimentConfig(family="qp", algos=("dqn-bfgs",), alpha=alpha)

    def test_rejects_constrained_qp(self):
        # the qp generator draws no constraint
        with pytest.raises(ValueError, match="qp family has no constrained form"):
            ExperimentConfig(
                family="qp", algos=("dqn-bfgs",), cond_range=(2.0, 10.0), constrained=True
            )

    def test_rejects_unconstrained_basis_pursuit(self):
        # the basis-pursuit generator always draws a constraint
        with pytest.raises(ValueError, match="basis pursuit has only a constrained form"):
            ExperimentConfig(family="basis-pursuit", algos=("ecdqn-dfp",), n_agents=4, dim=8)

    @pytest.mark.parametrize("family", ["logreg", "basis-pursuit"])
    @pytest.mark.parametrize("algo", ["dqn-bfgs", "dqn-dfp", "diging-atc"])
    def test_rejects_unconstrained_method_on_constrained_family(self, family, algo):
        # the unconstrained solvers reject a constrained problem, so such a
        # cell could only abort
        with pytest.raises(ValueError, match=f"{algo} cannot honor the constraint"):
            ExperimentConfig(family=family, algos=("ecdqn-bfgs", algo), constrained=True)

    @pytest.mark.parametrize("family", ["qp", "logreg"])
    @pytest.mark.parametrize("algo", ["ecdqn-bfgs", "ecdqn-dfp"])
    def test_rejects_constrained_method_on_unconstrained_family(self, family, algo):
        # EC-DQN rejects a problem without a constraint, so such a cell
        # could only abort
        with pytest.raises(ValueError, match=f"{algo} cannot run on the unconstrained {family}"):
            ExperimentConfig(family=family, algos=("dqn-bfgs", algo), cond_range=(2.0, 10.0))

    @pytest.mark.parametrize("alpha", ["golden", 0.3, 2])
    def test_accepts_step_forms(self, alpha):
        assert ExperimentConfig(family="qp", algos=("dqn-bfgs",), alpha=alpha).alpha == alpha

    @pytest.mark.parametrize("rse_tol", [0.0, -1e-8])
    def test_golden_rejects_nonpositive_tolerance(self, rse_tol):
        # the golden-section score divides by rse_tol
        with pytest.raises(ValueError, match="rse_tol"):
            ExperimentConfig(family="qp", algos=("dqn-bfgs",), alpha="golden", rse_tol=rse_tol)

    def test_fixed_step_accepts_zero_tolerance(self):
        # a fixed-step run with rse_tol 0 runs its whole round budget
        cfg = ExperimentConfig(family="qp", algos=("dqn-bfgs",), alpha=0.3, rse_tol=0.0)
        assert cfg.rse_tol == 0.0

    @pytest.mark.parametrize("bracket", [(2.0, 1e-4), (0.0, 1.0), (-1.0, 1.0), (0.5, 0.5)])
    def test_rejects_bad_golden_bracket(self, bracket):
        with pytest.raises(ValueError, match="golden_bracket"):
            ExperimentConfig(family="qp", algos=("dqn-bfgs",), golden_bracket=bracket)

    @pytest.mark.parametrize("probes", [1, 0, -3])
    def test_rejects_too_few_golden_probes(self, probes):
        with pytest.raises(ValueError, match="golden_probes"):
            ExperimentConfig(family="qp", algos=("dqn-bfgs",), golden_probes=probes)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            ExperimentConfig(family="svm", algos=("dqn-bfgs",))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentConfig(family="qp", algos=("newton",))


class TestSummaryTable:
    def test_round_trip(self):
        table = SummaryTable(
            rows=[
                SummaryRow(
                    algo="dqn-bfgs",
                    kappa=0.6,
                    runs=3,
                    converged=2,
                    aborted=1,
                    success_rate=2 / 3,
                    rounds_mean=120.0,
                    rounds_std=10.0,
                    bytes_mean=5.5e4,
                    bytes_max=6.0e4,
                    wall_ms_mean=12.0,
                )
            ]
        )
        back = SummaryTable.from_dict(json.loads(json.dumps(table.to_dict())))
        assert back == table
        assert back.total_aborted() == 1


class TestMakeProblem:
    def test_qp_requires_cond_range(self):
        cfg = ExperimentConfig(family="qp", algos=("dqn-bfgs",), n_agents=4, dim=4)
        with pytest.raises(ValueError, match="cond_range"):
            make_problem(cfg, 0)

    def test_logreg_constraint_flag(self):
        cfg = ExperimentConfig(
            family="logreg", algos=("ecdqn-bfgs",), n_agents=4, dim=6, constrained=True
        )
        prob = make_problem(cfg, 0)
        assert prob.constraint is not None
        cfg_free = ExperimentConfig(family="logreg", algos=("dqn-bfgs",), n_agents=4, dim=6)
        assert make_problem(cfg_free, 0).constraint is None

    def test_basis_pursuit_draws_constraint(self):
        cfg = ExperimentConfig(
            family="basis-pursuit", algos=("ecdqn-dfp",), n_agents=4, dim=8, xi=1e-2,
            constrained=True,
        )
        assert make_problem(cfg, 0).constraint is not None


class TestRunAlgoDispatch:
    @pytest.mark.parametrize(
        "algo", ["dqn-bfgs", "dqn-dfp", "diging-atc"]
    )
    def test_unconstrained_names(self, algo):
        prob = qp_family(4, 4, (2.0, 10.0), 0)
        graph = random_connected_graph(4, 0.9, 0)
        trace = run_algo(algo, prob, graph, alpha=0.1, max_iters=3, rse_tol=0.0)
        assert trace.algo == algo

    @pytest.mark.parametrize("algo", ["ecdqn-bfgs", "ecdqn-dfp"])
    def test_constrained_names(self, algo):
        prob = logreg_family(4, 5, 1e-2, 0, constraint=True)
        solve_reference(prob)
        graph = random_connected_graph(4, 0.9, 0)
        trace = run_algo(algo, prob, graph, alpha=0.5, max_iters=3, rse_tol=0.0)
        assert trace.algo == algo

    def test_unknown_algorithm(self):
        prob = qp_family(4, 4, (2.0, 10.0), 0)
        graph = random_connected_graph(4, 0.9, 0)
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_algo("sgd", prob, graph, alpha=0.1)


# ---------------------------------------------------------------------------
# step-size tuning on a synthetic landscape


def fake_trace(converged, rounds, final_rse, alpha):
    n_agents = 2
    shape = (rounds + 1, n_agents)
    return RunTrace(
        algo="dqn-bfgs",
        n_agents=n_agents,
        dim=2,
        alpha=alpha,
        rse=np.full(shape, final_rse),
        x_consensus=np.zeros(rounds + 1),
        v_consensus=np.zeros(rounds + 1),
        mean_grad_norm=np.zeros(rounds + 1),
        objective=np.zeros(rounds + 1),
        bytes_sent=np.zeros(shape, dtype=np.int64),
        tracking_residual=np.zeros(rounds + 1),
        converged=converged,
        rounds=rounds,
    )


class TestTuneStepSize:
    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError, match="bracket"):
            tune_step_size(lambda a: None, bracket=(0.0, 1.0))
        with pytest.raises(ValueError, match="bracket"):
            tune_step_size(lambda a: None, bracket=(2.0, 1.0))

    @pytest.mark.parametrize("probes", [1, 0, -3])
    def test_rejects_too_few_probes(self, probes):
        with pytest.raises(ValueError, match="probes"):
            tune_step_size(lambda a: None, probes=probes)

    @pytest.mark.parametrize("rse_tol", [0.0, -1e-8])
    def test_rejects_nonpositive_tolerance(self, rse_tol):
        calls = []
        with pytest.raises(ValueError, match="rse_tol"):
            tune_step_size(calls.append, rse_tol=rse_tol)
        assert calls == []

    @pytest.mark.parametrize("bracket", [(1e-4, 2.0), (1.0, 1.0 + 1e-13)])
    def test_returns_once_the_interval_is_exhausted(self, bracket):
        # keys are exponents to 12 decimals: the default bracket holds 60
        # distinct probes, and a bracket narrower than a key holds one
        calls = []

        def run_fn(alpha):
            calls.append(alpha)
            return fake_trace(False, 1, 1.0 + abs(np.log10(alpha) + 1.0), alpha)

        tune_step_size(run_fn, bracket=bracket, probes=80)
        assert len(calls) == len(set(calls)) <= 60

    def test_probe_budget_and_memoization(self):
        calls = []

        def run_fn(alpha):
            calls.append(alpha)
            dist = abs(np.log10(alpha) - np.log10(0.1))
            return fake_trace(True, int(50 + 400 * dist), 1e-12, alpha)

        best, trace = tune_step_size(run_fn, bracket=(1e-3, 1.0), probes=10)
        assert len(calls) == 10
        assert len(set(calls)) == 10

    def test_finds_the_valley(self):
        # rounds grow with log-distance from the sweet spot at 0.1
        def run_fn(alpha):
            dist = abs(np.log10(alpha) - np.log10(0.1))
            return fake_trace(True, int(50 + 400 * dist), 1e-12, alpha)

        best, trace = tune_step_size(run_fn, bracket=(1e-3, 1.0), probes=14)
        assert 0.03 <= best <= 0.3
        assert trace.converged
        assert trace.alpha == pytest.approx(best)

    def test_hopeless_bracket_returns_least_bad(self):
        def run_fn(alpha):
            # nothing converges; the final error still improves toward the
            # low end of the bracket
            return fake_trace(False, 200, 1.0 + alpha, alpha)

        best, trace = tune_step_size(run_fn, bracket=(1e-3, 1.0), probes=8)
        assert not trace.converged
        assert best <= 0.1


# ---------------------------------------------------------------------------
# sweeps


def small_sweep_config(**overrides):
    base = dict(
        family="qp",
        algos=("dqn-bfgs", "diging-atc"),
        n_agents=4,
        dim=4,
        cond_range=(2.0, 10.0),
        kappas=(0.9,),
        seeds=(0, 1, 2),
        alpha=0.3,
        max_iters=500,
        rse_tol=1e-8,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_cells_and_aggregates(self):
        table, traces = run_experiment(small_sweep_config())
        assert len(table.rows) == 2
        assert {r.algo for r in table.rows} == {"dqn-bfgs", "diging-atc"}
        for row in table.rows:
            assert row.runs == 3
            assert 0.0 <= row.success_rate <= 1.0
            assert row.converged + row.aborted <= row.runs
            if row.converged:
                assert row.rounds_mean is not None
                assert row.bytes_mean is not None
        assert len(traces) == 6
        for (algo, kappa, seed), trace in traces.items():
            assert trace.algo == algo
            assert seed in (0, 1, 2)

    def test_quasi_newton_beats_baseline_on_rounds(self):
        table, _ = run_experiment(small_sweep_config(alpha="golden", golden_probes=6,
                                                     golden_bracket=(1e-2, 1.0)))
        by_algo = {r.algo: r for r in table.rows}
        assert by_algo["dqn-bfgs"].converged == 3
        if by_algo["diging-atc"].converged:
            assert by_algo["dqn-bfgs"].rounds_mean < by_algo["diging-atc"].rounds_mean

    def test_failed_cells_count_as_aborted(self):
        # a quadratic sweep without a conditioning range cannot build its
        # problems; every cell must be recorded as aborted, not raised
        cfg = small_sweep_config(cond_range=None)
        table, traces = run_experiment(cfg)
        assert traces == {}
        for row in table.rows:
            assert row.aborted == 3
            assert row.converged == 0
            assert row.success_rate == 0.0
            assert row.rounds_mean is None

    def test_abort_reasons_name_each_aborted_cell(self):
        # an unregularized constrained logistic problem whose reference
        # cannot be certified aborts its cell; the table says why, and the
        # reason stays out of the report's dict
        cfg = ExperimentConfig(
            family="logreg", algos=("ecdqn-bfgs",), constrained=True, n_agents=3, dim=40,
            xi=0.0, seeds=(5,), kappas=(0.6,), alpha=0.3,
        )
        table, traces = run_experiment(cfg)
        assert traces == {} and table.total_aborted() == 1
        [reason] = table.abort_reasons
        assert reason.startswith("ecdqn-bfgs kappa=0.6 seed=5: ReferenceSolveError: "
                                 "no reference solution for the constrained logreg problem")
        assert set(table.to_dict()) == {"rows"}

    def test_problem_abort_names_every_algorithm(self):
        table, _ = run_experiment(small_sweep_config(cond_range=None, seeds=(0, 1)))
        assert table.abort_reasons == [
            f"{algo} kappa=0.9 seed={seed}: ValueError: qp family needs cond_range"
            for seed in (0, 1) for algo in ("dqn-bfgs", "diging-atc")
        ]


# ---------------------------------------------------------------------------
# reporting


class TestEmitReport:
    def test_files_and_determinism(self, tmp_path):
        cfg = small_sweep_config(seeds=(0, 1))
        table, traces = run_experiment(cfg)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        emit_report(table, traces, dir_a)
        table2, traces2 = run_experiment(cfg)
        emit_report(table2, traces2, dir_b)

        names = sorted(p.name for p in dir_a.iterdir())
        assert "summary.json" in names
        assert "long.csv" in names
        assert sum(n.startswith("trace_") for n in names) == len(traces)
        assert names == sorted(p.name for p in dir_b.iterdir())

        # per-run CSVs and the long table are byte-identical across reruns
        for name in names:
            if name == "summary.json":
                continue
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

        def strip_walls(payload):
            for row in payload["table"]["rows"]:
                row["wall_ms_mean"] = None
            for run in payload["runs"].values():
                run["wall_time_ms"] = None
            return payload

        pa = strip_walls(json.loads((dir_a / "summary.json").read_text()))
        pb = strip_walls(json.loads((dir_b / "summary.json").read_text()))
        assert pa == pb

    def test_long_csv_layout(self, tmp_path):
        cfg = small_sweep_config(seeds=(0,), algos=("dqn-bfgs",))
        table, traces = run_experiment(cfg)
        emit_report(table, traces, tmp_path)
        lines = (tmp_path / "long.csv").read_text().strip().split("\n")
        assert lines[0] == "algo,kappa,seed,round,agent,rse"
        trace = next(iter(traces.values()))
        assert len(lines) == 1 + (trace.rounds + 1) * trace.n_agents
        assert lines[1].startswith("dqn-bfgs,0.9,0,0,0,")


# ---------------------------------------------------------------------------
# streamed report writers against the in-memory oracle


def qp_run(run=dqn_run, **knobs):
    prob = qp_family(4, 4, (2.0, 10.0), 0)
    graph = random_connected_graph(4, 0.9, 0)
    return run(prob, graph, RunConfig(**{"alpha": 0.3, "max_iters": 400, "rse_tol": 1e-8, **knobs}))


def ec_run(fusion):
    prob = logreg_family(4, 5, 1e-2, 3, constraint=True)
    graph = random_connected_graph(4, 0.9, 3)
    return ecdqn_run(prob, graph, EcRunConfig(alpha=0.3, max_iters=150, rse_tol=1e-12,
                                              fusion=fusion))


class TestStreamedReports:
    @pytest.mark.parametrize("make", [
        lambda: qp_run(),
        lambda: qp_run(diging_atc_run),
        lambda: ec_run(fusion=True),
        lambda: ec_run(fusion=False),
    ], ids=["dqn-bfgs", "diging-atc", "ecdqn-fused", "ecdqn-unfused"])
    def test_to_csv_matches_the_oracle(self, tmp_path, make):
        trace = make()
        assert trace.rounds + 1 > REPORT_BLOCK
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == trace_csv_text(trace)

    @pytest.mark.parametrize("records", [
        REPORT_BLOCK - 1, REPORT_BLOCK, REPORT_BLOCK + 1, 2 * REPORT_BLOCK,
    ])
    def test_to_csv_at_block_boundaries(self, tmp_path, records):
        # a run capped at records - 1 rounds writes records rounds of rows
        trace = qp_run(max_iters=records - 1, rse_tol=1e-300)
        assert trace.rounds + 1 == records
        trace.to_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == trace_csv_text(trace)

    def test_to_csv_of_a_run_converged_at_round_zero(self, tmp_path):
        trace = qp_run(rse_tol=1e6)
        assert trace.converged and trace.rounds == 0
        trace.to_csv(tmp_path / "trace.csv")
        text = (tmp_path / "trace.csv").read_text()
        assert text == trace_csv_text(trace) and len(text.splitlines()) == 1 + trace.n_agents

    def test_emit_report_matches_the_oracle(self, tmp_path):
        table, traces = run_experiment(small_sweep_config(seeds=(0, 1)))
        assert len(traces) == 4
        emit_report(table, traces, tmp_path)
        assert (tmp_path / "long.csv").read_text() == long_csv_text(traces)
        for (algo, kappa, seed), trace in traces.items():
            text = (tmp_path / f"trace_{algo}_k{kappa}_s{seed}.csv").read_text()
            assert text == trace_csv_text(trace)


def synthetic_run(tmp_path, rounds=800, n_agents=50, dim=24):
    """A dqn-bfgs trace of made-up values whose ledger and summary pass
    validation, with its graph and summary written next to it."""
    rng = np.random.default_rng(0)
    graph = random_connected_graph(n_agents, 0.3, 0)
    k = np.arange(rounds + 1)
    per_round = {name: rng.random(rounds + 1) for name in (
        "x_consensus", "v_consensus", "mean_grad_norm", "objective"
    )}
    trace = RunTrace(
        algo="dqn-bfgs", n_agents=n_agents, dim=dim, alpha=0.1,
        rse=rng.random((rounds + 1, n_agents)) * 10.0 ** -rng.integers(0, 12, (rounds + 1, 1)),
        bytes_sent=3 * 8 * dim * np.outer(k, graph.degrees()),
        tracking_residual=np.zeros(rounds + 1), rounds=rounds, rse_tol=1e-10, **per_round,
    )
    save_graph(graph, tmp_path / "graph.json")
    (tmp_path / "summary.json").write_text(json.dumps(trace.summary_dict()))
    return trace, tmp_path / "trace.csv", tmp_path / "summary.json", tmp_path / "graph.json"


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReportMemory:
    # the writers and the checker hold one block of rounds as text, so each
    # peaks below the size of the file it writes or reads; holding the
    # whole trace's text takes several times that

    def test_to_csv_and_validate_run(self, tmp_path):
        trace, *paths = synthetic_run(tmp_path)
        _, write_peak = traced_peak(trace.to_csv, paths[0])
        size = paths[0].stat().st_size
        assert paths[0].read_text() == trace_csv_text(trace)
        violations, check_peak = traced_peak(validate_run, *paths)
        assert violations == []
        assert write_peak < size and check_peak < size

    def test_emit_report(self, tmp_path):
        trace, *_ = synthetic_run(tmp_path)
        traces = {("dqn-bfgs", 0.3, 0): trace}
        _, peak = traced_peak(emit_report, SummaryTable(), traces, tmp_path / "report")
        assert (tmp_path / "report" / "long.csv").read_text() == long_csv_text(traces)
        assert peak < (tmp_path / "report" / "long.csv").stat().st_size


# ---------------------------------------------------------------------------
# post-hoc validation


@pytest.fixture()
def finished_run(tmp_path):
    prob = qp_family(4, 4, (2.0, 10.0), 0)
    graph = random_connected_graph(4, 0.9, 0)
    trace = dqn_run(prob, graph, RunConfig(alpha=0.3, max_iters=400, rse_tol=1e-8))
    trace_path = tmp_path / "trace.csv"
    summary_path = tmp_path / "summary.json"
    graph_path = tmp_path / "graph.json"
    trace.to_csv(trace_path)
    summary_path.write_text(json.dumps(trace.summary_dict()))
    save_graph(graph, graph_path)
    return trace, trace_path, summary_path, graph_path


class TestValidateRun:
    def test_clean_run_passes(self, finished_run):
        _, trace_path, summary_path, graph_path = finished_run
        assert validate_run(trace_path, summary_path, graph_path) == []

    def test_detects_ledger_tampering(self, finished_run):
        _, trace_path, summary_path, graph_path = finished_run
        lines = trace_path.read_text().strip().split("\n")
        parts = lines[5].split(",")
        parts[-1] = str(int(parts[-1]) + 8)
        lines[5] = ",".join(parts)
        trace_path.write_text("\n".join(lines) + "\n")
        violations = validate_run(trace_path, summary_path, graph_path)
        assert any("ledger" in v for v in violations)

    def test_detects_missing_rows(self, finished_run):
        _, trace_path, summary_path, graph_path = finished_run
        lines = trace_path.read_text().strip().split("\n")
        trace_path.write_text("\n".join(lines[:-2]) + "\n")
        violations = validate_run(trace_path, summary_path, graph_path)
        assert any("rows" in v for v in violations)

    def test_detects_tracker_violation(self, finished_run):
        _, trace_path, summary_path, graph_path = finished_run
        payload = json.loads(summary_path.read_text())
        payload["tracking_residuals"][1] = 1.0
        summary_path.write_text(json.dumps(payload))
        violations = validate_run(trace_path, summary_path, graph_path)
        assert any("tracker" in v for v in violations)

    def test_ledger_message_names_the_first_violating_row(self, finished_run):
        _, trace_path, summary_path, graph_path = finished_run
        lines = trace_path.read_text().strip().split("\n")
        # rows 5 and 9 are agent 0 of rounds 1 and 2 (four agents per round)
        parts = lines[5].split(",")
        formula = int(parts[-1])
        parts[-1] = str(formula + 8)
        lines[5] = ",".join(parts)
        later = lines[9].split(",")
        later[-1] = "0"
        lines[9] = ",".join(later)
        trace_path.write_text("\n".join(lines) + "\n")
        assert validate_run(trace_path, summary_path, graph_path) == [
            f"round 1 agent 0: ledger says {formula + 8} bytes, formula gives {formula}"
        ]

    def test_missing_rows_message(self, finished_run):
        trace, trace_path, summary_path, graph_path = finished_run
        lines = trace_path.read_text().strip().split("\n")
        trace_path.write_text("\n".join(lines[:-2]) + "\n")
        rows = (trace.rounds + 1) * 4
        assert validate_run(trace_path, summary_path, graph_path) == [
            f"expected {rows} rows ({trace.rounds} rounds), found {rows - 2}"
        ]

    def test_tracker_message_names_the_first_violating_round(self, finished_run):
        trace, trace_path, summary_path, graph_path = finished_run
        payload = json.loads(summary_path.read_text())
        payload["tracking_residuals"][1] = 1.0
        payload["tracking_residuals"][2] = 2.0
        summary_path.write_text(json.dumps(payload))
        bound = 1e-12 * (1.0 + float(trace.mean_grad_norm[1]))
        assert validate_run(trace_path, summary_path, graph_path) == [
            f"round 1: tracker deviates from the mean gradient by 1.000e+00 > {bound:.3e}"
        ]

    @pytest.mark.filterwarnings("error::UserWarning")
    def test_header_only_trace_reports_missing_rows(self, finished_run):
        trace, trace_path, summary_path, graph_path = finished_run
        header = trace_path.read_text().split("\n")[0]
        trace_path.write_text(header + "\n")
        assert validate_run(trace_path, summary_path, graph_path) == [
            f"expected {(trace.rounds + 1) * 4} rows ({trace.rounds} rounds), found 0"
        ]

    def test_blank_lines_are_skipped(self, finished_run):
        # blank lines before the header, between rows and at the end read as
        # absent, so the tampered row is still named by its round and agent
        _, trace_path, summary_path, graph_path = finished_run
        lines = trace_path.read_text().strip().split("\n")

        def write_spaced():
            spaced = ["", lines[0], "", *lines[1:4], "", "", *lines[4:], "", ""]
            trace_path.write_text("\n".join(spaced) + "\n")

        write_spaced()
        assert validate_run(trace_path, summary_path, graph_path) == []
        parts = lines[5].split(",")
        formula = int(parts[-1])
        parts[-1] = str(formula + 8)
        lines[5] = ",".join(parts)
        write_spaced()
        assert validate_run(trace_path, summary_path, graph_path) == [
            f"round 1 agent 0: ledger says {formula + 8} bytes, formula gives {formula}"
        ]

    def test_missing_trailing_newline(self, finished_run):
        trace, trace_path, summary_path, graph_path = finished_run
        text = trace_path.read_text()
        trace_path.write_text(text.rstrip("\n"))
        assert validate_run(trace_path, summary_path, graph_path) == []
        payload = json.loads(summary_path.read_text())
        payload["final_rse_max"] = 1e-9
        summary_path.write_text(json.dumps(payload))
        worst = float(np.max(trace.rse[trace.rounds]))
        assert validate_run(trace_path, summary_path, graph_path) == [
            f"final_rse_max 1e-09 != the trace's last-round maximum {worst!r}"
        ]

    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_trace_without_header_is_an_error(self, finished_run, text):
        _, trace_path, summary_path, graph_path = finished_run
        trace_path.write_text(text)
        with pytest.raises(ValueError, match="has no header"):
            validate_run(trace_path, summary_path, graph_path)

    def test_detects_false_convergence_claim(self, finished_run):
        _, trace_path, summary_path, graph_path = finished_run
        payload = json.loads(summary_path.read_text())
        payload["converged"] = True
        payload["final_rse_max"] = 1.0
        payload["rse_tol"] = 1e-8
        summary_path.write_text(json.dumps(payload))
        violations = validate_run(trace_path, summary_path, graph_path)
        assert any("convergence" in v for v in violations)

    @pytest.mark.parametrize(
        "edits",
        [
            {"final_rse_max": 1e-9},
            {"converged": False},
            {"rse_tol": 1e-12, "final_rse_max": 1e-13},
        ],
        ids=["final-rse", "converged-flag", "tighter-tolerance"],
    )
    def test_detects_summary_that_disagrees_with_its_trace(self, finished_run, edits):
        # each edit leaves the summary consistent with itself; only the
        # trace's last-round errors give it away
        _, trace_path, summary_path, graph_path = finished_run
        payload = json.loads(summary_path.read_text())
        payload.update(edits)
        summary_path.write_text(json.dumps(payload))
        violations = validate_run(trace_path, summary_path, graph_path)
        assert violations and all("trace's last-round maximum" in v for v in violations)

    def test_non_converged_run_passes(self, tmp_path):
        # a run that hits its round cap claims no convergence, and its
        # summary still matches its trace
        prob = qp_family(4, 4, (2.0, 10.0), 0)
        graph = random_connected_graph(4, 0.9, 0)
        trace = dqn_run(prob, graph, RunConfig(alpha=0.3, max_iters=5, rse_tol=1e-8))
        assert not trace.converged
        trace.to_csv(tmp_path / "trace.csv")
        (tmp_path / "summary.json").write_text(json.dumps(trace.summary_dict()))
        save_graph(graph, tmp_path / "graph.json")
        args = (tmp_path / "trace.csv", tmp_path / "summary.json", tmp_path / "graph.json")
        assert validate_run(*args) == []

    def test_unknown_algorithm_reported(self, finished_run):
        _, trace_path, summary_path, graph_path = finished_run
        payload = json.loads(summary_path.read_text())
        payload["algo"] = "mystery"
        summary_path.write_text(json.dumps(payload))
        violations = validate_run(trace_path, summary_path, graph_path)
        assert violations == ["unknown algorithm 'mystery' in summary"]
