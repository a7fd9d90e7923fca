"""End-to-end tests for the command-line driver."""

import json

import numpy as np
import pytest

from dqn_mesh.cli import main
from dqn_mesh.harness import ExperimentConfig, run_experiment
from dqn_mesh.problems import REFERENCE_TOL, load_problem


def generate_pair(tmp_path, family="qp", extra=()):
    args = [
        "generate",
        "--family",
        family,
        "--agents",
        "4",
        "--dim",
        "4",
        "--kappa",
        "0.9",
        "--seed",
        "0",
        "--out-dir",
        str(tmp_path),
    ]
    if family == "qp":
        args += ["--cond", "2:10"]
    args += list(extra)
    rc = main(args)
    assert rc == 0
    return tmp_path / "problem.json", tmp_path / "graph.json"


class TestGenerate:
    def test_writes_problem_and_graph(self, tmp_path, capsys):
        problem_path, graph_path = generate_pair(tmp_path)
        out = capsys.readouterr().out
        assert "wrote" in out
        assert problem_path.exists() and graph_path.exists()
        prob = load_problem(problem_path)
        assert prob.family == "qp"
        assert prob.n_agents == 4
        assert prob.reference_solution is not None

    def test_no_reference_flag(self, tmp_path):
        problem_path, _ = generate_pair(tmp_path, extra=["--no-reference"])
        assert json.loads(problem_path.read_text())["reference_solution"] is None

    def test_constrained_logreg(self, tmp_path):
        problem_path, _ = generate_pair(
            tmp_path, family="logreg", extra=["--xi", "0.01", "--constrained"]
        )
        prob = load_problem(problem_path)
        assert prob.constraint is not None

    def test_unconstrained_logreg_at_default_size(self, tmp_path, capsys):
        # this seed's unconstrained reference needs the residual-norm Newton
        rc = main(["generate", "--family", "logreg", "--seed", "21", "--out-dir", str(tmp_path)])
        assert rc == 0
        prob = load_problem(tmp_path / "problem.json")
        assert prob.constraint is None
        assert np.linalg.norm(prob.mean_gradient(prob.reference_solution)) <= 10 * REFERENCE_TOL

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("DQN_MESH_OUT", str(env_dir))
        rc = main(
            [
                "generate",
                "--family",
                "qp",
                "--agents",
                "4",
                "--dim",
                "4",
                "--cond",
                "2:10",
            ]
        )
        assert rc == 0
        assert (env_dir / "problem.json").exists()
        assert (env_dir / "graph.json").exists()


class TestRun:
    def test_converging_run_exits_zero(self, tmp_path, capsys):
        problem_path, graph_path = generate_pair(tmp_path)
        trace_path = tmp_path / "out" / "trace.csv"
        rc = main(
            [
                "run",
                "--algo",
                "dqn-bfgs",
                "--problem",
                str(problem_path),
                "--graph",
                str(graph_path),
                "--alpha",
                "0.3",
                "--max-iters",
                "500",
                "--tol",
                "1e-8",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert trace_path.exists()
        summary = json.loads(trace_path.with_suffix(".json").read_text())
        assert summary["algo"] == "dqn-bfgs"
        assert summary["converged"] is True

    def test_mismatched_algorithm_exits_two(self, tmp_path, capsys):
        # the constrained solver cannot run on an unconstrained problem
        problem_path, graph_path = generate_pair(tmp_path)
        rc = main(
            [
                "run",
                "--algo",
                "ecdqn-bfgs",
                "--problem",
                str(problem_path),
                "--graph",
                str(graph_path),
                "--alpha",
                "1.0",
                "--trace-out",
                str(tmp_path / "trace.csv"),
            ]
        )
        assert_input_error(rc, capsys, "ecdqn-bfgs cannot run on the unconstrained qp family")
        assert not (tmp_path / "trace.csv").exists()

    def test_basis_pursuit_pair_runs(self, tmp_path, capsys):
        problem_path, graph_path = generate_pair(tmp_path, "basis-pursuit", ["--constrained"])
        args = ["--problem", str(problem_path), "--graph", str(graph_path), "--alpha", "0.1"]
        trace_path = tmp_path / "trace.csv"
        rc = main(["run", "--algo", "ecdqn-dfp", *args, "--max-iters", "20",
                   "--trace-out", str(trace_path)])
        assert rc == 0
        assert json.loads(trace_path.with_suffix(".json").read_text())["algo"] == "ecdqn-dfp"

    def test_constrained_logreg_pair_runs(self, tmp_path):
        # run reads the constraint off the loaded problem, so EC-DQN is
        # accepted on a constrained logreg pair
        problem_path, graph_path = generate_pair(tmp_path, "logreg", ["--constrained"])
        args = ["--problem", str(problem_path), "--graph", str(graph_path), "--alpha", "0.3"]
        trace_path = tmp_path / "trace.csv"
        rc = main(["run", "--algo", "ecdqn-bfgs", *args, "--max-iters", "20",
                   "--trace-out", str(trace_path)])
        assert rc == 0
        assert json.loads(trace_path.with_suffix(".json").read_text())["algo"] == "ecdqn-bfgs"

    @pytest.mark.parametrize("algo", ["dqn-bfgs", "diging-atc"])
    def test_unconstrained_algorithm_on_constrained_pair_exits_two(self, tmp_path, capsys, algo):
        # the unconstrained methods would ignore the constraint and chase
        # the constrained optimum to the iteration cap; the loaded problem's
        # constraint rejects them when the run is configured
        problem_path, graph_path = generate_pair(tmp_path, "logreg", ["--constrained"])
        args = ["--problem", str(problem_path), "--graph", str(graph_path), "--alpha", "0.3"]
        rc = main(["run", "--algo", algo, *args, "--trace-out", str(tmp_path / "trace.csv")])
        assert_input_error(rc, capsys, f"{algo} cannot honor the constraint")
        assert not (tmp_path / "trace.csv").exists()

    def test_golden_run_matches_its_sweep_cell(self, tmp_path):
        # run and sweep run a cell through the same code, so the same cell
        # writes the same trace
        problem_path, graph_path = generate_pair(tmp_path)
        trace_path = tmp_path / "trace.csv"
        rc = main(
            [
                "run",
                "--algo",
                "dqn-bfgs",
                "--problem",
                str(problem_path),
                "--graph",
                str(graph_path),
                "--alpha",
                "golden",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert rc == 0
        config = ExperimentConfig(
            family="qp", algos=("dqn-bfgs",), n_agents=4, dim=4, cond_range=(2.0, 10.0),
            kappas=(0.9,), seeds=(0,),
        )
        _, traces = run_experiment(config)
        traces[("dqn-bfgs", 0.9, 0)].to_csv(tmp_path / "cell.csv")
        assert trace_path.read_bytes() == (tmp_path / "cell.csv").read_bytes()

    def test_default_alpha_is_golden(self, tmp_path):
        # without --alpha a run tunes its step, as a sweep cell does by default
        problem_path, graph_path = generate_pair(tmp_path)
        trace_path = tmp_path / "trace.csv"
        rc = main(
            [
                "run",
                "--algo",
                "diging-atc",
                "--problem",
                str(problem_path),
                "--graph",
                str(graph_path),
                "--max-iters",
                "100",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert rc == 0
        config = ExperimentConfig(
            family="qp", algos=("diging-atc",), n_agents=4, dim=4, cond_range=(2.0, 10.0),
            kappas=(0.9,), seeds=(0,), max_iters=100,
        )
        assert config.alpha == "golden"
        _, traces = run_experiment(config)
        traces[("diging-atc", 0.9, 0)].to_csv(tmp_path / "cell.csv")
        assert trace_path.read_bytes() == (tmp_path / "cell.csv").read_bytes()

    def test_iteration_cap_still_exits_zero(self, tmp_path, capsys):
        # a clean non-converged run is a valid result, not a failure
        problem_path, graph_path = generate_pair(tmp_path)
        rc = main(
            [
                "run",
                "--algo",
                "diging-atc",
                "--problem",
                str(problem_path),
                "--graph",
                str(graph_path),
                "--alpha",
                "0.01",
                "--max-iters",
                "5",
                "--tol",
                "1e-12",
                "--trace-out",
                str(tmp_path / "trace.csv"),
            ]
        )
        assert rc == 0
        assert "hit iteration cap" in capsys.readouterr().out


def write_sweep_config(tmp_path, **overrides):
    cfg = dict(
        family="qp",
        algos=["dqn-bfgs"],
        n_agents=4,
        dim=4,
        cond_range=[2.0, 10.0],
        kappas=[0.9],
        seeds=[0, 1],
        alpha=0.3,
        max_iters=500,
        rse_tol=1e-8,
    )
    cfg.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSweepAndReport:
    def test_sweep_emits_reports(self, tmp_path, capsys):
        cfg_path = write_sweep_config(tmp_path)
        out_dir = tmp_path / "results"
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "long.csv").exists()
        stdout = capsys.readouterr().out
        assert "dqn-bfgs" in stdout and "success" in stdout

    def test_sweep_with_aborts_exits_two(self, tmp_path, capsys):
        cfg_path = write_sweep_config(tmp_path, cond_range=None)
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "aborted" in capsys.readouterr().err

    def test_sweep_says_why_a_cell_aborted(self, tmp_path, capsys):
        # the seed-5 reference of this unregularized constrained logistic
        # problem cannot be certified, so its one cell aborts
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "family": "logreg", "algos": ["ecdqn-bfgs"], "constrained": True, "n_agents": 3,
            "dim": 40, "xi": 0.0, "seeds": [5], "kappas": [0.6], "alpha": 0.3,
        }))
        out_dir = tmp_path / "r"
        rc = main(["sweep", "--config", str(path), "--out", str(out_dir)])
        assert rc == 2
        reason, count = capsys.readouterr().err.splitlines()
        assert reason.startswith(
            "aborted cell ecdqn-bfgs kappa=0.6 seed=5: ReferenceSolveError: no reference solution "
            "for the constrained logreg problem (3 agents, dim 40, seed 5)"
        )
        assert count == "1 aborted cells"
        assert "ReferenceSolveError" not in (out_dir / "summary.json").read_text()

    def test_report_prints_table(self, tmp_path, capsys):
        cfg_path = write_sweep_config(tmp_path)
        out_dir = tmp_path / "results"
        main(["sweep", "--config", str(cfg_path), "--out", str(out_dir)])
        capsys.readouterr()
        rc = main(["report", "--dir", str(out_dir)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "bytes/agent" in stdout
        assert "dqn-bfgs" in stdout


class TestValidateCommand:
    def test_valid_and_tampered(self, tmp_path, capsys):
        problem_path, graph_path = generate_pair(tmp_path)
        trace_path = tmp_path / "trace.csv"
        main(
            [
                "run",
                "--algo",
                "dqn-bfgs",
                "--problem",
                str(problem_path),
                "--graph",
                str(graph_path),
                "--alpha",
                "0.3",
                "--max-iters",
                "500",
                "--tol",
                "1e-8",
                "--trace-out",
                str(trace_path),
            ]
        )
        summary_path = trace_path.with_suffix(".json")
        rc = main(
            [
                "validate",
                "--trace",
                str(trace_path),
                "--summary",
                str(summary_path),
                "--graph",
                str(graph_path),
            ]
        )
        assert rc == 0
        assert "passes" in capsys.readouterr().out

        lines = trace_path.read_text().strip().split("\n")
        parts = lines[6].split(",")
        parts[-1] = str(int(parts[-1]) + 16)
        lines[6] = ",".join(parts)
        trace_path.write_text("\n".join(lines) + "\n")
        rc = main(
            [
                "validate",
                "--trace",
                str(trace_path),
                "--summary",
                str(summary_path),
                "--graph",
                str(graph_path),
            ]
        )
        assert rc == 2
        assert "violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits", [{"converged": False}, {"final_rse_max": 1e-12}], ids=["converged", "final-rse"]
    )
    def test_summary_edited_against_its_trace(self, tmp_path, capsys, edits):
        problem_path, graph_path = generate_pair(tmp_path)
        trace_path = tmp_path / "trace.csv"
        args = ["--problem", str(problem_path), "--graph", str(graph_path), "--alpha", "0.3"]
        main(["run", "--algo", "dqn-bfgs", *args, "--tol", "1e-8", "--trace-out", str(trace_path)])
        summary_path = trace_path.with_suffix(".json")
        payload = json.loads(summary_path.read_text())
        assert payload["converged"] is True
        payload.update(edits)
        summary_path.write_text(json.dumps(payload))
        capsys.readouterr()
        args = ["--trace", str(trace_path), "--summary", str(summary_path)]
        rc = main(["validate", *args, "--graph", str(graph_path)])
        assert rc == 2
        assert "last-round maximum" in capsys.readouterr().err


def assert_input_error(rc, capsys, *words):
    """Bad input exits 2 with one ``dqn-mesh: error:`` line and no traceback."""
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("dqn-mesh: error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for word in words:
        assert word in err


class TestBadInput:
    def test_qp_without_cond_range(self, tmp_path, capsys):
        rc = main(["generate", "--family", "qp", "--out-dir", str(tmp_path / "bad")])
        assert_input_error(rc, capsys, "cond_range")
        assert not (tmp_path / "bad").exists()

    def test_missing_problem_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        rc = main(
            ["run", "--algo", "dqn-bfgs", "--problem", str(missing), "--graph", str(missing)]
        )
        assert_input_error(rc, capsys, "missing.json")

    def test_sweep_config_with_removed_field(self, tmp_path, capsys):
        cfg_path = write_sweep_config(tmp_path, epsilon=0.01)
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert_input_error(rc, capsys, "epsilon")
        assert not (tmp_path / "r").exists()

    def test_sweep_config_with_bad_alpha(self, tmp_path, capsys):
        cfg_path = write_sweep_config(tmp_path, alpha="gold")
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert_input_error(rc, capsys, "alpha")
        assert not (tmp_path / "r").exists()

    def test_infinite_alpha(self, tmp_path, capsys):
        problem_path, graph_path = generate_pair(tmp_path)
        args = ["--problem", str(problem_path), "--graph", str(graph_path)]
        args += ["--trace-out", str(tmp_path / "trace.csv")]
        rc = main(["run", "--algo", "dqn-bfgs", *args, "--alpha", "inf"])
        assert_input_error(rc, capsys, "finite positive number", "inf")
        assert not (tmp_path / "trace.csv").exists()

    def test_constrained_qp(self, tmp_path, capsys):
        # the qp generator draws no constraint, so it would write none
        out = tmp_path / "bad"
        rc = main(["generate", "--family", "qp", "--cond", "2:10", "--constrained",
                   "--out-dir", str(out)])
        assert_input_error(rc, capsys, "qp family has no constrained form")
        assert not out.exists()

    def test_unconstrained_basis_pursuit(self, tmp_path, capsys):
        # the basis-pursuit generator always draws a constraint
        out = tmp_path / "bad"
        rc = main(["generate", "--family", "basis-pursuit", "--out-dir", str(out)])
        assert_input_error(rc, capsys, "basis pursuit has only a constrained form")
        assert not out.exists()

    def test_sweep_config_mixing_unconstrained_method_and_constrained_family(
        self, tmp_path, capsys
    ):
        # rejected when the config is built, not counted as an aborted cell
        # with no reason
        cfg_path = write_sweep_config(
            tmp_path, family="logreg", algos=["dqn-bfgs", "ecdqn-bfgs"], constrained=True,
            cond_range=None,
        )
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert_input_error(rc, capsys, "dqn-bfgs cannot honor the constraint")
        assert not (tmp_path / "r").exists()

    def test_sweep_config_pairing_constrained_method_with_unconstrained_family(
        self, tmp_path, capsys
    ):
        # EC-DQN rejects an unconstrained problem, so the config is rejected
        # when it is built rather than aborting every cell with no reason
        cfg_path = write_sweep_config(
            tmp_path, family="logreg", algos=["ecdqn-bfgs"], constrained=False, xi=0.0,
            cond_range=None, kappas=[0.6],
        )
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert_input_error(rc, capsys, "ecdqn-bfgs cannot run on the unconstrained logreg family")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("seed, reason", [
        (5, "the Newton system is singular"),
        (6, "the Newton iteration failed to reach the tolerance"),
    ])
    def test_reference_that_cannot_be_certified(self, tmp_path, capsys, seed, reason):
        # an unregularized constrained logistic problem with 3 agents in
        # dimension 40: its reference solve fails in two ways by seed
        out = tmp_path / "bad"
        rc = main(["generate", "--family", "logreg", "--agents", "3", "--dim", "40", "--xi", "0",
                   "--constrained", "--seed", str(seed), "--out-dir", str(out)])
        assert_input_error(
            rc, capsys, "no reference solution for the constrained logreg problem",
            f"seed {seed}", reason,
        )
        assert not out.exists()

    def test_auto_alpha(self, tmp_path, capsys):
        problem_path, graph_path = generate_pair(tmp_path)
        args = ["--problem", str(problem_path), "--graph", str(graph_path)]
        args += ["--trace-out", str(tmp_path / "trace.csv")]
        rc = main(["run", "--algo", "dqn-bfgs", *args, "--alpha", "auto"])
        assert_input_error(rc, capsys, "--alpha", "'auto'")

    @pytest.mark.parametrize("alpha", [["--alpha", "golden"], []], ids=["golden", "default"])
    def test_golden_with_zero_tolerance(self, tmp_path, capsys, alpha):
        # the golden-section score is relative to the tolerance
        problem_path, graph_path = generate_pair(tmp_path)
        args = ["--problem", str(problem_path), "--graph", str(graph_path)]
        args += ["--trace-out", str(tmp_path / "trace.csv")]
        rc = main(["run", "--algo", "dqn-bfgs", *args, *alpha, "--tol", "0"])
        assert_input_error(rc, capsys, "rse_tol")

    def test_sweep_config_golden_with_zero_tolerance(self, tmp_path, capsys):
        cfg_path = write_sweep_config(tmp_path, alpha="golden", rse_tol=0.0)
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
        assert_input_error(rc, capsys, "rse_tol")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "family, path, value, field",
        [
            ("qp", ("locals", 1, "q", 2), float("nan"), "'q'"),
            ("qp", ("locals", 1, "q", 2), float("inf"), "'q'"),
            ("qp", ("reference_solution", 0), float("-inf"), "'reference_solution'"),
            ("logreg", ("constraint", "b", 0), float("nan"), "'constraint b'"),
        ],
        ids=["nan-record", "inf-record", "inf-reference", "nan-constraint"],
    )
    def test_problem_file_with_non_finite_number(
        self, tmp_path, capsys, family, path, value, field
    ):
        extra = ["--constrained"] if family == "logreg" else []
        problem_path, graph_path = generate_pair(tmp_path, family, extra)
        payload = json.loads(problem_path.read_text())
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        target[last] = value
        problem_path.write_text(json.dumps(payload))
        args = ["--problem", str(problem_path), "--graph", str(graph_path), "--alpha", "0.3"]
        args += ["--trace-out", str(tmp_path / "trace.csv")]
        rc = main(["run", "--algo", "dqn-bfgs", *args])
        assert_input_error(rc, capsys, "problem file", "problem.json", "non-finite", field)

    def test_problem_file_without_fields(self, tmp_path, capsys):
        _, graph_path = generate_pair(tmp_path)
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        rc = main(
            ["run", "--algo", "dqn-bfgs", "--problem", str(empty), "--graph", str(graph_path)]
        )
        assert_input_error(rc, capsys, "empty.json", "'family'")

    def test_graph_file_without_agent_count(self, tmp_path, capsys):
        problem_path, graph_path = generate_pair(tmp_path)
        graph = json.loads(graph_path.read_text())
        del graph["n_agents"]
        graph_path.write_text(json.dumps(graph))
        args = ["--problem", str(problem_path), "--graph", str(graph_path)]
        rc = main(["run", "--algo", "dqn-bfgs", *args])
        assert_input_error(rc, capsys, "graph.json", "'n_agents'")

    @pytest.mark.parametrize(
        "text",
        ["[]", '"qp"', '{"family": "qp", "locals": [[1, 2]]}', '{"family": "qp", "locals": 3}'],
        ids=["list", "string", "list-entry", "number-locals"],
    )
    def test_problem_file_of_another_shape(self, tmp_path, capsys, text):
        _, graph_path = generate_pair(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["run", "--algo", "dqn-bfgs", "--problem", str(bad), "--graph", str(graph_path)])
        assert_input_error(rc, capsys, "problem file", "bad.json")

    @pytest.mark.parametrize(
        "text",
        ["[]", '{"n_agents": 4, "edges": [5]}', '{"n_agents": 4, "edges": [[0, 1, 2]]}'],
        ids=["list", "number-edge", "triple-edge"],
    )
    def test_graph_file_of_another_shape(self, tmp_path, capsys, text):
        problem_path, _ = generate_pair(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["run", "--algo", "dqn-bfgs", "--problem", str(problem_path), "--graph", str(bad)])
        assert_input_error(rc, capsys, "graph file", "bad.json")

    def test_summary_without_dim(self, tmp_path, capsys):
        _, graph_path = generate_pair(tmp_path)
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps({"algo": "dqn-bfgs", "n_agents": 4, "rounds": 3}))
        rc = main(
            [
                "validate",
                "--trace",
                str(tmp_path / "trace.csv"),
                "--summary",
                str(summary_path),
                "--graph",
                str(graph_path),
            ]
        )
        assert_input_error(rc, capsys, "'dim'")

    def test_summary_without_final_rse_max(self, tmp_path, capsys):
        # validation compares the summary's final error with its trace
        problem_path, graph_path = generate_pair(tmp_path)
        trace_path = tmp_path / "trace.csv"
        args = ["--problem", str(problem_path), "--graph", str(graph_path), "--alpha", "0.3"]
        main(["run", "--algo", "dqn-bfgs", *args, "--tol", "1e-8", "--trace-out", str(trace_path)])
        summary_path = trace_path.with_suffix(".json")
        payload = json.loads(summary_path.read_text())
        del payload["final_rse_max"]
        summary_path.write_text(json.dumps(payload))
        capsys.readouterr()
        args = ["--trace", str(trace_path), "--summary", str(summary_path)]
        rc = main(["validate", *args, "--graph", str(graph_path)])
        assert_input_error(rc, capsys, "'final_rse_max'")

    def test_report_without_rows(self, tmp_path, capsys):
        (tmp_path / "summary.json").write_text(json.dumps({"table": {}, "runs": {}}))
        rc = main(["report", "--dir", str(tmp_path)])
        assert_input_error(rc, capsys, "'rows'")
