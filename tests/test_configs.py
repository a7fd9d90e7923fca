"""The sweep config files under configs/: the desk-scale grid of each
family, run by ``dqn-mesh sweep --config configs/<family>.json``."""

import json
from pathlib import Path

import pytest

from dqn_mesh.cli import main
from dqn_mesh.harness import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# every family's grid: 10 agents, connectivities 0.3, 0.6 and 0.8, 20 seeds
# and up to 1000 rounds a run, each cell at its golden-tuned step
GRID = dict(kappas=(0.3, 0.6, 0.8), seeds=tuple(range(20)), max_iters=1000)
FAMILIES = {
    "qp": ExperimentConfig(
        family="qp", algos=("dqn-bfgs", "dqn-dfp", "diging-atc"), n_agents=10, dim=10,
        cond_range=(2.0, 10.0), rse_tol=1e-10, **GRID,
    ),
    "logreg": ExperimentConfig(
        family="logreg", algos=("ecdqn-bfgs", "ecdqn-dfp"), n_agents=10, dim=10, xi=1e-2,
        constrained=True, rse_tol=1e-7, golden_bracket=(0.05, 2.0), **GRID,
    ),
    "basis-pursuit": ExperimentConfig(
        family="basis-pursuit", algos=("ecdqn-bfgs", "ecdqn-dfp"), n_agents=10, dim=20,
        xi=2e-3, constrained=True, rse_tol=1e-8, golden_bracket=(0.05, 2.0), **GRID,
    ),
}


def test_one_config_per_family():
    assert sorted(p.stem for p in CONFIGS.glob("*.json")) == sorted(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_config_holds_the_family_grid(family):
    config = ExperimentConfig(**json.loads((CONFIGS / f"{family}.json").read_text()))
    assert config == FAMILIES[family]


@pytest.mark.parametrize("family", FAMILIES)
def test_config_runs_through_the_sweep_command(family, tmp_path, capsys):
    payload = json.loads((CONFIGS / f"{family}.json").read_text())
    payload.update(kappas=[0.8], seeds=[0], max_iters=30)
    config_path = tmp_path / f"{family}.json"
    config_path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 0
    algos = FAMILIES[family].algos
    summary = json.loads((out / "summary.json").read_text())
    assert [row["algo"] for row in summary["table"]["rows"]] == list(algos)
    assert (out / "long.csv").is_file()
    assert sorted(p.name for p in out.glob("trace_*.csv")) == sorted(
        f"trace_{algo}_k0.8_s0.csv" for algo in algos
    )
    stdout = capsys.readouterr().out
    assert "bytes/agent" in stdout and all(algo in stdout for algo in algos)
