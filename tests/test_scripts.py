"""Smoke runs of the study scripts on tiny grids."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def conditioning_study():
    return load_script("conditioning_study")


@pytest.fixture(scope="module")
def trace_digest():
    return load_script("trace_digest")


def test_conditioning_study_writes_band_table(conditioning_study, tmp_path, capsys):
    argv = ["--bands", "2:10", "--seeds", "1", "--agents", "5", "--dim", "3",
            "--max-iters", "30", "--out", str(tmp_path)]
    assert conditioning_study.main(argv) == 0
    payload = json.loads((tmp_path / "cond_2_10.json").read_text())
    assert payload["cond_range"] == [2.0, 10.0]
    rows = payload["table"]["rows"]
    assert [row["algo"] for row in rows] == ["dqn-bfgs", "dqn-dfp", "diging-atc"]
    assert all(row["runs"] == 1 and row["aborted"] == 0 for row in rows)
    stdout = capsys.readouterr().out
    assert "condition numbers in [2, 10]" in stdout and "bytes/agent" in stdout


def test_conditioning_study_rejects_bad_band(conditioning_study):
    with pytest.raises(SystemExit):
        conditioning_study.main(["--bands", "0.5:10"])


def test_trace_digest_is_reproducible_and_covers_every_algorithm(trace_digest, capsys):
    outputs = []
    for _ in range(2):
        assert trace_digest.main(["--seeds", "1", "--max-iters", "5"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    # one seed: nine qp runs, twelve constrained runs, five paper-scale
    # runs and the report
    assert len(lines) == 27 and lines[-1].startswith("golden-report ")
    assert sum(line.startswith("paper ") for line in lines) == 5
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)
    for algo in ("dqn-bfgs", "dqn-dfp", "diging-atc", "ecdqn-bfgs", "ecdqn-dfp"):
        assert any(f" {algo} " in line for line in lines)
