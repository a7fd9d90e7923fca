"""README's library tour runs as written, and its lists of run-config
fields and module constants match the code."""

import ast
import importlib
import inspect
import re
from dataclasses import fields
from pathlib import Path

from dqn_mesh.dqn import RunConfig
from dqn_mesh.ecdqn import EcRunConfig

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("cli", "dqn", "ecdqn", "harness", "problems", "quasi_newton", "topology")


def test_library_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # each run prints its converged flag first
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["True", "True"]


def test_run_config_fields_match():
    text = " ".join(README.read_text().split())
    for config in (RunConfig, EcRunConfig):
        listed = re.search(rf"`{config.__name__}` has (.*?)[;.]", text).group(1)
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(config)]


def test_constants_table_matches_the_modules():
    text = README.read_text()
    table = text[text.index("| constant | value | meaning |"):].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| ([^|]+) \|", table, re.M)
    assert len(rows) == len(table.splitlines()) - 2
    for module, name, value in rows:
        actual = getattr(importlib.import_module(f"dqn_mesh.{module}"), name)
        assert ast.literal_eval(value.strip()) == actual, f"{module}.{name}"


def test_no_public_function_takes_a_test_only_setting():
    # a start state, a Metropolis regularizer or a tolerance that only the
    # tests would set is a module constant, not a parameter
    for name in MODULES:
        module = importlib.import_module(f"dqn_mesh.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            targets = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                targets = [m for m in vars(obj).values() if inspect.isfunction(m)]
            for fn in targets:
                params = set(inspect.signature(fn).parameters)
                assert not params & {"x0", "epsilon", "rtol", "tol"}, f"{name}.{fn.__qualname__}"
