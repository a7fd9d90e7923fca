"""README's library tour runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # each run prints its converged flag first
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["True", "True"]
