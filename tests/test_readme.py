"""The README's library examples run as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run_as_written(capsys):
    # the run example and the observer example that builds on it run in order in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    assert "record.evaluations[-1]" in blocks[0] and "len(archives.psi)" in blocks[1]
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the observer's run repeats the first, so its record is the one printed
    record = namespace["record"]
    assert capsys.readouterr().out == f"{record.best_error} {record.evaluations[-1]}\n"
    config = namespace["config"]
    assert config.budget - config.population <= record.evaluations[-1] <= config.budget
    assert len(namespace["filled"]) == len(record.errors)
