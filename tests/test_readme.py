"""The README's library examples run as written, and its command lines parse and configure, against the current API."""

import re
import shlex
from pathlib import Path

from opsom import harness

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run_as_written(capsys):
    # the run example and the observer example that builds on it run in order in one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    assert "record.evaluations[-1]" in blocks[0] and "archives.chi_fitness[0, :chi]" in blocks[1]
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    # the observer's run repeats the first, so its record is the one printed
    record = namespace["record"]
    assert capsys.readouterr().out == f"{record.best_error} {record.evaluations[-1]}\n"
    config = namespace["config"]
    assert config.budget - config.population <= record.evaluations[-1] <= config.budget
    assert len(namespace["filled"]) == len(record.errors)


def test_readme_command_lines_parse_and_configure(monkeypatch):
    # every `opsom ...` line of the shell blocks parses, and every `run` line builds
    # its experiment, which checks every setting, without running anything or drawing a suite
    def refuse(suite_seed, dim):
        raise AssertionError("a README example drew a suite")

    monkeypatch.setattr(harness, "make_suite", refuse)
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.splitlines() if line.startswith("opsom ")]
    commands = [harness._build_parser().parse_args(shlex.split(line, comments=True)[1:]) for line in lines]
    assert [args.command for args in commands].count("run") >= 5 and "oa" in {args.command for args in commands}
    for args in commands:
        if args.command == "run":
            harness._experiment_from_args(args)  # raises ValueError for any setting it refuses
