"""The command lines shown in the README parse under the real CLI parser."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from cywbench import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    text = README.read_text()
    blocks = re.findall(r"^```\n(.*?)^```", text, re.S | re.M)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("cywbench ")]


def test_readme_shows_every_subcommand():
    shown = {" ".join(shlex.split(c)[1:3]) for c in _readme_commands()}
    for command in ("mesh gen", "solve local", "check condition-a",
                    "check obstructions"):
        assert command in shown
    heads = {c.split()[1] for c in _readme_commands()}
    assert {"eigen", "gate", "prescribe", "bench"} <= heads


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


@pytest.mark.parametrize("argv", [
    ["mesh", "gen", "--out", "x"],
    ["eigen", "--pre", "round-s3"],
    ["bench", "--output", "x"],
])
def test_abbreviated_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(argv)
    assert err.value.code == 2
