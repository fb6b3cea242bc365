import pathlib
import re
import shlex

import pytest

import rtdeph
from rtdeph import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run_and_every_export_resolves():
    # README's python blocks, Quick start and then recovery, run in order
    # in one namespace, as a reader pastes them; a block that names a
    # removed function fails here, and so does a stale rtdeph.__all__
    blocks = _blocks("python")
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].concurrence_after == pytest.approx(1.0, abs=1e-9)
    assert [name for name in rtdeph.__all__ if not hasattr(rtdeph, name)] == []


def test_readme_cli_examples_give_a_spec():
    # each `rtdeph ...` line of README's sh blocks parses and builds its
    # spec, so a renamed flag or a newly refused value fails here; building
    # a spec runs nothing and writes nothing
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("rtdeph ")]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert isinstance(cli.build_spec(cli.build_parser().parse_args(argv)), cli.SweepSpec)
