import pathlib
import re

import pytest

import rtdeph

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_and_every_export_resolves():
    # README's python blocks, Quick start and then recovery, run in order
    # in one namespace, as a reader pastes them; a block that names a
    # removed function fails here, and so does a stale rtdeph.__all__
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].concurrence_after == pytest.approx(1.0, abs=1e-9)
    assert [name for name in rtdeph.__all__ if not hasattr(rtdeph, name)] == []
