import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import rtdeph
from rtdeph import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


# Records every write to os.environ, then imports rtdeph (after numpy when
# asked) and prints the writes and whether os.environ came back as it was
RECORD_ENVIRON = """
import json, os, sys
writes = []
set_item = os._Environ.__setitem__
def record(environ, key, value):
    writes.append([key, value])
    set_item(environ, key, value)
os._Environ.__setitem__ = record
if sys.argv[1] == "numpy first":
    import numpy
before = dict(os.environ)
import rtdeph
print(json.dumps({"writes": writes, "restored": dict(os.environ) == before,
                  "timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}))
"""


def _fresh(code, *args, **env):
    """Run code in a fresh interpreter that imports rtdeph from this
    checkout, with no BLAS thread setting but those in env; returns its
    last line of output."""
    base = {key: value for key, value in os.environ.items()
            if not key.startswith("OPENBLAS_") and key not in ("OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [base.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-c", code, *args], env={**base, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_sets_the_blas_thread_timeout_for_numpy_alone():
    # OpenBLAS reads the variable when numpy loads it; rtdeph sets it for
    # that import and takes it out again, so child processes see nothing
    record = json.loads(_fresh(RECORD_ENVIRON, "rtdeph first"))
    assert record == {"writes": [["OPENBLAS_THREAD_TIMEOUT", "4"]], "restored": True, "timeout": None}


def test_import_keeps_a_users_blas_thread_timeout():
    record = json.loads(_fresh(RECORD_ENVIRON, "rtdeph first", OPENBLAS_THREAD_TIMEOUT="28"))
    assert record == {"writes": [], "restored": True, "timeout": "28"}


def test_import_after_numpy_sets_nothing():
    record = json.loads(_fresh(RECORD_ENVIRON, "numpy first"))
    assert record == {"writes": [], "restored": True, "timeout": None}


def test_import_leaves_no_thread_spinning():
    # by default each idle OpenBLAS worker busy-waits about 0.1 s of a core
    # after numpy's import (0.06 s of other threads' CPU over this sleep on
    # 2 cores); with the timeout at 4 they sleep at once
    code = ("import time\n"
            "import rtdeph\n"
            "time.sleep(0.3)\n"
            "print(time.process_time() - time.thread_time())\n")
    assert float(_fresh(code)) < 0.02
