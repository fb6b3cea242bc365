import subprocess
import sys

from conftest import ROOT

#: One failing hypothesis property and one passing test.
PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_does_not_stop_the_session(tmp_path):
    # reporting a failing property imports libcst where it is installed,
    # and libcst's import warns; under the repo's warnings-as-errors config
    # that warning must not end the session with INTERNALERROR (exit 3)
    # before the later tests are reported
    (tmp_path / "test_pair.py").write_text(PAIR)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
