import hashlib
import importlib.util
import os
import pathlib
import shutil
import subprocess
import sys
import sysconfig

import pytest

from rtdeph import _kernels

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "rtdeph" / "_kernels" / "_core.c"


def source_sha256():
    """The SHA-256 of _core.c, which setup.py compiles into _core."""
    return hashlib.sha256(SOURCE.read_bytes()).hexdigest()


def _c_compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled backend: the installed extension if it was built from
    the current _core.c, or else one that setup.py builds from it into a
    temporary directory.  Skips only where there is no C compiler; a failed
    build fails the test."""
    if getattr(_kernels._core, "SOURCE_SHA256", None) == source_sha256():
        return _kernels._core
    if _c_compiler() is None:
        pytest.skip("no C compiler to build rtdeph._kernels._core")
    out = tmp_path_factory.mktemp("core")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out / "temp")],
        cwd=ROOT, capture_output=True, text=True,
    )
    built = sorted(out.glob("rtdeph/_kernels/_core*" + sysconfig.get_config_var("EXT_SUFFIX")))
    assert built, f"setup.py did not build _core.c:\n{proc.stdout}\n{proc.stderr}"
    spec = importlib.util.spec_from_file_location("rtdeph._kernels._core", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
