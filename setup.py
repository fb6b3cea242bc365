"""Build script for the compiled trajectory kernels.

Compiles the hand-written C extension ``rtdeph._kernels._core`` from
``src/rtdeph/_kernels/_core.c``; it needs a C compiler and the Python
headers, nothing else.  ``-ffp-contract=off`` keeps the compiler from
fusing multiply-adds, so the extension agrees bit for bit with the numpy
fallback.  The SHA-256 of ``_core.c`` is compiled in as
``_core.SOURCE_SHA256``, so a test can tell an extension built from an
older source.  The extension is optional: where it cannot be compiled, the
install goes on without it and the numpy fallback is selected at import.
"""

import hashlib
import pathlib

from setuptools import Extension, setup

SOURCE = "src/rtdeph/_kernels/_core.c"
digest = hashlib.sha256((pathlib.Path(__file__).resolve().parent / SOURCE).read_bytes()).hexdigest()

kernel = Extension(
    "rtdeph._kernels._core",
    sources=[SOURCE],
    define_macros=[("RTDEPH_SOURCE_SHA256", f'"{digest}"')],
    extra_compile_args=["-ffp-contract=off"],
    optional=True,
)

setup(ext_modules=[kernel])
