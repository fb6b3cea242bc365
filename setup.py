"""Build script for the compiled trajectory kernels.

Compiles the hand-written C extension ``rtdeph._kernels._core`` from
``src/rtdeph/_kernels/_core.c``; it needs a C compiler and the Python
headers, nothing else.  ``-ffp-contract=off`` keeps the compiler from
fusing multiply-adds, so the extension agrees bit for bit with the numpy
fallback.  The extension is optional: where it cannot be compiled, the
install goes on without it and the numpy fallback is selected at import.
"""

from setuptools import Extension, setup

kernel = Extension(
    "rtdeph._kernels._core",
    sources=["src/rtdeph/_kernels/_core.c"],
    extra_compile_args=["-ffp-contract=off"],
    optional=True,
)

setup(ext_modules=[kernel])
