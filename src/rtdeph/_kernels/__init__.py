"""Hot-loop kernels with backend selection at import time.

The compiled extension ``_core`` (hand-written C in ``_core.c``, which
setup.py builds whenever a C compiler is available) is used when it
imports; otherwise the numpy fallback ``_reference`` takes over.  The two
follow the same floating-point operations in the same order and agree bit
for bit.  Set the environment variable ``RTDEPH_BACKEND`` to ``compiled``
or ``pure`` to force a choice (``auto``, the default, picks as above);
``compiled`` raises if the extension is missing, and any other value
raises ``ValueError``.

The functions here validate and convert the arguments and allocate the
output, which the selected backend fills.
"""

from __future__ import annotations

import os

import numpy as np

from rtdeph._kernels import _reference

try:
    from rtdeph._kernels import _core
except ImportError:
    _core = None

_requested = os.environ.get("RTDEPH_BACKEND", "auto").strip().lower()
if _requested == "auto":
    _impl = _core if _core is not None else _reference
elif _requested == "compiled":
    if _core is None:
        raise ImportError(
            "RTDEPH_BACKEND=compiled requested but the rtdeph._kernels._core "
            "extension is not built; build it with a C compiler "
            "(pip install . or python setup.py build_ext --inplace) or use "
            "RTDEPH_BACKEND=pure"
        )
    _impl = _core
elif _requested == "pure":
    _impl = _reference
else:
    raise ValueError(f"unrecognized RTDEPH_BACKEND value: {_requested!r}")

#: Name of the backend selected at import: "compiled" or "pure".
BACKEND = "compiled" if _impl is _core else "pure"


def available_backends() -> dict:
    """Importable backend modules keyed by name (for tests and benchmarks)."""
    backends = {"pure": _reference}
    if _core is not None:
        backends["compiled"] = _core
    return backends


def _prepare(levels, switch_times, counts, t_grid, dtype):
    """Contiguous arguments of the dtypes the backends expect, and an empty
    (n, m) output of ``dtype``."""
    levels = np.ascontiguousarray(levels, dtype=np.uint8)
    switch_times = np.ascontiguousarray(switch_times, dtype=np.float64)
    counts = np.ascontiguousarray(counts, dtype=np.intp)
    t_grid = np.ascontiguousarray(t_grid, dtype=np.float64)
    if levels.ndim != 1 or switch_times.ndim != 2 or switch_times.shape[0] != levels.shape[0]:
        raise ValueError("switch_times must be 2-D with one row per trajectory")
    if counts.shape != levels.shape:
        raise ValueError("counts must have one entry per trajectory")
    if t_grid.ndim != 1:
        raise ValueError("t_grid must be 1-D")
    if t_grid.size and (t_grid[0] < 0.0 or np.any(np.diff(t_grid) < 0.0)):
        raise ValueError("t_grid must be ascending and non-negative")
    out = np.empty((levels.shape[0], t_grid.shape[0]), dtype=dtype)
    return levels, switch_times, counts, t_grid, out


def dwell_times(levels, switch_times, counts, t_grid, impl=None):
    """Time at the high level in [0, t] per trajectory and grid time."""
    *args, out = _prepare(levels, switch_times, counts, t_grid, np.float64)
    (impl or _impl).dwell_times(*args, out)
    return out


def levels_at_times(levels, switch_times, counts, t_grid, impl=None):
    """Level bit at each grid time per trajectory."""
    *args, out = _prepare(levels, switch_times, counts, t_grid, np.uint8)
    (impl or _impl).levels_at_times(*args, out)
    return out


def coherences(levels, switch_times, counts, t_grid, v, impl=None):
    """Coherence exp(-i*v*dwell) per trajectory and grid time, in one pass."""
    *args, out = _prepare(levels, switch_times, counts, t_grid, np.complex128)
    (impl or _impl).coherences(*args, float(v), out)
    return out
