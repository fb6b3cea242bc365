"""Hot-loop kernels with backend selection at import time.

The compiled extension ``_core`` (hand-written C in ``_core.c``, which
setup.py builds whenever a C compiler is available) is used when it
imports; otherwise the numpy fallback ``_reference`` takes over.  The two
follow the same floating-point operations in the same order and agree bit
for bit.  Set the environment variable ``RTDEPH_BACKEND`` to ``compiled``
or ``pure`` to force a choice (``auto``, the default, picks as above);
``compiled`` raises if the extension is missing, and any other value
raises ``ValueError``.

The per-point kernels (``dwell_times``, ``levels_at_times``,
``coherences``) return an (n, m) array.  ``block_moments`` returns only
the column moments of the coherences: the compiled backend computes them
``TILE`` rows at a time into one tile-sized buffer and merges the tile
moments in order, so it never holds the (n, m) coherences.
``column_moments`` is the same tile reduction over an existing complex
array.  The functions here validate and convert the arguments and allocate
the outputs, which the selected backend fills.
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


#: Rows per tile of the moment reduction.  Block moments are the moments
#: of each tile of ``TILE`` rows (the last may be short), merged in tile
#: order; the compiled backend keeps one tile of coherences at a time.
TILE = 64


def _prepare(levels, switch_times, counts, t_grid):
    """Contiguous arguments of the dtypes the backends expect.  ``counts``
    must be the number of finite switch times of each row: the
    compiled walk trusts it, the numpy one counts the switch times."""
    levels = np.ascontiguousarray(levels, dtype=np.uint8)
    switch_times = np.ascontiguousarray(switch_times, dtype=np.float64)
    counts = np.ascontiguousarray(counts, dtype=np.intp)
    t_grid = np.ascontiguousarray(t_grid, dtype=np.float64)
    if levels.ndim != 1 or switch_times.ndim != 2 or switch_times.shape[0] != levels.shape[0]:
        raise ValueError("switch_times must be 2-D with one row per trajectory")
    if counts.shape != levels.shape:
        raise ValueError("counts must have one entry per trajectory")
    if not np.array_equal(counts, np.isfinite(switch_times).sum(axis=1)):
        raise ValueError("counts must be the number of finite switch times of each row")
    if t_grid.ndim != 1:
        raise ValueError("t_grid must be 1-D")
    if t_grid.size and (t_grid[0] < 0.0 or np.any(np.diff(t_grid) < 0.0)):
        raise ValueError("t_grid must be ascending and non-negative")
    return levels, switch_times, counts, t_grid


def _per_point(kernel, dtype, levels, switch_times, counts, t_grid, *extra):
    """The (n, m) array of ``dtype`` that ``kernel`` fills for the batch."""
    args = _prepare(levels, switch_times, counts, t_grid)
    out = np.empty((args[0].shape[0], args[3].shape[0]), dtype=dtype)
    kernel(*args, *extra, out)
    return out


def dwell_times(levels, switch_times, counts, t_grid, impl=None):
    """Time at the high level in [0, t] per trajectory and grid time."""
    return _per_point((impl or _impl).dwell_times, np.float64, levels, switch_times, counts, t_grid)


def levels_at_times(levels, switch_times, counts, t_grid, impl=None):
    """Level bit at each grid time per trajectory."""
    return _per_point((impl or _impl).levels_at_times, np.uint8, levels, switch_times, counts, t_grid)


def coherences(levels, switch_times, counts, t_grid, v, impl=None):
    """Coherence exp(-i*v*dwell) per trajectory and grid time, in one pass."""
    return _per_point((impl or _impl).coherences, np.complex128, levels, switch_times, counts,
                      t_grid, float(v))


def _moment_outputs(rows, m):
    if rows < 1:
        raise ValueError("moments need at least one row")
    return np.empty((m, 2)), np.empty((m, 2)), np.empty(m), np.empty(m)


def block_moments(levels, switch_times, counts, t_grid, v, impl=None):
    """Column moments of the coherences exp(-i*v*dwell) on the grid, without
    their (n, m) array on the compiled backend.

    Returns (mean, m2, abs2_min, abs2_max): the (m, 2) mean and sums of
    squared deviations over the (Re, Im) pairs, and the extremes of
    |z|^2 = re*re + im*im, reduced ``TILE`` rows at a time.
    """
    args = _prepare(levels, switch_times, counts, t_grid)
    out = _moment_outputs(args[0].shape[0], args[3].shape[0])
    (impl or _impl).block_moments(*args, float(v), TILE, *out)
    return out


def column_moments(z, impl=None):
    """``block_moments``'s reduction applied to the complex (n, m) array z."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    if z.ndim != 2:
        raise ValueError("z must be 2-D")
    out = _moment_outputs(*z.shape)
    (impl or _impl).column_moments(z, TILE, *out)
    return out
