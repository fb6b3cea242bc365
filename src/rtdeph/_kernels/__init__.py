"""Hot-loop kernels with backend selection at import time.

The compiled extension ``_core`` (hand-written C in ``_core.c``, which
setup.py builds whenever a C compiler is available) is used when it
imports; otherwise the numpy fallback ``_reference`` takes over.  The two
follow the same floating-point operations in the same order and agree bit
for bit.

A batch is the level bit at t = 0 of each trajectory and its switch times,
one row per trajectory padded with +inf; the padding is the only record of
a row's length.  There are three kernels, one per pass a run makes:
``dwell_times`` (recovery's noise phase) and ``levels_at_times``
(autocorrelation) return an (n, m) array, and ``block_moments`` (ensembles)
returns only the column moments of the coherences exp(-i*v*dwell).  Both
backends form a coherence from at most two complex exponentials, each
computed once: exp(-i*v*acc) of the segment on level 0, and on level 1 the
segment factor exp(-i*v*(acc - prev)) times the grid factor exp(-i*v*t),
multiplied in real arithmetic (acc being the dwell time up to the last
switch, at time prev).  The compiled ``block_moments`` computes them
``TILE`` rows at a time into one tile-sized buffer and merges the tile
moments in order, so it never holds the (n, m) coherences.  The functions
here validate and convert the arguments and allocate the outputs, which
the selected backend fills.
"""

from __future__ import annotations

import numpy as np

from rtdeph._kernels import _reference

try:
    from rtdeph._kernels import _core
except ImportError:
    _core = None

_impl = _core if _core is not None else _reference

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


def _prepare(levels, switch_times, t_grid):
    """Contiguous arguments of the dtypes the backends expect.  The grid
    must be finite, so that the +inf padding never counts as a switch."""
    levels = np.ascontiguousarray(levels, dtype=np.uint8)
    switch_times = np.ascontiguousarray(switch_times, dtype=np.float64)
    t_grid = np.ascontiguousarray(t_grid, dtype=np.float64)
    if levels.ndim != 1 or switch_times.ndim != 2 or switch_times.shape[0] != levels.shape[0]:
        raise ValueError("switch_times must be 2-D with one row per trajectory")
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be 1-D and finite")
    if t_grid.size and (t_grid[0] < 0.0 or np.any(np.diff(t_grid) < 0.0)):
        raise ValueError("t_grid must be ascending and non-negative")
    return levels, switch_times, t_grid


def _per_point(kernel, dtype, levels, switch_times, t_grid):
    """The (n, m) array of ``dtype`` that ``kernel`` fills for the batch."""
    args = _prepare(levels, switch_times, t_grid)
    out = np.empty((args[0].shape[0], args[2].shape[0]), dtype=dtype)
    kernel(*args, out)
    return out


def dwell_times(levels, switch_times, t_grid, impl=None):
    """Time at the high level in [0, t] per trajectory and grid time."""
    return _per_point((impl or _impl).dwell_times, np.float64, levels, switch_times, t_grid)


def levels_at_times(levels, switch_times, t_grid, impl=None):
    """Level bit at each grid time per trajectory."""
    return _per_point((impl or _impl).levels_at_times, np.uint8, levels, switch_times, t_grid)


def block_moments(levels, switch_times, t_grid, v, impl=None):
    """Column moments of the coherences exp(-i*v*dwell) on the grid, each the
    segment factor or the segment factor times the grid factor (see the
    module docstring), without their (n, m) array on the compiled backend.

    Returns (mean, m2, abs2_min, abs2_max): the (m, 2) mean and sums of
    squared deviations over the (Re, Im) pairs, and the extremes of
    |z|^2 = re*re + im*im, reduced ``TILE`` rows at a time.
    """
    args = _prepare(levels, switch_times, t_grid)
    if args[0].shape[0] < 1:
        raise ValueError("moments need at least one row")
    m = args[2].shape[0]
    out = np.empty((m, 2)), np.empty((m, 2)), np.empty(m), np.empty(m)
    (impl or _impl).block_moments(*args, float(v), TILE, *out)
    return out
