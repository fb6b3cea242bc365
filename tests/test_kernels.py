import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmath as mp

from _oracles import (coherence_walk, dwell, level_bit, mp_coherences, philox4x32,
                      stretch_sums, telegraph_stream)
from conftest import ROOT, SOURCE, source_sha256
from rtdeph import _kernels, noise
from rtdeph._kernels import _reference

EPS = np.finfo(np.float64).eps


def make_batch(gamma=2.0, horizon=6.0, n=300, seed=17):
    params = noise.RTParams(v=1.0, gamma=gamma)
    return noise.sample_batch(params, horizon, n, master_seed=seed)


@pytest.fixture(params=["pure", "compiled"])
def impl(request):
    if request.param == "pure":
        return _reference
    return request.getfixturevalue("compiled")


def phase_parts(theta):
    """The parts (cos theta, sin(-theta)) of the numpy exp_minus_i."""
    z = _kernels.exp_minus_i(theta, impl=_reference)
    return z.real, z.imag


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


def finished_sums(levels, switch_times, grid, v, impl):
    """The column sums (s, q) of one batch: its difference arrays, finished."""
    return _kernels.column_sums(_kernels.block_sums(levels, switch_times, grid, v, impl=impl),
                                grid, v)


def assert_backends_agree(compiled, levels, switch_times, grid, v):
    args = (levels, switch_times, grid)
    for kernel in (_kernels.dwell_times, _kernels.levels_at_times):
        assert_same_bits(kernel(*args, impl=_reference), kernel(*args, impl=compiled))
    d = _kernels.block_sums(*args, v, impl=_reference)
    assert_same_bits(d, _kernels.block_sums(*args, v, impl=compiled))
    # |z| = 1, so (Re z - 1)**2 + (Im z)**2 = -2*(Re z - 1): sum |z|^2 = n
    s, q = _kernels.column_sums(d, grid, v)
    np.testing.assert_allclose(q[:, 0] + 2.0 * s[:, 0] + q[:, 1], 0.0, rtol=0,
                               atol=1e-12 * len(levels))


def test_compiled_backend_matches_its_source(compiled):
    # setup.py compiles the SHA-256 of _core.c into the extension, so an
    # extension built from another _core.c is caught, not compared
    assert compiled.SOURCE_SHA256 == source_sha256()
    if _kernels._core is not None:
        assert getattr(_kernels._core, "SOURCE_SHA256", None) == source_sha256(), (
            "rtdeph._kernels._core was built from another _core.c; rebuild it with "
            "`python setup.py build_ext --inplace --force`")


def test_backend_selection_reports_a_known_name():
    assert _kernels.BACKEND == ("pure" if _kernels._core is None else "compiled")


def test_backends_bit_identical(compiled):
    batch = make_batch()
    grid = np.linspace(0.0, 6.0, 37)
    assert_backends_agree(compiled, batch.levels, batch.switch_times, grid, 1.0)
    static = make_batch(gamma=0.0, n=5)
    assert static.switch_times.shape[1] == 0
    assert_backends_agree(compiled, static.levels, static.switch_times, grid, 2.5)


def test_compiled_kernels_reject_mismatched_buffers(compiled):
    batch = make_batch(n=4)
    grid = np.linspace(0.0, 1.0, 3)
    args = (batch.levels, batch.switch_times, grid, 1.0)
    compiled.dwell_times(*args, np.empty((4, 3)))
    with pytest.raises(ValueError):
        compiled.dwell_times(*args, np.empty((4, 2)))
    with pytest.raises(ValueError):
        compiled.levels_at_times(*args, np.empty((4, 3)))  # float64, not uint8
    with pytest.raises(ValueError):
        compiled.dwell_times(batch.levels[:3], *args[1:], np.empty((3, 3)))  # rows differ
    with pytest.raises(ValueError):
        compiled.dwell_times(*args, np.empty((3, 4)).T)  # not C-contiguous
    for scale in (0.0, -1.0, math.inf, math.nan):  # the wrappers reject these first
        with pytest.raises(ValueError, match="scale"):
            compiled.dwell_times(*args[:3], scale, np.empty((4, 3)))


def test_padding_ends_each_row(compiled):
    # the +inf padding is the only record of a row's length: row 0 has two
    # switches, row 1 one
    levels = np.array([0, 1], dtype=np.uint8)
    times = np.array([[0.5, 1.0], [0.3, np.inf]])
    for backend in (_reference, compiled):
        dwell = _kernels.dwell_times(levels, times, [0.7, 2.0], impl=backend)
        np.testing.assert_array_equal(dwell, [[0.7 - 0.5, 0.5], [0.3, 0.3]])
        bits = _kernels.levels_at_times(levels, times, [0.7, 2.0], impl=backend)
        np.testing.assert_array_equal(bits, [[1, 0], [0, 0]])


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    gamma=st.sampled_from([0.0, 0.3, 2.0, 9.0]),
    v=st.floats(0.05, 20.0),
    n=st.sampled_from([1, 2, 2048]),
    horizon=st.floats(0.5, 12.0),
    m=st.integers(1, 40),
    stride=st.integers(1, 7),
)
def test_block_sums_bit_identical_property(compiled, seed, gamma, v, n, horizon, m, stride):
    # gamma = 0 gives a batch without switches (k = 0); the grid also holds
    # up to ~60 switch times exactly, spread over the horizon: there one
    # stretch ends and the next starts, and stretches between two grid
    # points are empty
    batch = noise.sample_batch(noise.RTParams(v=v, gamma=gamma), horizon, n, master_seed=seed)
    finite = np.sort(batch.switch_times[np.isfinite(batch.switch_times)])
    hits = finite[:: max(stride, finite.size // 60)]
    grid = np.unique(np.concatenate([np.linspace(0.0, horizon, m), hits]))
    assert_backends_agree(compiled, batch.levels, batch.switch_times, grid, v)


def cell_edges(grid):
    """Times at and one ulp beside the edges of the m equal cells over
    [grid[0], grid[-1]] that the compiled kernel's grid index uses."""
    m = len(grid)
    edges = grid[0] + (grid[-1] - grid[0]) * np.arange(m + 1) / m
    return np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])


@st.composite
def index_grids(draw):
    """Ascending grids of 1 to 61 points: uniform, geometric, every point
    but the first in the last cell, all points equal, or repeated points."""
    m = draw(st.sampled_from([1, 2, 3, 5, 17, 61]))
    lo = draw(st.sampled_from([0.0, 0.25, 3.0]))
    hi = lo + draw(st.sampled_from([1e-9, 0.5, 7.0, 300.0]))
    kind = draw(st.sampled_from(["uniform", "geometric", "clustered", "equal", "repeated"]))
    if kind == "uniform":
        return np.linspace(lo, hi, m)
    if kind == "geometric":
        return np.geomspace(max(lo, 1e-3), hi, m)
    if kind == "clustered":
        return np.sort(np.concatenate([[lo], hi - np.geomspace(1e-12, (hi - lo) / (2 * m), m - 1)]))
    if kind == "equal":
        return np.full(m, hi)
    return np.repeat(np.linspace(lo, hi, m), draw(st.integers(2, 3)))[:m]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(grid=index_grids(), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 12),
       v=st.floats(0.05, 20.0))
def test_block_sums_bit_identical_on_any_grid(compiled, grid, seed, k, v):
    # the compiled kernel finds each stretch's first grid point through a
    # table of equal cells and a search inside one cell; the numpy backend
    # searches the whole grid.  Switch times are drawn from the grid
    # points, the cell edges and the times one ulp beside them, and
    # uniform times before, on and past the grid
    rng = np.random.default_rng(seed)
    span = grid[-1] - grid[0]
    pool = np.concatenate([grid, cell_edges(grid),
                           rng.uniform(max(grid[0] - span, 0.0), grid[-1] + span, 20)])
    n = 40
    levels = rng.integers(0, 2, n).astype(np.uint8)
    switch_times = np.full((n, k), np.inf)
    for i in range(n):
        count = rng.integers(0, k + 1)
        switch_times[i, :count] = np.sort(rng.choice(pool, count))
    assert_backends_agree(compiled, levels, switch_times, grid, v)


def test_stretch_starts_match_a_binary_search(compiled):
    # each stretch starts where a binary search of [g0, m) puts it, also
    # for switch times before and past the grid, on repeated points and at
    # -inf
    levels = np.array([0, 1, 1, 0], dtype=np.uint8)
    switch_times = np.array([
        [-np.inf, 0.5, 1.0, np.inf],
        [0.1, 0.2, 2.0, np.inf],
        [1.0, 1.0, 1.0, 9.0],
        [0.0, 0.5, 12.0, 13.0],
    ])
    # the last two grids make the cell scale overflow to inf and nearly 0
    grids = [np.array([0.0, 0.5, 1.0, 1.0, 1.0, 3.0]), np.array([2.0]), np.array([1.0, 1.0]),
             np.geomspace(1e-3, 10.0, 9), np.array([0.0, 5e-324, 1e-320]),
             np.array([0.0, 1e300, 1e308])]
    for grid in grids:
        for i in range(len(levels)):
            rows = (levels[i : i + 1], switch_times[i : i + 1])
            expected = stretch_sums(*rows, grid, 1.5, phase_parts)
            np.testing.assert_array_equal(_kernels.block_sums(*rows, grid, 1.5, impl=compiled),
                                          expected)


def widest_cell(grid):
    """The most grid points in one of the m equal cells over [grid[0],
    grid[-1]] of the compiled kernel's grid index, which searches inside
    one cell."""
    m, span = len(grid), grid[-1] - grid[0]
    if span == 0.0:
        return m
    return int(np.bincount(np.minimum(((grid - grid[0]) * (m / span)).astype(int), m - 1)).max())


def test_stretch_search_inside_wide_cells_matches_numpy(compiled):
    # the compiled search inside a cell is branch-free and takes log2 of
    # the cell's size steps; it must find the first grid point >= each
    # switch that numpy's searchsorted finds: on uneven grids whose widest
    # cell holds 6 and 18 points, on a grid with one far outlier, whose
    # first cell holds every other point, and on a one-point grid, with
    # switches on grid points, one ulp to either side and between them
    rng = np.random.default_rng(5)
    grids = [np.concatenate([np.linspace(0.0, 1.0, 5), [1.01, 1.02, 1.03, 1.04, 1.05],
                             np.linspace(2.0, 6.0, 9)]),
             np.geomspace(1e-3, 6.0, 30),
             np.append(np.linspace(0.0, 6.0, 40), 1e4),
             np.array([2.5])]
    assert [widest_cell(grid) for grid in grids] == [6, 18, 40, 1]
    n, k = 200, 10
    for grid in grids:
        pool = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                               rng.uniform(0.0, 1.1 * min(grid[-1], 10.0), 30)])
        levels = rng.integers(0, 2, n).astype(np.uint8)
        switch_times = np.sort(rng.choice(pool, (n, k)), axis=1)
        switch_times[np.arange(k) >= rng.integers(0, k + 1, n)[:, None]] = np.inf
        assert np.isin(switch_times, grid).sum() >= 10
        assert_backends_agree(compiled, levels, switch_times, grid, 1.3)


def test_batch_kernels_reject_a_bad_scale(impl):
    # switch j of row i is at switch_times[i, j]*scale: a NaN scale makes
    # every switch time NaN, which the backends order differently, and a
    # scale that is not finite and positive describes no batch
    levels = np.array([0, 1], dtype=np.uint8)
    switch_times = np.array([[0.5, 1.0], [0.25, np.inf]])
    grid = np.array([0.0, 1.0, 3.0])
    for call in (lambda s: _kernels.dwell_times(levels, switch_times, grid, scale=s, impl=impl),
                 lambda s: _kernels.levels_at_times(levels, switch_times, grid, scale=s,
                                                    impl=impl),
                 lambda s: _kernels.block_sums(levels, switch_times, grid, 1.5, scale=s,
                                               impl=impl)):
        call(2.0)
        for scale in (0.0, -0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="scale"):
                call(scale)


@pytest.mark.parametrize("times", [[[0.5, np.nan, 2.0]], [[np.nan, np.nan, np.inf]],
                                   [[0.5, 1.0], [np.nan, np.inf]]])
def test_batch_kernels_reject_nan_switch_times(compiled, times):
    # the backends order a NaN switch differently (numpy's searchsorted puts
    # it past the grid, the compiled comparisons are false), so that all
    # three batch kernels disagreed on it; each rejects it on either backend
    switch_times = np.array(times)
    levels = np.ones(len(times), dtype=np.uint8)
    grid = np.array([0.0, 1.0, 3.0])
    for impl in (_reference, compiled):
        for call in (lambda: _kernels.dwell_times(levels, switch_times, grid, impl=impl),
                     lambda: _kernels.levels_at_times(levels, switch_times, grid, impl=impl),
                     lambda: _kernels.block_sums(levels, switch_times, grid, 1.5, impl=impl)):
            with pytest.raises(ValueError, match="NaN"):
                call()


def phase_arguments():
    """Arguments of exp(-i*theta) where it is hardest to get right: the
    doubles nearest k*pi/2 and their neighbours for k up to the largest
    below the bound (29*pi/2*2**j are the nearest of all, within 2**-60.5
    for j = 0), tiny and zero arguments, both sides of the bound, and
    uniform ones; each with both signs."""
    bound = _reference.PHASE_BOUND
    ks = [1, 2, 3, 4, 5, 6, 7, 8, 100, 1001, 2**16, 2**19 + 1, round(bound * 2 / math.pi)]
    ks += [29 * 2**j for j in range(15)]
    with mp.workdps(60):
        near = [float(k * mp.pi / 2) for k in ks]
    near += [np.nextafter(x, d) for x in near for d in (0.0, np.inf)]
    tiny = [0.0, 5e-324, 1e-300, 2.0**-30, 1e-8, 0.3]
    edge = [np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf), 2.0 * bound, 1e7]
    uniform = list(np.random.default_rng(4).uniform(-1e4, 1e4, 300))
    theta = np.array(near + tiny + edge + uniform)
    return np.concatenate([theta, -theta])


def ulps(x, exact):
    """|x - exact| in units in the last place of exact rounded to float64."""
    return float(abs(mp.mpf(float(x)) - exact) / math.ulp(float(exact)))


def test_phase_factor_within_one_ulp():
    theta = phase_arguments()
    re, im = phase_parts(theta)
    with mp.workdps(80):
        for t, c, s in zip(theta, re, im):
            t = mp.mpf(float(t))
            assert ulps(c, mp.cos(t)) <= 1.0, float(t)
            assert ulps(s, -mp.sin(t)) <= 1.0, float(t)


def test_phase_factor_bit_identical_through_one_stretch_rows(compiled):
    # a level-1 row with one switch at tau has phase v*tau on its second
    # stretch, a level-0 row -v*tau; that stretch alone adds its terms at
    # grid index 1, so the difference arrays carry its factor
    v = 1.0
    for theta in phase_arguments():
        tau = abs(theta)
        levels = np.array([1 if theta >= 0.0 else 0], dtype=np.uint8)
        rows = (levels, np.array([[tau]]), np.array([0.0, tau]))
        d = _kernels.block_sums(*rows, v, impl=compiled)
        assert_same_bits(d, _kernels.block_sums(*rows, v, impl=_reference))
        re, im = phase_parts(np.array([v * theta]))
        row = 0 if theta >= 0.0 else 5  # LOW_RE, or HIGH_RE
        np.testing.assert_array_equal(d[row : row + 2, 1], [re[0] - 1.0, im[0]])


def test_phase_constants_match_the_c_source():
    # the numpy and C copies of exp_minus_i share their constants
    text = SOURCE.read_text()
    literals = dict(re.findall(r"\b([A-Z][A-Z0-9_]*) = (-?0x[0-9a-f.]+p[-+]\d+)", text))
    assert sorted(literals) == sorted(
        ["TWO_OVER_PI", "ROUND_SHIFT", "PHASE_BOUND", "PIO2_1", "PIO2_2", "PIO2_3", "PIO2_3T"]
        + [f"{p}{i}" for p in "SC" for i in range(1, 7)])
    for name, literal in literals.items():
        assert getattr(_reference, name) == float.fromhex(literal), name
    for name in ("SIGN_RE", "SIGN_IM"):
        table = re.search(name + r"\[4\] = \{([^}]*)\}", text).group(1)
        assert [float(x) for x in table.split(",")] == list(getattr(_reference, "_" + name))


def assert_row_sums(impl, levels, switch_times, grid, v, rows):
    """Each row's single-row sums against its coherence_walk z: s is
    (Re z - 1, Im z) within 4 eps (1 + j) and q their squares within
    16 eps (1 + j), j being the switches the row has passed.  Each switch
    leaves the rounding of a stretch's terms, which are at most 2 (4 for
    the squares), in the prefix sums.  Returns s and j per row."""
    out = []
    for i in rows:
        tau = [float(s) for s in switch_times[i] if np.isfinite(s)]
        z = np.array(coherence_walk(int(levels[i]), tau, grid, v))
        s, q = finished_sums(levels[i : i + 1], switch_times[i : i + 1], grid, v, impl)
        shifted = np.stack([z[:, 0] - 1.0, z[:, 1]], axis=-1)
        j = np.searchsorted(tau, grid, side="right")[:, None]
        assert np.all(np.abs(s - shifted) <= 4 * EPS * (1 + j))
        assert np.all(np.abs(q - np.square(shifted)) <= 16 * EPS * (1 + j))
        out.append((s, j[:, 0]))
    return out


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    switches=st.sampled_from([0.0, 0.5, 4.0, 40.0]),
    v=st.floats(0.05, 20.0).filter(lambda v: v != 1.0),
    vt=st.floats(0.5, 400 * np.pi),
    n=st.sampled_from([1, 2048]),
    m=st.integers(1, 40),
    stride=st.integers(1, 7),
)
def test_single_row_sums_match_coherence_oracles(compiled, seed, switches, v, vt, n, m, stride):
    # phases v*t up to 400*pi with about `switches` switches per row; no
    # coherence is formed, so each of the first rows is checked through its
    # single-row sums: against the scalar walk of tests/_oracles.py within
    # the rounding the prefix sums add per switch, and against the exact
    # exp(-i*v*dwell) within 4 eps (1 + v*t + j).  That bound scales with
    # v*t, not with the phase: on a level-1 stretch after a long level-0
    # stretch the two factor phases are each about v*t and cancel to a
    # small phase, keeping their rounding.
    horizon = vt / v
    batch = noise.sample_batch(noise.RTParams(v=v, gamma=switches / horizon), horizon, n,
                               master_seed=seed)
    finite = np.sort(batch.switch_times[np.isfinite(batch.switch_times)])
    hits = finite[:: max(stride, finite.size // 60)]
    grid = np.unique(np.concatenate([np.linspace(0.0, horizon, m), hits]))
    assert_backends_agree(compiled, batch.levels, batch.switch_times, grid, v)
    rows = range(min(n, 3))
    for i, (s, j) in zip(rows, assert_row_sums(compiled, batch.levels, batch.switch_times, grid,
                                               v, rows)):
        tau = batch.switch_times[i][np.isfinite(batch.switch_times[i])]
        exact = np.array(mp_coherences(int(batch.levels[i]), tau, grid, v))
        bound = 4 * EPS * (1.0 + v * grid + j)
        assert np.all(np.abs(s[:, 0] - (exact.real - 1.0)) <= bound)
        assert np.all(np.abs(s[:, 1] - exact.imag) <= bound)


def test_static_rows_are_segment_times_grid_factor(compiled):
    # without switches a level-1 row is the grid factor e = exp(-i*v*t) and
    # a level-0 row is 1, so their single-row sums are exactly (er - 1, ei)
    # with squares, and 0; rows 2 and 3 switch on grid points, which start
    # the new stretch there, and row 3 passes two switches between grid
    # points 0.25 and 0.5 (an empty stretch)
    v = 2.5
    grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
    high = np.array([[math.cos(v * t) - 1.0, math.sin(-(v * t))] for t in grid])
    levels = np.array([0, 1, 0, 1], dtype=np.uint8)
    times = np.array([[np.inf] * 3, [np.inf] * 3, [0.5, 1.0, 1.5], [0.3, 0.4, 1.0]])
    for backend in (_reference, compiled):
        assert_row_sums(backend, levels, times, grid, v, range(4))
        for i, expected in ((0, np.zeros_like(high)), (1, high)):
            s, q = finished_sums(levels[i : i + 1], times[i : i + 1], grid, v, backend)
            np.testing.assert_array_equal(s, expected)
            np.testing.assert_array_equal(q, np.square(expected))
        s, _ = finished_sums(levels, times, grid, v, backend)
        np.testing.assert_array_equal(s[0], 0.0)  # every row is 1 at t = 0
        # row 2's first switch, at grid point 0.5, starts its level-1 stretch
        # there: the dwell is continuous, so only the rounding tells, and the
        # column has the level-1 terms, (sr - 1, si) combined with e, not the
        # exact 0 of its level-0 stretch
        s, _ = finished_sums(levels[2:3], times[2:3], grid, v, backend)
        er, ei = math.cos(v * 0.5), math.sin(-(v * 0.5))
        a, b = math.cos(v * -0.5) - 1.0, math.sin(-(v * -0.5))
        switch_column = [(er - 1.0) + (a * er - b * ei), ei + (a * ei + b * er)]
        assert switch_column != [0.0, 0.0]
        np.testing.assert_array_equal(s[2], switch_column)


def test_compiled_sample_rejects_mismatched_buffers(compiled):
    cdf = _kernels._POISSON_CDF
    levels, times = np.empty(4, np.uint8), np.empty(40)
    args = (3, 0, 1.5)
    assert compiled.sample(*args, cdf, levels, times) >= 0
    for bad in (
        (cdf, levels.astype(np.int16), times),
        (cdf, levels, times.astype(np.float32)),
        (cdf, levels, np.empty((4, 10))),  # not 1-D
        (cdf, levels, np.empty(80)[::2]),  # not contiguous
        (cdf[:-1], levels, times),  # the table does not end at 1.0
        (np.ones(65), levels, times),  # longer than an epoch's buffer
        (cdf[[1, 0] + list(range(2, 32))], levels, times),  # decreasing: counts would not invert
        (cdf.astype(np.float32), levels, times),
    ):
        with pytest.raises(ValueError):
            compiled.sample(*args, *bad)
    with pytest.raises(ValueError):
        compiled.sample(3, 2**64 - 2, 1.5, cdf, levels, times)  # index wraps
    for seed in (2**64, -1):  # never wrapped into 64 bits
        with pytest.raises(OverflowError):
            compiled.sample(seed, 0, 1.5, cdf, levels, times)


def test_sample_refuses_a_cut_past_the_epoch_counter(compiled):
    # +inf, NaN and 2**32 name no epoch count that the 32-bit counter
    # holds: both backends and the wrapper refuse them before drawing (a
    # cut just below 2**32 would draw about 4e9 epochs per row, so only
    # the refusals are tested)
    cdf = _kernels._POISSON_CDF
    levels, times = np.empty(4, np.uint8), np.empty(40)
    for cut in (math.inf, math.nan, 2.0**32):
        for impl in (_reference, compiled):
            with pytest.raises(ValueError, match="cut"):
                impl.sample(3, 0, cut, cdf, levels, times)
            with pytest.raises(ValueError, match="cut"):
                _kernels.sample(3, 0, 4, cut, impl=impl)


def test_compiled_moments_reject_mismatched_buffers(compiled):
    batch = make_batch(n=4)
    grid = np.linspace(0.0, 1.0, 3)
    args = (batch.levels, batch.switch_times, grid, 1.0, 1.0)  # scale, v
    compiled.block_sums(*args, np.zeros((10, 4)))
    for bad in (
        np.zeros((9, 4)),  # not 10 difference arrays
        np.zeros((10, 3)),  # not m + 1 wide
        np.zeros((10, 4), np.float32),
        np.zeros(40),  # not 2-D
        np.zeros((4, 10)).T,  # not C-contiguous
    ):
        with pytest.raises(ValueError):
            compiled.block_sums(*args, bad)
    with pytest.raises(ValueError):
        compiled.block_sums(batch.levels[:3], *args[1:], np.zeros((10, 4)))  # rows differ
    with pytest.raises(ValueError, match="scale"):
        compiled.block_sums(*args[:3], math.nan, 1.0, np.zeros((10, 4)))


def test_dwell_matches_single_trajectory_phase(impl):
    # independent check: the oracle sums one path's stretches in a scalar
    # loop, not the batched kernels' stretch look-up
    batch = make_batch(n=60)
    grid = np.array([0.0, 0.7, 2.3, 4.9, 6.0])
    dwells = _kernels.dwell_times(batch.levels, batch.switch_times, grid, impl=impl)
    for i in range(batch.n):
        for gi, t in enumerate(grid):
            expected = dwell(int(batch.levels[i]), batch.switch_times[i], t)
            assert dwells[i, gi] == pytest.approx(expected, abs=1e-12)


def test_levels_match_single_trajectory_queries(impl):
    batch = make_batch(n=60, seed=23)
    grid = np.array([0.0, 0.4, 1.9, 5.5, 6.0])
    levels = _kernels.levels_at_times(batch.levels, batch.switch_times, grid, impl=impl)
    for i in range(batch.n):
        for gi, t in enumerate(grid):
            assert levels[i, gi] == level_bit(int(batch.levels[i]), batch.switch_times[i], t)


def test_static_batch_dwell_is_level_times_t(impl):
    batch = make_batch(gamma=0.0, n=40, seed=2)
    grid = np.linspace(0.0, 6.0, 9)
    dwell = _kernels.dwell_times(batch.levels, batch.switch_times, grid, impl=impl)
    expected = batch.levels[:, None].astype(float) * grid[None, :]
    np.testing.assert_array_equal(dwell, expected)


def test_query_at_switch_time_counts_the_switch():
    levels = np.array([0], dtype=np.uint8)
    times = np.array([[1.0, 2.0]])
    grid = np.array([1.0, 1.5, 2.0])
    for impl in (_reference, _kernels._impl):
        out = _kernels.levels_at_times(levels, times, grid, impl=impl)
        np.testing.assert_array_equal(out[0], [1, 1, 0])
        dwell = _kernels.dwell_times(levels, times, grid, impl=impl)
        np.testing.assert_allclose(dwell[0], [0.0, 0.5, 1.0], atol=0)


def test_block_slices_reproduce_full_result():
    batch = make_batch(n=257, seed=5)
    grid = np.linspace(0.0, 6.0, 11)
    full = _kernels.dwell_times(batch.levels, batch.switch_times, grid)
    parts = [
        _kernels.dwell_times(
            batch.levels[s : s + 64],
            batch.switch_times[s : s + 64],
            grid,
        )
        for s in range(0, batch.n, 64)
    ]
    np.testing.assert_array_equal(np.concatenate(parts, axis=0), full)


def test_grid_validation():
    batch = make_batch(n=4)
    args = (batch.levels, batch.switch_times)
    with pytest.raises(ValueError):
        _kernels.dwell_times(*args, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        _kernels.dwell_times(*args, np.array([-1.0, 0.5]))
    with pytest.raises(ValueError):
        _kernels.dwell_times(batch.levels, batch.switch_times[:2], np.array([0.5]))
    # a non-finite grid time would pass the +inf padding as a switch
    for grid in ([0.2, np.inf], [np.nan]):
        for kernel in (_kernels.dwell_times, _kernels.levels_at_times):
            with pytest.raises(ValueError, match="finite"):
                kernel(*args, grid)
        with pytest.raises(ValueError, match="finite"):
            _kernels.block_sums(*args, grid, 1.0)


# Random123's known-answer vectors for Philox4x32-10: (counter, key, output)
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter, key, expected", PHILOX_KAT)
def test_philox_oracle_known_answers(counter, key, expected):
    assert philox4x32(counter, key) == expected


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(counters=st.lists(st.tuples(*[st.integers(0, 2**32 - 1)] * 4), min_size=1, max_size=8),
       seed=st.integers(0, 2**64 - 1))
def test_numpy_philox_matches_oracle(counters, seed):
    words = _reference.philox(*(np.array(w, dtype=np.uint64) for w in zip(*counters)), seed)
    got = list(zip(*(w.tolist() for w in words)))
    assert got == [philox4x32(c, (seed & 0xFFFFFFFF, seed >> 32)) for c in counters]
    counter, key, expected = PHILOX_KAT[2]
    words = _reference.philox(*(np.uint64(w) for w in counter), key[0] | key[1] << 32)
    assert tuple(int(w) for w in words) == expected


def test_poisson_table_matches_mpmath():
    # a fixed length whose last entry is 1.0: the float64 partial sums stall
    # below 1, so a table built until it reaches 1 would never end
    cdf = _kernels._poisson_cdf(4.0)
    assert cdf.shape == (32,) and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0.0) and cdf[-2] < 1.0
    with mp.workdps(40):
        exact = [mp.fsum(mp.exp(-4) * mp.mpf(4) ** j / mp.factorial(j) for j in range(k + 1))
                 for k in range(31)]
    np.testing.assert_allclose(cdf[:-1], [float(x) for x in exact], rtol=4 * EPS)
    # every sample call shares one table, built at import and read-only
    np.testing.assert_array_equal(_kernels._POISSON_CDF, cdf)
    assert not _kernels._POISSON_CDF.flags.writeable


def sample_both(compiled, seed, start, n, cut):
    pure = _kernels.sample(seed, start, n, cut, impl=_reference)
    fast = _kernels.sample(seed, start, n, cut, impl=compiled)
    for a, b in zip(pure, fast):
        assert_same_bits(a, b)
    return pure


def cut_rows(x, scale, horizon):
    """The switch times x*scale up to the horizon, padded with +inf to the
    widest row's count, and the count per row."""
    t = x * scale
    counts = (t <= horizon).sum(axis=1)
    t = np.where(np.arange(t.shape[1]) < counts[:, None], t, np.inf)
    return t[:, : counts.max(initial=0)], counts


#: (Row, epoch) pairs per chunk of the compiled sampler (_core.c's CHUNK).
CHUNK = int(re.search(r"enum \{ CHUNK = (\d+) \};", SOURCE.read_text()).group(1))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])),
    start=st.one_of(st.integers(0, 2**40), st.integers(2**32 - 300, 2**32 + 300),
                    st.just(2**32 - 3)),
    n=st.sampled_from([1, 3, 7, 8, 9, CHUNK - 1, CHUNK, CHUNK + 1, 300, 2048]),
    gamma=st.sampled_from([0.0, 0.05, 0.8, 6.0]),
    horizon=st.floats(0.01, 60.0),
)
def test_sample_bit_identical_property(compiled, seed, start, n, gamma, horizon):
    # seeds over all 64 bits, indices across the counter's high word (from
    # 2**32 - 3 the first 8 lanes hold both high words), the static limit,
    # horizons of up to 45 epochs, and row counts on either side of the 8
    # Philox lanes and of a chunk: both backends give the same bytes, and
    # rows scaled by L and cut at the horizon agree with the scalar oracle
    # of tests/_oracles.py
    # draws an epoch wider than the horizon's cut, which the rows cut again
    scale, cut = _kernels.epoch_grid(gamma, horizon)
    levels, x = sample_both(compiled, seed, start, n, cut + 1.0)
    times, counts = cut_rows(x, scale, horizon)
    for i in {0, n - 1}:
        level, oracle = telegraph_stream(seed, start + i, gamma, horizon)
        assert levels[i] == level
        np.testing.assert_array_equal(times[i, : counts[i]], oracle)
        assert np.all(np.isinf(times[i, counts[i]:]))


def test_sample_gives_uncut_sorted_epoch_times(impl):
    # the times x = e + u of every epoch up to a cut one ulp below 6,
    # sorted per row and padded with +inf to the widest row, with no time
    # of epochs 0 to 5 cut
    levels, x = _kernels.sample(9, 4, 50, math.nextafter(6.0, 0.0), impl=impl)
    counts = np.isfinite(x).sum(axis=1)
    assert x.shape == (50, counts.max()) and levels.shape == (50,)
    assert set(levels.tolist()) == {0, 1}
    for row, count in zip(x, counts):
        assert np.all(np.diff(row[:count]) > 0.0) and np.all(row[:count] < 6.0)
        assert np.all(np.isinf(row[count:]))
    assert (x[np.isfinite(x)] > 5.0).sum() > 100  # the last epoch holds ~4 per row
    # the epochs are a prefix: a wider cut appends times to each row
    _, more = _kernels.sample(9, 4, 50, math.nextafter(7.0, 0.0), impl=impl)
    np.testing.assert_array_equal(np.where(more < 6.0, more, np.inf)[:, : x.shape[1]], x)


def test_sample_writes_rows_only_when_they_fit(impl):
    # a kernel returns the widest row's count k and writes the (n, k) rows
    # only into room for them; the wrapper then samples again, the same
    cdf = _kernels._POISSON_CDF
    levels, times = _kernels.sample(5, 7, 50, 2.5)
    k = times.shape[1]
    out = np.empty(50, np.uint8)
    short = np.full(50 * k - 1, -1.0)
    assert impl.sample(5, 7, 2.5, cdf, out, short) == k
    np.testing.assert_array_equal(out, levels)
    exact = np.full(50 * k + 3, -1.0)
    assert impl.sample(5, 7, 2.5, cdf, out, exact) == k
    np.testing.assert_array_equal(exact[: 50 * k].reshape(50, k), times)
    np.testing.assert_array_equal(exact[50 * k:], -1.0)


def test_every_epoch_size_sorts_alike_on_both_backends(compiled):
    # the compiled sampler sorts an epoch of at most 8 times with a min/max
    # network, padded with +inf, and a wider one by insertion; numpy sorts
    # whole rows.  Epochs of 0 to 8 times and of 9 and more are present,
    # and the draws agree bit for bit, also cut inside an epoch that holds
    # 9 or more, on an integer and one ulp below one
    n, seed, start = 600, 41, 3
    _, wide = sample_both(compiled, seed, start, n, math.nextafter(6.0, 0.0))
    row, col = np.nonzero(np.isfinite(wide))
    counts = np.bincount(row * 6 + np.floor(wide[row, col]).astype(int),
                         minlength=n * 6).reshape(n, 6)
    assert set(range(10)) <= set(counts.ravel().tolist())
    assert counts[:, 3].max() >= 9
    for cut in (3.37, 4.0, math.nextafter(5.0, 0.0)):
        _, x = sample_both(compiled, seed, start, n, cut)
        assert_same_bits(x, past_cut_dropped(wide, cut))


def test_an_epoch_past_the_counted_entries_draws_alike(compiled):
    # the compiled sampler counts the first 16 entries of the Poisson table
    # at or below an epoch's uniform and walks on only when all 16 are:
    # trajectory 6944 of seed 16 draws 17 times in epoch 3 (found with
    # _reference.sample), row 4 of these draws.  17, not 16: a count of 16
    # is the same with the walk or without it
    seed, start, n = 16, 6940, 9
    x = _kernels.sample(seed, start, n, math.nextafter(4.0, 0.0), impl=_reference)[1]
    assert np.count_nonzero((x[4] >= 3.0) & (x[4] < 4.0)) >= 17
    for cut in (3.5, math.nextafter(4.0, 0.0), 6.0):
        sample_both(compiled, seed, start, n, cut)


def test_a_negative_cut_draws_the_levels_alike(compiled):
    # a negative cut draws no epoch, only each row's level bit from epoch
    # 0's draw 0: 8 rows on the lanes, across the counter's high word, and
    # one past them
    levels, x = sample_both(compiled, 11, 2**32 - 3, 9, -0.5)
    assert x.shape == (9, 0)
    assert set(levels.tolist()) == {0, 1}


def test_philox_lanes_follow_the_cpu(compiled):
    # the compiled sampler runs Philox on AVX2 lanes where the CPU has them:
    # a build that loses the fast path on such a CPU fails here
    assert compiled.PHILOX_LANES in ("avx2", "portable")
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    if cpuinfo.exists():
        flags = {word for line in cpuinfo.read_text().splitlines() if line.startswith("flags")
                 for word in line.split(":", 1)[1].split()}
        assert compiled.PHILOX_LANES == ("avx2" if "avx2" in flags else "portable")


def test_sample_makes_room_for_rows_wider_than_its_guess(monkeypatch):
    expected = _kernels.sample(5, 7, 50, 2.5)
    monkeypatch.setattr(_kernels, "_row_room", lambda cut: 1)
    for a, b in zip(expected, _kernels.sample(5, 7, 50, 2.5)):
        assert_same_bits(a, b)


def test_a_negative_cut_gets_no_room(impl):
    # gamma = 0 never switches: its cut is -inf, no epoch is drawn, and the
    # (n, 0) draws of a block hold its level bits and no buffer of times
    _, cut = _kernels.epoch_grid(0.0, 6.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        levels, x = _kernels.sample(3, 0, noise.BLOCK, cut, impl=impl)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert levels.shape == (2048,) and x.shape == (2048, 0)
    assert held < 4096


def test_sample_rejects_more_epochs_than_the_counter_holds():
    with pytest.raises(ValueError, match="epoch"):
        _kernels.epoch_grid(1e10, 1e3)
    with pytest.raises(ValueError, match="epoch"):
        noise.sample_batch(noise.RTParams(v=1.0, gamma=1e10), 1e3, 2, 1)


def epoch_edges(gamma, horizons):
    """Horizons that fall on an epoch boundary j*L and one ulp to either
    side of it, for j = 1, 2, 3, with the given ones."""
    scale = 2.0 * _kernels.EPOCH_SWITCHES / gamma
    edges = [j * scale for j in (1, 2, 3)]
    return list(horizons) + edges + [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**40),
    n=st.sampled_from([1, 7, 300]),
    gamma=st.sampled_from([0.0, 0.02, 0.3, 1.0, 2.5, 20.0]),
    horizon=st.floats(0.01, 30.0),
    m=st.integers(1, 9),
    v=st.floats(0.05, 20.0),
    end=st.sampled_from([1.0, 0.999, 0.5]),
)
def test_consumers_scale_epoch_times_as_the_cut_rows(compiled, seed, start, n, gamma, horizon,
                                                     m, v, end):
    # each batch kernel given the epoch times x cut an epoch past the
    # horizon's cut and the epoch length L gives the bytes that the compiled
    # kernel gives the rows x*L cut at the horizon at scale 1, on both
    # backends (the numpy kernels cut at the last grid time themselves, so
    # they are held to the compiled bytes, not to their own): horizons on
    # an epoch boundary j*L, one ulp to either side and on a sampled switch
    # time; grids ending at the horizon or before it, with switch times on
    # grid points; and gamma = 0, which has no switch
    scale, cut = _kernels.epoch_grid(gamma, horizon)
    horizons = [horizon]
    if gamma > 0.0:
        horizons = epoch_edges(gamma, horizons)
        cut = max(_kernels.epoch_grid(gamma, h)[1] for h in horizons) + 1.0
    levels, x = _kernels.sample(seed, start, n, cut)
    switches = (x * (scale or 1.0))[np.isfinite(x)]
    horizons += sorted(switches[switches <= horizon])[:2]
    for h in horizons:
        rows, _ = cut_rows(x, scale, h) if gamma > 0.0 else (x, None)
        on_grid = switches[switches <= end * h][:: max(1, switches.size // 20)]
        grid = np.unique(np.concatenate([np.linspace(0.0, end * h, m), on_grid]))
        for kernel, args in ((_kernels.dwell_times, ()), (_kernels.levels_at_times, ()),
                             (_kernels.block_sums, (v,))):
            expected = kernel(levels, rows, grid, *args, impl=compiled)
            assert_same_bits(kernel(levels, rows, grid, *args, impl=_reference), expected)
            for impl in (_reference, compiled):
                scaled = kernel(levels, x, grid, *args, scale=scale or 1.0, impl=impl)
                assert_same_bits(scaled, expected)


def past_cut_dropped(x, cut):
    """Epoch times with those past ``cut`` set to +inf, which ends each
    sorted row with them, and the padding trimmed to the widest row."""
    t = np.where(x <= cut, x, np.inf)
    return t[:, : int(np.isfinite(t).sum(axis=1).max(initial=0))]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 2**64 - 1])),
    start=st.one_of(st.integers(0, 2**40), st.integers(2**32 - 300, 2**32 + 300)),
    n=st.sampled_from([1, 5, 300]),
    cut=st.one_of(st.floats(-1.0, 8.0),
                  st.sampled_from([0.0, 1.0, 3.0, -math.inf]),
                  st.integers(1, 7).map(lambda e: math.nextafter(e, 0.0))),
    wider_by=st.one_of(st.floats(0.0, 4.0), st.sampled_from([1.0, 3.0])),
)
def test_sample_cut_drops_only_the_times_past_it(compiled, seed, start, n, cut, wider_by):
    # the draws cut at c are the draws at a wider cut with every time past
    # c dropped, bit for bit on both backends: at any cut, at an integer,
    # one ulp below one, at -inf and at a sampled time
    levels, wide = sample_both(compiled, seed, start, n, max(cut, 0.0) + wider_by)
    finite = wide[np.isfinite(wide)]
    for c in [cut] + ([float(finite[finite.size // 2])] if finite.size else []):
        expected = past_cut_dropped(wide, c)
        for impl in (_reference, compiled):
            cut_levels, x = _kernels.sample(seed, start, n, c, impl=impl)
            assert_same_bits(cut_levels, levels)
            assert_same_bits(x, expected)


def rounding_edges(scale, count=2):
    """Horizons h whose cut is not h/scale rounded: where (h/scale)*scale
    rounds past h, and where the double after h/scale still gives a switch
    time at or before h; ``count`` of each."""
    down, up = [], []
    for h in np.random.default_rng(7).uniform(0.01, 5.0 * scale, 2000).tolist():
        guess = h / scale
        if guess * scale > h:
            down.append(h)
        elif math.nextafter(guess, math.inf) * scale <= h:
            up.append(h)
    assert len(down) >= count and len(up) >= count
    return down[:count] + up[:count]


#: Rates whose epoch length 8/gamma is no power of two, so that h/L rounds.
EDGE_GAMMAS = [0.02, 0.3, 0.7, 2.5, 3.0, 20.0]


def test_epoch_cut_is_the_last_epoch_time_at_or_before_the_horizon():
    # x*L is monotone in x, so the draws a consumer up to h reads are those
    # at or below the cut and no draw past it: at epoch boundaries, one ulp
    # to either side and where h/L rounds either way
    for gamma in EDGE_GAMMAS:
        for h in epoch_edges(gamma, rounding_edges(_kernels.epoch_grid(gamma, 1.0)[0])):
            scale, cut = _kernels.epoch_grid(gamma, h)
            assert cut * scale <= h < math.nextafter(cut, math.inf) * scale
    # at a zero or subnormal horizon and a tiny L, x*L rounds on the
    # subnormals' fixed spacing, far from h/L in steps of x
    for gamma in (1e12, 1e300):
        for h in (0.0, 5e-324, 1e-310):
            scale, cut = _kernels.epoch_grid(gamma, h)
            assert cut * scale <= h < math.nextafter(cut, math.inf) * scale
    assert _kernels.epoch_grid(0.0, 5.0) == (0.0, -math.inf)  # gamma = 0 never switches


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(gamma=st.one_of(st.sampled_from(EDGE_GAMMAS), st.floats(0.01, 50.0)),
       horizon=st.floats(0.0, 200.0))
def test_epochs_a_cut_draws_are_those_that_start_by_the_horizon(gamma, horizon):
    # e*L <= h exactly when e <= cut, so the floor(cut) + 1 epochs that the
    # cut draws are those that start at or before h, counted one by one: at
    # any horizon, at boundaries j*L, 1 and 2 ulps to either side of them
    # and where h/L rounds either way
    scale = _kernels.epoch_grid(gamma, 1.0)[0]
    horizons = [horizon]
    for j in (1, 2, 3, 7):
        below = above = j * scale
        horizons.append(below)
        for _ in range(2):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            horizons += [below, above]
    if gamma in EDGE_GAMMAS:
        horizons += rounding_edges(scale)
    for h in horizons:
        _, cut = _kernels.epoch_grid(gamma, h)
        starts = sum(e * scale <= h for e in range(int(h / scale) + 3))
        assert math.floor(cut) + 1 == starts


def test_a_cut_one_ulp_tighter_drops_a_switch_the_consumers_read():
    # a switch at x = the cut of h (epoch_grid) is one the consumers read
    # up to the horizon h, so draws cut one ulp below it lose a switch: the
    # level at h, the dwell and the sums all change; a switch one ulp past
    # the cut is one they do not read
    levels = np.array([0], dtype=np.uint8)
    for gamma in EDGE_GAMMAS:
        for h in epoch_edges(gamma, rounding_edges(_kernels.epoch_grid(gamma, 1.0)[0])):
            scale, cut = _kernels.epoch_grid(gamma, h)
            grid = np.array([0.0, h])
            read, past = np.array([[cut]]), np.array([[math.nextafter(cut, math.inf)]])
            tight = past_cut_dropped(read, math.nextafter(cut, -math.inf))
            assert tight.shape == (1, 0)
            assert _kernels.levels_at_times(levels, read, grid, scale)[0, 1] == 1
            assert _kernels.levels_at_times(levels, past, grid, scale)[0, 1] == 0
            assert _kernels.levels_at_times(levels, tight, grid, scale)[0, 1] == 0
            for kernel, args in ((_kernels.dwell_times, ()), (_kernels.block_sums, (1.5,))):
                assert_same_bits(kernel(levels, past, grid, *args, scale=scale),
                                 kernel(levels, tight, grid, *args, scale=scale))
            # a switch at the cut moves no dwell when it falls on h itself
            if cut * scale < h:
                assert np.any(_kernels.block_sums(levels, read, grid, 1.5, scale=scale)
                              != _kernels.block_sums(levels, tight, grid, 1.5, scale=scale))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**40),
    n=st.sampled_from([1, 7, 300]),
    gamma=st.sampled_from(EDGE_GAMMAS),
    m=st.integers(1, 9),
    v=st.floats(0.05, 20.0),
)
def test_consumers_read_the_same_bits_from_cut_draws(compiled, seed, start, n, gamma, m, v):
    # each batch kernel gives the same bytes on draws cut at the horizon's
    # cut as on draws cut an epoch past the widest horizon, on both
    # backends: at epoch boundaries, one ulp to either side and at h/L
    # rounding edges, on grids that end at the horizon and hold switch times
    scale = _kernels.epoch_grid(gamma, 1.0)[0]
    horizons = epoch_edges(gamma, rounding_edges(scale))
    wide_cut = max(_kernels.epoch_grid(gamma, h)[1] for h in horizons) + 1.0
    levels, wide = _kernels.sample(seed, start, n, wide_cut, impl=compiled)
    switches = (wide * scale)[np.isfinite(wide)]
    for h in horizons:
        _, x = _kernels.sample(seed, start, n, _kernels.epoch_grid(gamma, h)[1], impl=compiled)
        on_grid = switches[switches <= h][:: max(1, switches.size // 20)]
        grid = np.unique(np.concatenate([np.linspace(0.0, h, m), [h], on_grid]))
        for kernel, args in ((_kernels.dwell_times, ()), (_kernels.levels_at_times, ()),
                             (_kernels.block_sums, (v,))):
            for impl in (_reference, compiled):
                assert_same_bits(kernel(levels, x, grid, *args, scale=scale, impl=impl),
                                 kernel(levels, wide, grid, *args, scale=scale, impl=impl))


def test_exp_minus_i_bit_identical_across_backends(compiled):
    # the array form of block_sums' phase factor: the same bits on both
    # backends at the hardest arguments, at +-0, past the 2**20 bound where
    # both fall back to libm, and over more than one slice of the numpy
    # loop; within 1 ulp of cos and -sin is test_phase_factor_within_one_ulp
    theta = np.concatenate([phase_arguments(), [0.0, -0.0, 2.0**20 + 1.0, -2.0**40, 1e15, 1e300],
                            np.random.default_rng(5).uniform(-3e6, 3e6, 9000)])
    z = _kernels.exp_minus_i(theta, impl=compiled)
    assert z.dtype == np.complex128 and z.shape == theta.shape
    assert_same_bits(z, _kernels.exp_minus_i(theta, impl=_reference))
    with pytest.raises(ValueError, match="1-D"):
        _kernels.exp_minus_i(np.zeros((2, 2)))


def test_compiled_backend_leaves_the_numpy_kernels_unimported(compiled):
    # the numpy fallback is imported only where the compiled backend is
    # missing: importing the CLI over the compiled extension leaves it out
    code = "\n".join([
        "import importlib.util, sys",
        "spec = importlib.util.spec_from_file_location('rtdeph._kernels._core', sys.argv[1])",
        "core = importlib.util.module_from_spec(spec)",
        "sys.modules[spec.name] = core",
        "spec.loader.exec_module(core)",
        "import rtdeph.cli",
        "from rtdeph import _kernels",
        "print(_kernels.BACKEND, 'rtdeph._kernels._reference' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code, compiled.__file__],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["compiled", "False"]
