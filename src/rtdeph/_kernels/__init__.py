"""Hot-loop kernels with backend selection at import time.

The compiled extension ``_core`` (hand-written C in ``_core.c``, which
setup.py builds whenever a C compiler is available) is used when it
imports; otherwise the numpy fallback ``_reference`` takes over, and only
then is it imported.  The two follow the same floating-point operations in
the same order and agree bit for bit.

A batch is the level bit at t = 0 of each trajectory and its switch times
in epoch units x, one row per trajectory padded with +inf (the padding is
the only record of a row's length), with the epoch length ``scale``:
switch j of row i is at x[i, j]*scale.  Four kernels work on batches.
``sample`` draws the epoch times from counter-based Philox streams (see its
docstring); they do not depend on the switching rate, and one draw serves
every rate, each with its own scale.  The compiled sampler computes its
Philox blocks in chunks, eight counters per step on AVX2 lanes where the
CPU has them (``_core.PHILOX_LANES`` is "avx2" or "portable"), and the
numpy one all at once; either way the words are those of one counter at a
time.  A cut in epoch units alone says what it draws, that of the widest
horizon the draws serve (``epoch_grid``): the epochs that start at or
before it, and of those only the times at or below it, so the last
epoch's later switches are neither sorted nor stored.  The three
consumers form each switch time x*scale as they reach it and read no
switch past the last grid time, so the times between it and the cut need
no further cut.  ``dwell_times`` (recovery's noise
phase) and ``levels_at_times`` (autocorrelation) return an (n, m) array,
and ``block_sums`` (ensembles) returns only difference arrays of the
coherences z = exp(-i*v*dwell), shifted by their t = 0 value 1.  Between
two switches a row's coherence is the constant exp(-i*v*acc) on level 0,
and on level 1 the segment factor exp(-i*v*(acc - prev)) times the grid
factor exp(-i*v*t) (acc being the dwell time up to the last switch, at
time prev).  So ``block_sums`` adds the terms of each stretch of grid
points between switches once, at its first grid point, and takes them off
at its end: neither backend forms the (n, m) coherences.  Each stretch's factor is
``_reference.exp_minus_i`` (repeated in C), about 55 IEEE + and * without
libm below its bound, which ``exp_minus_i`` applies to an array (recovery's
phases at the revival time), and the compiled kernel finds the stretch's first
grid point through a per-call table of equal grid cells, so a switch
costs constant work on a uniform grid.  Difference arrays add over
blocks, and ``column_sums`` turns their total into the column sums of
(Re z - 1, Im z) and of their squares with one prefix sum and one
combine with the grid factor per run.  The functions here validate and
convert the arguments and allocate the outputs, which the selected backend
fills; the sampler's Poisson table is built once, at import.

The ten difference arrays, m + 1 entries each, are in this row order:
level-0 stretches add c - 1 = (c_r - 1, c_i) and the squares of its
parts; level-1 stretches add 1 (their count), s - 1 = (s_r - 1, s_i), the
squares of its parts and their product.

A fifth kernel writes the artifacts' numbers: ``float_reprs`` gives the
text of each float64, byte for byte ``repr(float(x))``, the shortest
digits that read back to the same double.  ``_reference.float_reprs`` is
``repr`` itself; the compiled one finds the shortest digits with exact
128-bit integer arithmetic for 2**-49 <= |x| < 2**55 and hands every
other value (zeros, subnormals, inf, nan and the magnitudes outside) to
the C function that ``float.__repr__`` calls.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from rtdeph._kernels import _core
except ImportError:
    _core = None
    # the numpy fallback is imported only where it runs; tests import it
    # by name to compare the backends
    from rtdeph._kernels import _reference

_impl = _core if _core is not None else _reference

#: Name of the backend selected at import: "compiled" or "pure".
BACKEND = "compiled" if _impl is _core else "pure"


#: Mean number of switches per epoch of the sampler.
EPOCH_SWITCHES = 4.0

#: Entries of the Poisson table: counts 0 to 31 per epoch.
_TABLE_SIZE = 32


def _poisson_cdf(mu):
    """The CDF of Poisson(mu) at 0, 1, ..., _TABLE_SIZE - 1, its last entry
    1.0.  The float64 partial sums stall just below 1 (at 1 - 3.3e-16 for
    mu = 4), so only the fixed last entry bounds the inversion."""
    cdf = np.empty(_TABLE_SIZE)
    term, total = math.exp(-mu), 0.0
    for k in range(_TABLE_SIZE - 1):
        total += term
        cdf[k] = total
        term *= mu / (k + 1)
    cdf[-1] = 1.0
    return cdf


#: The Poisson(EPOCH_SWITCHES) table of every ``sample`` call, read-only.
_POISSON_CDF = _poisson_cdf(EPOCH_SWITCHES)
_POISSON_CDF.flags.writeable = False


def epoch_grid(gamma, horizon):
    """The epoch length L = 2*EPOCH_SWITCHES/gamma and the cut: the largest
    x whose switch time x*L is at or before the horizon, found by stepping
    from about horizon/L one double at a time; (0.0, -inf) for gamma = 0,
    which never switches.  x*L is monotone in x, so epoch e starts at or
    before the horizon exactly when e <= cut: floor(cut) + 1 epochs do.
    The consumers form x*L and read no switch past their last grid time,
    so draws cut here (``sample``) give them every switch up to the
    horizon, and no smaller cut does.  A gamma so small that L overflows,
    and a horizon past the 32-bit epoch counter, are refused."""
    if gamma == 0.0:
        return 0.0, -math.inf
    scale = 2.0 * EPOCH_SWITCHES / gamma
    if math.isinf(scale):
        raise ValueError(f"the epoch length {2.0 * EPOCH_SWITCHES:g}/gamma overflows at "
                         f"gamma = {gamma!r}")
    cut = horizon / scale
    if cut >= 2**32:
        raise ValueError("the horizon spans more epochs than the 32-bit epoch counter")
    # the steps start half an ulp of the horizon higher: where x*L falls
    # below the normal doubles it rounds on a fixed spacing, and from
    # horizon/L alone a zero horizon would take about 1/L steps
    cut += math.ulp(horizon) / scale / 2.0
    while cut * scale > horizon:
        cut = math.nextafter(cut, -math.inf)
    while math.nextafter(cut, math.inf) * scale <= horizon:
        cut = math.nextafter(cut, math.inf)
    return scale, cut


def sample(master_seed, start, n, cut, impl=None):
    """The level bits of trajectories ``start`` to ``start + n - 1`` and
    their switch times in epoch units: the x = e + u at or below ``cut``
    (``epoch_grid`` of the widest horizon they serve), sorted per row and
    padded with +inf.  The cut alone says what is drawn: epochs 0 to
    floor(cut), none for a negative cut, the later times of the last of
    them dropped before they are sorted and written.  A cut of +inf, NaN or
    2**32 and above is refused: it names no epoch count the 32-bit counter
    holds.  A lower cut draws a prefix of the same epochs and leaves the
    bits of the times it keeps as they are.

    Every draw is a Philox4x32-10 block keyed by the 64-bit ``master_seed``
    at the counter (trajectory as two words, epoch, draw).  The level bit is
    the low bit of word 1 of draw 0 of epoch 0.  Epoch e's switch count N is
    the uniform of words 0 and 1 of its draw 0 inverted against the Poisson
    table, and its switches are at e + u for the N uniforms u that follow,
    sorted.  A uniform of words a and b is ((a << 20 ^ b >> 12) + 0.5)*2**-52,
    exact and in (0, 1).  At switching rate gamma the epoch length is
    L = 2*EPOCH_SWITCHES/gamma (``epoch_grid``) and a switch is at x*L; a
    shorter horizon sees a prefix of the same switches.

    The compiled kernel walks the (trajectory, epoch) pairs in row order,
    a fixed chunk at a time, in four passes: draw 0 of each pair; its count,
    by counting the table entries at or below its uniform rather than by a
    search that exits where the entries pass it, and the list of its draws
    1 to N // 2; those draws; and the sort, cut and append of each epoch.
    Both Philox passes run eight counters per step on AVX2 lanes where the
    CPU has them and one at a time otherwise.  Philox is 32-bit integer
    arithmetic, exact on either path, and a sorted row of doubles has one
    order, so the order of the work moves no bit: the numpy kernel draws
    every block of the call at once and sorts whole rows, to the same bytes.
    """
    impl = impl or _impl
    levels = np.empty(n, dtype=np.uint8)
    args = (master_seed, start, cut, _POISSON_CDF, levels)
    # a negative cut draws no epoch, and one the backends refuse nothing:
    # neither gets room, which the (n, 0) result would keep alive
    width = _row_room(cut) if 0.0 <= cut < 2**32 else 0
    times = np.empty(n * width)
    k = impl.sample(*args, times)
    if k > width:
        # a row needs more room than the guess: the same draws, with room
        times = np.empty(n * k)
        impl.sample(*args, times)
    return levels, times[: n * k].reshape(n, k)


def _row_room(cut):
    """Room per row for the epoch times at or below ``cut`` >= 0: the mean count
    EPOCH_SWITCHES*cut, 6 standard deviations and 8 more.  The widest of
    2048 Poisson rows exceeds it with a probability below 1e-6 for every
    mean up to 400, and then the rows are drawn again."""
    mean = EPOCH_SWITCHES * cut
    return math.ceil(mean + 6.0 * math.sqrt(mean)) + 8


def _prepare(levels, switch_times, t_grid, scale):
    """Contiguous arguments of the dtypes the backends expect.  The grid
    must be finite, so that the +inf padding never counts as a switch, no
    switch time may be NaN and the scale must be finite and positive: the
    backends would order a NaN switch time, or the NaN products of a NaN
    scale, differently."""
    scale = float(scale)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    levels = np.ascontiguousarray(levels, dtype=np.uint8)
    switch_times = np.ascontiguousarray(switch_times, dtype=np.float64)
    t_grid = np.ascontiguousarray(t_grid, dtype=np.float64)
    if levels.ndim != 1 or switch_times.ndim != 2 or switch_times.shape[0] != levels.shape[0]:
        raise ValueError("switch_times must be 2-D with one row per trajectory")
    if switch_times.size and np.isnan(switch_times.min()):
        # one reduction, no (n, k) mask: the minimum of an array with a NaN
        # is NaN, and the backends would order a NaN switch differently
        raise ValueError("switch_times must not be NaN")
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be 1-D and finite")
    if t_grid.size and (t_grid[0] < 0.0 or np.any(np.diff(t_grid) < 0.0)):
        raise ValueError("t_grid must be ascending and non-negative")
    return levels, switch_times, t_grid, scale


def _per_point(kernel, dtype, levels, switch_times, t_grid, scale):
    """The (n, m) array of ``dtype`` that ``kernel`` fills for the batch."""
    args = _prepare(levels, switch_times, t_grid, scale)
    out = np.empty((args[0].shape[0], args[2].shape[0]), dtype=dtype)
    kernel(*args, out)
    return out


def dwell_times(levels, switch_times, t_grid, scale=1.0, impl=None):
    """Time at the high level in [0, t] per trajectory and grid time, switch
    j of row i being at ``switch_times[i, j] * scale``."""
    return _per_point((impl or _impl).dwell_times, np.float64, levels, switch_times, t_grid,
                      scale)


def levels_at_times(levels, switch_times, t_grid, scale=1.0, impl=None):
    """Level bit at each grid time per trajectory, switch j of row i being
    at ``switch_times[i, j] * scale``."""
    return _per_point((impl or _impl).levels_at_times, np.uint8, levels, switch_times, t_grid,
                      scale)


def block_sums(levels, switch_times, t_grid, v, scale=1.0, impl=None):
    """The (10, m + 1) difference arrays of the coherences z =
    exp(-i*v*dwell) on the grid, from the stretches between the switches
    ``switch_times * scale`` (see the module docstring).  Batches add;
    ``column_sums`` finishes the total.
    """
    args = _prepare(levels, switch_times, t_grid, scale)
    out = np.zeros((10, args[2].shape[0] + 1))
    (impl or _impl).block_sums(*args, float(v), out)
    return out


def column_sums(d, t_grid, v):
    """Column sums of the coherences z = exp(-i*v*dwell) on the grid from
    their difference arrays ``d`` (``block_sums``, added over batches).

    Returns (s, q), each of shape (m, 2): the sums of (Re z - 1, Im z) and
    of their squares.  The shift by the t = 0 value 1 keeps the sums small
    where z is near 1, so that q - s**2/n keeps its digits.  After the
    prefix sum, column g combines the level-1 terms with its grid factor
    (er, ei) = exp(-i*v*t_g): a level-1 row with segment factor sf adds
    dr + (a*er - b*ei) to Re z - 1 and ei + (a*ei + b*er) to Im z, where
    dr = er - 1 and (a, b) = sf - 1.
    """
    p = np.cumsum(d, axis=1)[:, : len(t_grid)]
    low_re, low_im, low_re2, low_im2, count, a, b, aa, bb, ab = p
    e = np.exp(-1j * (v * t_grid))
    er, ei = e.real, e.imag
    dr = er - 1.0
    rr, ii, ri = er * er, ei * ei, er * ei
    x = a * er - b * ei
    y = a * ei + b * er
    s = np.stack([low_re + (count * dr + x), low_im + (count * ei + y)], axis=-1)
    q = np.stack([
        low_re2 + ((count * (dr * dr) + (aa * rr + bb * ii)) + 2.0 * (dr * x - ab * ri)),
        low_im2 + ((count * ii + (aa * ii + bb * rr)) + 2.0 * (ei * y + ab * ri)),
    ], axis=-1)
    return s, q


def exp_minus_i(theta, impl=None):
    """exp(-i*theta) as complex128 for each value of a 1-D array taken as
    float64: the phase factor of ``block_sums`` (``_reference.exp_minus_i``),
    its parts within 1 ulp of cos(theta) and sin(-theta) and the same bits
    on either backend."""
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    if theta.ndim != 1:
        raise ValueError("theta must be 1-D")
    out = np.empty(theta.shape[0], dtype=np.complex128)
    (impl or _impl).exp_minus_i(theta, out.view(np.float64).reshape(-1, 2))
    return out


def float_reprs(values, impl=None):
    """The text of each value of a 1-D array as a float64, byte for byte
    ``repr(float(x))``: the shortest round-trip digits, in Python's layout."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("values must be 1-D")
    return (impl or _impl).float_reprs(values)
