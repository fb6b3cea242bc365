"""Pure-numpy implementations of the trajectory-batch kernels.

These mirror the compiled kernels in ``_core.c`` operation for operation.
The batch kernels take the epoch times x and the epoch length ``scale``;
``cut`` forms the switch times x*scale, cuts them past the last grid
time, which no output depends on, and trims the padding, so the work
below is at the width of the switches the grid sees.  The same ``cut``,
at the horizon, gives ``noise.TrajectoryBatch`` its switch times and
counts.  ``_stretches`` gives, per trajectory and stretch between
switches, the dwell time up to its start, its start time and its level;
the dwell is accumulated in switch order (np.cumsum accumulates
sequentially).  ``dwell_times`` looks up the stretch of each
grid time and uses the compiled kernel's operand order.  ``block_sums``
adds each stretch's terms to difference arrays at its first grid point
and takes them off at its end, in the compiled kernel's row and stretch
order; np.searchsorted finds the first grid point of each stretch that
the compiled kernel's grid index finds.  Each stretch factor comes from
``exp_minus_i``, which repeats the compiled kernel's exp(-i*phase) in
IEEE + and * (and falls back to numpy's complex exp, whose parts are
libm's cos and sin, where the compiled kernel calls them).  So both
backends produce bit-identical output.  ``sample``
computes the Philox blocks of all trajectories and epochs at once in
uint64 arithmetic, where each 32x32-bit product is exact, drops the epoch
times past the cut and sorts each row's others, which orders every epoch
as the compiled kernel's sort per epoch does; its row counts stay local.
Each kernel fills the outputs that ``rtdeph._kernels`` allocates, the
factors of ``exp_minus_i`` included, except ``float_reprs``: Python's own
``repr`` of each value, which defines the compiled formatter's output.
"""

from __future__ import annotations

import operator

import numpy as np


def cut(switch_times, scale, end):
    """The switch times ``switch_times * scale`` up to ``end``, padded with
    +inf to the widest row's count, and the count per row.  The compiled
    walks form the same products and stop at the first switch past their
    last grid time."""
    t = switch_times * scale
    past = t > end
    counts = np.count_nonzero(~past, axis=1)
    k = int(counts.max(initial=0))
    return np.where(past[:, :k], np.inf, t[:, :k]), counts


def _switch_counts(switch_times, t_grid):
    """The number of switches at or before each grid time, shape (n, m);
    the +inf padding never counts."""
    j = np.empty((switch_times.shape[0], t_grid.shape[0]), dtype=np.intp)
    for gi, t in enumerate(t_grid):
        j[:, gi] = (switch_times <= t).sum(axis=1)
    return j


def _stretches(levels, switch_times):
    """Per trajectory and stretch j, the time from switch j - 1 (or t = 0)
    to switch j, each of shape (n, k + 1): the time at the high level up to
    its start (acc), its start time (prev) and its level bit.  The stretches
    after the +inf padding cover no grid time; their values are stand-ins."""
    n, k = switch_times.shape
    valid = np.isfinite(switch_times)
    # 0, then the switch times, with a finite stand-in for the +inf padding;
    # padded segments are masked out.
    prev = np.concatenate([np.zeros((n, 1)), np.where(valid, switch_times, 0.0)], axis=1)
    bits = levels[:, None] ^ (np.arange(k + 1)[None, :] & 1)
    contrib = np.where(valid, bits[:, :-1].astype(np.float64) * (prev[:, 1:] - prev[:, :-1]), 0.0)
    # acc[:, j] = time at the high level up to and including switch j - 1
    acc = np.concatenate([np.zeros((n, 1)), np.cumsum(contrib, axis=1)], axis=1)
    return acc, prev, bits


def _last_switch(levels, switch_times, t_grid):
    """Per trajectory and grid time t, each of shape (n, m): the time at the
    high level up to the last switch at or before t (acc), that switch's
    time (prev, 0 before the first) and the level since (lvl, float64)."""
    acc, prev, _ = _stretches(levels, switch_times)
    j = _switch_counts(switch_times, t_grid)
    acc, prev = np.take_along_axis(acc, j, axis=1), np.take_along_axis(prev, j, axis=1)
    j &= 1
    j ^= levels[:, None]
    return acc, prev, j.astype(np.float64)


def dwell_times(levels, switch_times, t_grid, scale, out):
    """Time spent at the high level in [0, t] per trajectory and grid time.

    Parameters
    ----------
    levels : uint8 array, shape (n,)
        Level bit at t=0 for each trajectory.
    switch_times : float array, shape (n, k)
        Row i holds its increasing switch times over ``scale``, padded
        with +inf.
    t_grid : float array, shape (m,)
        Ascending query times.
    scale : float
        The factor of the switch times, finite and positive.
    out : float array, shape (n, m)
        Filled with the dwell times.
    """
    switch_times, _ = cut(switch_times, scale, t_grid.max(initial=-np.inf))
    acc, prev, lvl = _last_switch(levels, switch_times, t_grid)
    np.add(acc, lvl * (t_grid - prev), out=out)


def levels_at_times(levels, switch_times, t_grid, scale, out):
    """Level bit at each grid time per trajectory (parity of prior switches),
    into the uint8 array ``out`` of shape (n, m)."""
    switch_times, _ = cut(switch_times, scale, t_grid.max(initial=-np.inf))
    counts = _switch_counts(switch_times, t_grid)
    out[...] = levels[:, None] ^ (counts & 1)


#: The constants of exp_minus_i, the same as _core.c's (a test holds the
#: two equal): 2/pi, the rounding shift 1.5*2**52, the bound of the
#: polynomial path, pi/2 in four parts and fdlibm's sin and cos kernel
#: coefficients.
TWO_OVER_PI = float.fromhex("0x1.45f306dc9c883p-1")
ROUND_SHIFT = float.fromhex("0x1.8p+52")
PHASE_BOUND = float.fromhex("0x1p+20")
PIO2_1 = float.fromhex("0x1.921fb544p+0")
PIO2_2 = float.fromhex("0x1.0b462p-34")
PIO2_3 = float.fromhex("-0x1.cb3b399ep-55")
PIO2_3T = float.fromhex("0x1.1701b839a252p-88")
S1, S2, S3, S4, S5, S6 = map(float.fromhex, (
    "-0x1.5555555555549p-3", "0x1.111111110f8a6p-7", "-0x1.a01a019c161d5p-13",
    "0x1.71de357b1fe7dp-19", "-0x1.ae5e68a2b9cebp-26", "0x1.5d93a5acfd57cp-33"))
C1, C2, C3, C4, C5, C6 = map(float.fromhex, (
    "0x1.555555555554cp-5", "-0x1.6c16c16c15177p-10", "0x1.a01a019cb159p-16",
    "-0x1.27e4f809c52adp-22", "0x1.1ee9ebdb4b1c4p-29", "-0x1.8fae9be8838d4p-37"))
#: The signs of cos(r) or sin(r) in cos(theta) and in sin(-theta), by k mod 4.
_SIGN_RE = np.array([1.0, -1.0, -1.0, 1.0])
_SIGN_IM = np.array([-1.0, -1.0, 1.0, 1.0])


#: Elements per slice of exp_minus_i: its temporaries then stay in cache,
#: which halves its time on a block's ~40 000 stretches.
_SLICE = 4096


def exp_minus_i(theta, out):
    """Fills row i of the float64 array ``out``, shape (n, 2), with the
    parts (cos theta, sin(-theta)) of exp(-i*theta) for the 1-D float64
    array ``theta``, in the IEEE + and * of _core.c's exp_minus_i,
    operation for operation (see its comment): for |theta| <= PHASE_BOUND a
    remainder r + rt of theta modulo pi/2 that keeps its digits next to
    every multiple of pi/2, the fdlibm kernel polynomials and the
    quadrant's sign.  Past the bound, and for inf and NaN, it is numpy's
    complex exp, whose parts are libm's cos and sin."""
    for s in range(0, theta.size, _SLICE):
        out[s : s + _SLICE, 0], out[s : s + _SLICE, 1] = _exp_minus_i(theta[s : s + _SLICE])


def _exp_minus_i(theta):
    """exp_minus_i of one slice."""
    inside = np.abs(theta) <= PHASE_BOUND
    x = np.where(inside, theta, 0.0)
    k = (x * TWO_OVER_PI + ROUND_SHIFT) - ROUND_SHIFT
    y = (x - k * PIO2_1) - k * PIO2_2
    c = k * PIO2_3
    r = y - c
    rt = ((y - r) - c) - k * PIO2_3T
    z = r * r
    w = z * z
    v = z * r
    ps = (S2 + z * (S3 + z * S4)) + (z * w) * (S5 + z * S6)
    sn = r - ((z * (0.5 * rt - v * ps) - rt) - v * S1)
    pc = z * (C1 + z * (C2 + z * C3)) + (w * w) * (C4 + z * (C5 + z * C6))
    hz = 0.5 * z
    h = 1.0 - hz
    cs = h + (((1.0 - h) - hz) + (z * pc - r * rt))
    q = k.astype(np.int64) & 3
    # swap the parts where q is odd, bit for bit (np.where branches per
    # element, which is slow on a random quadrant)
    cb, sb = cs.view(np.uint64), sn.view(np.uint64)
    swap = (cb ^ sb) & -(q & 1).view(np.uint64)
    re = (cb ^ swap).view(np.float64) * _SIGN_RE[q]
    im = (sb ^ swap).view(np.float64) * _SIGN_IM[q]
    if not inside.all():
        e = np.exp(-1j * theta[~inside])
        re[~inside], im[~inside] = e.real, e.imag
    return re, im


def block_sums(levels, switch_times, t_grid, scale, v, out):
    """Adds the terms of the coherences z = exp(-i*v*dwell) shifted by 1 to
    the difference arrays in ``out``, float64 of shape (10, m + 1) and
    zeroed by the caller, formed per stretch between the switches
    ``switch_times * scale``.

    Stretch j of a row runs from its switch j - 1 (or t = 0) to switch j
    and covers the grid points [g0, g1) from the first grid time >= its
    start.  Its coherence is c = exp(-i*v*acc) on level 0, and on level 1
    the segment factor s = exp(-i*v*(acc - prev)) times the grid factor
    exp(-i*v*t), which is left to ``rtdeph._kernels.column_sums``.  Each
    non-empty stretch adds its terms (c - 1 and its squared parts; or the
    count 1, s - 1, its squared parts and their product) to the rows of
    ``out`` at g0 and their negatives at g1, in row, stretch, start-then-end
    order (np.bincount adds its weights in input order).
    """
    switch_times, _ = cut(switch_times, scale, t_grid.max(initial=-np.inf))
    n, k = switch_times.shape
    m = t_grid.shape[0]
    acc, prev, bits = _stretches(levels, switch_times)
    g0 = np.zeros((n, k + 1), dtype=np.intp)
    g0[:, 1:] = np.searchsorted(t_grid, switch_times, side="left")
    g1 = np.full((n, k + 1), m, dtype=np.intp)
    g1[:, :-1] = g0[:, 1:]
    live = g0 < g1
    high = bits == 1
    # the factor of each live stretch, in row-major (row, stretch) order
    phase = np.where(high, acc - prev, acc)[live] * v
    factor = np.empty((phase.size, 2))
    exp_minus_i(phase, factor)
    re, im = factor[:, 0] - 1.0, factor[:, 1]
    terms = [np.ones_like(re), re, im, re * re, im * im, re * im]
    start, end, on_high = g0[live], g1[live], high[live]
    sums = []
    # level 0 adds terms[1:5], level 1 all six, as the compiled kernel does
    for sel, group in ((~on_high, terms[1:5]), (on_high, terms)):
        events = np.stack([start[sel], end[sel]], axis=-1).ravel()
        for x in group:
            x = x[sel]
            sums.append(np.bincount(events, weights=np.stack([x, -x], axis=-1).ravel(),
                                    minlength=m + 1))
    out += sums


#: Philox4x32-10's multipliers and key increments.
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_WORD = 0xFFFFFFFF


def philox(c0, c1, c2, c3, key):
    """Philox4x32-10 of the counters (c0, c1, c2, c3), uint64 arrays of
    32-bit words, under the 64-bit ``key``: the four words of each block,
    as uint64 arrays.  A 32x32-bit product fits uint64 exactly."""
    k0, k1 = key & _WORD, key >> 32
    words = [np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)]
    for _ in range(10):
        p0 = words[0] * np.uint64(_PHILOX_M[0])
        p1 = words[2] * np.uint64(_PHILOX_M[1])
        words = [(p1 >> 32) ^ words[1] ^ np.uint64(k0), p1 & _WORD,
                 (p0 >> 32) ^ words[3] ^ np.uint64(k1), p0 & _WORD]
        k0, k1 = (k0 + _PHILOX_W[0]) & _WORD, (k1 + _PHILOX_W[1]) & _WORD
    return words


def _uniform(a, b):
    """((a << 20 ^ b >> 12) + 0.5)*2**-52 of two words: 52 bits, exact."""
    return (((a << 20) ^ (b >> 12)).astype(np.float64) + 0.5) * 2.0**-52


def sample(seed, start, cut, cdf, levels, times):
    """Samples trajectories ``start`` to ``start + n - 1`` (n = len(levels))
    under the 64-bit ``seed`` into ``levels`` (uint8), and returns the
    widest row's count k of epoch times at or below ``cut``, which must be
    below 2**32 (not +inf or NaN).  If n*k <= len(times) it also writes the
    (n, k) epoch times, padded with +inf, row by row into the front of the
    float64 array ``times``.

    The epochs e <= cut are drawn (see ``rtdeph._kernels.sample``),
    floor(cut) + 1 or none for a negative cut: for each, its count from
    ``cdf`` and its uniforms, filled in draw order, then the times e + u,
    those above the cut set to +inf and sorted per row, which sorts each
    epoch as the compiled kernel does, since the epochs do not overlap.
    Arrays are indexed (row, epoch, draw).
    """
    # any integer, as the compiled kernel takes it: numpy ones as Python ints
    seed, start = operator.index(seed), operator.index(start)
    if not (0 <= seed < 2**64 and 0 <= start < 2**64):
        raise OverflowError("seed and start must be in [0, 2**64)")
    if not cut < 2**32:
        raise ValueError(f"the cut must be below 2**32, got {cut!r}")
    epochs = int(cut) + 1 if cut >= 0.0 else 0
    n = levels.shape[0]
    index = np.arange(n, dtype=np.uint64) + np.uint64(start)
    lo, hi = (index & _WORD)[:, None], (index >> 32)[:, None]
    e = np.arange(max(epochs, 1), dtype=np.uint64)[None, :]
    w = philox(lo, hi, e, np.zeros_like(e), seed)
    levels[...] = w[1][:, 0] & 1
    if epochs == 0:
        return 0
    draws = np.searchsorted(cdf, _uniform(w[0], w[1]), side="right")
    width = int(draws.max())
    # the uniforms of each epoch; +inf stands in past its count
    u = np.full((n, epochs, width), np.inf)
    if width:
        u[..., 0] = np.where(draws > 0, _uniform(w[2], w[3]), np.inf)
        # draw d >= 1 of an epoch gives its uniforms 2d - 1 and 2d
        row, epoch, d = np.nonzero(np.arange(1, width // 2 + 1) <= (draws // 2)[..., None])
        d += 1
        w = philox(lo[row, 0], hi[row, 0], epoch.astype(np.uint64), d.astype(np.uint64), seed)
        u[row, epoch, 2 * d - 1] = _uniform(w[0], w[1])
        second = 2 * d < draws[row, epoch]
        u[row[second], epoch[second], 2 * d[second]] = _uniform(w[2], w[3])[second]
    t = (np.arange(epochs, dtype=np.float64)[:, None] + u).reshape(n, -1)
    t[t > cut] = np.inf
    t.sort(axis=1)
    k = int(np.isfinite(t).sum(axis=1).max())
    if n * k <= times.shape[0]:
        times[: n * k] = t[:, :k].ravel()
    return k


def float_reprs(values):
    """The repr of each value of a 1-D float64 array, as a Python float."""
    return [repr(x) for x in values.tolist()]
