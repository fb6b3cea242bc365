"""Pure-numpy implementations of the trajectory-batch kernels.

These mirror the compiled kernels in ``_core.c`` operation for operation.
One segment lookup (``_last_switch``) gives, per trajectory and grid time,
the dwell time up to the last switch, that switch's time and the level
since; the dwell at the switches is accumulated in switch order (np.cumsum
accumulates sequentially), and the final per-query expression uses the
compiled kernel's operand order.  The coherences (``coherences``) are
formed as the compiled kernel forms them: exp(-i*v*acc) on level 0, and on
level 1 the segment factor exp(-i*v*(acc - prev)) times the grid factor
exp(-i*v*t), multiplied in real arithmetic.  Each factor is numpy's complex
exp of -1j times its phase, whose parts are the cos(phase) and sin(-phase)
the compiled kernel calls.  The moment reduction (``column_moments``) works
tile by tile as the compiled one does: numpy sums over axis 0 row by row
from 0.0, which is the compiled loop's order, and the tiles merge in order
by the same pairwise update.  So both backends produce bit-identical
output.  Each kernel fills the outputs that ``rtdeph._kernels`` allocates.
Unlike the compiled ``block_moments``, this one holds the block's (n, m)
coherences at once.
"""

from __future__ import annotations

import numpy as np


def _switch_counts(switch_times, t_grid):
    """The number of switches at or before each grid time, shape (n, m);
    the +inf padding never counts."""
    j = np.empty((switch_times.shape[0], t_grid.shape[0]), dtype=np.intp)
    for gi, t in enumerate(t_grid):
        j[:, gi] = (switch_times <= t).sum(axis=1)
    return j


def _last_switch(levels, switch_times, t_grid):
    """Per trajectory and grid time t, each of shape (n, m): the time at the
    high level up to the last switch at or before t (acc), that switch's
    time (prev, 0 before the first) and the level since (lvl, float64)."""
    n, k = switch_times.shape
    valid = np.isfinite(switch_times)
    # 0, then the switch times, with a finite stand-in for the +inf padding;
    # padded segments are masked out.
    tau = np.concatenate([np.zeros((n, 1)), np.where(valid, switch_times, 0.0)], axis=1)
    seg_lvl = (levels[:, None] ^ (np.arange(k)[None, :] & 1)).astype(np.float64)
    contrib = np.where(valid, seg_lvl * (tau[:, 1:] - tau[:, :-1]), 0.0)
    # acc[:, j] = time at the high level up to and including switch j
    acc = np.concatenate([np.zeros((n, 1)), np.cumsum(contrib, axis=1)], axis=1)
    j = _switch_counts(switch_times, t_grid)
    acc, prev = np.take_along_axis(acc, j, axis=1), np.take_along_axis(tau, j, axis=1)
    j &= 1
    j ^= levels[:, None]
    return acc, prev, j.astype(np.float64)


def dwell_times(levels, switch_times, t_grid, out):
    """Time spent at the high level in [0, t] per trajectory and grid time.

    Parameters
    ----------
    levels : uint8 array, shape (n,)
        Level bit at t=0 for each trajectory.
    switch_times : float array, shape (n, k)
        Row i holds its increasing switch times, padded with +inf.
    t_grid : float array, shape (m,)
        Ascending query times.
    out : float array, shape (n, m)
        Filled with the dwell times.
    """
    acc, prev, lvl = _last_switch(levels, switch_times, t_grid)
    np.add(acc, lvl * (t_grid - prev), out=out)


def levels_at_times(levels, switch_times, t_grid, out):
    """Level bit at each grid time per trajectory (parity of prior switches),
    into the uint8 array ``out`` of shape (n, m)."""
    out[...] = levels[:, None] ^ (_switch_counts(switch_times, t_grid) & 1)


def coherences(levels, switch_times, t_grid, v):
    """The complex (n, m) coherences exp(-i*v*dwell) of the batch on
    ``t_grid``: exp(-i*v*acc) on level 0, and on level 1 the segment factor
    exp(-i*v*(acc - prev)) times the grid factor exp(-i*v*t), with
    re = sr*er - si*ei and im = sr*ei + si*er in real arithmetic."""
    # in place and freed early, so that few (n, m) arrays live at once
    acc, phase, lvl = _last_switch(levels, switch_times, t_grid)
    high = lvl == 1.0
    np.subtract(acc, phase, out=phase)
    np.copyto(phase, acc, where=~high)
    phase *= v
    del acc, lvl
    z = -1j * phase
    del phase
    np.exp(z, out=z)
    grid = np.exp(-1j * (v * t_grid))
    sr, si, er, ei = z.real, z.imag, grid.real, grid.imag
    re = sr * er
    re -= si * ei
    im = sr * ei
    im += si * er
    np.copyto(sr, re, where=high)
    np.copyto(si, im, where=high)
    return z


def column_moments(z, tile, out_mean, out_m2, out_abs2_min, out_abs2_max):
    """Column moments of the complex (n, m) array ``z`` over its (Re, Im)
    pairs, reduced ``tile`` rows at a time: the (m, 2) mean and sums of
    squared deviations (M2) into ``out_mean`` and ``out_m2``, and the
    extremes of re*re + im*im into the (m,) ``out_abs2_min`` and
    ``out_abs2_max``.

    A tile's mean is its row sum over its row count and its M2 the sum of
    squared deviations from that mean.  The first tile is taken as it is;
    later ones merge by the pairwise update of Chan, Golub & LeVeque (1983).
    """
    x = z.view(np.float64).reshape(*z.shape, 2)
    done = 0
    for start in range(0, x.shape[0], tile):
        part = x[start : start + tile]
        rows = part.shape[0]
        mean = part.sum(axis=0) / rows
        dev = part - mean
        m2 = np.square(dev, out=dev).sum(axis=0)
        abs2 = part[..., 0] * part[..., 0] + part[..., 1] * part[..., 1]
        if done == 0:
            out_mean[...] = mean
            out_m2[...] = m2
            out_abs2_min[...] = abs2.min(axis=0)
            out_abs2_max[...] = abs2.max(axis=0)
        else:
            total = done + rows
            delta = mean - out_mean
            out_mean[...] = out_mean + delta * (rows / total)
            out_m2[...] = out_m2 + m2 + np.square(delta) * (done * rows / total)
            np.minimum(out_abs2_min, abs2.min(axis=0), out=out_abs2_min)
            np.maximum(out_abs2_max, abs2.max(axis=0), out=out_abs2_max)
        done += rows


def block_moments(levels, switch_times, t_grid, v, tile,
                  out_mean, out_m2, out_abs2_min, out_abs2_max):
    """``column_moments`` of the ``coherences`` of the batch on ``t_grid``,
    into the same four outputs."""
    column_moments(coherences(levels, switch_times, t_grid, v), tile,
                   out_mean, out_m2, out_abs2_min, out_abs2_max)
