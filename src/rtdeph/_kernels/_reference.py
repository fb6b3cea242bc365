"""Pure-numpy implementations of the trajectory-batch kernels.

These mirror the compiled kernels in ``_core.c`` operation for operation:
dwell times are accumulated segment by segment in switch order (np.cumsum
accumulates sequentially), the final per-query expression uses the same
operand order, and the coherences are numpy's complex exp of -1j * theta,
whose parts are the cos(theta) and sin(-theta) the compiled kernel calls.
The moment reduction (``column_moments``) works tile by tile as the
compiled one does: numpy sums over axis 0 row by row from 0.0, which is
the compiled loop's order, and the tiles merge in order by the same
pairwise update.  So both backends produce bit-identical output.  Each
kernel fills the outputs that ``rtdeph._kernels`` allocates.  Unlike the
compiled ``block_moments``, this one holds the block's (n, m) coherences
at once.
"""

from __future__ import annotations

import numpy as np


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
    n, k = switch_times.shape
    lvl0 = levels.astype(np.float64)

    if k == 0:
        np.multiply(lvl0[:, None], t_grid[None, :], out=out)
        return

    seg = np.arange(k)
    valid = np.isfinite(switch_times)
    # Finite stand-in for the +inf padding; padded segments are masked out.
    tau_fin = np.where(valid, switch_times, 0.0)
    prev = np.concatenate([np.zeros((n, 1)), tau_fin[:, :-1]], axis=1)
    seg_lvl = (levels[:, None] ^ (seg[None, :] & 1)).astype(np.float64)
    contrib = np.where(valid, seg_lvl * (tau_fin - prev), 0.0)
    # dwell[:, j] = time at the high level up to and including switch j
    dwell = np.concatenate([np.zeros((n, 1)), np.cumsum(contrib, axis=1)], axis=1)
    tau_ext = np.concatenate([np.zeros((n, 1)), switch_times], axis=1)

    for gi, t in enumerate(t_grid):
        j = (switch_times <= t).sum(axis=1)  # inf padding never counts
        dj = np.take_along_axis(dwell, j[:, None], axis=1)[:, 0]
        tj = np.take_along_axis(tau_ext, j[:, None], axis=1)[:, 0]
        lvl = (levels ^ (j & 1)).astype(np.float64)
        out[:, gi] = dj + lvl * (t - tj)


def levels_at_times(levels, switch_times, t_grid, out):
    """Level bit at each grid time per trajectory (parity of prior switches),
    into the uint8 array ``out`` of shape (n, m)."""
    if switch_times.shape[1] == 0:
        out[...] = levels[:, None]
        return
    for gi, t in enumerate(t_grid):
        j = (switch_times <= t).sum(axis=1)
        out[:, gi] = levels ^ (j & 1).astype(np.uint8)


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
    """``column_moments`` of the coherences exp(-i*v*dwell) of the batch on
    ``t_grid``, into the same four outputs."""
    dwell = np.empty((levels.shape[0], t_grid.shape[0]))
    dwell_times(levels, switch_times, t_grid, dwell)
    z = np.exp(-1j * (v * dwell))
    column_moments(z, tile, out_mean, out_m2, out_abs2_min, out_abs2_max)
