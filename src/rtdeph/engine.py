"""Monte Carlo ensembles of the dephasing qubit pair and their recovery.

The qubits are taken in their rotating frame, where the Hamiltonian is
the noise term alone; it is diagonal in each telegraph realization, so the
initial Bell state evolves in closed form to (|00> + exp(-i*theta)|11>)/sqrt(2),
theta being the noise phase integral v*dwell.  No time stepping, hence no
integration error.  Every such state is maximally entangled, so the
average entanglement E_av is 1 and the hidden entanglement is 1 - E_f.
The engine never forms these states: the per-trajectory coherences
exp(-i*v*dwell) average to the Monte Carlo estimate of the analytic
coherence factor q, which fixes the averaged state: the |00><11| corner of
that state is conj(q)/2, its concurrence is |q| and its E_f follows.

Ensembles and recovery reports take their trajectories from the block
stream ``noise.stream``, which reduces each block on its own, on the
calling thread and the worker threads it starts, and adds the block
results in block order.  ``run_ensemble`` and
``recovery_report`` take a sequence of noise parameters, one per coupling,
and the seed and trajectory count once, and one pass serves every
coupling: each block is drawn once and each coupling reduces its view of
the draws, with its own epoch length, up to its own last time, so each
result equals its one-coupling call bit for bit.  The couplings of a pass
share their realizations (common random numbers): their Monte Carlo errors
are correlated, and per-coupling checks on them are not independent tests.

For an ensemble one backend call (``_kernels.block_sums``) turns a
block's switch times into difference arrays of its coherences
z = exp(-i*v*dwell) on the grid, shifted by their t = 0 value 1: between
two switches a row's coherence is a constant or a constant times a grid
factor, so each stretch between switches is added once and no (n, m)
array is formed.  The blocks'
difference arrays are added in block order, and one prefix sum over the
total (``_kernels.column_sums``) gives the column sums of the coherences
and of their squares, from which follow the mean and the sums of squared
deviations.  Recovery needs only two means, of the coherences at the
revival time without and with the phase correction, so each block gives
their two sums, added in block order.  Memory does not grow with the
number of trajectories, and there is no cap on the ensemble size.  The
concurrence of an averaged ensemble is min(|q|, 1), q its mean coherence.

Reproducibility contract: trajectory i is fixed by (master_seed, i) alone,
its draws being keyed by counters (``noise.sample_batch``); the blocks of
``noise.BLOCK`` trajectories and their merge order do not depend on the
thread count, so results are bit-identical for any thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from rtdeph import _kernels, noise, states

_TWO_PI = 2.0 * math.pi


def _check_grid(t_grid) -> np.ndarray:
    """``t_grid`` as a float array of times (``_kernels._check_times``),
    which must be a non-empty, strictly increasing 1-D grid that ends after
    t = 0."""
    grid = _kernels._check_times(t_grid, "t_grid")
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    if grid[-1] <= 0.0:
        raise ValueError("t_grid must extend beyond t = 0")
    return grid


@dataclass(frozen=True)
class EnsembleResult:
    """Per-grid-time Monte Carlo estimates of one coupling.

    ``q_mean`` is the mean of the per-trajectory coherence factors
    exp(-i * integral of xi); the |00><11| corner of the averaged state is
    conj(q_mean)/2.  Its standard errors are ddof=1 sample deviations over
    sqrt(n).  ``e_f`` is the entanglement of
    formation of the averaged state, with its delta-method standard error
    ``e_f_se``.  Every realization keeps |z| = 1, so every trajectory state
    is maximally entangled, the average entanglement is 1, and the hidden
    entanglement ``e_h`` is 1 - E_f.
    """

    t_grid: np.ndarray
    q_mean: np.ndarray
    q_se_re: np.ndarray
    q_se_im: np.ndarray
    e_f: np.ndarray
    e_f_se: np.ndarray
    e_h: np.ndarray


def _correction_phase(theta, n: int):
    """Leftover noise phase at the revival time t_n, which recovery undoes."""
    return theta - _TWO_PI * n


def _ef_derivative(c: np.ndarray) -> np.ndarray:
    """d E_f / dC = (C/2s) log2((1 + s)/(1 - s)), s = sqrt(1 - C^2), at each
    concurrence C, with the continuous limits 0 at C=0 and 1/ln2 at C=1.
    (1 + s)/(1 - s) is taken as 1 + 2s(1 + s)/C^2, so that small C, whose
    1 - s cancels (and is 0 below C ~ 1e-8), keeps its digits."""
    inside = (c > 0.0) & (c < 1.0)
    x = np.where(inside, c, 0.5)
    s = np.sqrt(1.0 - x * x)
    slope = (x / s) * np.log1p(2.0 * s * (1.0 + s) / (x * x)) / (2.0 * math.log(2.0))
    return np.where(inside, slope, np.where(c >= 1.0, 1.0 / math.log(2.0), 0.0))


def _moments(n: int, d: np.ndarray, t_grid, v: float):
    """The mean of (Re z, Im z) over the n coherences whose difference
    arrays add up to ``d``, and their sums of squared deviations M2, each
    (m, 2): (1 + s_re/n, s_im/n) and max(q - s**2/n, 0), exactly 0 for
    n = 1, from the column sums s and q (``_kernels.column_sums``)."""
    s, q = _kernels.column_sums(d, t_grid, v)
    mean = s / n
    mean[:, 0] += 1.0
    if n == 1:
        return mean, np.zeros_like(s)
    return mean, np.maximum(q - np.square(s) / n, 0.0)


def _block_sums(t_grid: np.ndarray, v: float, batch: noise.TrajectoryBatch) -> np.ndarray:
    return _kernels.block_sums(batch.levels, batch.times, t_grid, v, scale=batch.scale)


def run_ensemble(params, t_grid, n_trajectories: int, master_seed: int,
                 n_threads: int = 1) -> list[EnsembleResult]:
    """Average an ensemble of noise realizations over ``t_grid``, for each
    ``RTParams`` of the sequence ``params``.

    For each grid time this produces the mean coherence with standard
    errors, the entanglement of formation of the averaged state, and the
    hidden entanglement 1 - E_f.  Trajectories 0 to ``n_trajectories`` - 1
    of the streams keyed by ``master_seed`` serve every coupling in one
    pass over the blocks: each result equals that of a call with its
    coupling alone, bit for bit, and the results share their realizations.
    The grid is checked before anything is drawn.  Deterministic given the
    seed, independent of ``n_threads``.
    """
    grid = _check_grid(t_grid)
    couplings = [(p, float(grid[-1]), functools.partial(_block_sums, grid, p.v)) for p in params]
    totals = noise.stream(couplings, n_trajectories, master_seed, n_threads=n_threads)
    return [_ensemble(n_trajectories, grid, p.v, d) for (p, _, _), d in zip(couplings, totals)]


def _ensemble(n: int, t_grid: np.ndarray, v: float, d: np.ndarray) -> EnsembleResult:
    """The ensemble result of n trajectories at amplitude ``v`` from their
    difference arrays ``d`` (``_kernels.block_sums``, added over all
    blocks)."""
    mean, m2 = _moments(n, d, t_grid, v)
    q_mean = mean.view(np.complex128)[:, 0]
    q_se = np.sqrt(m2 / max(n - 1, 1)) / math.sqrt(n)

    q_abs = np.abs(q_mean)
    concurrence = np.minimum(q_abs, 1.0)
    se_c = np.where(
        q_abs > 0.0,
        np.sqrt(np.square(mean * q_se).sum(axis=1)) / np.where(q_abs > 0.0, q_abs, 1.0),
        q_se.max(axis=1),
    )
    e_f = states.entanglement_of_formation(concurrence)
    e_f_se = _ef_derivative(concurrence) * se_c

    return EnsembleResult(
        t_grid=t_grid,
        q_mean=q_mean,
        q_se_re=q_se[:, 0],
        q_se_im=q_se[:, 1],
        e_f=e_f,
        e_f_se=e_f_se,
        e_h=1.0 - e_f,
    )


@dataclass(frozen=True)
class RecoveryReport:
    """Ensemble concurrence at a revival time, before and after recovery."""

    t_n: float
    revival_index: int
    concurrence_before: float
    concurrence_after: float


def _revival_sums(v: float, n: int, batch: noise.TrajectoryBatch) -> np.ndarray:
    """The sums of the batch's coherences at its horizon, the revival time
    t_n = 2*pi*n/v of its coupling, uncorrected and corrected.  The states
    |00> + z|11> are carried without the common 1/sqrt(2); a corrected
    state's coherence is its |11> over its |00> amplitude.
    exp(-i*vartheta/2*sigma_z) on qubit A multiplies |00> by h =
    exp(-i*vartheta/2) and |11> by conj(h), so the ratio is
    conj(h)*z*conj(h).  z and h are ``block_sums``' phase factor
    (``_kernels.exp_minus_i``)."""
    theta = v * _kernels.dwell_times(batch.levels, batch.times, [batch.horizon],
                                     scale=batch.scale)[:, 0]
    z = _kernels.exp_minus_i(theta)
    h_conj = np.conj(_kernels.exp_minus_i(0.5 * _correction_phase(theta, n)))
    return np.array([z.sum(), (h_conj * z * h_conj).sum()])


def recovery_report(params, n: int, n_trajectories: int, master_seed: int,
                    n_threads: int = 1) -> list[RecoveryReport]:
    """Concurrence of the averaged ensemble at t_n = 2*pi*n/v, with and
    without the per-trajectory phase correction, for each ``RTParams`` of
    the sequence ``params``.

    Uses the same trajectory streams and blocks as ``run_ensemble`` for the
    same seed and count, and like it serves every coupling from one pass
    over the blocks.  Each block computes the noise phase theta(t_n) once
    (``_kernels.dwell_times``) and sums its uncorrected coherences
    exp(-i*theta) and its corrected ones.  The correction is the local
    unitary exp(-i*vartheta/2*sigma_z) on the noisy qubit, with vartheta =
    theta(t_n) - 2*pi*n the leftover phase of the trajectory, so every
    corrected state is maximally entangled again.  Knowing vartheta takes
    the realization: that classical record is what turns hidden
    entanglement back into usable entanglement.  The block sums are added
    in block order, and the ensemble coherences are their means.
    """
    if n < 1:
        raise ValueError(f"revival index must be >= 1, got {n}")
    couplings = [(p, _TWO_PI * n / p.v, functools.partial(_revival_sums, p.v, n)) for p in params]
    totals = noise.stream(couplings, n_trajectories, master_seed, n_threads=n_threads)
    reports = []
    for (_, t_n, _), total in zip(couplings, totals):
        before, after = np.minimum(np.abs(total / n_trajectories), 1.0)
        reports.append(RecoveryReport(t_n=t_n, revival_index=n,
                                      concurrence_before=float(before),
                                      concurrence_after=float(after)))
    return reports
