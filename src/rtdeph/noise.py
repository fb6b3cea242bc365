"""Symmetric random telegraph noise: model, sampling, and statistics.

The process xi(t) switches between 0 and an amplitude ``v`` with rate
``gamma/2`` in each direction (total switching rate ``gamma``).  Sampling is
exact and grid free: the level at t=0 is drawn from the stationary (1/2,
1/2) distribution and successive waiting times are exponential with mean
``2/gamma``.  ``gamma = 0`` encodes a frozen process that never switches.

Random streams: trajectories come in blocks of ``BLOCK``.  Block b draws
from one stream keyed by (master_seed, b), and trajectory i is lane
i % BLOCK of block i // BLOCK, so its identity is (seed, block, lane).  A
block samples all of its lanes at once in a few vectorized draws, always
in the same order, so a trajectory does not depend on which other
trajectories a batch holds, and a shorter horizon sees a prefix of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rtdeph import _kernels

#: Trajectories per random stream, and per block of the engine's pipeline.
BLOCK = 2048

#: Exponential waits drawn per lane in each sampling round; fixed, so that
#: the draws do not depend on the horizon.
_ROUND_WIDTH = 16


@dataclass(frozen=True)
class RTParams:
    """Telegraph-noise parameters: amplitude ``v`` and switching rate ``gamma``."""

    v: float
    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValueError(f"noise amplitude v must be finite and positive, got {self.v!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"switching rate gamma must be finite and >= 0, got {self.gamma!r}")

    @property
    def g(self) -> float:
        """Dimensionless coupling v/gamma; infinite in the static limit gamma=0."""
        return math.inf if self.gamma == 0.0 else self.v / self.gamma


@dataclass(frozen=True)
class RTTrajectory:
    """One realization of the telegraph path on [0, horizon].

    ``initial_level`` is the level bit at t=0 (1 means xi = v) and
    ``switch_times`` are the strictly increasing times in (0, horizon] at
    which the level flips.
    """

    initial_level: int
    switch_times: np.ndarray
    horizon: float

    def __post_init__(self):
        if self.initial_level not in (0, 1):
            raise ValueError(f"initial_level must be 0 or 1, got {self.initial_level!r}")
        if not (math.isfinite(self.horizon) and self.horizon >= 0.0):
            raise ValueError(f"horizon must be finite and >= 0, got {self.horizon!r}")
        times = np.asarray(self.switch_times, dtype=float)
        object.__setattr__(self, "switch_times", times)
        if times.ndim != 1:
            raise ValueError("switch_times must be 1-D")
        if times.size:
            if times[0] <= 0.0 or times[-1] > self.horizon:
                raise ValueError("switch times must lie in (0, horizon]")
            if np.any(np.diff(times) <= 0.0):
                raise ValueError("switch times must be strictly increasing")


@dataclass(frozen=True)
class TrajectoryBatch:
    """Batch of trajectories in padded-array form for the kernels.

    ``switch_times`` has one row per trajectory, padded with +inf beyond
    ``counts[i]`` entries.
    """

    levels: np.ndarray
    switch_times: np.ndarray
    counts: np.ndarray
    horizon: float

    @property
    def n(self) -> int:
        return self.levels.shape[0]

    def trajectory(self, i: int) -> RTTrajectory:
        """Row ``i`` as a single realization."""
        c = int(self.counts[i])
        return RTTrajectory(
            initial_level=int(self.levels[i]),
            switch_times=self.switch_times[i, :c].copy(),
            horizon=self.horizon,
        )


def _sample_block(params: RTParams, horizon: float, master_seed: int,
                  block: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels and +inf-padded switch times of all ``BLOCK`` lanes of one block.

    The levels come first from the block stream, then rounds of
    ``_ROUND_WIDTH`` exponential waits per lane, cumulated along each lane,
    until every lane has passed the horizon.  Neither the draws nor their
    order depend on the horizon, so a shorter horizon sees a prefix of the
    same lanes.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(block,))))
    levels = rng.integers(0, 2, size=BLOCK, dtype=np.uint8)
    if params.gamma == 0.0:
        return levels, np.empty((BLOCK, 0))
    scale = 2.0 / params.gamma
    rounds = []
    last = np.zeros(BLOCK)
    while last.min() <= horizon:
        times = rng.exponential(scale, size=(BLOCK, _ROUND_WIDTH))
        times[:, 0] += last
        np.cumsum(times, axis=1, out=times)
        rounds.append(times)
        last = times[:, -1]
    times = np.concatenate(rounds, axis=1)
    times[times > horizon] = np.inf
    return levels, times


def sample_batch(params: RTParams, horizon: float, n: int, master_seed: int,
                 start_index: int = 0) -> TrajectoryBatch:
    """Sample trajectories ``start_index`` to ``start_index + n - 1``.

    Trajectory ``i`` is lane ``i % BLOCK`` of block ``i // BLOCK``, and block
    ``b`` draws from its own stream keyed by ``(master_seed, b)``.  Every
    block is drawn whole and then sliced, so a trajectory is fixed by
    ``(master_seed, i)`` alone: batches are reproducible, and two batches
    sharing (seed, index) share realizations whatever their ``n``,
    ``start_index`` or block boundaries.  A longer horizon extends the same
    realizations.
    """
    if n < 1:
        raise ValueError(f"need at least one trajectory, got n={n}")
    if start_index < 0:
        raise ValueError(f"start_index must be >= 0, got {start_index}")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    stop = start_index + n
    levels, rows = [], []
    for block in range(start_index // BLOCK, (stop - 1) // BLOCK + 1):
        block_levels, block_times = _sample_block(params, horizon, master_seed, block)
        lanes = slice(max(start_index - block * BLOCK, 0), min(stop - block * BLOCK, BLOCK))
        levels.append(block_levels[lanes])
        rows.append(block_times[lanes])
    counts = np.concatenate([np.isfinite(r).sum(axis=1) for r in rows]).astype(np.intp)
    k = int(counts.max())
    # each block is as wide as its own lanes need; pad or trim all to k
    times = np.concatenate([
        np.pad(r[:, :k], ((0, 0), (0, k - min(k, r.shape[1]))), constant_values=np.inf)
        for r in rows
    ])
    return TrajectoryBatch(levels=np.concatenate(levels), switch_times=times, counts=counts,
                           horizon=horizon)


def _check_query_time(traj: RTTrajectory, t: float) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0 or t > traj.horizon:
        raise ValueError(f"query time {t!r} outside [0, {traj.horizon!r}]")
    return t


def level_at(traj: RTTrajectory, t: float, v: float = 1.0) -> float:
    """Noise value at time t: v times the level bit (parity of prior switches)."""
    t = _check_query_time(traj, t)
    flips = int(np.searchsorted(traj.switch_times, t, side="right"))
    return v * (traj.initial_level ^ (flips & 1))


def accumulated_phase(traj: RTTrajectory, t: float, v: float = 1.0) -> float:
    """Integral of the noise over [0, t]: v times the dwell time at the high level.

    Computed exactly from the switch times, with no time-grid error.
    """
    t = _check_query_time(traj, t)
    cuts = np.minimum(np.concatenate([[0.0], traj.switch_times, [np.inf]]), t)
    seg = np.diff(cuts)
    lvl = (traj.initial_level ^ (np.arange(seg.size) & 1)).astype(float)
    return v * float(lvl @ seg)


@dataclass(frozen=True)
class AutocorrelationResult:
    """Monte Carlo autocorrelation estimates with standard errors."""

    lags: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    n_samples: int = field(default=0)


def estimate_autocorrelation(params: RTParams, lags, n_samples: int, master_seed: int,
                             start_index: int = 0) -> AutocorrelationResult:
    """Estimate the normalized autocorrelation of the telegraph process.

    Uses the mean-centered process (xi - v/2), for which the normalized
    autocorrelation of the symmetric telegraph process is exp(-gamma*tau);
    the raw second-moment ratio of the {0, v} process would saturate at 1/2
    instead of decaying to zero.  Each sample is an independent stationary
    realization; the per-sample product of centered signs at lag 0 and lag
    tau averages to the estimate, with ddof=1 standard errors.  The samples
    are trajectories ``start_index`` onward of ``sample_batch``.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got n_samples={n_samples}")
    lag_arr = np.asarray(lags, dtype=float)
    if lag_arr.ndim != 1:
        raise ValueError("lags must be 1-D")
    if lag_arr.size == 0:
        return AutocorrelationResult(lag_arr, np.empty(0), np.empty(0), n_samples)
    if not np.all(np.isfinite(lag_arr)) or np.any(lag_arr < 0.0):
        raise ValueError("lags must be finite and non-negative")

    horizon = float(lag_arr.max())
    if horizon == 0.0:
        ones = np.ones_like(lag_arr)
        return AutocorrelationResult(lag_arr, ones, np.zeros_like(lag_arr), n_samples)

    batch = sample_batch(params, horizon, n_samples, master_seed, start_index=start_index)
    order = np.argsort(lag_arr, kind="stable")
    bits = _kernels.levels_at_times(batch.levels, batch.switch_times, lag_arr[order])
    bits = bits[:, np.argsort(order, kind="stable")]
    s0 = 2.0 * batch.levels.astype(float) - 1.0
    products = s0[:, None] * (2.0 * bits.astype(float) - 1.0)
    estimates = products.mean(axis=0)
    if n_samples > 1:
        stderrs = products.std(axis=0, ddof=1) / math.sqrt(n_samples)
    else:
        stderrs = np.zeros_like(estimates)
    return AutocorrelationResult(lag_arr, estimates, stderrs, n_samples)
