"""Symmetric random telegraph noise: model, sampling, and statistics.

The process xi(t) switches between 0 and an amplitude ``v`` with rate
``gamma/2`` in each direction (total switching rate ``gamma``).  Sampling is
exact and grid free: the level at t=0 is drawn from the stationary (1/2,
1/2) distribution and the switches form a Poisson process of rate
``gamma/2``.  ``gamma = 0`` encodes a frozen process that never switches.

Random streams: every draw is a Philox4x32-10 block keyed by the 64-bit
master seed at a counter (trajectory i, epoch e, draw j), so trajectory i is
fixed by (seed, i) alone, whatever batch holds it.  Time is cut into epochs
of a fixed length L = 2*mu/gamma (mu = ``_kernels.EPOCH_SWITCHES``), and
epoch e holds a Poisson(mu) number of switches placed as sorted uniforms in
[e*L, (e + 1)*L).  L does not depend on the horizon, so a shorter horizon
sees a prefix of the same trajectory.  Nor do the draws depend on gamma:
in epoch units a switch is at x = e + u, and at rate gamma at x*L.  The
compiled kernel and the numpy fallback draw the same bits
(``_kernels.sample``), and nothing draws from ``numpy.random``.

Every sampled pass goes through one block stream (``stream``): blocks of
``BLOCK`` consecutive trajectories are drawn and reduced on a thread pool,
and each coupling's reductions are added in block order.  Each block is
drawn once in epoch units (``draw_epochs``), for the most epochs any
coupling of the pass needs, and each coupling's batch is a view of those
draws with its own epoch length (``sample_batch``): the batch kernels form
a switch time x*L where they read it and read none past the coupling's
horizon.  So the couplings of one pass share their trajectories, common
random numbers: their Monte Carlo errors are correlated, and checks made
per coupling are not independent tests.  The ensemble, the recovery report and the
autocorrelation estimate all take these block-order totals, so memory is
bounded by one block's draws and two blocks' results per thread, and
results do not depend on the thread count.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from rtdeph import _kernels

#: Trajectories per block of the block stream (``stream``).
BLOCK = 2048


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
class TrajectoryBatch:
    """Batch of trajectories on [0, horizon] in the form the kernels take.

    ``levels`` are the level bits at t = 0.  ``times`` has one row per
    trajectory: its switch times in epoch units, sorted and padded with
    +inf, possibly past the horizon; switch j of row i is at ``times[i, j]
    * scale``.  A batch of a pass is a view of the pass's draws
    (``sample_batch``).  ``switch_times`` and ``counts`` are derived, on
    first use, by the numpy kernels' own cut (``_kernels._reference.cut``):
    the switch times up to the horizon, padded with +inf to the widest
    row's count, and the count per row.  No pass reads them, since the
    kernels take ``times`` and ``scale``; they serve inspection of a batch.
    """

    levels: np.ndarray
    times: np.ndarray
    scale: float
    horizon: float

    @property
    def n(self) -> int:
        return self.levels.shape[0]

    @functools.cached_property
    def _cut(self):
        return _kernels._reference.cut(self.times, self.scale, self.horizon)

    @property
    def switch_times(self) -> np.ndarray:
        """The switch times up to the horizon, one row per trajectory,
        padded with +inf to the widest row's count."""
        return self._cut[0]

    @property
    def counts(self) -> np.ndarray:
        """The number of switches up to the horizon per row."""
        return self._cut[1]


@dataclass(frozen=True)
class EpochDraws:
    """The draws of trajectories ``start_index`` to ``start_index + n - 1``
    in epoch units, which serve every switching rate (``sample_batch``).

    ``levels`` are the level bits at t = 0.  Row i of ``epoch_times`` holds
    the times x = e + u of epochs 0 to ``epochs`` - 1, sorted and padded
    with +inf.
    """

    master_seed: int
    start_index: int
    epochs: int
    levels: np.ndarray
    epoch_times: np.ndarray

    @property
    def n(self) -> int:
        return self.levels.shape[0]


def _check_indices(master_seed: int, start_index: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"need at least one trajectory, got n={n}")
    if start_index < 0:
        raise ValueError(f"start_index must be >= 0, got {start_index}")
    if start_index + n > 2**64:
        raise ValueError("trajectory indices must stay below 2**64")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must be in [0, 2**64), got {master_seed}")


def draw_epochs(master_seed: int, start_index: int, n: int, epochs: int) -> EpochDraws:
    """The draws of trajectories ``start_index`` to ``start_index + n - 1``
    for their epochs 0 to ``epochs`` - 1 (``rtdeph._kernels.sample``)."""
    _check_indices(master_seed, start_index, n)
    levels, x = _kernels.sample(master_seed, start_index, n, epochs)
    return EpochDraws(master_seed=master_seed, start_index=start_index, epochs=epochs,
                      levels=levels, epoch_times=x)


def sample_batch(params: RTParams, horizon: float, n: int, master_seed: int,
                 start_index: int = 0, draws: EpochDraws | None = None) -> TrajectoryBatch:
    """Sample trajectories ``start_index`` to ``start_index + n - 1``.

    Trajectory ``i`` draws only from the counters (i, epoch, draw) of the
    stream keyed by ``master_seed`` (``rtdeph._kernels.sample``), so it is
    fixed by ``(master_seed, i)`` alone: batches are reproducible, and two
    batches sharing (seed, index) share realizations whatever their ``n``
    or ``start_index``.  A longer horizon extends the same realizations.

    The draws do not depend on ``params``: the batch is a view of ``draws``,
    made once for several rates (``draw_epochs``), with the epoch length L
    of this rate, or of draws made here when none are passed.  A static
    process (gamma = 0) sees no switch time.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    epochs, scale = _kernels.epoch_grid(params.gamma, horizon)
    if draws is None:
        draws = draw_epochs(master_seed, start_index, n, epochs)
    elif ((draws.master_seed, draws.start_index, draws.n) != (master_seed, start_index, n)
            or draws.epochs < epochs):
        raise ValueError("the draws do not hold these trajectories up to the horizon")
    times = draws.epoch_times
    if params.gamma == 0.0:
        # no switch at all, and 1.0 stands in for the infinite epoch length
        times, scale = times[:, :0], 1.0
    return TrajectoryBatch(levels=draws.levels, times=times, scale=scale, horizon=horizon)


def stream(couplings, n: int, master_seed: int, start_index: int = 0,
           n_threads: int = 1) -> list:
    """Per coupling of ``couplings``, a non-empty sequence of (params,
    horizon, reduce), its ``reduce(batch)`` summed over the blocks of
    trajectories ``start_index`` to ``start_index + n - 1``.

    Block b holds the next ``BLOCK`` trajectories from ``start_index + b*BLOCK``
    (the last block may be shorter).  Its draws are made once
    (``draw_epochs``), for the most epochs any coupling needs, and each
    coupling reduces its view of them up to its horizon (``sample_batch``).
    Every coupling thus sees the same realizations: their results share
    their Monte Carlo errors and are not independent.  ``n_threads``
    threads map over whole blocks, at most two blocks per thread in
    flight, so memory does not grow with ``n``.  Each coupling's block
    results are added in block order as they are collected, the left fold
    (b0 + b1) + b2 + ..., so the totals do not depend on the thread count.
    The fold adds in place into the first block's result, so a reduce
    returns a fresh array.  The indices, the couplings and their epoch
    counts are checked before anything is drawn.
    """
    _check_indices(master_seed, start_index, n)
    couplings = tuple(couplings)
    if not couplings:
        raise ValueError("need at least one coupling")
    epochs = max(_kernels.epoch_grid(params.gamma, horizon)[0]
                 for params, horizon, _ in couplings)

    def one_block(start):
        count = min(BLOCK, start_index + n - start)
        draws = draw_epochs(master_seed, start, count, epochs)
        return [reduce(sample_batch(params, horizon, count, master_seed, start_index=start,
                                    draws=draws))
                for params, horizon, reduce in couplings]

    workers = max(1, n_threads)
    starts = iter(range(start_index, start_index + n, BLOCK))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque(pool.submit(one_block, start)
                                    for start in itertools.islice(starts, 2 * workers))
        totals = None
        while pending:
            results = pending.popleft().result()
            pending.extend(pool.submit(one_block, start) for start in itertools.islice(starts, 1))
            if totals is None:
                totals = results
            else:
                for total, result in zip(totals, results):
                    total += result
    return totals


@dataclass(frozen=True)
class AutocorrelationResult:
    """Monte Carlo autocorrelation estimates with standard errors."""

    lags: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    n_samples: int


def _check_lags(lags) -> np.ndarray:
    """``lags`` as a float array, which must be 1-D, finite and non-negative."""
    lag_arr = np.asarray(lags, dtype=float)
    if lag_arr.ndim != 1:
        raise ValueError("lags must be 1-D")
    if not np.all(np.isfinite(lag_arr)) or np.any(lag_arr < 0.0):
        raise ValueError("lags must be finite and non-negative")
    return lag_arr


def estimate_autocorrelation(params: RTParams, lags, n_samples: int, master_seed: int,
                             start_index: int = 0, n_threads: int = 1) -> AutocorrelationResult:
    """Estimate the normalized autocorrelation of the telegraph process.

    Uses the mean-centered process (xi - v/2), for which the normalized
    autocorrelation of the symmetric telegraph process is exp(-gamma*tau);
    the raw second-moment ratio of the {0, v} process would saturate at 1/2
    instead of decaying to zero.  Each sample is an independent stationary
    realization; the per-sample product of centered signs at lag 0 and lag
    tau averages to the estimate r.  The products are +-1, so their ddof=1
    standard error is sqrt((1 - r**2)/(n - 1)), from r alone.  The samples
    are trajectories ``start_index`` onward, taken block by block from
    ``stream`` on ``n_threads`` threads; each block gives its integer count
    of level flips per lag, so memory does not grow with ``n_samples`` and
    the result does not depend on the thread count.
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got n_samples={n_samples}")
    lag_arr = _check_lags(lags)
    if lag_arr.size == 0:
        return AutocorrelationResult(lag_arr, np.empty(0), np.empty(0), n_samples)

    horizon = float(lag_arr.max())
    if horizon == 0.0:
        ones = np.ones_like(lag_arr)
        return AutocorrelationResult(lag_arr, ones, np.zeros_like(lag_arr), n_samples)

    order = np.argsort(lag_arr, kind="stable")
    sorted_lags = lag_arr[order]

    def flips(batch):
        bits = _kernels.levels_at_times(batch.levels, batch.times, sorted_lags,
                                        scale=batch.scale)
        return np.count_nonzero(bits != batch.levels[:, None], axis=0)

    (counts,) = stream([(params, horizon, flips)], n_samples, master_seed,
                       start_index=start_index, n_threads=n_threads)
    counts = counts[np.argsort(order, kind="stable")]
    # a product of centered signs is -1 where the level differs from its
    # value at t = 0 and +1 elsewhere, so the products add up to n - 2*flips
    estimates = (n_samples - 2.0 * counts) / n_samples
    if n_samples > 1:
        # products of +-1 have sum of squares n: the ddof=1 variance is
        # n*(1 - r**2)/(n - 1), so the standard error follows from r alone
        stderrs = np.sqrt((1.0 - estimates) * (1.0 + estimates) / (n_samples - 1))
    else:
        stderrs = np.zeros_like(estimates)
    return AutocorrelationResult(lag_arr, estimates, stderrs, n_samples)
