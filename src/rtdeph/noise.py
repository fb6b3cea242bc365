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
``BLOCK`` consecutive trajectories are drawn and reduced by workers, the
calling thread and the threads it starts, and each coupling's reductions
are added in block order.  Each block is drawn once in epoch units
(``draw_epochs``) up to the widest cut of the couplings of the pass
(``_kernels.epoch_grid``), which alone sets the epochs drawn, and each
coupling's batch is a view of those draws with its own epoch length
(``sample_batch``): the batch kernels form a switch time x*L where they
read it and read none past the coupling's horizon.  So the couplings of one pass that start at the same trajectory
share their trajectories, common random numbers: their Monte Carlo errors
are correlated, and checks made per coupling are not independent tests.
The autocorrelation estimate gives each coupling its own trajectories in
the same pass.  The ensemble, the recovery report and the
autocorrelation estimate all take these block-order totals, so memory is
bounded by one block's draws and two blocks' results per thread, and
results do not depend on the thread count.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from threading import Condition, Thread

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
    first use, by the numpy kernels' own cut (``_kernels._reference.cut``,
    imported then): the switch times up to the horizon, padded with +inf to
    the widest row's count, and the count per row.  No pass reads them,
    since the kernels take ``times`` and ``scale``; they serve inspection
    of a batch.
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
        from rtdeph._kernels import _reference

        return _reference.cut(self.times, self.scale, self.horizon)

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
    the times x = e + u at or below ``cut``, of epochs 0 to floor(cut),
    sorted and padded with +inf: they serve every horizon whose cut
    (``_kernels.epoch_grid``) is at most ``cut``.
    """

    master_seed: int
    start_index: int
    cut: float
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


def draw_epochs(master_seed: int, start_index: int, n: int, cut: float) -> EpochDraws:
    """The draws of trajectories ``start_index`` to ``start_index + n - 1``
    up to ``cut`` in epoch units, which must be below 2**32: the times of
    their epochs 0 to floor(cut) at or below it (``rtdeph._kernels.sample``)."""
    _check_indices(master_seed, start_index, n)
    levels, x = _kernels.sample(master_seed, start_index, n, cut)
    return EpochDraws(master_seed=master_seed, start_index=start_index, cut=cut,
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
    of this rate, or of draws made here, cut at the horizon, when none are
    passed.  Draws cut below the horizon's cut (``_kernels.epoch_grid``)
    are refused.  A static process (gamma = 0) sees no switch time.
    """
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon!r}")
    scale, cut = _kernels.epoch_grid(params.gamma, horizon)
    if draws is None:
        draws = draw_epochs(master_seed, start_index, n, cut)
    elif ((draws.master_seed, draws.start_index, draws.n) != (master_seed, start_index, n)
            or draws.cut < cut):
        raise ValueError("the draws do not hold these trajectories up to the horizon")
    times = draws.epoch_times
    if params.gamma == 0.0:
        # no switch at all, and 1.0 stands in for the infinite epoch length
        times, scale = times[:, :0], 1.0
    return TrajectoryBatch(levels=draws.levels, times=times, scale=scale, horizon=horizon)


def stream(couplings, n: int, master_seed: int, start_index=0, n_threads: int = 1) -> list:
    """Per coupling of ``couplings``, a non-empty sequence of (params,
    horizon, reduce), its ``reduce(batch)`` summed over the blocks of its
    trajectories, ``first`` to ``first + n - 1``: ``start_index`` is the
    first index of every coupling, or a sequence of one per coupling.

    A coupling's block b holds the next ``BLOCK`` trajectories from
    ``first + b*BLOCK`` (the last block may be shorter), whatever the other
    couplings are, so its total is that of a pass with it alone, bit for
    bit.  Couplings with the same first index share their blocks: each is
    drawn once (``draw_epochs``) up to the widest of their cuts
    (``_kernels.epoch_grid``), which draws the most epochs any of them
    needs, and each reduces its view of the draws up to its horizon
    (``sample_batch``).
    They see the same realizations: their results share their Monte Carlo
    errors and are not independent.

    ``n_threads`` workers, and no more than the pass has blocks, take the
    blocks in turn, first index by first index.  The calling thread is
    worker 0: it starts one thread fewer than the workers, runs blocks like
    them and joins them.  A worker takes a block only while fewer than two
    blocks per worker are taken and not yet added, so each thread holds one
    block's draws, at most two blocks' results per worker wait, and memory
    does not grow with ``n``.  Each coupling's block results are added in
    block order as soon as the earlier blocks are in, the left fold
    (b0 + b1) + b2 + ..., so the totals do not depend on the thread count.
    The fold adds in place into the first block's result, so a reduce
    returns a fresh array.  The first exception of a worker, the caller's
    own blocks included, stops the others from taking a block, and the
    caller raises it once they are joined.  The indices, the couplings and
    their cuts are checked before anything is drawn.
    """
    couplings = tuple(couplings)
    firsts = ((start_index,) * len(couplings) if isinstance(start_index, numbers.Integral)
              else tuple(start_index))
    if not couplings:
        raise ValueError("need at least one coupling")
    if len(firsts) != len(couplings):
        raise ValueError(f"need one start index per coupling, got {len(firsts)} for "
                         f"{len(couplings)}")
    groups = {}
    for j, first in enumerate(firsts):
        groups.setdefault(first, []).append(j)
    for first in groups:
        _check_indices(master_seed, first, n)
    cuts = [_kernels.epoch_grid(params.gamma, horizon)[1] for params, horizon, _ in couplings]

    def blocks():
        for first, group in groups.items():
            cut = max(cuts[j] for j in group)
            for start in range(first, first + n, BLOCK):
                yield start, min(BLOCK, first + n - start), cut, group

    def one_block(start, count, cut, group):
        draws = draw_epochs(master_seed, start, count, cut)
        return [(j, couplings[j][2](sample_batch(couplings[j][0], couplings[j][1], count,
                                                 master_seed, start_index=start, draws=draws)))
                for j in group]

    # no more workers than the pass has blocks: a thread with no block to
    # run would only be started and joined
    workers = max(1, min(n_threads, len(groups) * -(-n // BLOCK)))
    pending = blocks()
    totals = [None] * len(couplings)
    ready = {}  # reduced blocks that wait for an earlier one, by block number
    taken = folded = 0
    failed = []
    lock = Condition()

    def stop(exc):
        with lock:
            failed.append(exc)
            lock.notify_all()

    def work():
        nonlocal taken, folded
        try:
            while True:
                with lock:
                    # at most two blocks per worker taken and not yet folded
                    while taken - folded >= 2 * workers and not failed:
                        lock.wait()
                    block = next(pending, None)
                    if failed or block is None:
                        return
                    b, taken = taken, taken + 1
                results = one_block(*block)
                with lock:
                    ready[b] = results
                    while folded in ready:
                        for j, result in ready.pop(folded):
                            if totals[j] is None:
                                totals[j] = result
                            else:
                                totals[j] += result
                        folded += 1
                    lock.notify_all()
        except BaseException as exc:
            stop(exc)

    threads = []
    try:
        for _ in range(workers - 1):
            thread = Thread(target=work)
            thread.start()
            threads.append(thread)
        work()  # the calling thread is worker 0
        for thread in threads:
            thread.join()
    except BaseException as exc:
        # a thread that cannot start, or an interrupt, ends the pass: the
        # workers take no new block
        stop(exc)
        for thread in threads:
            thread.join()
        raise
    if failed:
        raise failed[0]
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


def _flips(sorted_lags: np.ndarray, batch: TrajectoryBatch) -> np.ndarray:
    """Per lag of ``sorted_lags``, the number of the batch's rows whose
    level there differs from their level at t = 0."""
    bits = _kernels.levels_at_times(batch.levels, batch.times, sorted_lags, scale=batch.scale)
    # compared and summed lag by lag on contiguous rows: counting down the
    # columns of the (n, m) bits strides across every row, some 4x slower
    return (np.ascontiguousarray(bits.T) != batch.levels).sum(axis=1)


def estimate_autocorrelation(params, lags, n_samples: int, master_seed: int,
                             start_index: int = 0,
                             n_threads: int = 1) -> list[AutocorrelationResult]:
    """Estimate the normalized autocorrelation of the telegraph process, for
    each ``RTParams`` of the sequence ``params`` at its own lags: ``lags``
    holds one 1-D sequence of lags per coupling.

    Uses the mean-centered process (xi - v/2), for which the normalized
    autocorrelation of the symmetric telegraph process is exp(-gamma*tau);
    the raw second-moment ratio of the {0, v} process would saturate at 1/2
    instead of decaying to zero.  Each sample is an independent stationary
    realization; the per-sample product of centered signs at lag 0 and lag
    tau averages to the estimate r.  The products are +-1, so their ddof=1
    standard error is sqrt((1 - r**2)/(n - 1)), from r alone.  Coupling j
    takes its own samples, trajectories ``start_index + j*n_samples``
    onward, so its result equals that of a call with it alone at that start
    index, bit for bit.  Every coupling is sampled block by block in one
    ``stream`` pass on ``n_threads`` threads, and each block gives its
    integer count of level flips per lag, so memory does not grow with
    ``n_samples`` and the results do not depend on the thread count.  A
    coupling whose lags are all 0, or that has none, draws nothing.  Every
    coupling's lags and indices are checked before anything is drawn.
    """
    params = tuple(params)
    lag_sets = [_check_lags(lag_list) for lag_list in lags]
    if not params:
        raise ValueError("need at least one coupling")
    if len(lag_sets) != len(params):
        raise ValueError(f"need one lag sequence per coupling, got {len(lag_sets)} for "
                         f"{len(params)}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got n_samples={n_samples}")
    _check_indices(master_seed, start_index, n_samples * len(params))

    # each coupling's distinct lags, ascending, and the map back to its own
    grids = [np.unique(lag_arr, return_inverse=True) for lag_arr in lag_sets]
    sampled = [j for j, lag_arr in enumerate(lag_sets) if lag_arr.size and lag_arr.max() > 0.0]
    flips = [np.zeros(lag_arr.size, dtype=np.intp) for lag_arr in lag_sets]
    if sampled:
        couplings = [(params[j], float(grids[j][0][-1]), functools.partial(_flips, grids[j][0]))
                     for j in sampled]
        counts = stream(couplings, n_samples, master_seed,
                        start_index=[start_index + j * n_samples for j in sampled],
                        n_threads=n_threads)
        for j, count in zip(sampled, counts):
            flips[j] = count[grids[j][1]]
    return [_autocorrelation(lag_arr, count, n_samples) for lag_arr, count in zip(lag_sets, flips)]


def _autocorrelation(lag_arr: np.ndarray, flips: np.ndarray, n: int) -> AutocorrelationResult:
    """The estimates at the lags of n samples from their level flips per lag."""
    # a product of centered signs is -1 where the level differs from its
    # value at t = 0 and +1 elsewhere, so the products add up to n - 2*flips
    estimates = (n - 2.0 * flips) / n
    if n > 1:
        # products of +-1 have sum of squares n: the ddof=1 variance is
        # n*(1 - r**2)/(n - 1), so the standard error follows from r alone
        stderrs = np.sqrt((1.0 - estimates) * (1.0 + estimates) / (n - 1))
    else:
        stderrs = np.zeros_like(estimates)
    return AutocorrelationResult(lag_arr, estimates, stderrs, n)
