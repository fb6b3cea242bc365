import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtdeph import _kernels, noise
from rtdeph._kernels import _reference

from _oracles import dwell, level_bit, riemann_phase

#: Property tests draw their examples from a fixed sequence, so the suite
#: stays deterministic.
stream_settings = settings(derandomize=True, database=None, max_examples=25, deadline=None)


def lane(params, horizon, seed=0, index=0):
    """(level bit, switch times up to the horizon) of trajectory ``index``
    of the batch streams of ``seed``, sampled alone."""
    batch = noise.sample_batch(params, horizon, 1, seed, start_index=index)
    return int(batch.levels[0]), batch.switch_times[0]


def one_path(level, switch_times, horizon, scale=1.0):
    """A batch of one path: level bit ``level`` at t = 0 and a switch at
    each of ``switch_times`` times ``scale``."""
    return noise.TrajectoryBatch(levels=np.array([level], dtype=np.uint8),
                                 times=np.array(switch_times, dtype=float).reshape(1, -1),
                                 scale=scale, horizon=horizon)


def level_of(batch, t, v=1.0):
    """The level v*bit of the batch's first row at time t, as the
    autocorrelation estimate reads it."""
    bits = _kernels.levels_at_times(batch.levels, batch.times, [t], scale=batch.scale)
    return v * float(bits[0, 0])


def phase_of(batch, t_grid, v=1.0):
    """The noise phase v*dwell of each row of the batch on the grid, as
    the recovery report forms it."""
    return v * _kernels.dwell_times(batch.levels, batch.times, t_grid, scale=batch.scale)


def same_rows(a, b):
    """Two batches hold the same realizations, padding aside."""
    np.testing.assert_array_equal(a.levels, b.levels)
    np.testing.assert_array_equal(a.counts, b.counts)
    k = min(a.switch_times.shape[1], b.switch_times.shape[1])
    np.testing.assert_array_equal(a.switch_times[:, :k], b.switch_times[:, :k])


def test_rtparams_coupling():
    assert noise.RTParams(v=2.0, gamma=0.5).g == 4.0
    assert math.isinf(noise.RTParams(v=1.0, gamma=0.0).g)


def test_rtparams_validation():
    with pytest.raises(ValueError):
        noise.RTParams(v=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        noise.RTParams(v=-1.0, gamma=1.0)
    with pytest.raises(ValueError):
        noise.RTParams(v=1.0, gamma=-0.1)
    with pytest.raises(ValueError):
        noise.RTParams(v=math.nan, gamma=1.0)
    with pytest.raises(ValueError):
        noise.RTParams(v=1.0, gamma=math.inf)


@stream_settings
@given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 3 * noise.BLOCK),
       horizon=st.floats(0.1, 100.0))
def test_static_limit_has_no_switches(seed, start, horizon):
    params = noise.RTParams(v=3.0, gamma=0.0)
    batch = noise.sample_batch(params, horizon, 40, seed, start_index=start)
    assert batch.switch_times.shape == (40, 0)
    np.testing.assert_array_equal(batch.counts, 0)
    assert set(batch.levels.tolist()) == {0, 1}


def test_sample_batch_rejects_bad_arguments():
    params = noise.RTParams(v=1.0, gamma=1.0)
    for horizon in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            noise.sample_batch(params, horizon, 4, 0)
    with pytest.raises(ValueError):
        noise.sample_batch(params, 1.0, 0, 0)
    with pytest.raises(ValueError):
        noise.sample_batch(params, 1.0, 4, 0, start_index=-1)


def test_sample_batch_takes_only_draws_of_its_trajectories():
    # shared draws serve a batch only for the same seed, indices and count,
    # and only if they hold every epoch up to its horizon (L = 8 at gamma 1):
    # cut one ulp below 2, they hold epochs 0 and 1 whole, short of 16.0
    params = noise.RTParams(v=1.0, gamma=1.0)
    draws = noise.draw_epochs(3, 10, 40, math.nextafter(2.0, 0.0))
    alone = noise.sample_batch(params, 15.9, 40, 3, start_index=10)
    shared = noise.sample_batch(params, 15.9, 40, 3, start_index=10, draws=draws)
    np.testing.assert_array_equal(shared.levels, alone.levels)
    np.testing.assert_array_equal(shared.switch_times, alone.switch_times)
    np.testing.assert_array_equal(shared.counts, alone.counts)
    for seed, start, n, horizon in ((4, 10, 40, 15.9), (3, 11, 40, 15.9), (3, 10, 39, 15.9),
                                    (3, 10, 40, 16.0)):
        with pytest.raises(ValueError, match="draws"):
            noise.sample_batch(params, horizon, n, seed, start_index=start, draws=draws)


def test_sample_batch_refuses_draws_cut_below_its_horizon():
    # draws cut at the horizon's cut serve the batch as draws cut an epoch
    # wider do; one ulp lower they lose a switch the batch may read, and
    # are refused: at an epoch boundary j*L (L = 80/3), one ulp to either
    # side and inside epochs
    params = noise.RTParams(v=1.0, gamma=0.3)
    scale = 2.0 * _kernels.EPOCH_SWITCHES / params.gamma
    for horizon in (15.9, scale, math.nextafter(scale, 0.0), math.nextafter(scale, math.inf),
                    2.5 * scale):
        cut = _kernels.epoch_grid(params.gamma, horizon)[1]
        wide = noise.sample_batch(params, horizon, 40, 3, start_index=10,
                                  draws=noise.draw_epochs(3, 10, 40, cut + 1.0))
        draws = noise.draw_epochs(3, 10, 40, cut)
        assert draws.cut == cut
        same_rows(noise.sample_batch(params, horizon, 40, 3, start_index=10, draws=draws), wide)
        # drawn alone, a batch is cut at its horizon
        alone = noise.sample_batch(params, horizon, 40, 3, start_index=10)
        same_rows(alone, wide)
        assert np.all(alone.times[np.isfinite(alone.times)] <= cut)
        tight = noise.draw_epochs(3, 10, 40, math.nextafter(cut, -math.inf))
        with pytest.raises(ValueError, match="draws"):
            noise.sample_batch(params, horizon, 40, 3, start_index=10, draws=tight)


def test_stream_draws_up_to_the_widest_cut(monkeypatch):
    # a block is drawn once up to the widest cut of its couplings, which
    # draws the most epochs any of them needs: lag 1.5 at L = 4 is 0.375
    # epochs, 3.0 at L = 16 is 0.1875, and the static coupling needs none
    drawn = []
    real_draw = noise.draw_epochs
    monkeypatch.setattr(noise, "draw_epochs", lambda *a: drawn.append(a) or real_draw(*a))

    def count(batch):
        return np.array([batch.n])

    couplings = [(noise.RTParams(v=1.0, gamma=gamma), horizon, count, 0)
                 for gamma, horizon in ((2.0, 1.5), (0.5, 3.0), (0.0, 9.0))]
    assert noise.stream(couplings, 10, 5) == [10, 10, 10]
    assert drawn == [(5, 0, 10, 0.375)]


@pytest.mark.parametrize("gamma, horizon", [(1.0, 15.9), (1.0, 16.0), (2.5, 0.7), (0.3, 40.0),
                                            (0.0, 5.0)])
def test_batch_of_a_pass_is_a_view_of_its_draws(gamma, horizon):
    # a batch holds the draws and its epoch length, not a copy: its switch
    # times and counts are derived, x*L up to the horizon padded with +inf
    # to the widest row, as the tracer reads them; 16.0 is the end of
    # epoch 1 at gamma 1
    params = noise.RTParams(v=1.0, gamma=gamma)
    draws = noise.draw_epochs(3, 10, 40, math.nextafter(6.0, 0.0))  # epochs 0 to 5
    batch = noise.sample_batch(params, horizon, 40, 3, start_index=10, draws=draws)
    assert batch.levels is draws.levels and batch.horizon == horizon
    if gamma == 0.0:
        assert batch.times.shape == batch.switch_times.shape == (40, 0)
        np.testing.assert_array_equal(batch.counts, 0)
        return
    assert np.shares_memory(batch.times, draws.epoch_times)
    assert batch.scale == 2.0 * _kernels.EPOCH_SWITCHES / gamma
    t = draws.epoch_times * batch.scale
    counts = (t <= horizon).sum(axis=1)
    k = counts.max()
    padded = np.full((40, k), np.inf)
    for i, c in enumerate(counts):
        padded[i, :c] = t[i, :c]
    np.testing.assert_array_equal(batch.switch_times, padded)
    np.testing.assert_array_equal(batch.counts, counts)
    assert batch.switch_times is batch.switch_times  # computed once
    # the batch a coupling draws alone, from its own epochs
    alone = noise.sample_batch(params, horizon, 40, 3, start_index=10)
    np.testing.assert_array_equal(alone.switch_times, batch.switch_times)


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_numpy_start_index_does_not_wrap(backend, request, monkeypatch):
    # a numpy start index is checked as the Python int of its value: one
    # whose trajectories pass 2**64 is refused, not wrapped in uint64
    # arithmetic to trajectories 0 onward
    monkeypatch.setattr(_kernels, "_impl", _reference if backend == "pure"
                        else request.getfixturevalue("compiled"))
    params = noise.RTParams(v=1.0, gamma=1.0)
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        noise.sample_batch(params, 1.0, 10, 3, start_index=np.uint64(2**64 - 5))
    top = noise.sample_batch(params, 1.0, 5, 3, start_index=np.uint64(2**64 - 5))
    expected = noise.sample_batch(params, 1.0, 5, 3, start_index=2**64 - 5)
    np.testing.assert_array_equal(top.levels, expected.levels)
    np.testing.assert_array_equal(top.times, expected.times)
    # nor does a pass's first index wrap past the top of int64, for any
    # coupling of the pass
    start = 2**63 - 10
    expected = noise.estimate_autocorrelation([params] * 2, [[1.0]] * 2, 100, 3,
                                              start_index=start)
    got = noise.estimate_autocorrelation([params] * 2, [[1.0]] * 2, 100, 3,
                                         start_index=np.int64(start))
    assert [r.estimates.tobytes() for r in got] == [r.estimates.tobytes() for r in expected]
    # nor does a numpy count, added to a first index past int64, nor a
    # coupling's own numpy first index
    def levels(batch):
        return batch.levels.astype(np.int64)

    expected = noise.stream([(params, 1.0, levels, 2**64 - 5)], 5, 3)
    for n, first in ((np.int64(5), 2**64 - 5), (5, np.uint64(2**64 - 5))):
        got = noise.stream([(params, 1.0, levels, first)], n, 3)
        assert [r.tobytes() for r in got] == [r.tobytes() for r in expected]
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        noise.stream([(params, 1.0, levels, np.uint64(2**64 - 5))], 10, 3)


def test_sample_batch_keys_streams_by_64_bit_seeds_and_indices():
    # the Philox key is the 64-bit seed and the counter holds a 64-bit index:
    # a seed or an index beyond them is an error, never a silent wrap
    params = noise.RTParams(v=1.0, gamma=1.0)
    top = noise.sample_batch(params, 5.0, 2, 2**64 - 1, start_index=2**64 - 2)
    assert top.n == 2
    for seed in (2**64, 2**64 + 5, -1):
        with pytest.raises(ValueError, match="master_seed"):
            noise.sample_batch(params, 5.0, 2, seed)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        noise.sample_batch(params, 5.0, 2, 0, start_index=2**64 - 1)
    # the seed's high word enters the key
    low = noise.sample_batch(params, 50.0, 4, 7)
    high = noise.sample_batch(params, 50.0, 4, 7 + 2**32)
    assert not np.array_equal(low.switch_times[:, :3], high.switch_times[:, :3])


def test_initial_level_equiprobable():
    params = noise.RTParams(v=1.0, gamma=0.7)
    n = 4000
    batch = noise.sample_batch(params, 1.0, n, master_seed=2024)
    p_hat = batch.levels.mean()
    assert abs(p_hat - 0.5) <= 3.0 / (2.0 * math.sqrt(n))


def test_occupation_fraction_converges_to_half():
    # long-time fraction of time spent at the high level
    params = noise.RTParams(v=1.0, gamma=1.0)
    horizon, n = 50.0, 400
    batch = noise.sample_batch(params, horizon, n, master_seed=77)
    fractions = np.array([dwell(level, row, horizon) / horizon
                          for level, row in zip(batch.levels, batch.switch_times)])
    se = fractions.std(ddof=1) / math.sqrt(n)
    assert abs(fractions.mean() - 0.5) <= 3.0 * se


def test_mean_switch_count_matches_rate():
    # oracle: switch count is Poisson with mean gamma*T/2 = 5.0
    params = noise.RTParams(v=1.0, gamma=1.0)
    batch = noise.sample_batch(params, 10.0, 20000, master_seed=31)
    counts = batch.counts.astype(float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 5.0) <= 3.0 * se


def ks_exponential(samples, rate):
    """Kolmogorov-Smirnov distance D of the samples from Exp(rate), times
    sqrt(n): below 1.95 with probability 0.999 for exponential samples."""
    x = np.sort(samples)
    cdf = -np.expm1(-rate * x)
    n = x.size
    d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    return d * math.sqrt(n)


def test_waits_between_switches_are_exponential():
    # only waits that start before t = 20, 20 mean waits before the horizon,
    # so that it censors almost none of them (all finite waits below the
    # horizon would be biased short)
    gamma = 1.0
    batch = noise.sample_batch(noise.RTParams(v=1.0, gamma=gamma), 60.0, 2000, master_seed=71)
    times = batch.switch_times
    with np.errstate(invalid="ignore"):  # inf - inf past the padding
        starts, waits = times[:, :-1], np.diff(times, axis=1)
    early = starts < 20.0
    assert np.all(np.isfinite(waits[early]))
    assert waits[early].size > 15000
    assert ks_exponential(waits[early], gamma / 2.0) < 1.95


def test_wait_from_epoch_boundary_is_exponential():
    # from a fixed time e*L, L being the epoch length, the next switch is an
    # Exp(gamma/2) wait away (memorylessness across the epochs' seams); one
    # boundary per row keeps the waits independent
    gamma = 1.0
    n = 6000
    batch = noise.sample_batch(noise.RTParams(v=1.0, gamma=gamma), 60.0, n, master_seed=72)
    epoch = 2.0 * _kernels.EPOCH_SWITCHES / gamma
    boundary = (np.arange(n) % 3) * epoch
    after = np.where(batch.switch_times > boundary[:, None], batch.switch_times, np.inf).min(axis=1)
    assert np.all(np.isfinite(after))
    assert ks_exponential(after - boundary, gamma / 2.0) < 1.95


def test_level_at_examples():
    assert level_of(one_path(0, [], 2.0), 1.0) == 0.0
    assert level_of(one_path(0, [0.5], 2.0), 1.0, v=2.5) == 2.5
    assert level_of(one_path(1, [0.3, 0.7], 2.0), 1.0, v=2.5) == 2.5
    # switch j of a row is at times[j]*scale: here at 1.0 and 1.6
    assert level_of(one_path(0, [0.5, 0.8], 2.0, scale=2.0), 0.9) == 0.0
    assert level_of(one_path(0, [0.5, 0.8], 2.0, scale=2.0), 1.2) == 1.0
    assert level_of(one_path(0, [0.5, 0.8], 2.0, scale=2.0), 1.7) == 0.0


def test_level_at_is_piecewise_constant_with_one_flip_per_switch():
    batch = noise.sample_batch(noise.RTParams(v=1.0, gamma=4.0), 5.0, 1, 5, start_index=3)
    switches = batch.switch_times[0]
    assert switches.size > 1
    probes = np.concatenate([[0.0], switches, [batch.horizon]])
    mids = 0.5 * (probes[1:] + probes[:-1])
    levels = _kernels.levels_at_times(batch.levels, batch.times, mids, scale=batch.scale)[0]
    flips = np.count_nonzero(levels[1:] != levels[:-1])
    assert flips == switches.size == batch.counts[0]


def test_level_at_rejects_outside_horizon():
    # the kernels know no horizon: a batch's times past it are its own later
    # switches, since a longer horizon extends the same path; a time before
    # t = 0, or an infinite one, lies outside every horizon and is refused
    batch = one_path(0, [], 1.0)
    for t in (-0.1, math.inf):
        with pytest.raises(ValueError):
            level_of(batch, t)
        with pytest.raises(ValueError):
            noise.estimate_autocorrelation([noise.RTParams(v=1.0, gamma=1.0)], [[t]], 10, 1)


def test_accumulated_phase_examples():
    assert phase_of(one_path(0, [], 3.0), [3.0], v=2.0)[0, 0] == 0.0
    assert phase_of(one_path(1, [], 3.0), [3.0], v=2.0)[0, 0] == pytest.approx(6.0)
    # one switch up at t=1: integral = v*(3-1) = 4 (piecewise integration by hand)
    assert phase_of(one_path(0, [1.0], 3.0), [3.0], v=2.0)[0, 0] == pytest.approx(4.0, abs=1e-14)
    # the same switch in epoch units of length 4
    assert phase_of(one_path(0, [0.25], 3.0, scale=4.0), [3.0], v=2.0)[0, 0] == pytest.approx(
        4.0, abs=1e-14)


def test_accumulated_phase_matches_riemann_oracle():
    params = noise.RTParams(v=1.7, gamma=2.0)
    batch = noise.sample_batch(params, 4.0, 4, master_seed=93)
    grid = np.array([0.9, 2.5, 4.0])
    phases = phase_of(batch, grid, v=params.v)
    for i in range(4):
        for t, exact in zip(grid, phases[i]):
            approx = riemann_phase(int(batch.levels[i]), batch.switch_times[i], t, params.v)
            assert exact == pytest.approx(approx, abs=5e-5)


def test_accumulated_phase_monotone_and_lipschitz():
    params = noise.RTParams(v=2.0, gamma=3.0)
    batch = noise.sample_batch(params, 6.0, 1, 15)
    ts = np.sort(np.random.default_rng(3).uniform(0.0, 6.0, size=200))
    phases = phase_of(batch, ts, v=params.v)[0]
    diffs = np.diff(phases)
    assert np.all(diffs >= -1e-12)
    assert np.all(diffs <= params.v * np.diff(ts) + 1e-12)


@pytest.mark.parametrize("times", [[0.5, math.nan, 2.0], [math.nan], [0.5, 2.0, math.nan]])
def test_trajectory_rejects_nan_switch_times(times):
    # every comparison with NaN is false, so checks for a bad time pass it
    # unless they are written as checks for a good one; accepted, such a
    # path would give a NaN phase at t = 3.0
    batch = one_path(0, times, 3.0)
    args = (batch.levels, batch.times, [3.0])
    for call in (lambda: _kernels.dwell_times(*args, scale=batch.scale),
                 lambda: _kernels.levels_at_times(*args, scale=batch.scale),
                 lambda: _kernels.block_sums(*args, 1.0, scale=batch.scale)):
        with pytest.raises(ValueError, match="NaN"):
            call()


@stream_settings
@given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 3 * noise.BLOCK),
       n=st.integers(1, 2 * noise.BLOCK + 1), gamma=st.floats(0.05, 20.0))
def test_sampling_is_reproducible_per_index(seed, start, n, gamma):
    # a row is fixed by (seed, index): the same rows sampled as a slice across
    # block boundaries, or as the tail of one batch from index 0, coincide
    params = noise.RTParams(v=1.0, gamma=gamma)
    batch = noise.sample_batch(params, 4.0, n, seed, start_index=start)
    from_zero = noise.sample_batch(params, 4.0, start + n, seed)
    same_rows(batch, noise.TrajectoryBatch(
        levels=from_zero.levels[start:], times=from_zero.times[start:], scale=from_zero.scale,
        horizon=4.0))
    same_rows(batch, noise.sample_batch(params, 4.0, n, seed, start_index=start))
    # distinct indices and seeds draw distinct realizations; compared over
    # ~100 switches, since two realizations may both keep one level up to 4.0
    far = 200.0 / gamma
    first = lane(params, far, seed=seed, index=start)[1]
    if n > 1:
        assert not np.array_equal(first, lane(params, far, seed=seed, index=start + n - 1)[1])
    assert not np.array_equal(first, lane(params, far, seed=seed + 1, index=start)[1])


@stream_settings
@given(seed=st.integers(0, 2**32 - 1), start=st.integers(0, 3 * noise.BLOCK),
       gamma=st.floats(0.05, 20.0), short=st.floats(0.01, 10.0), factor=st.floats(1.0, 8.0))
def test_longer_horizon_extends_same_realization(seed, start, gamma, short, factor):
    # the draws of a lane do not depend on the horizon, so a longer run sees
    # the same noise path as a shorter one (relied on by recovery)
    params = noise.RTParams(v=1.0, gamma=gamma)
    a = noise.sample_batch(params, short, 300, seed, start_index=start)
    b = noise.sample_batch(params, short * factor, 300, seed, start_index=start)
    np.testing.assert_array_equal(a.levels, b.levels)
    np.testing.assert_array_equal(a.counts, (b.switch_times <= short).sum(axis=1))
    for i in range(300):
        np.testing.assert_array_equal(a.switch_times[i, : a.counts[i]],
                                      b.switch_times[i, : a.counts[i]])


def test_sample_batch_matches_single_trajectories():
    # row i is trajectory 10 + i sampled alone, and the rows are padded
    # with +inf beyond counts[i]
    params = noise.RTParams(v=1.0, gamma=1.5)
    batch = noise.sample_batch(params, 5.0, 32, master_seed=4, start_index=10)
    for i in (0, 7, 31):
        level, times = lane(params, 5.0, seed=4, index=10 + i)
        assert level == batch.levels[i]
        np.testing.assert_array_equal(times, batch.switch_times[i, : batch.counts[i]])
    assert batch.switch_times.shape[1] == batch.counts.max()
    assert np.all(np.isinf(batch.switch_times[batch.counts[:, None] <= np.arange(batch.switch_times.shape[1])]))
    assert np.all(batch.switch_times[batch.counts[:, None] > np.arange(batch.switch_times.shape[1])] <= 5.0)


def test_autocorrelation_lag_zero_is_exactly_one():
    params = noise.RTParams(v=1.0, gamma=1.0)
    [result] = noise.estimate_autocorrelation([params], [[0.0, 1.0]], 500, master_seed=6)
    assert result.estimates[0] == 1.0
    assert result.stderrs[0] == 0.0


def test_autocorrelation_matches_exponential_decay():
    params = noise.RTParams(v=1.0, gamma=1.0)
    [result] = noise.estimate_autocorrelation([params], [[1.0]], 20000, master_seed=8)
    assert abs(result.estimates[0] - math.exp(-1.0)) <= 3.0 * result.stderrs[0]

    fast = noise.RTParams(v=1.0, gamma=2.0)
    [result] = noise.estimate_autocorrelation([fast], [[3.0]], 20000, master_seed=9)
    assert abs(result.estimates[0] - math.exp(-6.0)) <= 3.0 * result.stderrs[0]


def test_autocorrelation_start_index_selects_trajectories():
    # two halves sampled from start indices 0 and n average to the whole
    params = noise.RTParams(v=1.0, gamma=1.0)
    lags = [0.5, 1.0, 2.0]
    [whole] = noise.estimate_autocorrelation([params], [lags], 3000, master_seed=5)
    halves = [noise.estimate_autocorrelation([params], [lags], 1500, master_seed=5,
                                             start_index=s)[0]
              for s in (0, 1500)]
    np.testing.assert_allclose(0.5 * (halves[0].estimates + halves[1].estimates),
                               whole.estimates, rtol=0, atol=1e-12)
    assert not np.array_equal(halves[0].estimates, halves[1].estimates)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 250])
def test_autocorrelation_stderr_matches_sample_deviation(n):
    # the standard error comes from the estimate r alone; it equals the ddof=1
    # deviation of the per-sample products of centered signs over sqrt(n)
    params = noise.RTParams(v=1.0, gamma=1.0)
    lags = np.array([0.0, 0.1, 0.7, 3.0, 9.0])
    [result] = noise.estimate_autocorrelation([params], [lags], n, master_seed=21)
    batch = noise.sample_batch(params, 9.0, n, master_seed=21)
    levels = np.array([[level_bit(level, row, t) for t in lags]
                       for level, row in zip(batch.levels, batch.switch_times)])
    products = (2.0 * batch.levels[:, None] - 1.0) * (2.0 * levels - 1.0)
    np.testing.assert_array_equal(result.estimates, products.mean(axis=0))
    if n == 1:
        np.testing.assert_array_equal(result.stderrs, 0.0)
        return
    expected = products.std(axis=0, ddof=1) / math.sqrt(n)
    np.testing.assert_allclose(result.stderrs, expected, rtol=1e-14, atol=0)
    assert np.any(result.stderrs > 0.0)


@pytest.mark.parametrize("n_threads", [1, 3])
def test_autocorrelation_streams_blocks(monkeypatch, n_threads):
    # 2*BLOCK + 5 samples from index 7: two full blocks and a partial one,
    # none of them larger than BLOCK, and the same result as one batch
    params = noise.RTParams(v=1.0, gamma=0.7)
    lags = np.array([2.5, 0.0, 0.4, 1.0, 6.0])
    n, start = 2 * noise.BLOCK + 5, 7
    real_sample = noise.sample_batch
    calls = []

    def recording(params, horizon, count, master_seed, start_index=0, **shared_draws):
        calls.append((start_index, count))
        return real_sample(params, horizon, count, master_seed, start_index=start_index,
                           **shared_draws)

    monkeypatch.setattr(noise, "sample_batch", recording)
    [result] = noise.estimate_autocorrelation([params], [lags], n, master_seed=19,
                                              start_index=start, n_threads=n_threads)
    assert max(count for _, count in calls) <= noise.BLOCK
    assert sorted(calls) == [(start, noise.BLOCK), (start + noise.BLOCK, noise.BLOCK),
                             (start + 2 * noise.BLOCK, 5)]

    batch = real_sample(params, float(lags.max()), n, 19, start_index=start)
    flips = np.count_nonzero(
        _kernels.levels_at_times(batch.levels, batch.switch_times, np.sort(lags))
        != batch.levels[:, None], axis=0)[np.argsort(np.argsort(lags))]
    estimates = (n - 2.0 * flips) / n
    np.testing.assert_array_equal(result.estimates, estimates)
    np.testing.assert_array_equal(
        result.stderrs, np.sqrt((1.0 - estimates) * (1.0 + estimates) / (n - 1)))
    assert result.estimates[1] == 1.0 and 0.0 < result.estimates[3] < 1.0


@pytest.mark.parametrize("n_threads", [1, 2, 3])
def test_stream_adds_block_results_in_block_order(n_threads):
    # per coupling, the block results of 2*BLOCK + 5 trajectories from index
    # 9, two full blocks and a partial one, added left to right, (b0 + b1) +
    # b2, bit for bit at any thread count.  The dwell sums of a full and of
    # a 5-row block differ in magnitude, so their float total depends on the
    # order of addition: a fold in reverse order gives other bits
    grid = np.linspace(0.1, 6.0, 16)

    def dwell_sums(batch):
        return _kernels.dwell_times(batch.levels, batch.times, grid, scale=batch.scale).sum(axis=0)

    n, start, seed = 2 * noise.BLOCK + 5, 9, 41
    couplings = [(noise.RTParams(v=1.0, gamma=gamma), 6.0, dwell_sums, start)
                 for gamma in (0.5, 3.0)]
    blocks = [[dwell_sums(noise.sample_batch(params, horizon, count, seed, start_index=first))
               for params, horizon, _, _ in couplings]
              for first, count in ((start, noise.BLOCK), (start + noise.BLOCK, noise.BLOCK),
                                   (start + 2 * noise.BLOCK, 5))]
    left = [(b0 + b1) + b2 for b0, b1, b2 in zip(*blocks)]
    reverse = [(b2 + b1) + b0 for b0, b1, b2 in zip(*blocks)]
    assert all(np.any(a != b) for a, b in zip(left, reverse))
    totals = noise.stream(couplings, n, seed, n_threads=n_threads)
    assert len(totals) == len(couplings)
    for total, expected in zip(totals, left):
        assert total.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="at least one trajectory"):
        noise.stream(couplings, 0, seed)


@pytest.mark.parametrize("n_threads", [1, 3])
def test_stream_gives_each_first_index_its_own_blocks(n_threads):
    # couplings of one pass with their own first indices: each adds the
    # blocks of its own trajectories, BLOCK from its first index on, in
    # block order, so its float total is that of a pass with it alone, bit
    # for bit, though its blocks do not line up with the others'; couplings
    # with the same first index share their draws
    grid = np.linspace(0.1, 6.0, 16)

    def dwell_sums(batch):
        return _kernels.dwell_times(batch.levels, batch.times, grid, scale=batch.scale).sum(axis=0)

    n, seed = 2 * noise.BLOCK + 5, 41
    couplings = [(noise.RTParams(v=1.0, gamma=gamma), 6.0, dwell_sums, first)
                 for gamma, first in ((0.5, 9), (3.0, 9), (3.0, 9 + 100),
                                      (0.0, 9 + 3 * noise.BLOCK))]
    totals = noise.stream(couplings, n, seed, n_threads=n_threads)
    for coupling, total in zip(couplings, totals):
        [alone] = noise.stream([coupling], n, seed)
        assert total.tobytes() == alone.tobytes()
    assert totals[1].tobytes() != totals[2].tobytes()
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        noise.stream(couplings[:3] + [couplings[3][:3] + (2**64 - n + 1,)], n, seed)


@pytest.mark.parametrize("first, error, message", [
    (1.5, TypeError, "integer"),
    (-1, ValueError, "start_index must be >= 0, got -1"),
    (2**64 - 64 + 1, ValueError, "below 2\\*\\*64"),
], ids=["1.5", "-1", "2**64-n+1"])
def test_stream_refuses_a_bad_first_index_before_drawing(monkeypatch, first, error, message):
    # a coupling names its own first trajectory, checked with the others'
    # before any block of the pass is drawn, its valid neighbours' included
    drawn = []
    real_draw = noise.draw_epochs
    monkeypatch.setattr(noise, "draw_epochs", lambda *a: drawn.append(a) or real_draw(*a))
    params = noise.RTParams(v=1.0, gamma=1.0)

    def count(batch):
        return np.array([batch.n])

    with pytest.raises(error, match=message):
        noise.stream([(params, 1.0, count, 0), (params, 2.0, count, first)], 64, 3)
    assert drawn == []


@pytest.mark.parametrize("n, firsts, n_threads, workers", [
    (64, 0, 10**23, 1),
    (64, [0, noise.BLOCK // 2], 5, 2),
    (2 * noise.BLOCK + 5, 0, 8, 3),
    (2 * noise.BLOCK + 5, 0, 2, 2),
])
def test_stream_starts_no_more_threads_than_blocks(monkeypatch, n, firsts, n_threads, workers):
    # min(n_threads, blocks of the pass) workers, and the totals are those
    # of one thread; the calling thread is one of them and starts the
    # others, so one worker is the calling thread alone.  Which thread
    # reduces a block at more workers is up to the scheduler.  A huge
    # thread count is tried only with one block
    real_thread = noise.Thread
    started = []
    monkeypatch.setattr(noise, "Thread",
                        lambda target: started.append(target) or real_thread(target=target))
    reducers = set()

    def high_levels(batch):
        reducers.add(threading.current_thread())
        return np.array([float(np.count_nonzero(batch.levels))])

    # a single first index is that of both couplings
    firsts = [firsts] * 2 if isinstance(firsts, int) else firsts
    couplings = [(noise.RTParams(v=1.0, gamma=gamma), 2.0, high_levels, first)
                 for gamma, first in zip((0.5, 3.0), firsts)]
    totals = noise.stream(couplings, n, 5, n_threads=n_threads)
    assert len(started) == workers - 1
    if workers == 1:
        assert reducers == {threading.current_thread()}
    alone = noise.stream(couplings, n, 5, n_threads=1)
    assert [total.tobytes() for total in totals] == [total.tobytes() for total in alone]


@pytest.mark.parametrize("n_threads, fault_type", [
    pytest.param(n_threads, fault_type, id=f"{n_threads}{suffix}")
    for fault_type, suffix in ((ZeroDivisionError, ""), (KeyboardInterrupt, "-interrupt"))
    for n_threads in (1, 2, 3)])
def test_stream_raises_a_failed_block_and_leaves_no_thread(n_threads, fault_type):
    # a reduce that fails on a middle block: its exception, an interrupt
    # too, reaches the caller, every worker is joined, and the workers take
    # no block far past it, since at most two blocks per worker are taken
    # and not yet folded
    params = noise.RTParams(v=1.0, gamma=1.0)
    blocks, fault, calls = 6 * n_threads, 2 * n_threads, []

    def failing(batch):
        calls.append(batch.n)
        if len(calls) == fault:
            raise fault_type("block fault")
        return np.array([float(np.count_nonzero(batch.levels))])

    before = threading.active_count()
    with pytest.raises(fault_type, match="block fault"):
        noise.stream([(params, 1.0, failing, 0)], blocks * noise.BLOCK, 3, n_threads=n_threads)
    assert threading.active_count() == before
    assert fault <= len(calls) < fault + 2 * n_threads


@pytest.mark.parametrize("fault_type", [ZeroDivisionError, KeyboardInterrupt])
@pytest.mark.parametrize("n_threads", [2, 3])
def test_stream_raises_a_fault_on_the_callers_own_block(n_threads, fault_type):
    # the calling thread runs blocks like the threads it starts: a reduce
    # that fails on the caller alone reaches it, every started thread is
    # joined, and at most two blocks per worker are reduced.  Each started
    # thread holds its first block until the caller has run one, so the
    # caller surely runs a block
    params = noise.RTParams(v=1.0, gamma=1.0)
    caller, caller_ran = threading.current_thread(), threading.Event()
    held, calls = set(), []

    def failing_on_the_caller(batch):
        calls.append(batch.n)
        thread = threading.current_thread()
        if thread is caller:
            caller_ran.set()
            raise fault_type("caller's block fault")
        if thread not in held:
            held.add(thread)
            caller_ran.wait(timeout=0.5)
        return np.array([float(np.count_nonzero(batch.levels))])

    before = threading.active_count()
    with pytest.raises(fault_type, match="caller's block fault"):
        noise.stream([(params, 1.0, failing_on_the_caller, 0)], 6 * n_threads * noise.BLOCK, 3,
                     n_threads=n_threads)
    assert threading.active_count() == before
    assert caller_ran.is_set() and len(calls) <= 2 * n_threads


@pytest.mark.parametrize("n_threads", [2, 3])
def test_stream_runs_at_most_two_blocks_per_worker_ahead(monkeypatch, n_threads):
    # the first block's draws stall: while it is not added, the workers
    # take fewer than two blocks per worker after it, however long it takes,
    # and the totals are still those of one thread
    real_draws = noise.draw_epochs
    later, ahead, ran_ahead = [], [], threading.Event()

    def draws(master_seed, start_index, n, cut):
        if start_index == 0:
            ran_ahead.wait(timeout=0.5)
            ahead.append(len(later))
        else:
            later.append(start_index)
            if len(later) >= 2 * n_threads:
                ran_ahead.set()
        return real_draws(master_seed, start_index, n, cut)

    def high_levels(batch):
        return np.array([float(np.count_nonzero(batch.levels))])

    monkeypatch.setattr(noise, "draw_epochs", draws)
    coupling = (noise.RTParams(v=1.0, gamma=0.0), 1.0, high_levels, 0)
    [total] = noise.stream([coupling], 5 * n_threads * noise.BLOCK, 3, n_threads=n_threads)
    assert ahead[0] <= 2 * n_threads - 1
    monkeypatch.setattr(noise, "draw_epochs", real_draws)
    [alone] = noise.stream([coupling], 5 * n_threads * noise.BLOCK, 3)
    assert total.tobytes() == alone.tobytes()


def test_stream_keeps_every_block_under_frequent_thread_switches():
    # more workers than cores and a thread switch every microsecond: each
    # coupling still adds every trajectory once, and the float totals keep
    # one thread's bits.  The pass runs on a thread of its own, so a
    # deadlock fails the test instead of hanging it
    params = noise.RTParams(v=1.0, gamma=0.0)

    def count_and_third(batch):
        return np.array([float(batch.n), np.count_nonzero(batch.levels) / 3.0])

    couplings = [(params, 1.0, count_and_third, first) for first in (0, 5)]
    n = 40 * noise.BLOCK + 7
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: out.append(noise.stream(couplings, n, 13, n_threads=6)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(out) == 1
    alone = noise.stream(couplings, n, 13)
    assert [total[0] for total in out[0]] == [n, n]
    assert [total.tobytes() for total in out[0]] == [total.tobytes() for total in alone]


@pytest.mark.parametrize("n_threads", [1, 2])
def test_stream_memory_does_not_grow_with_the_blocks(n_threads):
    # at most two blocks per thread are in flight, so 400 blocks peak where
    # 20 do: nothing is held per block of the pass
    params = noise.RTParams(v=1.0, gamma=0.0)

    def high_levels(batch):
        return np.array([float(np.count_nonzero(batch.levels))])

    def peak(blocks):
        tracemalloc.start()
        try:
            noise.stream([(params, 1.0, high_levels, 0)], blocks * noise.BLOCK, 3,
                         n_threads=n_threads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)
    assert peak(400) <= peak(20) + 100_000


@pytest.mark.parametrize("n_threads", [1, 3])
def test_autocorrelation_of_several_couplings_equals_each_alone(n_threads):
    # one pass for every coupling, each at its own lags: coupling j takes
    # the 2*BLOCK + 5 samples from index 7 + j*n, so its flip counts, and
    # its result, are those of its own call there, bit for bit, at any
    # thread count.  Two equal couplings see different samples, and
    # repeated, unsorted lags give each repeat the count of the lag alone
    couplings = [(noise.RTParams(v=1.0, gamma=2.0), [0.05, 0.7, 2.9]),
                 (noise.RTParams(v=1.0, gamma=0.5), [3.0, 0.0, 1.5]),
                 (noise.RTParams(v=2.0, gamma=0.0), [1.0]),
                 (noise.RTParams(v=1.0, gamma=2.0), [0.05, 0.7, 2.9]),
                 (noise.RTParams(v=1.0, gamma=0.5), [1.5, 0.2, 3.0, 1.5, 0.0, 0.2])]
    n, start, seed = 2 * noise.BLOCK + 5, 7, 29
    together = noise.estimate_autocorrelation([p for p, _ in couplings],
                                              [lags for _, lags in couplings], n, seed,
                                              start_index=start, n_threads=n_threads)
    assert len(together) == len(couplings)
    for j, ((params, lags), result) in enumerate(zip(couplings, together)):
        [alone] = noise.estimate_autocorrelation([params], [lags], n, seed,
                                                 start_index=start + j * n)
        for field in ("lags", "estimates", "stderrs"):
            assert getattr(result, field).tobytes() == getattr(alone, field).tobytes()
        assert result.n_samples == n
    np.testing.assert_array_equal(together[2].estimates, [1.0])
    assert not np.array_equal(together[0].estimates, together[3].estimates)
    [distinct] = noise.estimate_autocorrelation([couplings[4][0]], [[0.0, 0.2, 1.5, 3.0]], n,
                                                seed, start_index=start + 4 * n)
    assert together[4].estimates.tobytes() == distinct.estimates[[2, 1, 3, 2, 0, 1]].tobytes()


def test_autocorrelation_takes_one_lag_sequence_per_coupling():
    params = noise.RTParams(v=1.0, gamma=1.0)
    with pytest.raises(ValueError, match="one lag sequence per coupling"):
        noise.estimate_autocorrelation([params, params], [[1.0]], 10, 1)
    with pytest.raises(ValueError, match="lags must be 1-D"):
        noise.estimate_autocorrelation([params, params], [1.0, 2.0], 10, 1)
    with pytest.raises(ValueError, match="at least one coupling"):
        noise.estimate_autocorrelation([], [], 10, 1)
    # every coupling's indices are checked, also those past the first's
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        noise.estimate_autocorrelation([params, params], [[1.0], [1.0]], 10, 1,
                                       start_index=2**64 - 15)


def test_autocorrelation_static_process_is_frozen():
    params = noise.RTParams(v=1.0, gamma=0.0)
    [result] = noise.estimate_autocorrelation([params], [[0.5, 2.0]], 200, master_seed=3)
    np.testing.assert_array_equal(result.estimates, [1.0, 1.0])


def test_autocorrelation_preserves_lag_order():
    params = noise.RTParams(v=1.0, gamma=1.0)
    [shuffled] = noise.estimate_autocorrelation([params], [[2.0, 0.5, 1.0]], 5000, master_seed=13)
    [sorted_res] = noise.estimate_autocorrelation([params], [[0.5, 1.0, 2.0]], 5000,
                                                  master_seed=13)
    np.testing.assert_array_equal(shuffled.estimates, sorted_res.estimates[[2, 0, 1]])


def test_autocorrelation_empty_lags():
    # at lag 0 every estimate is exactly 1 with a zero standard error, so a
    # lag list with no positive lag is refused, as --lags refuses it
    params = noise.RTParams(v=1.0, gamma=1.0)
    for lags in ([], [0.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="lags must name at least one positive lag"):
            noise.estimate_autocorrelation([params], [lags], 100, master_seed=1)
    # every coupling's lags, also those past the first's
    with pytest.raises(ValueError, match="at least one positive lag"):
        noise.estimate_autocorrelation([params, params], [[1.0], [0.0]], 100, master_seed=1)


def test_autocorrelation_validation():
    params = noise.RTParams(v=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        noise.estimate_autocorrelation([params], [[1.0]], 0, master_seed=1)
    with pytest.raises(ValueError):
        noise.estimate_autocorrelation([params], [[-1.0]], 10, master_seed=1)
