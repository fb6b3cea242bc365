import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtdeph import _kernels, noise

from _oracles import riemann_phase

#: Property tests draw their examples from a fixed sequence, so the suite
#: stays deterministic.
stream_settings = settings(derandomize=True, database=None, max_examples=25, deadline=None)


def lane(params, horizon, seed=0, index=0):
    """Trajectory ``index`` of the batch streams of ``seed``."""
    return noise.sample_batch(params, horizon, 1, seed, start_index=index).trajectory(0)


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
    # and only if they hold every epoch up to its horizon (L = 8 at gamma 1)
    params = noise.RTParams(v=1.0, gamma=1.0)
    draws = noise.draw_epochs(3, 10, 40, epochs=2)
    alone = noise.sample_batch(params, 15.9, 40, 3, start_index=10)
    shared = noise.sample_batch(params, 15.9, 40, 3, start_index=10, draws=draws)
    np.testing.assert_array_equal(shared.levels, alone.levels)
    np.testing.assert_array_equal(shared.switch_times, alone.switch_times)
    np.testing.assert_array_equal(shared.counts, alone.counts)
    for seed, start, n, horizon in ((4, 10, 40, 15.9), (3, 11, 40, 15.9), (3, 10, 39, 15.9),
                                    (3, 10, 40, 16.0)):
        with pytest.raises(ValueError, match="draws"):
            noise.sample_batch(params, horizon, n, seed, start_index=start, draws=draws)


@pytest.mark.parametrize("gamma, horizon", [(1.0, 15.9), (1.0, 16.0), (2.5, 0.7), (0.3, 40.0),
                                            (0.0, 5.0)])
def test_batch_of_a_pass_is_a_view_of_its_draws(gamma, horizon):
    # a batch holds the draws and its epoch length, not a copy: its switch
    # times, counts and single trajectories are derived, x*L up to the
    # horizon padded with +inf to the widest row, as the tracer and the
    # kernels' callers read them; 16.0 is the end of epoch 1 at gamma 1
    params = noise.RTParams(v=1.0, gamma=gamma)
    draws = noise.draw_epochs(3, 10, 40, epochs=6)
    batch = noise.sample_batch(params, horizon, 40, 3, start_index=10, draws=draws)
    assert batch.levels is draws.levels and batch.horizon == horizon
    if gamma == 0.0:
        assert batch.times.shape == batch.switch_times.shape == (40, 0)
        np.testing.assert_array_equal(batch.counts, 0)
        assert batch.trajectory(3).switch_times.size == 0
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
    for i in (0, 17, 39):
        np.testing.assert_array_equal(batch.trajectory(i).switch_times, t[i, : counts[i]])
    # the batch a coupling draws alone, from its own epochs
    alone = noise.sample_batch(params, horizon, 40, 3, start_index=10)
    np.testing.assert_array_equal(alone.switch_times, batch.switch_times)


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
    fractions = [noise.accumulated_phase(batch.trajectory(i), horizon) / horizon for i in range(n)]
    fractions = np.array(fractions)
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
    no_switch = noise.RTTrajectory(0, np.empty(0), horizon=2.0)
    assert noise.level_at(no_switch, 1.0) == 0.0
    one_switch = noise.RTTrajectory(0, np.array([0.5]), horizon=2.0)
    assert noise.level_at(one_switch, 1.0, v=2.5) == 2.5
    two_switches = noise.RTTrajectory(1, np.array([0.3, 0.7]), horizon=2.0)
    assert noise.level_at(two_switches, 1.0, v=2.5) == 2.5


def test_level_at_is_piecewise_constant_with_one_flip_per_switch():
    traj = lane(noise.RTParams(v=1.0, gamma=4.0), 5.0, seed=5, index=3)
    probes = np.concatenate([[0.0], traj.switch_times, [traj.horizon]])
    mids = 0.5 * (probes[1:] + probes[:-1])
    levels = [noise.level_at(traj, t) for t in mids]
    flips = sum(a != b for a, b in zip(levels, levels[1:]))
    assert flips == traj.switch_times.size


def test_level_at_rejects_outside_horizon():
    traj = noise.RTTrajectory(0, np.empty(0), horizon=1.0)
    with pytest.raises(ValueError):
        noise.level_at(traj, -0.1)
    with pytest.raises(ValueError):
        noise.level_at(traj, 1.1)


def test_accumulated_phase_examples():
    horizon = 3.0
    assert noise.accumulated_phase(noise.RTTrajectory(0, np.empty(0), horizon), 3.0, v=2.0) == 0.0
    assert noise.accumulated_phase(noise.RTTrajectory(1, np.empty(0), horizon), 3.0, v=2.0) == pytest.approx(6.0)
    # one switch up at t=1: integral = v*(3-1) = 4 (piecewise integration by hand)
    traj = noise.RTTrajectory(0, np.array([1.0]), horizon)
    assert noise.accumulated_phase(traj, 3.0, v=2.0) == pytest.approx(4.0, abs=1e-14)


def test_accumulated_phase_matches_riemann_oracle():
    params = noise.RTParams(v=1.7, gamma=2.0)
    batch = noise.sample_batch(params, 4.0, 4, master_seed=93)
    for i in range(4):
        traj = batch.trajectory(i)
        for t in (0.9, 2.5, 4.0):
            exact = noise.accumulated_phase(traj, t, v=params.v)
            approx = riemann_phase(traj.initial_level, traj.switch_times, traj.horizon, t, params.v)
            assert exact == pytest.approx(approx, abs=5e-5)


def test_accumulated_phase_monotone_and_lipschitz():
    params = noise.RTParams(v=2.0, gamma=3.0)
    traj = lane(params, 6.0, seed=15)
    ts = np.sort(np.random.default_rng(3).uniform(0.0, 6.0, size=200))
    phases = np.array([noise.accumulated_phase(traj, t, v=params.v) for t in ts])
    diffs = np.diff(phases)
    assert np.all(diffs >= -1e-12)
    assert np.all(diffs <= params.v * np.diff(ts) + 1e-12)


def test_accumulated_phase_rejects_outside_horizon():
    traj = noise.RTTrajectory(0, np.empty(0), horizon=1.0)
    with pytest.raises(ValueError):
        noise.accumulated_phase(traj, 2.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        noise.RTTrajectory(0, np.array([0.5, 0.4]), horizon=1.0)  # not increasing
    with pytest.raises(ValueError):
        noise.RTTrajectory(0, np.array([0.0, 0.4]), horizon=1.0)  # not strictly positive
    with pytest.raises(ValueError):
        noise.RTTrajectory(0, np.array([1.5]), horizon=1.0)  # beyond horizon
    with pytest.raises(ValueError):
        noise.RTTrajectory(2, np.empty(0), horizon=1.0)


@pytest.mark.parametrize("times", [[0.5, math.nan, 2.0], [math.nan], [0.5, 2.0, math.nan]])
def test_trajectory_rejects_nan_switch_times(times):
    # every comparison with NaN is false, so checks for a bad time pass it
    # unless they are written as checks for a good one; accepted, such a
    # path gives accumulated_phase(traj, 3.0) = nan
    with pytest.raises(ValueError):
        noise.RTTrajectory(0, np.array(times), horizon=3.0)


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
    first = lane(params, far, seed=seed, index=start).switch_times
    if n > 1:
        assert not np.array_equal(first, lane(params, far, seed=seed, index=start + n - 1).switch_times)
    assert not np.array_equal(first, lane(params, far, seed=seed + 1, index=start).switch_times)


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
        np.testing.assert_array_equal(a.trajectory(i).switch_times,
                                      b.switch_times[i, : a.counts[i]])


def test_sample_batch_matches_single_trajectories():
    # batch.trajectory(i) is the single-trajectory view of row i, and the
    # rows are padded with +inf beyond counts[i]
    params = noise.RTParams(v=1.0, gamma=1.5)
    batch = noise.sample_batch(params, 5.0, 32, master_seed=4, start_index=10)
    for i in (0, 7, 31):
        single = batch.trajectory(i)
        assert single.initial_level == batch.levels[i]
        assert single.horizon == 5.0
        np.testing.assert_array_equal(single.switch_times, batch.switch_times[i, : batch.counts[i]])
        again = lane(params, 5.0, seed=4, index=10 + i)
        assert again.initial_level == single.initial_level
        np.testing.assert_array_equal(again.switch_times, single.switch_times)
    assert batch.switch_times.shape[1] == batch.counts.max()
    assert np.all(np.isinf(batch.switch_times[batch.counts[:, None] <= np.arange(batch.switch_times.shape[1])]))
    assert np.all(batch.switch_times[batch.counts[:, None] > np.arange(batch.switch_times.shape[1])] <= 5.0)


def test_autocorrelation_lag_zero_is_exactly_one():
    params = noise.RTParams(v=1.0, gamma=1.0)
    result = noise.estimate_autocorrelation(params, [0.0, 1.0], 500, master_seed=6)
    assert result.estimates[0] == 1.0
    assert result.stderrs[0] == 0.0


def test_autocorrelation_matches_exponential_decay():
    params = noise.RTParams(v=1.0, gamma=1.0)
    result = noise.estimate_autocorrelation(params, [1.0], 20000, master_seed=8)
    assert abs(result.estimates[0] - math.exp(-1.0)) <= 3.0 * result.stderrs[0]

    fast = noise.RTParams(v=1.0, gamma=2.0)
    result = noise.estimate_autocorrelation(fast, [3.0], 20000, master_seed=9)
    assert abs(result.estimates[0] - math.exp(-6.0)) <= 3.0 * result.stderrs[0]


def test_autocorrelation_start_index_selects_trajectories():
    # two halves sampled from start indices 0 and n average to the whole
    params = noise.RTParams(v=1.0, gamma=1.0)
    lags = [0.5, 1.0, 2.0]
    whole = noise.estimate_autocorrelation(params, lags, 3000, master_seed=5)
    halves = [noise.estimate_autocorrelation(params, lags, 1500, master_seed=5, start_index=s)
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
    result = noise.estimate_autocorrelation(params, lags, n, master_seed=21)
    batch = noise.sample_batch(params, 9.0, n, master_seed=21)
    levels = np.array([[noise.level_at(batch.trajectory(i), t) for t in lags] for i in range(n)])
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
    result = noise.estimate_autocorrelation(params, lags, n, master_seed=19, start_index=start,
                                            n_threads=n_threads)
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

    couplings = [(noise.RTParams(v=1.0, gamma=gamma), 6.0, dwell_sums) for gamma in (0.5, 3.0)]
    n, start, seed = 2 * noise.BLOCK + 5, 9, 41
    blocks = [[dwell_sums(noise.sample_batch(params, horizon, count, seed, start_index=first))
               for params, horizon, _ in couplings]
              for first, count in ((start, noise.BLOCK), (start + noise.BLOCK, noise.BLOCK),
                                   (start + 2 * noise.BLOCK, 5))]
    left = [(b0 + b1) + b2 for b0, b1, b2 in zip(*blocks)]
    reverse = [(b2 + b1) + b0 for b0, b1, b2 in zip(*blocks)]
    assert all(np.any(a != b) for a, b in zip(left, reverse))
    totals = noise.stream(couplings, n, seed, start_index=start, n_threads=n_threads)
    assert len(totals) == len(couplings)
    for total, expected in zip(totals, left):
        assert total.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="at least one trajectory"):
        noise.stream(couplings, 0, seed)


def test_autocorrelation_static_process_is_frozen():
    params = noise.RTParams(v=1.0, gamma=0.0)
    result = noise.estimate_autocorrelation(params, [0.5, 2.0], 200, master_seed=3)
    np.testing.assert_array_equal(result.estimates, [1.0, 1.0])


def test_autocorrelation_preserves_lag_order():
    params = noise.RTParams(v=1.0, gamma=1.0)
    shuffled = noise.estimate_autocorrelation(params, [2.0, 0.5, 1.0], 5000, master_seed=13)
    sorted_res = noise.estimate_autocorrelation(params, [0.5, 1.0, 2.0], 5000, master_seed=13)
    np.testing.assert_array_equal(shuffled.estimates, sorted_res.estimates[[2, 0, 1]])


def test_autocorrelation_empty_lags():
    params = noise.RTParams(v=1.0, gamma=1.0)
    result = noise.estimate_autocorrelation(params, [], 100, master_seed=1)
    assert result.estimates.size == 0
    assert result.stderrs.size == 0


def test_autocorrelation_validation():
    params = noise.RTParams(v=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        noise.estimate_autocorrelation(params, [1.0], 0, master_seed=1)
    with pytest.raises(ValueError):
        noise.estimate_autocorrelation(params, [-1.0], 10, master_seed=1)
