import math
import pickle
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from rtdeph import _kernels, analytic, cli, engine, noise, states
from rtdeph._kernels import _reference

from _oracles import dwell, mp_entanglement_of_formation, phased_bell, x_state

TWO_PI = 2.0 * math.pi


def params_for(g, v=1.0):
    return noise.RTParams(v=v, gamma=0.0 if math.isinf(g) else v / g)


#: Decreasing, repeated, empty, 2-D, no t > 0, a negative start, nan, inf,
#: each with the rule that refuses it.
BAD_GRIDS = (([1.0, 0.5], "strictly increasing"), ([0.0, 1.0, 1.0], "strictly increasing"),
             ([], "non-empty 1-D"), ([[0.0, 1.0]], "non-empty 1-D"),
             ([0.0], "extend beyond t = 0"), ([-1.0, 1.0], "finite and non-negative"),
             ([0.0, math.nan], "finite and non-negative"),
             ([0.0, math.inf], "finite and non-negative"))


@pytest.fixture
def draws(monkeypatch):
    # records every block drawn, so a test can check a refusal comes first
    made = []
    real_draw = noise.draw_epochs
    monkeypatch.setattr(noise, "draw_epochs", lambda *a, **k: made.append(a) or real_draw(*a, **k))
    return made


GRID = [0.0, 1.0]
CALLS = (lambda p, n, seed: engine.run_ensemble(p, GRID, n, seed),
         lambda p, n, seed: engine.recovery_report(p, 1, n, seed))


def test_run_config_validation(draws):
    # the grid, count and seed of a run are refused before the first block is drawn
    params = [params_for(5.0)]
    for bad, rule in BAD_GRIDS:
        with pytest.raises(ValueError, match=f"^t_grid must .*{rule}"):
            engine.run_ensemble(params, bad, 10, 0)
    for call in CALLS:
        with pytest.raises(ValueError, match="at least one trajectory"):
            call(params, 0, 0)
        # the seed keys 64-bit streams: 2**64 and above are refused, not wrapped
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                call(params, 10, seed)
    assert draws == []
    for call in CALLS:
        call(params, 10, 2**64 - 1)
    assert len(draws) == 2


@pytest.mark.parametrize("bad", [[0.5, math.nan], [0.5, math.inf], [0.5, -1.0], -0.5])
def test_every_time_input_is_checked_alike(bad):
    # one check, _kernels._check_times, for every time input: a NaN, an
    # infinite or a negative time is refused with the input's name
    params = noise.RTParams(v=1.0, gamma=0.2)
    batch = noise.sample_batch(params, 5.0, 4, 0)
    rows = batch.levels, batch.times
    calls = {
        "times": (lambda t: analytic.coherence_factor(params, t),
                  lambda t: analytic.coherence_factor_approx(params, t),
                  lambda t: analytic.envelope(params, t)),
        "t_grid": (lambda t: engine.run_ensemble([params], t, 10, 0),
                   lambda t: _kernels.dwell_times(*rows, t),
                   lambda t: _kernels.levels_at_times(*rows, t),
                   lambda t: _kernels.block_sums(*rows, t, 1.0)),
        "lags": (lambda t: noise.estimate_autocorrelation([params], [t], 10, 0),),
    }
    for name, funcs in calls.items():
        for call in funcs:
            with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative$"):
                call(bad)


def test_every_count_is_checked_alike(draws, tmp_path, capsys):
    # one rule, noise._check_count, for every count: 0 and -1 are refused
    # with the count's name before anything is drawn, 1.5 is no count, and
    # a numpy integer gives the bytes of the count it holds.  The
    # trajectory count is _check_indices' own, with its own message
    params = [noise.RTParams(v=1.0, gamma=0.2)]
    lags = [[0.5, 1.0]]
    # the thread counts come last: a pass that let 0 workers through would
    # wait for them for ever
    calls = (  # the refusal's message, the call of a count, a valid count
        ("n_max must be >= 1, got {}",
         lambda k: analytic.revival_times(params[0], k), 3),
        ("revival index must be >= 1, got {}",
         lambda k: engine.recovery_report(params, k, 10, 0), 2),
        ("n_samples must be >= 1, got {}",
         lambda k: noise.estimate_autocorrelation(params, lags, k, 0), 10),
        ("need at least one trajectory, got n={}",
         lambda k: engine.run_ensemble(params, GRID, k, 0), 10),
        ("n_threads must be >= 1, got {}",
         lambda k: engine.run_ensemble(params, GRID, 10, 0, n_threads=k), 2),
        ("n_threads must be >= 1, got {}",
         lambda k: engine.recovery_report(params, 1, 10, 0, n_threads=k), 2),
        ("n_threads must be >= 1, got {}",
         lambda k: noise.estimate_autocorrelation(params, lags, 10, 0, n_threads=k), 2),
    )
    for message, call, _ in calls:
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"^{re.escape(message.format(bad))}$"):
                call(bad)
        with pytest.raises(TypeError):
            call(1.5)
    assert draws == []
    for _, call, k in calls:
        assert pickle.dumps(call(np.int64(k))) == pickle.dumps(call(k))
    out = tmp_path / "out"
    for flag in ("--n-traj", "--revival-n", "--threads"):
        for bad in ("0", "-1"):
            assert cli.main([flag, bad, "--vt-max", "1", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err == f"rtdeph: invalid input: {flag[2:]} must be >= 1, got {bad}\n"
    assert not out.exists()


def test_a_revival_time_that_overflows_is_refused(draws):
    # t_n = 2*pi*n/v must be a finite float: an index past the floats, or a
    # tiny v, is refused naming both before any coupling's block is drawn
    good = noise.RTParams(1.0, 0.2)
    for params, n in ((good, 10**400), (noise.RTParams(1e-309, 0.0), 1)):
        message = f"revival index {n} at v = {params.v!r}: the revival time 2*pi*n/v overflows"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            engine.recovery_report([good, params], n, 10, 1)
    assert draws == []


def test_one_pass_rejects_configs_that_share_no_trajectories(draws):
    # a pass serves every coupling from one seed and count; with no coupling
    # there is nothing to share the trajectories, and no block is drawn
    for call in CALLS:
        with pytest.raises(ValueError, match="at least one coupling"):
            call([], 10, 0)
    assert draws == []


def run(g, n=2000, seed=0, points=25, threads=1, vt_end=6.0 * math.pi):
    params = params_for(g)
    [result] = engine.run_ensemble([params], np.linspace(0.0, vt_end, points), n, seed,
                                   n_threads=threads)
    return params, result


def test_static_ensemble_average_matches_cosine():
    _, result = run(math.inf, n=4000)
    expected = np.abs(np.cos(result.t_grid / 2.0))
    dev = np.abs(np.abs(result.q_mean) - expected)
    bound = 3.0 * np.hypot(result.q_se_re, result.q_se_im) + 1e-12
    assert np.all(dev <= bound)


def test_trajectory_states_stay_maximally_entangled():
    # every trajectory state (|00> + exp(-i*theta)|11>)/sqrt(2), theta its
    # noise phase v*dwell, has concurrence 1 and so E_f = 1: the average
    # entanglement is 1, on which e_h = 1 - e_f rests
    params = noise.RTParams(v=1.0, gamma=0.5)
    batch = noise.sample_batch(params, 8.0, 20, master_seed=3)
    grid = np.array([1.0, 4.5, 8.0])
    phases = params.v * _kernels.dwell_times(batch.levels, batch.times, grid, scale=batch.scale)
    for theta in phases.ravel():
        state = phased_bell(theta)
        c = states.concurrence(np.outer(state, state.conj()))
        assert states.entanglement_of_formation(c) == pytest.approx(1.0, abs=1e-9)


def test_static_ensemble_members_and_endpoints():
    # frozen noise: each trajectory keeps its level bit b, so at v*t = pi
    # its state is (|00> + (-1)**b |11>)/sqrt(2) and the mean coherence is
    # (n0 - n1)/n, while at v*t = 2*pi every state is the Bell state again
    n = 500
    params, result = run(math.inf, n=n, points=3, vt_end=TWO_PI)
    np.testing.assert_allclose(x_state(np.conj(result.q_mean[0])), x_state(1.0), atol=1e-15)
    n1 = int(noise.sample_batch(params, TWO_PI, n, 0).levels.sum())
    q = (n - 2 * n1) / n
    assert result.q_mean[1] == pytest.approx(q, abs=1e-12)
    assert result.e_f[1] == pytest.approx(mp_entanglement_of_formation(abs(q)), abs=1e-9)
    assert result.e_h[1] == pytest.approx(1.0 - mp_entanglement_of_formation(abs(q)), abs=1e-9)
    # revival point: the mixture is again maximally entangled, nothing hidden
    assert result.e_f[2] == pytest.approx(1.0, abs=1e-9)
    assert result.e_h[2] == pytest.approx(0.0, abs=1e-9)


def test_mc_matches_coherence_factor_within_errors():
    # 8000 trajectories put the fixed 0.05 bound at about 4.6 standard
    # errors of the complex mean; at 2000 it was 2.3, which correct streams
    # exceed for about one seed in ten
    for g in (0.5, 1.0, 5.0):
        params, result = run(g, n=8000, points=20)
        q_ref = np.atleast_1d(analytic.coherence_factor(params, result.t_grid))
        ok_re = np.abs(result.q_mean.real - q_ref.real) <= 4.0 * result.q_se_re
        ok_im = np.abs(result.q_mean.imag - q_ref.imag) <= 4.0 * result.q_se_im
        assert (ok_re & ok_im).mean() >= 0.95
        assert np.abs(result.q_mean - q_ref).max() < 0.05


def test_ensemble_density_matrices_are_valid():
    # the averaged state at every grid point is a density matrix: |q_mean| <= 1
    _, result = run(5.0, n=300, points=8)
    for q in result.q_mean:
        states.check_density_matrix(x_state(np.conj(q)))


def test_hidden_entanglement_identity():
    # every trajectory state is maximally entangled, E_av = 1, so the
    # hidden part complements E_f
    _, result = run(5.0, n=400, points=10)
    np.testing.assert_array_equal(result.e_h, 1.0 - result.e_f)


def test_results_identical_across_thread_counts():
    # three blocks: the block sums are added in order, and two would commute
    _, single = run(5.0, n=5000, seed=11, points=15, threads=1)
    _, multi = run(5.0, n=5000, seed=11, points=15, threads=4)
    assert_same_result(single, multi)


@pytest.mark.parametrize("n", [150, 4097])  # 4097: three blocks, the last of one trajectory
def test_coherence_statistics_definition(n):
    # rebuild the estimator from raw trajectories in one pass: mean and
    # ddof=1 errors, against the block-by-block merge
    params, result = run(5.0, n=n, points=6)
    batch = noise.sample_batch(params, float(result.t_grid[-1]), n, 0)
    z = np.empty((n, 6), dtype=complex)
    for i in range(n):
        for gi, t in enumerate(result.t_grid):
            z[i, gi] = np.exp(-1j * params.v * dwell(int(batch.levels[i]), batch.switch_times[i], t))
    np.testing.assert_allclose(result.q_mean, z.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(result.q_se_re, z.real.std(axis=0, ddof=1) / math.sqrt(n), atol=1e-12)
    np.testing.assert_allclose(result.q_se_im, z.imag.std(axis=0, ddof=1) / math.sqrt(n), atol=1e-12)


def test_ensemble_memory_does_not_grow_with_n():
    def traced_peak(n):
        tracemalloc.start()
        try:
            engine.run_ensemble([params_for(5.0)], np.linspace(0.0, 6.0 * math.pi, 201), n, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(8 * 2048) <= 1.25 * traced_peak(2 * 2048)


def assert_same_result(a, b):
    for name, value in a.__dict__.items():
        np.testing.assert_array_equal(np.ascontiguousarray(value).view(np.uint8),
                                      np.ascontiguousarray(getattr(b, name)).view(np.uint8))


def assert_one_pass_is_each_alone(params, grid, n, seed, threads):
    """The results of one pass over ``params`` are those of the calls with
    each coupling alone, byte for byte, in either order of the couplings."""
    results = engine.run_ensemble(params, grid, n, seed, n_threads=threads)
    assert len(results) == len(params)
    for p, result in zip(params, results):
        [alone] = engine.run_ensemble([p], grid, n, seed)
        assert_same_result(result, alone)
    for result, again in zip(results, engine.run_ensemble(params[::-1], grid, n, seed)[::-1]):
        assert_same_result(result, again)
    reports = engine.recovery_report(params, 2, n, seed, n_threads=threads)
    for p, report in zip(params, reports):
        assert report == engine.recovery_report([p], 2, n, seed)[0]


@pytest.mark.parametrize("threads", [1, 3])
def test_one_pass_serves_every_config_bit_for_bit(threads):
    # one pass draws each block once, for the most epochs any coupling
    # needs, and gives each coupling the batch it samples alone; 2*BLOCK + 5
    # trajectories are three blocks, the last one partial.  The couplings:
    # the static limit, ones that need 1 to 5 epochs of L = 8*g/v by
    # v*t = 6*pi, and a second v, whose 16 epochs the pass draws
    n = 2 * noise.BLOCK + 5
    params = [params_for(g) for g in (math.inf, 50.0, 5.0, 1.0, 0.5)] + [params_for(0.3, v=2.0)]
    assert_one_pass_is_each_alone(params, np.linspace(0.0, 6.0 * math.pi, 13), n, 21, threads)
    # a grid ending on an epoch boundary: v = 1, g = 0.5, t = 8 is 2 epochs of 4
    params = [params_for(g) for g in (0.5, 1.0, math.inf)]
    assert_one_pass_is_each_alone(params, np.linspace(0.0, 8.0, 17), n, 21, threads)


def test_one_pass_shares_its_realizations():
    # common random numbers: the couplings of a pass see the same
    # trajectories, so their errors are correlated.  Two static couplings
    # see the same level bits, a fraction p of them 1: at t = pi/2 the
    # means are q1 = 1 - p - i*p at v = 1 and q2 = 1 - 2*p at v = 2, so
    # Re q2 = 2*Re q1 - 1, where their own streams would differ by ~1/sqrt(n)
    a, b = engine.run_ensemble([params_for(math.inf), params_for(math.inf, v=2.0)],
                               [math.pi / 2.0], 500, 4)
    assert b.q_mean[0].real == pytest.approx(2.0 * a.q_mean[0].real - 1.0, abs=1e-12)
    assert 0.2 < abs(a.q_mean[0].imag) < 0.8


def test_one_pass_holds_one_batch_besides_the_draws():
    # a thread holds one block's draws, and every coupling's batch is a
    # view of them, so four couplings need no more memory than the widest
    # of them alone, whether their widths spread or are equal
    grid = np.linspace(0.0, 6.0 * math.pi, 61)

    def peak(params):
        engine.run_ensemble(params, grid, 2 * noise.BLOCK, 0, n_threads=1)
        tracemalloc.start()
        try:
            engine.run_ensemble(params, grid, 2 * noise.BLOCK, 0, n_threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    spread = [params_for(g) for g in (0.5, 1.0, 2.0, 5.0)]  # g = 0.5 needs the most epochs
    assert peak(spread) <= 1.1 * peak(spread[:1])
    equal = [params_for(0.5)] * 4
    assert peak(equal) <= 1.1 * peak(equal[:1])


def test_block_holds_no_n_by_m_array(compiled, monkeypatch):
    # one 2048 x 601 block: the sums are formed per stretch between
    # switches, so on either backend the peak stays below one (n, m) float
    # array (the complex z alone would be twice that)
    args = [params_for(5.0)], np.linspace(0.0, 6.0 * math.pi, 601), 2048, 0
    for backend in (_reference, compiled):
        monkeypatch.setattr(_kernels, "_impl", backend)
        engine.run_ensemble(*args)
        tracemalloc.start()
        try:
            engine.run_ensemble(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 601 * 8


def test_numpy_integer_seeds_give_the_same_bytes(compiled, monkeypatch):
    # a seed is any integer: a numpy one runs on either backend and gives
    # the bytes of the Python int of its value
    args = [params_for(5.0)], np.linspace(0.0, 3.0, 7), 10
    for backend in (_reference, compiled):
        monkeypatch.setattr(_kernels, "_impl", backend)
        [expected] = engine.run_ensemble(*args, 3)
        for seed in (np.int64(3), np.uint64(3)):
            [got] = engine.run_ensemble(*args, seed)
            for field in ("q_mean", "q_se_re", "q_se_im", "e_f"):
                assert getattr(got, field).tobytes() == getattr(expected, field).tobytes()


TWO_PASS_CASES = [(5.0, 1e-3), (1e-4, 1e-3), (0.5, 1.0), (5.0, 6.0 * math.pi)]


def two_pass_grid(vt_max):
    return np.concatenate([[0.0], np.geomspace(1e-4, vt_max, 40)])


def two_pass(g, vt_max, n):
    """The mean and the sums of squared deviations M2 of (Re z, Im z) over
    the explicit coherences z = exp(-i*dwell) of the first n trajectories
    of seed 6 at v = 1, each of shape (m, 2)."""
    params = noise.RTParams(v=1.0, gamma=1.0 / g)
    batch = noise.sample_batch(params, vt_max, n, master_seed=6)
    z = np.exp(-1j * _kernels.dwell_times(batch.levels, batch.switch_times, two_pass_grid(vt_max)))
    x = np.stack([z.real, z.imag], axis=-1)
    mean = x.mean(axis=0)
    return batch, mean, np.square(x - mean).sum(axis=0)


@pytest.mark.parametrize("g, vt_max", TWO_PASS_CASES)
def test_block_sums_match_a_two_pass_reduction(compiled, g, vt_max):
    # the shifted sums give the mean and the sums of squared deviations M2 of
    # the explicit coherences on grids from v*t = 1e-4, where unshifted power
    # sums would cancel; g = 1e-4 switches about ten times by v*t = 1e-3.
    # Below that the explicit Re z - 1 ~ (v*t)**2/2 keeps too few digits
    # of its own for an M2 comparison at rtol 1e-6.
    grid = two_pass_grid(vt_max)
    batch, mean, m2 = two_pass(g, vt_max, 2048)
    for backend in (_reference, compiled):
        d = _kernels.block_sums(batch.levels, batch.switch_times, grid, 1.0, impl=backend)
        s, q = _kernels.column_sums(d, grid, 1.0)
        np.testing.assert_array_equal(s[0], 0.0)
        np.testing.assert_array_equal(q[0], 0.0)
        np.testing.assert_allclose(q[:, 0] + 2.0 * s[:, 0] + q[:, 1], 0.0, rtol=0,
                                   atol=1e-12 * batch.n)
        got_mean, got_m2 = engine._moments(batch.n, d, grid, 1.0)
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got_m2, m2, rtol=1e-6, atol=0)


@pytest.mark.parametrize("g, vt_max", TWO_PASS_CASES)
def test_ensemble_matches_a_two_pass_reduction_across_blocks(compiled, monkeypatch, g, vt_max):
    # 5000 trajectories are three blocks, the last one partial: their
    # difference arrays are added before the one prefix sum, and the run's
    # mean and standard errors still match the explicit two-pass reduction
    n = 5000
    _, mean, m2 = two_pass(g, vt_max, n)
    for backend in (_reference, compiled):
        monkeypatch.setattr(_kernels, "_impl", backend)
        [result] = engine.run_ensemble([params_for(g)], two_pass_grid(vt_max), n, 6, n_threads=2)
        np.testing.assert_allclose(result.q_mean.real, mean[:, 0], rtol=0, atol=1e-13)
        np.testing.assert_allclose(result.q_mean.imag, mean[:, 1], rtol=0, atol=1e-13)
        se = np.sqrt(m2 / (n - 1)) / math.sqrt(n)
        np.testing.assert_allclose(result.q_se_re, se[:, 0], rtol=1e-6, atol=0)
        np.testing.assert_allclose(result.q_se_im, se[:, 1], rtol=1e-6, atol=0)


def test_ef_derivative_matches_high_precision():
    # dE_f/dC with its limits at C = 0 and 1; below C ~ 1e-8, 1 - s is 0 in
    # floating point, so the textbook form divides by zero there
    def exact(c):
        with mpmath.workdps(60):
            c = mpmath.mpf(c)
            s = mpmath.sqrt(1 - c * c)
            return float(c / (2 * s) * mpmath.log((1 + s) / (1 - s)) / mpmath.log(2))

    c = np.concatenate([[1e-17, 1e-9], np.geomspace(1e-8, 0.5, 30), 1.0 - np.geomspace(1e-15, 0.5, 30)])
    np.testing.assert_allclose(engine._ef_derivative(c), [exact(x) for x in c], rtol=1e-13)
    np.testing.assert_array_equal(engine._ef_derivative(np.array([0.0, 1.0])),
                                  [0.0, 1.0 / math.log(2.0)])


def test_ensemble_concurrence_matches_wootters_oracle():
    _, result = run(5.0, n=500, points=30)
    oracle = [states.entanglement_of_formation(states.concurrence(x_state(np.conj(q))))
              for q in result.q_mean]
    np.testing.assert_allclose(result.e_f, oracle, rtol=0, atol=1e-12)


def test_recovered_ensemble_concurrence():
    [static] = engine.recovery_report([params_for(math.inf)], 1, 64, 5)
    assert static.concurrence_after == pytest.approx(1.0, abs=1e-9)

    [report] = engine.recovery_report([params_for(5.0)], 1, 400, 5)
    assert report.concurrence_after == pytest.approx(1.0, abs=1e-9)
    assert report.concurrence_before == pytest.approx(math.exp(-0.1 * TWO_PI), abs=0.1)
    assert report.concurrence_before < 0.7


def test_recovery_report_consistent_with_run_ensemble():
    # same seed, same horizon: the uncorrected concurrence is the ensemble
    # concurrence at the revival time
    [result] = engine.run_ensemble([params_for(5.0)], [0.5 * TWO_PI, TWO_PI], 300, 9)
    [report] = engine.recovery_report([params_for(5.0)], 1, 300, 9)
    assert report.concurrence_before == pytest.approx(
        states.concurrence(x_state(np.conj(result.q_mean[-1]))), abs=1e-12
    )


def test_recovery_report_rejects_bad_index():
    with pytest.raises(ValueError):
        engine.recovery_report([params_for(5.0)], 0, 10, 0)
