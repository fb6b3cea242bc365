import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from rtdeph import _kernels, analytic, engine, noise, states
from rtdeph._kernels import _reference

TWO_PI = 2.0 * math.pi


def system_for(g, v=1.0, **kw):
    gamma = 0.0 if math.isinf(g) else v / g
    return analytic.SystemParams(rt=noise.RTParams(v=v, gamma=gamma), **kw)


def static_traj(level, horizon):
    return noise.RTTrajectory(initial_level=level, switch_times=np.empty(0), horizon=horizon)


def test_run_config_validation():
    system = system_for(5.0)
    with pytest.raises(ValueError):
        engine.RunConfig(system=system, t_grid=np.array([1.0, 0.5]), n_trajectories=10, master_seed=0)
    with pytest.raises(ValueError):
        engine.RunConfig(system=system, t_grid=np.array([]), n_trajectories=10, master_seed=0)
    with pytest.raises(ValueError):
        engine.RunConfig(system=system, t_grid=np.array([0.0]), n_trajectories=10, master_seed=0)
    with pytest.raises(ValueError):
        engine.RunConfig(system=system, t_grid=np.array([0.0, 1.0]), n_trajectories=0, master_seed=0)
    with pytest.raises(ValueError):
        engine.RunConfig(system=system, t_grid=np.array([0.0, 1.0]), n_trajectories=10, master_seed=-1)
    # the seed keys 64-bit streams: 2**64 and above are refused, not wrapped
    engine.RunConfig(system=system, t_grid=np.array([0.0, 1.0]), n_trajectories=10,
                     master_seed=2**64 - 1)
    with pytest.raises(ValueError, match="master_seed"):
        engine.RunConfig(system=system, t_grid=np.array([0.0, 1.0]), n_trajectories=10,
                         master_seed=2**64)


def test_evolve_trajectory_examples():
    system = system_for(math.inf)
    traj0 = static_traj(0, 10.0)
    np.testing.assert_allclose(
        engine.evolve_trajectory(system, traj0, 0.0), states.bell_phi_plus(), atol=1e-15
    )
    for t in (0.5, 3.0, 10.0):
        np.testing.assert_allclose(
            engine.evolve_trajectory(system, traj0, t), states.bell_phi_plus(), atol=1e-15
        )
    # constant high level flips the corner sign at v*t = pi
    trajv = static_traj(1, 10.0)
    out = engine.evolve_trajectory(system, trajv, math.pi)
    np.testing.assert_allclose(out, np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0), atol=1e-15)


def test_evolve_trajectory_with_frequencies():
    system = system_for(math.inf, omega_a=0.4, omega_b=0.2)
    out = engine.evolve_trajectory(system, static_traj(0, 5.0), 2.0)
    assert out[3] == pytest.approx(np.exp(-1.2j) / math.sqrt(2.0), abs=1e-15)


def test_evolve_trajectory_rejects_beyond_horizon():
    with pytest.raises(ValueError):
        engine.evolve_trajectory(system_for(5.0), static_traj(0, 1.0), 2.0)


def test_trajectory_states_stay_maximally_entangled():
    params = noise.RTParams(v=1.0, gamma=0.5)
    system = analytic.SystemParams(rt=params)
    batch = noise.sample_batch(params, 8.0, 20, master_seed=3)
    for i in range(20):
        traj = batch.trajectory(i)
        for t in (1.0, 4.5, 8.0):
            state = engine.evolve_trajectory(system, traj, t)
            assert states.entropy_of_entanglement(state) == pytest.approx(1.0, abs=1e-9)


def test_static_ensemble_members_and_endpoints():
    system = system_for(math.inf)
    at_zero = engine.static_ensemble(system, 0.0)
    for _, member in at_zero:
        np.testing.assert_allclose(member, states.bell_phi_plus(), atol=1e-15)

    # full dephasing point: mixture carries no entanglement, all of it hidden
    at_pi = engine.static_ensemble(system, math.pi)
    ef = states.entanglement_of_formation(states.concurrence(states.mixture_density(at_pi)))
    assert ef == pytest.approx(0.0, abs=1e-9)
    assert states.hidden_entanglement(at_pi) == pytest.approx(1.0, abs=1e-9)

    # revival point: mixture is again maximally entangled, nothing hidden
    at_2pi = engine.static_ensemble(system, TWO_PI)
    ef = states.entanglement_of_formation(states.concurrence(states.mixture_density(at_2pi)))
    assert ef == pytest.approx(1.0, abs=1e-9)
    assert states.hidden_entanglement(at_2pi) == pytest.approx(0.0, abs=1e-9)


def test_static_ensemble_rejects_finite_gamma():
    with pytest.raises(ValueError):
        engine.static_ensemble(system_for(5.0), 1.0)


def run(g, n=2000, seed=0, points=25, threads=1, vt_end=6.0 * math.pi):
    system = system_for(g)
    config = engine.RunConfig(
        system=system,
        t_grid=np.linspace(0.0, vt_end, points),
        n_trajectories=n,
        master_seed=seed,
    )
    return config, engine.run_ensemble([config], n_threads=threads)[0]


def test_static_ensemble_average_matches_cosine():
    config, result = run(math.inf, n=4000)
    expected = np.abs(np.cos(config.t_grid / 2.0))
    dev = np.abs(np.abs(result.q_mean) - expected)
    bound = 3.0 * np.hypot(result.q_se_re, result.q_se_im) + 1e-12
    assert np.all(dev <= bound)


def test_average_entanglement_is_identically_one():
    for g in (0.5, 5.0, math.inf):
        _, result = run(g, n=500, points=9)
        np.testing.assert_allclose(result.e_av, 1.0, atol=1e-9)
        assert result.min_trajectory_entropy >= 1.0 - 1e-9
        np.testing.assert_allclose(result.e_av_se, 0.0, atol=1e-9)


def test_mc_matches_coherence_factor_within_errors():
    # 8000 trajectories put the fixed 0.05 bound at about 4.6 standard
    # errors of the complex mean; at 2000 it was 2.3, which correct streams
    # exceed for about one seed in ten
    for g in (0.5, 1.0, 5.0):
        config, result = run(g, n=8000, points=20)
        q_ref = np.atleast_1d(analytic.coherence_factor(config.system.rt, config.t_grid))
        ok_re = np.abs(result.q_mean.real - q_ref.real) <= 4.0 * result.q_se_re
        ok_im = np.abs(result.q_mean.imag - q_ref.imag) <= 4.0 * result.q_se_im
        assert (ok_re & ok_im).mean() >= 0.95
        assert np.abs(result.q_mean - q_ref).max() < 0.05


def test_ensemble_density_matrices_are_valid():
    _, result = run(5.0, n=300, points=8)
    pattern = np.zeros((4, 4), dtype=bool)
    pattern[0, 0] = pattern[3, 3] = pattern[0, 3] = pattern[3, 0] = True
    for rho in result.rho:
        states.check_density_matrix(rho)
        assert np.all(rho[~pattern] == 0.0)
        np.testing.assert_array_equal(np.diag(rho).real, [0.5, 0.0, 0.0, 0.5])


def test_hidden_entanglement_identity():
    _, result = run(5.0, n=400, points=10)
    np.testing.assert_array_equal(result.e_h, result.e_av - result.e_f)
    # E_av is 1, so the hidden part complements E_f
    np.testing.assert_allclose(result.e_h, 1.0 - result.e_f, atol=1e-9)


def test_results_identical_across_thread_counts():
    # three blocks: the block sums are added in order, and two would commute
    _, single = run(5.0, n=5000, seed=11, points=15, threads=1)
    _, multi = run(5.0, n=5000, seed=11, points=15, threads=4)
    np.testing.assert_array_equal(single.q_mean, multi.q_mean)
    np.testing.assert_array_equal(single.q_se_re, multi.q_se_re)
    np.testing.assert_array_equal(single.e_f, multi.e_f)
    np.testing.assert_array_equal(single.e_av, multi.e_av)
    np.testing.assert_array_equal(single.rho, multi.rho)


@pytest.mark.parametrize("n", [150, 4097])  # 4097: three blocks, the last of one trajectory
def test_coherence_statistics_definition(n):
    # rebuild the estimator from raw trajectories in one pass: mean and
    # ddof=1 errors, against the block-by-block merge
    config, result = run(5.0, n=n, points=6)
    params = config.system.rt
    batch = noise.sample_batch(params, float(config.t_grid[-1]), n, config.master_seed)
    z = np.empty((n, 6), dtype=complex)
    for i in range(n):
        traj = batch.trajectory(i)
        for gi, t in enumerate(config.t_grid):
            z[i, gi] = np.exp(-1j * noise.accumulated_phase(traj, t, v=params.v))
    np.testing.assert_allclose(result.q_mean, z.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(result.q_se_re, z.real.std(axis=0, ddof=1) / math.sqrt(n), atol=1e-12)
    np.testing.assert_allclose(result.q_se_im, z.imag.std(axis=0, ddof=1) / math.sqrt(n), atol=1e-12)


def test_ensemble_memory_does_not_grow_with_n():
    def traced_peak(n):
        config = engine.RunConfig(system=system_for(5.0), t_grid=np.linspace(0.0, 6.0 * math.pi, 201),
                                  n_trajectories=n, master_seed=0)
        tracemalloc.start()
        try:
            engine.run_ensemble([config], n_threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(8 * 2048) <= 1.25 * traced_peak(2 * 2048)


def shared_pass_configs(n, seed):
    """Configs of one pass: the static limit, couplings that need 1 to 5
    epochs of L = 8*g/v (v*t up to 6*pi), a grid ending on an epoch
    boundary (v = 1, g = 0.5, t = 8 is 2 epochs of 4) and a second v."""
    grids = {0.5: np.linspace(0.0, 8.0, 17), 0.3: np.linspace(0.0, 5.0, 11)}
    systems = [system_for(g) for g in (math.inf, 50.0, 5.0, 1.0, 0.5)] + [system_for(0.3, v=2.0)]
    return [engine.RunConfig(system=system,
                             t_grid=grids.get(system.rt.g, np.linspace(0.0, 6.0 * math.pi, 13)),
                             n_trajectories=n, master_seed=seed)
            for system in systems]


def assert_same_result(a, b):
    for name, value in a.__dict__.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(np.ascontiguousarray(value).view(np.uint8),
                                          np.ascontiguousarray(getattr(b, name)).view(np.uint8))
        else:
            assert value == getattr(b, name), name


@pytest.mark.parametrize("threads", [1, 3])
def test_one_pass_serves_every_config_bit_for_bit(threads):
    # one pass draws each block once, for the most epochs any config needs,
    # and gives each config the batch it samples alone: every result of the
    # pass is the one-config call's, byte for byte; 2*BLOCK + 5 trajectories
    # are three blocks, the last one partial
    configs = shared_pass_configs(2 * noise.BLOCK + 5, seed=21)
    results = engine.run_ensemble(configs, n_threads=threads)
    assert len(results) == len(configs)
    for config, result in zip(configs, results):
        [alone] = engine.run_ensemble([config], n_threads=1)
        assert_same_result(result, alone)
    reports = engine.recovery_report(configs, 2, n_threads=threads)
    for config, report in zip(configs, reports):
        [alone] = engine.recovery_report([config], 2, n_threads=1)
        assert report == alone
    # and the order of the configs in the pass does not matter
    for result, again in zip(results, engine.run_ensemble(configs[::-1])[::-1]):
        assert_same_result(result, again)


def test_one_pass_shares_its_realizations():
    # common random numbers: the configs of a pass see the same
    # trajectories, so their errors are correlated.  Two static configs on
    # different grids see the same level bits, hence the same coherence at
    # the time they share; their own streams would give two estimates.
    configs = [engine.RunConfig(system=system_for(math.inf), t_grid=grid, n_trajectories=500,
                                master_seed=4)
               for grid in (np.array([math.pi / 2.0]), np.array([0.3, math.pi / 2.0]))]
    a, b = engine.run_ensemble(configs)
    assert a.q_mean[0] == b.q_mean[1]
    assert 0.2 < abs(a.q_mean[0].imag) < 0.8


def test_one_pass_holds_one_batch_besides_the_draws():
    # a thread holds one block's draws, and every coupling's batch is a
    # view of them, so four couplings need no more memory than the widest
    # of them alone, whether their widths spread or are equal
    def peak(configs):
        engine.run_ensemble(configs, n_threads=1)
        tracemalloc.start()
        try:
            engine.run_ensemble(configs, n_threads=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def config(g, points=61):
        return engine.RunConfig(system=system_for(g), t_grid=np.linspace(0.0, 6.0 * math.pi, points),
                                n_trajectories=2 * noise.BLOCK, master_seed=0)

    spread = [config(g) for g in (0.5, 1.0, 2.0, 5.0)]  # g = 0.5 needs the most epochs
    assert peak(spread) <= 1.1 * peak(spread[:1])
    equal = [config(0.5, points) for points in (61, 31, 17, 5)]
    assert peak(equal) <= 1.1 * peak(equal[:1])


def test_one_pass_rejects_configs_that_share_no_trajectories():
    base = dict(system=system_for(5.0), t_grid=np.array([0.0, TWO_PI]))
    first = engine.RunConfig(**base, n_trajectories=10, master_seed=0)
    for other in (engine.RunConfig(**base, n_trajectories=10, master_seed=1),
                  engine.RunConfig(**base, n_trajectories=11, master_seed=0)):
        with pytest.raises(ValueError, match="master_seed and n_trajectories"):
            engine.run_ensemble([first, other])
        with pytest.raises(ValueError, match="master_seed and n_trajectories"):
            engine.recovery_report([first, other], 1)
    with pytest.raises(ValueError):
        engine.run_ensemble([])
    with pytest.raises(ValueError):
        engine.recovery_report([], 1)


def test_block_holds_no_n_by_m_array(compiled, monkeypatch):
    # one 2048 x 601 block: the sums are formed per stretch between
    # switches, so on either backend the peak stays below one (n, m) float
    # array (the complex z alone would be twice that)
    config = engine.RunConfig(system=system_for(5.0), t_grid=np.linspace(0.0, 6.0 * math.pi, 601),
                              n_trajectories=2048, master_seed=0)
    for backend in (_reference, compiled):
        monkeypatch.setattr(_kernels, "_impl", backend)
        engine.run_ensemble([config])
        tracemalloc.start()
        try:
            engine.run_ensemble([config])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 601 * 8


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
    config = engine.RunConfig(system=system_for(g), t_grid=two_pass_grid(vt_max),
                              n_trajectories=n, master_seed=6)
    for backend in (_reference, compiled):
        monkeypatch.setattr(_kernels, "_impl", backend)
        [result] = engine.run_ensemble([config], n_threads=2)
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
    config, result = run(5.0, n=500, points=30)
    oracle = [states.entanglement_of_formation(states.concurrence(rho)) for rho in result.rho]
    np.testing.assert_allclose(result.e_f, oracle, rtol=0, atol=1e-12)


def test_recover_trajectory_static_cases():
    system = system_for(math.inf)
    t_1 = TWO_PI  # first revival of v=1

    # level 0: leftover phase is a multiple of 2*pi, state unchanged up to
    # a global phase
    out = engine.recover_trajectory(system, static_traj(0, t_1), t_1)
    overlap = abs(np.vdot(out, engine.evolve_trajectory(system, static_traj(0, t_1), t_1)))
    assert overlap == pytest.approx(1.0, abs=1e-12)

    # level v at t_1: phase integral is exactly 2*pi, correction is zero
    out = engine.recover_trajectory(system, static_traj(1, t_1), t_1)
    np.testing.assert_allclose(out, engine.evolve_trajectory(system, static_traj(1, t_1), t_1), atol=1e-12)


def test_recover_trajectory_one_switch_oracle():
    # v=2 so t_1 = pi; one switch up at t_1/2 accumulates phase
    # 2*(pi/2) = pi, hence a correction phase of pi - 2*pi = -pi
    system = system_for(1.0, v=2.0)  # any finite g; trajectory is explicit
    traj = noise.RTTrajectory(0, np.array([math.pi / 2.0]), horizon=math.pi)
    t_1 = math.pi

    evolved = engine.evolve_trajectory(system, traj, t_1)
    with_phase = np.array([1.0, 0.0, 0.0, np.exp(-1j * math.pi)]) / math.sqrt(2.0)
    np.testing.assert_allclose(evolved, with_phase, atol=1e-12)

    corrected = engine.recover_trajectory(system, traj, t_1)
    # hand computation: exp(-i*(-pi)/2*sigma_zA) on the evolved 4-vector
    vartheta = -math.pi
    factors = np.exp(-0.5j * vartheta * np.array([1.0, 1.0, -1.0, -1.0]))
    np.testing.assert_allclose(corrected, factors * with_phase, atol=1e-12)
    assert states.concurrence(states.density_of(corrected)) == pytest.approx(1.0, abs=1e-12)


def test_recover_trajectory_rejects_non_revival_times():
    system = system_for(5.0)
    traj = static_traj(0, 10.0)
    with pytest.raises(ValueError):
        engine.recover_trajectory(system, traj, math.pi)  # odd half revival
    with pytest.raises(ValueError):
        engine.recover_trajectory(system, traj, 0.0)


def test_recovery_is_idempotent():
    # after correction the leftover phase is zero, so a second correction
    # with the recomputed residual is the identity
    system = system_for(1.0, v=2.0)
    traj = noise.RTTrajectory(0, np.array([math.pi / 2.0]), horizon=math.pi)
    t_1 = math.pi
    corrected = engine.recover_trajectory(system, traj, t_1)
    residual = (
        noise.accumulated_phase(traj, t_1, v=2.0)
        - (noise.accumulated_phase(traj, t_1, v=2.0) - TWO_PI)
        - TWO_PI
    )
    assert residual == 0.0
    np.testing.assert_allclose(
        states.apply_local_phase(corrected, residual, "A"), corrected, atol=1e-12
    )


def test_recovered_ensemble_concurrence():
    static_config = engine.RunConfig(
        system=system_for(math.inf), t_grid=np.array([TWO_PI]), n_trajectories=64, master_seed=5
    )
    assert engine.recovery_report([static_config], 1)[0].concurrence_after == pytest.approx(1.0, abs=1e-9)

    config = engine.RunConfig(
        system=system_for(5.0), t_grid=np.array([TWO_PI]), n_trajectories=400, master_seed=5
    )
    [report] = engine.recovery_report([config], 1)
    assert report.concurrence_after == pytest.approx(1.0, abs=1e-9)
    assert report.concurrence_before == pytest.approx(math.exp(-0.1 * TWO_PI), abs=0.1)
    assert report.concurrence_before < 0.7


def test_recovery_report_consistent_with_run_ensemble():
    # same seed, same horizon: the uncorrected concurrence is the ensemble
    # concurrence at the revival time
    config = engine.RunConfig(
        system=system_for(5.0), t_grid=np.array([0.5 * TWO_PI, TWO_PI]), n_trajectories=300, master_seed=9
    )
    [result] = engine.run_ensemble([config])
    [report] = engine.recovery_report([config], 1)
    assert report.concurrence_before == pytest.approx(
        states.concurrence(result.rho[-1]), abs=1e-12
    )


def test_recovery_report_rejects_bad_index():
    config = engine.RunConfig(
        system=system_for(5.0), t_grid=np.array([TWO_PI]), n_trajectories=10, master_seed=0
    )
    with pytest.raises(ValueError):
        engine.recovery_report([config], 0)
