"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts both the numerical criterion and its runtime budget.
Monte Carlo criteria use frozen master seeds; the checks are deterministic.
"""

import math
import time

import numpy as np
import pytest

from rtdeph import _kernels, analytic, cli, engine, noise, states

from _oracles import (Q_ABS_G5_VT_2PI, phased_bell, pure_concurrence, random_pure,
                      schmidt_entropy, x_state)

TWO_PI = 2.0 * math.pi
SIX_PI = 6.0 * math.pi

#: Master seed for every stochastic criterion (verified to satisfy the
#: statistical tolerances; the runs are deterministic given the seed).
MASTER_SEED = 0


def _line(num: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s, budget {budget:g}s)")


def params_for(g: float, v: float = 1.0) -> noise.RTParams:
    return noise.RTParams(v=v, gamma=0.0 if math.isinf(g) else v / g)


def analytic_ef(params: noise.RTParams, times: np.ndarray) -> np.ndarray:
    q_abs = np.abs(np.atleast_1d(analytic.coherence_factor(params, times)))
    return np.atleast_1d(states.entanglement_of_formation(np.minimum(q_abs, 1.0)))


def test_criterion_01_static_limit_curve():
    start = time.perf_counter()
    params = params_for(math.inf)
    vt = np.linspace(0.0, SIX_PI, 1000)
    ef = np.array(
        [
            states.entanglement_of_formation(states.concurrence(analytic.density_matrix(params, t)))
            for t in vt
        ]
    )
    expected = states.entanglement_of_formation(np.abs(np.cos(vt / 2.0)))
    failures = []
    max_dev = np.abs(ef - expected).max()
    if max_dev > 1e-10:
        failures.append(f"pointwise deviation {max_dev:.3e} > 1e-10")
    for n in (0, 1, 2):
        zero_t = (2 * n + 1) * math.pi
        val = states.entanglement_of_formation(
            states.concurrence(analytic.density_matrix(params, zero_t))
        )
        if val > 1e-12:
            failures.append(f"E_f({zero_t:.3f}) = {val:.3e}, expected 0")
        peak_t = 2 * (n + 1) * math.pi
        val = states.entanglement_of_formation(
            states.concurrence(analytic.density_matrix(params, peak_t))
        )
        if val < 1.0 - 1e-12:
            failures.append(f"E_f({peak_t:.3f}) = {val!r}, expected 1")
    elapsed = time.perf_counter() - start
    _line(1, "static-limit curve", not failures, elapsed, 1.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 1.0


def test_criterion_02_first_revival_peaks():
    start = time.perf_counter()
    step = 1e-3 * TWO_PI
    vt = np.arange(0.0, SIX_PI + step, step)
    failures = []
    peak_values = {}
    for g in (5.0, 10.0, 50.0, 200.0):
        params = params_for(g)
        ef = analytic_ef(params, vt)
        window = (vt > math.pi) & (vt < 3.0 * math.pi)
        idx = np.flatnonzero(window)[np.argmax(ef[window])]
        t_peak, ef_peak = vt[idx], ef[idx]
        peak_values[g] = ef_peak

        t_star = analytic.revival_times(params, 1).t_n_star[0]
        if abs(t_peak - t_star) > step:
            failures.append(f"g={g}: peak at {t_peak:.6f}, expected {t_star:.6f} +- {step:.2e}")

        ef_at_t1 = analytic_ef(params, np.array([TWO_PI]))[0]
        if abs(ef_peak - ef_at_t1) > 5e-3:
            failures.append(f"g={g}: peak E_f {ef_peak:.6f} vs f(|q(t_1)|) {ef_at_t1:.6f}")

    # oracle anchor for the g=5 coherence modulus at t_1
    q5 = abs(analytic.coherence_factor(params_for(5.0), TWO_PI))
    if abs(q5 - Q_ABS_G5_VT_2PI) > 1e-12:
        failures.append(f"|q(t_1)| at g=5 drifted from frozen oracle: {q5!r}")

    ordered = [peak_values[g] for g in (5.0, 10.0, 50.0, 200.0)]
    if not all(a < b for a, b in zip(ordered, ordered[1:])):
        failures.append(f"revival amplitudes not monotone in g: {ordered}")
    elapsed = time.perf_counter() - start
    _line(2, "figure revival peaks", not failures, elapsed, 5.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 5.0


def test_criterion_03_envelope_bounds_peaks():
    start = time.perf_counter()
    step = 1e-3 * TWO_PI
    vt = np.arange(0.0, SIX_PI + step, step)
    failures = []
    for g in (5.0, 10.0, 50.0, 200.0):
        params = params_for(g)
        ef = analytic_ef(params, vt)
        env = np.atleast_1d(analytic.envelope(params, vt))
        interior = np.flatnonzero(
            (ef[1:-1] > ef[:-2]) & (ef[1:-1] >= ef[2:])
        ) + 1
        if interior.size < 2:
            failures.append(f"g={g}: found only {interior.size} revival peaks")
        excess = (ef[interior] - env[interior]).max() if interior.size else 0.0
        if excess > 1e-3:
            failures.append(f"g={g}: peak exceeds envelope by {excess:.3e} > 1e-3")
    elapsed = time.perf_counter() - start
    _line(3, "envelope bounds revival peaks", not failures, elapsed, 5.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 5.0


@pytest.fixture(scope="module")
def mc_results():
    """Criterion 4 configuration."""
    grid = np.linspace(0.0, SIX_PI, 40)
    g_values = (0.5, 1.0, 5.0, 10.0)
    start = time.perf_counter()
    results = dict(zip(g_values, engine.run_ensemble([params_for(g) for g in g_values], grid,
                                                     10_000, MASTER_SEED, n_threads=2)))
    return results, time.perf_counter() - start


def test_criterion_04_mc_matches_closed_form(mc_results):
    results, elapsed = mc_results
    failures = []
    for g, result in results.items():
        q_ref = np.atleast_1d(analytic.coherence_factor(params_for(g), result.t_grid))
        ok_re = np.abs(result.q_mean.real - q_ref.real) <= 4.0 * result.q_se_re
        ok_im = np.abs(result.q_mean.imag - q_ref.imag) <= 4.0 * result.q_se_im
        fraction = (ok_re & ok_im).mean()
        if fraction < 0.95:
            failures.append(f"g={g}: only {fraction:.1%} of points within 4 SE")
        max_dev = np.abs(result.q_mean - q_ref).max()
        if max_dev >= 0.05:
            failures.append(f"g={g}: max |q_mc - q| = {max_dev:.4f} >= 0.05")
    _line(4, "MC coherence vs closed form", not failures, elapsed, 60.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 60.0


def test_criterion_05_average_entanglement_identity():
    start = time.perf_counter()
    failures = []
    # the engine takes E_av = 1 by construction (e_h = 1 - e_f), so check
    # the identity independently: the entropy of every trajectory state,
    # formed from its noise phase v*dwell at several grid times
    params = params_for(5.0)
    grid = np.linspace(0.0, SIX_PI, 7)
    batch = noise.sample_batch(params, SIX_PI, 50, MASTER_SEED)
    phases = params.v * _kernels.dwell_times(batch.levels, batch.times, grid, scale=batch.scale)
    for i in range(50):
        for t, theta in zip(grid, phases[i]):
            ent = schmidt_entropy(phased_bell(theta))
            if not abs(ent - 1.0) <= 1e-9:
                failures.append(f"trajectory {i}, t = {t:.3f}: explicit entropy {ent!r}")
    elapsed = time.perf_counter() - start
    _line(5, "average entanglement is one", not failures, elapsed, 60.0)
    assert not failures, "; ".join(failures)


def test_criterion_06_hidden_entanglement_endpoints():
    start = time.perf_counter()
    params = params_for(math.inf)

    def hidden(vt):
        # frozen noise at v = 1: the levels 0 and 1, each with probability
        # 1/2, whose trajectory states have the phases 0 and vt
        e_av = 0.5 * (schmidt_entropy(phased_bell(0.0)) + schmidt_entropy(phased_bell(vt)))
        rho = analytic.density_matrix(params, vt)
        return e_av - states.entanglement_of_formation(states.concurrence(rho))

    failures = []
    for vt in (math.pi, 3.0 * math.pi):
        e_h = hidden(vt)
        if not abs(e_h - 1.0) <= 1e-9:
            failures.append(f"E_h(vt={vt:.3f}) = {e_h!r}, expected 1")
    for vt in (TWO_PI, 2.0 * TWO_PI):
        e_h = hidden(vt)
        if not abs(e_h) <= 1e-9:
            failures.append(f"E_h(vt={vt:.3f}) = {e_h!r}, expected 0")
    elapsed = time.perf_counter() - start
    _line(6, "hidden entanglement endpoints", not failures, elapsed, 1.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 1.0


def test_criterion_07_phase_recovery():
    start = time.perf_counter()
    failures = []
    for g in (5.0, math.inf):
        params = params_for(g)
        for n in (1, 3):
            t_n = TWO_PI * n
            [report] = engine.recovery_report([params], n, 32_768, MASTER_SEED)
            if abs(report.concurrence_after - 1.0) > 1e-9:
                failures.append(f"g={g}, n={n}: recovered C = {report.concurrence_after!r}")
            if not math.isinf(g):
                # the uncorrected ensemble concurrence is |q(t_n)|
                expected = float(abs(analytic.coherence_factor(params, t_n)))
                gap = abs(report.concurrence_before - expected)
                if gap > 0.02:
                    failures.append(
                        f"g={g}, n={n}: uncorrected C {report.concurrence_before:.4f} "
                        f"vs |q(t_n)| {expected:.4f} (gap {gap:.4f} > 0.02)"
                    )
    elapsed = time.perf_counter() - start
    _line(7, "per-trajectory recovery", not failures, elapsed, 10.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 10.0


def test_criterion_08_wootters_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    worst_x = 0.0
    for _ in range(1000):
        q = rng.uniform() * np.exp(2j * math.pi * rng.uniform())
        worst_x = max(worst_x, abs(states.concurrence(x_state(q)) - abs(q)))
    if worst_x > 1e-10:
        failures.append(f"corner-state concurrence off by {worst_x:.3e}")
    worst_pure = 0.0
    for _ in range(1000):
        vec = random_pure(rng)
        c = states.concurrence(np.outer(vec, vec.conj()))
        worst_pure = max(worst_pure, abs(c - pure_concurrence(vec)))
    if worst_pure > 1e-10:
        failures.append(f"pure-state concurrence off by {worst_pure:.3e}")
    elapsed = time.perf_counter() - start
    _line(8, "Wootters concurrence oracle", not failures, elapsed, 5.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 5.0


def test_criterion_09_telegraph_statistics():
    start = time.perf_counter()
    params = noise.RTParams(v=1.0, gamma=1.0)
    failures = []
    lags = np.array([0.5, 1.0, 2.0, 3.0])
    [result] = noise.estimate_autocorrelation([params], [lags], 100_000, MASTER_SEED)
    for lag, est, se in zip(result.lags, result.estimates, result.stderrs):
        expected = math.exp(-params.gamma * lag)
        if abs(est - expected) > 3.0 * se:
            failures.append(f"R({lag}) = {est:.5f} vs {expected:.5f} beyond 3 SE ({se:.2e})")
    batch = noise.sample_batch(params, 10.0, 100_000, MASTER_SEED + 1)
    counts = batch.counts.astype(float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    if abs(counts.mean() - 5.0) > 3.0 * se:
        failures.append(f"mean switch count {counts.mean():.4f} vs 5.0 beyond 3 SE ({se:.2e})")
    elapsed = time.perf_counter() - start
    _line(9, "telegraph statistics", not failures, elapsed, 30.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 30.0


def test_criterion_10_determinism_across_threads(tmp_path):
    start = time.perf_counter()
    step = SIX_PI / 39.0  # 40 grid points over [0, 6*pi], as in criterion 4
    base = [
        "--mode", "mc",
        "--g", "0.5,1,5,10",
        "--v", "1.0",
        "--vt-step", repr(step),
        "--vt-max", repr(SIX_PI),
        "--n-traj", "10000",
        "--seed", str(MASTER_SEED),
        "--no-timestamp",
    ]
    out1 = tmp_path / "threads1.csv"
    out4 = tmp_path / "threads4.csv"
    rc1 = cli.main(base + ["--threads", "1", "--out", str(out1)])
    rc4 = cli.main(base + ["--threads", "4", "--out", str(out4)])
    identical = out1.read_bytes() == out4.read_bytes()
    failures = []
    if rc1 != 0 or rc4 != 0:
        failures.append(f"CLI exit codes {rc1}, {rc4}")
    if not identical:
        failures.append("CSV artifacts differ between thread counts")
    elapsed = time.perf_counter() - start
    _line(10, "byte-identical CSV across thread counts", not failures, elapsed, 120.0)
    assert not failures, "; ".join(failures)
    assert elapsed < 120.0
