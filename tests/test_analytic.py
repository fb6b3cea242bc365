import math

import numpy as np
import pytest

from rtdeph import analytic, states
from rtdeph.noise import RTParams

from _oracles import (
    APPROX_G10_VT_PI,
    EF_AT_HALF,
    G1_MODULUS_GT2,
    Q_ABS_G5_VT_2PI,
    Q_G05_T3,
    Q_G10_T25,
    VT_FIRST_PEAK_G5,
    mp_coherence_factor,
    mp_entanglement_of_formation,
    phased_bell,
    x_state,
)


def params_for(g, v=1.0):
    return RTParams(v=v, gamma=0.0 if math.isinf(g) else v / g)


def test_coherence_params_branch_and_identity():
    strong = analytic.CoherenceParams.from_g(5.0)
    assert strong.alpha.real == 0.0
    assert strong.alpha.imag > 0.0
    weak = analytic.CoherenceParams.from_g(0.5)
    assert weak.alpha.imag == 0.0
    assert weak.alpha.real > 0.0
    for g in (0.2, 0.9, 1.5, 20.0, 200.0):
        cp = analytic.CoherenceParams.from_g(g)
        assert abs(cp.alpha**2 + g * g - 1.0) <= 1e-12 * max(1.0, g * g)


def test_coherence_factor_is_one_at_t_zero():
    for g in (0.5, 1.0, 5.0, math.inf):
        assert analytic.coherence_factor(params_for(g), 0.0) == pytest.approx(1.0, abs=1e-15)


def test_coherence_factor_oracle_values():
    # 50-digit evaluations, frozen
    q = analytic.coherence_factor(RTParams(v=1.0, gamma=0.2), 2.0 * math.pi)
    assert abs(q) == pytest.approx(Q_ABS_G5_VT_2PI, abs=1e-12)
    assert q == pytest.approx(mp_coherence_factor(1.0, 0.2, 2.0 * math.pi), abs=1e-12)

    assert analytic.coherence_factor(RTParams(v=1.0, gamma=2.0), 3.0) == pytest.approx(Q_G05_T3, abs=1e-12)
    assert analytic.coherence_factor(RTParams(v=1.0, gamma=0.1), 2.5) == pytest.approx(Q_G10_T25, abs=1e-12)


def test_coherence_factor_modulus_bounded():
    ts = np.linspace(0.0, 30.0, 400)
    for g in (0.3, 0.999, 1.0, 1.001, 2.0, 10.0, 500.0, math.inf):
        q = analytic.coherence_factor(params_for(g), ts)
        assert np.abs(q).max() <= 1.0 + 1e-12


def test_static_route_used_at_gamma_zero():
    params = params_for(math.inf, v=2.0)
    ts = np.linspace(0.0, 10.0, 50)
    np.testing.assert_array_equal(
        analytic.coherence_factor(params, ts), analytic.coherence_factor_static(2.0, ts)
    )


def test_static_limit_consistency():
    # slow switching approaches the frozen-noise modulus
    v = 1.0
    params = RTParams(v=v, gamma=1e-6 * v)
    vt = np.linspace(0.0, 4.0 * math.pi, 200)
    q = analytic.coherence_factor(params, vt / v)
    assert np.abs(np.abs(q) - np.abs(np.cos(vt / 2.0))).max() < 1e-4


def test_coherence_factor_static_examples():
    assert abs(analytic.coherence_factor_static(1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert abs(analytic.coherence_factor_static(1.0, math.pi)) == pytest.approx(0.0, abs=1e-15)
    assert abs(analytic.coherence_factor_static(1.0, 2.0 * math.pi)) == pytest.approx(1.0, abs=1e-15)
    vt = 1.3
    assert analytic.coherence_factor_static(1.0, vt) == pytest.approx(
        0.5 * (1.0 + np.exp(-1j * vt)), abs=1e-15
    )


def test_g1_limit_formula():
    params = RTParams(v=1.0, gamma=1.0)
    assert analytic.coherence_factor_g1(params, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert abs(analytic.coherence_factor_g1(params, 2.0)) == pytest.approx(G1_MODULUS_GT2, abs=1e-14)
    assert abs(analytic.coherence_factor_g1(params, 200.0)) < 1e-40
    with pytest.raises(ValueError):
        analytic.coherence_factor_g1(RTParams(v=2.0, gamma=1.0), 1.0)


def test_g1_seam_continuity():
    ts = np.linspace(0.0, 10.0, 101)
    exact = analytic.coherence_factor_g1(RTParams(v=1.0, gamma=1.0), ts)
    for g in (1.0 - 1e-6, 1.0 + 1e-6):
        near = analytic.coherence_factor(params_for(g), ts)
        assert np.abs(near - exact).max() < 1e-4


def test_coherence_factor_routes_to_g1_near_seam():
    params = RTParams(v=1.0, gamma=1.0 + 1e-10)
    ts = np.linspace(0.0, 5.0, 7)
    np.testing.assert_array_equal(
        analytic.coherence_factor(params, ts), analytic.coherence_factor_g1(params, ts)
    )


def test_branch_swap_invariance():
    # flipping the sign of alpha swaps the two exponentials together with
    # A <-> 1-A and must not change q(t)
    g, gamma = 5.0, 0.2
    ts = np.linspace(0.0, 20.0, 60)
    alpha = -complex(np.sqrt(complex(1.0 - g * g)))
    a_coef = 0.5 * (1.0 + 1.0 / alpha)
    swapped = np.exp(-0.5j * 1.0 * ts) * (
        a_coef * np.exp(-0.5 * gamma * (1.0 - alpha) * ts)
        + (1.0 - a_coef) * np.exp(-0.5 * gamma * (1.0 + alpha) * ts)
    )
    q = analytic.coherence_factor(RTParams(v=1.0, gamma=gamma), ts)
    np.testing.assert_allclose(q, swapped, atol=1e-13)


def test_approximation_examples():
    params = params_for(10.0)
    assert analytic.coherence_factor_approx(params, 0.0) == pytest.approx(1.0, abs=1e-15)
    # at the revival times the approximation reduces to the bare decay
    for n in (1, 2, 3):
        t_n = 2.0 * math.pi * n
        assert abs(analytic.coherence_factor_approx(params, t_n)) == pytest.approx(
            math.exp(-params.gamma * t_n / 2.0), abs=1e-12
        )
    assert analytic.coherence_factor_approx(params, math.pi) == pytest.approx(APPROX_G10_VT_PI, abs=1e-12)
    with pytest.raises(ValueError):
        analytic.coherence_factor_approx(params_for(1.0), 1.0)
    with pytest.raises(ValueError):
        analytic.coherence_factor_approx(params_for(0.5), 1.0)


def test_approximation_quality_scales_as_inverse_g_squared():
    # over a fixed v*t window the error is O(1/g^2); over a fixed gamma*t
    # window it would grow like v*t/g^2 ~ 1/g instead
    for g in (5.0, 10.0, 50.0):
        params = params_for(g)
        ts = np.linspace(0.0, 4.0 * math.pi / params.v, 300)
        exact = np.abs(analytic.coherence_factor(params, ts))
        approx = np.abs(analytic.coherence_factor_approx(params, ts))
        assert np.abs(exact - approx).max() <= 5.0 / (g * g)


def test_density_matrix_initial_state():
    rho = analytic.density_matrix(params_for(5.0), 0.0)
    np.testing.assert_allclose(rho, x_state(1.0), atol=1e-15)


def test_density_matrix_static_zero_coherence_point():
    rho = analytic.density_matrix(params_for(math.inf), math.pi)
    np.testing.assert_allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-15)


def test_density_matrix_corner_and_concurrence():
    params = RTParams(v=1.0, gamma=0.2)
    for t in (0.7, 2.0 * math.pi, 11.0):
        rho = analytic.density_matrix(params, t)
        q = analytic.coherence_factor(params, t)
        assert rho[0, 3] == pytest.approx(0.5 * np.conj(q), abs=1e-15)
        states.check_density_matrix(rho)
        assert states.concurrence(rho) == pytest.approx(abs(q), abs=1e-10)


def test_density_matrix_is_the_static_ensemble_mixture():
    # the closed form and the trajectory states share one Bell-corner
    # convention: rho_03 = conj(q) / 2
    params = params_for(math.inf)
    for t in (0.0, 1.3, 4.0):
        # frozen noise: the levels 0 and v, each with probability 1/2
        members = [phased_bell(level * params.v * t) for level in (0, 1)]
        mixture = sum(0.5 * np.outer(state, state.conj()) for state in members)
        np.testing.assert_allclose(analytic.density_matrix(params, t), mixture, rtol=0, atol=1e-12)


def test_revival_times_families():
    static = analytic.revival_times(params_for(math.inf), 2)
    np.testing.assert_allclose(static.t_n, [2.0 * math.pi, 4.0 * math.pi], rtol=1e-15)
    np.testing.assert_array_equal(static.t_n_star, static.t_n)
    np.testing.assert_allclose(static.t_tilde_n, [3.0 * math.pi, 5.0 * math.pi], rtol=1e-15)

    strong = analytic.revival_times(params_for(5.0), 1)
    assert strong.t_n_star[0] == pytest.approx(VT_FIRST_PEAK_G5, abs=1e-12)

    with pytest.raises(ValueError):
        analytic.revival_times(params_for(0.5), 1)
    with pytest.raises(ValueError):
        analytic.revival_times(params_for(5.0), 0)


def test_peak_location_matches_grid_argmax():
    # the formula peak must land within one grid step of the curve's argmax
    for g in (5.0, 10.0):
        params = params_for(g)
        step = 1e-3 * 2.0 * math.pi / params.v
        times = analytic.revival_times(params, 2)
        for n in (1, 2):
            t_star = times.t_n_star[n - 1]
            window = np.arange(times.t_n[n - 1] - math.pi, times.t_n[n - 1] + math.pi, step)
            ef = states.entanglement_of_formation(
                np.minimum(np.abs(analytic.coherence_factor(params, window)), 1.0)
            )
            t_peak = window[np.argmax(ef)]
            assert abs(t_peak - t_star) <= step


def test_envelope_values():
    params = RTParams(v=1.0, gamma=0.5)
    assert analytic.envelope(params, 0.0) == pytest.approx(1.0, abs=1e-15)
    gt = 2.0 * math.log(2.0)  # exp(-gamma*t/2) = 1/2
    assert analytic.envelope(params, gt / params.gamma) == pytest.approx(EF_AT_HALF, abs=1e-12)
    assert analytic.envelope(params, gt / params.gamma) == pytest.approx(
        mp_entanglement_of_formation(0.5), abs=1e-14
    )
    static = analytic.envelope(params_for(math.inf), np.linspace(0.0, 50.0, 20))
    np.testing.assert_array_equal(static, np.ones(20))


def test_negative_times_rejected():
    params = params_for(5.0)
    with pytest.raises(ValueError):
        analytic.coherence_factor(params, -0.5)
    with pytest.raises(ValueError):
        analytic.coherence_factor_approx(params, np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        analytic.envelope(params, -1.0)
