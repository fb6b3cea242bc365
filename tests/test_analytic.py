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


def test_coherence_factor_is_one_at_t_zero():
    for g in (0.5, 1.0, 5.0, math.inf):
        assert analytic.coherence_factor(params_for(g), 0.0) == pytest.approx(1.0, abs=1e-15)


def test_coherence_factor_oracle_values():
    # frozen high-precision evaluations, and the oracle still gives them
    q = analytic.coherence_factor(RTParams(v=1.0, gamma=0.2), 2.0 * math.pi)
    assert abs(q) == pytest.approx(Q_ABS_G5_VT_2PI, abs=1e-12)
    assert q == pytest.approx(mp_coherence_factor(1.0, 0.2, 2.0 * math.pi), abs=1e-12)

    assert analytic.coherence_factor(RTParams(v=1.0, gamma=2.0), 3.0) == pytest.approx(Q_G05_T3, abs=1e-12)
    assert analytic.coherence_factor(RTParams(v=1.0, gamma=0.1), 2.5) == pytest.approx(Q_G10_T25, abs=1e-12)

    assert abs(mp_coherence_factor(1.0, 0.2, 2.0 * math.pi)) == pytest.approx(Q_ABS_G5_VT_2PI, abs=1e-16)
    assert mp_coherence_factor(1.0, 2.0, 3.0) == pytest.approx(Q_G05_T3, abs=1e-16)
    assert mp_coherence_factor(1.0, 0.1, 2.5) == pytest.approx(Q_G10_T25, abs=1e-16)
    assert abs(mp_coherence_factor(1.0, 1.0, 2.0)) == pytest.approx(G1_MODULUS_GT2, abs=1e-16)


def test_coherence_factor_modulus_bounded():
    ts = np.linspace(0.0, 30.0, 400)
    for g in (0.3, 0.999, 1.0, 1.001, 2.0, 10.0, 500.0, math.inf):
        q = analytic.coherence_factor(params_for(g), ts)
        assert np.abs(q).max() <= 1.0 + 1e-12


def test_static_route_used_at_gamma_zero():
    # gamma = 0 is a point of the one closed form: kappa = i*v exactly
    v = 2.0
    ts = np.linspace(0.0, 10.0, 50)
    np.testing.assert_allclose(
        analytic.coherence_factor(params_for(math.inf, v=v), ts),
        0.5 * (1.0 + np.exp(-1j * v * ts)), rtol=0, atol=1e-15,
    )


def test_static_limit_consistency():
    # slow switching approaches the frozen-noise modulus
    v = 1.0
    params = RTParams(v=v, gamma=1e-6 * v)
    vt = np.linspace(0.0, 4.0 * math.pi, 200)
    q = analytic.coherence_factor(params, vt / v)
    assert np.abs(np.abs(q) - np.abs(np.cos(vt / 2.0))).max() < 1e-4


def test_coherence_factor_static_examples():
    static = params_for(math.inf)
    assert abs(analytic.coherence_factor(static, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert abs(analytic.coherence_factor(static, math.pi)) == pytest.approx(0.0, abs=1e-15)
    assert abs(analytic.coherence_factor(static, 2.0 * math.pi)) == pytest.approx(1.0, abs=1e-15)
    vt = 1.3
    assert analytic.coherence_factor(static, vt) == pytest.approx(
        0.5 * (1.0 + np.exp(-1j * vt)), abs=1e-15
    )


def test_g1_limit_formula():
    # at g = 1 exactly kappa = 0, and q is the limit
    # exp(-i*v*t/2) * exp(-gamma*t/2) * (1 + gamma*t/2)
    params = RTParams(v=1.0, gamma=1.0)
    assert analytic.coherence_factor(params, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert abs(analytic.coherence_factor(params, 2.0)) == pytest.approx(G1_MODULUS_GT2, abs=1e-14)
    assert abs(analytic.coherence_factor(params, 200.0)) < 1e-40
    ts = np.linspace(0.0, 30.0, 61)
    np.testing.assert_allclose(
        analytic.coherence_factor(params, ts),
        np.exp(-0.5j * ts) * np.exp(-0.5 * ts) * (1.0 + 0.5 * ts), rtol=0, atol=1e-15,
    )


def test_g1_seam_continuity():
    # on both sides of g = 1 the closed form keeps its digits: no route,
    # no seam, and no cancellation in (1 - gamma/kappa)
    ts = np.linspace(0.0, 10.0, 11)
    for dg in (1e-6, 1e-9, 1e-12):
        for g in (1.0 - dg, 1.0 + dg):
            near = analytic.coherence_factor(params_for(g), ts)
            exact = [mp_coherence_factor(1.0, 1.0 / g, t) for t in ts]
            assert np.abs(near - exact).max() <= 1e-15


#: Couplings by regime for the oracle check: weak, at and around g = 1,
#: moderate, huge (1 - g*g overflows from 1.3e154 on) and the frozen noise.
ORACLE_COUPLINGS = {
    "weak": (1e-9, 1e-6, 1e-3),
    "near_one": (1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 1e-6),
    "moderate": (0.5, 2.0, 5.0, 50.0),
    "huge": (1e8, 1e154, 1e155, 1e300),
    "static": (math.inf,),
}


@pytest.mark.parametrize("regime", list(ORACLE_COUPLINGS))
def test_coherence_factor_matches_the_feynman_kac_oracle(regime):
    # |q - q_oracle| <= 1e-15 * (1 + v*t) for v from 1e-200 to 1e200, over
    # v*t up to 300 and, where gamma >> v, also gamma*t up to 300
    scaled = (0.0, 0.7, 3.1, 17.0, 120.0, 300.0)
    for v in (1e-200, 1.0, 1e200):
        for g in ORACLE_COUPLINGS[regime]:
            params = params_for(g, v=v)
            ts = [x / v for x in scaled]
            if params.gamma > v:
                ts += [x / params.gamma for x in scaled[1:]]
            q = analytic.coherence_factor(params, np.array(ts))
            for t, value in zip(ts, q):
                err = abs(value - mp_coherence_factor(v, params.gamma, t)) / (1.0 + v * t)
                assert err <= 1e-15, (v, g, t, value)


def test_coherence_factor_where_kappa_t_overflows():
    # gamma*t past the largest float (g = 1e-308 up to v*t = 3, say): the
    # bracket takes expm1's limit -1 with no overflow warning, which fails
    # a test here, and q still matches the oracle
    for v, gamma in ((1.0, 1e308), (1e-8, 1e300)):
        ts = np.array([0.0, 1.0, 3.0, 1e10])
        assert math.isinf(gamma * float(ts[-1]))
        q = analytic.coherence_factor(RTParams(v=v, gamma=gamma), ts)
        for t, value in zip(ts, q):
            assert abs(value - mp_coherence_factor(v, gamma, t)) <= 1e-15 * (1.0 + v * t)


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
