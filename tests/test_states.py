import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtdeph import engine, noise, states

from _oracles import (
    EF_AT_06,
    Q_ABS_G5_VT_2PI,
    mp_entanglement_of_formation,
    pure_concurrence,
    random_density,
    random_pure,
    schmidt_entropy,
    wootters_eig_route,
    x_state,
)


def test_mixture_density_is_valid():
    rng = np.random.default_rng(11)
    a, b = random_pure(rng), random_pure(rng)
    states.check_density_matrix(0.3 * np.outer(a, a.conj()) + 0.7 * np.outer(b, b.conj()))
    # the Bell-corner mixtures of the ensembles, at any |q| <= 1
    q = rng.uniform(size=20) * np.exp(2j * np.pi * rng.uniform(size=20))
    for z in q:
        states.check_density_matrix(x_state(np.conj(z)))


def test_hidden_entanglement_pure_ensemble_is_zero():
    # at t = 0 every trajectory is in the Bell state: the ensemble is pure
    # and hides no entanglement
    (result,) = engine.run_ensemble([noise.RTParams(v=1.0, gamma=0.2)], [0.0, 1.0], 64, 7)
    assert states.concurrence(x_state(np.conj(result.q_mean[0]))) == pytest.approx(1.0, abs=1e-12)
    assert result.e_h[0] == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    phase=st.floats(-20.0, 20.0),
    qubit=st.sampled_from(["A", "B"]),
    seed=st.integers(0, 2**31),
)
def test_concurrence_invariant_under_local_phase(phase, qubit, seed):
    vec = random_pure(np.random.default_rng(seed))
    rotation = np.diag(np.exp([-0.5j * phase, 0.5j * phase]))
    local = np.kron(rotation, np.eye(2)) if qubit == "A" else np.kron(np.eye(2), rotation)
    rotated = local @ vec
    before = states.concurrence(np.outer(vec, vec.conj()))
    after = states.concurrence(np.outer(rotated, rotated.conj()))
    assert after == pytest.approx(before, abs=1e-10)


def test_concurrence_bell_is_one():
    assert states.concurrence(x_state(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_maximally_mixed_is_zero():
    assert states.concurrence(np.eye(4) / 4.0) == 0.0


def test_concurrence_x_state_frozen_value():
    # coherence modulus of the strong-coupling point g=5, v*t=2*pi
    c = states.concurrence(x_state(Q_ABS_G5_VT_2PI))
    assert c == pytest.approx(Q_ABS_G5_VT_2PI, abs=1e-10)
    # sanity: near exp(-pi/5) ~ 0.533 predicted by the peak-decay approximation
    assert abs(c - 0.533) < 0.01


def test_concurrence_x_state_equals_coherence_modulus():
    rng = np.random.default_rng(7)
    for _ in range(300):
        q = rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert states.concurrence(x_state(q)) == pytest.approx(abs(q), abs=1e-10)


def test_concurrence_pure_states_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(300):
        vec = random_pure(rng)
        c = states.concurrence(np.outer(vec, vec.conj()))
        assert c == pytest.approx(pure_concurrence(vec), abs=1e-10)


def test_concurrence_agrees_with_eigensolver_route():
    # dual route: textbook eigensolver construction, at its coarser accuracy
    rng = np.random.default_rng(9)
    for _ in range(100):
        rho = random_density(rng)
        assert states.concurrence(rho) == pytest.approx(wootters_eig_route(rho), abs=1e-7)


def test_concurrence_rejects_unphysical_input():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.1  # not Hermitian
    with pytest.raises(ValueError):
        states.concurrence(bad)
    with pytest.raises(ValueError):
        states.concurrence(np.eye(4, dtype=complex))  # trace 4
    negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        states.concurrence(negative)


def test_entanglement_of_formation_endpoints():
    assert states.entanglement_of_formation(1.0) == pytest.approx(1.0, abs=1e-15)
    assert states.entanglement_of_formation(0.0) == 0.0


def test_entanglement_of_formation_frozen_value():
    assert states.entanglement_of_formation(0.6) == pytest.approx(EF_AT_06, abs=1e-5)
    assert states.entanglement_of_formation(0.6) == pytest.approx(
        mp_entanglement_of_formation(0.6), abs=1e-14
    )


def test_entanglement_of_formation_monotone():
    c = np.linspace(0.0, 1.0, 2001)
    ef = states.entanglement_of_formation(c)
    assert np.all(np.diff(ef) >= 0.0)


def test_entanglement_of_formation_rejects_out_of_range():
    with pytest.raises(ValueError):
        states.entanglement_of_formation(1.001)
    with pytest.raises(ValueError):
        states.entanglement_of_formation(-0.001)


def test_binary_entropy_values():
    assert states.binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert states.binary_entropy(0.0) == 0.0
    assert states.binary_entropy(1.0) == 0.0
    arr = states.binary_entropy(np.array([0.0, 0.25, 0.5, 1.0]))
    np.testing.assert_allclose(arr, [0.0, 0.81127812445913283, 1.0, 0.0], atol=1e-14)
    with pytest.raises(ValueError):
        states.binary_entropy(1.1)


@pytest.mark.parametrize("measure", [states.binary_entropy, states.entanglement_of_formation])
@pytest.mark.parametrize("value", [np.nan, [0.5, np.nan], np.full((2, 2), np.nan)])
def test_measures_reject_nan(measure, value):
    # NaN fails every comparison, so a range check written as "reject what
    # lies below or above" lets it through, and the entropy's mask of the
    # open interval then maps it to 0.0
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        measure(value)


# Bits of each measure at these arguments, the tolerance band included;
# the range check that rejects NaN must not move them
VALID = [-1e-12, 0.0, 1e-300, 0.25, 0.5, 0.6, 1 - 2**-53, 1.0, 1 + 1e-12]
FROZEN_BITS = {
    "binary_entropy": [
        "0x0.0p+0", "0x0.0p+0", "0x1.4db3639c84769p-987", "0x1.9f5fd8a9063e3p-1",
        "0x1.0000000000000p+0", "0x1.f1206fb26ddaep-1", "0x1.b38aa3b295c18p-48",
        "0x0.0p+0", "0x0.0p+0",
    ],
    "entanglement_of_formation": [
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.e1c45403d0aaep-4",
        "0x1.6b16bb5b32136p-2", "0x1.e0406181bc7ccp-2", "0x1.fffffffffffffp-1",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ],
}


@pytest.mark.parametrize("name", sorted(FROZEN_BITS))
def test_measures_keep_their_bits_on_valid_input(name):
    measure = getattr(states, name)
    assert [measure(x).hex() for x in VALID] == FROZEN_BITS[name]
    assert [float(v).hex() for v in measure(np.array(VALID))] == FROZEN_BITS[name]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), weight=st.floats(0.0, 1.0))
def test_hidden_entanglement_nonnegative(seed, weight):
    # mixing cannot create entanglement of formation beyond the average
    # entanglement of the members, E_h = E_av - E_f >= 0 up to rounding
    rng = np.random.default_rng(seed)
    a, b = random_pure(rng), random_pure(rng)
    rho = weight * np.outer(a, a.conj()) + (1.0 - weight) * np.outer(b, b.conj())
    e_av = weight * schmidt_entropy(a) + (1.0 - weight) * schmidt_entropy(b)
    assert states.entanglement_of_formation(states.concurrence(rho)) <= e_av + 1e-9

