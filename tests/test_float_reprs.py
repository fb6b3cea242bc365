"""The float formatter's contract: ``_kernels.float_reprs`` equals Python's
``repr(float(x))`` byte for byte, on both backends and for every float64."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SOURCE
from rtdeph import _kernels
from rtdeph._kernels import _reference

#: The binary exponents E (x = 1.f * 2**E) of the compiled exact fast path.
FAST_MIN_EXP, FAST_MAX_EXP = (int(x) for x in re.search(
    r"REPR_MIN_EXP = (-?\d+), REPR_MAX_EXP = (-?\d+)", SOURCE.read_text()).groups())


@pytest.fixture(params=["pure", "compiled"])
def impl(request):
    if request.param == "pure":
        return _reference
    return request.getfixturevalue("compiled")


def assert_reprs(compiled, values):
    """The compiled texts of ``values`` and of their negatives against
    repr, naming the first few values that differ."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    got = _kernels.float_reprs(values, impl=compiled)
    expected = list(map(repr, values.tolist()))
    if got != expected:
        wrong = [(x.hex(), e, g) for x, e, g in zip(values.tolist(), expected, got) if e != g]
        pytest.fail(f"{len(wrong)} of {len(values)} differ, e.g. {wrong[:5]}")


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_float_reprs_equal_repr_property(compiled, values):
    # st.floats() draws nan, +-inf, +-0.0 and subnormals too
    assert_reprs(compiled, np.array(values, dtype=np.float64))


def test_every_power_of_two_and_its_neighbours(compiled):
    # at a power of two the double below is half as far as the one above,
    # so the interval of reals that round to it is asymmetric
    assert_reprs(compiled, with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_their_neighbours(compiled):
    assert_reprs(compiled, with_neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_fast_path_edges(compiled):
    # the smallest normal double in the fast path, the largest, and the
    # doubles just outside it, which the fallback writes
    edges = [math.ldexp(1.0, FAST_MIN_EXP), math.ldexp(1.0, FAST_MAX_EXP + 1)]
    assert_reprs(compiled, with_neighbours(edges))
    assert_reprs(compiled, with_neighbours(np.nextafter(edges, [-np.inf, np.inf])))


@pytest.mark.parametrize("edge", [1e-4, 1e-5, 1e15, 1e16, 1e17])
def test_layout_edges(compiled, edge):
    # repr switches to exponent form below 1e-4 and from 1e16 up
    values = with_neighbours([edge, 1.5 * edge, 9.5 * edge])
    assert_reprs(compiled, values)
    texts = _kernels.float_reprs([edge], impl=compiled)
    assert texts == [repr(edge)] and ("e" in texts[0]) == (edge < 1e-4 or edge >= 1e16)


def test_integers_around_two_to_the_53(compiled):
    # above 2**53 the doubles are the even integers, above 2**54 the
    # multiples of 4, so the bounds of their intervals are integers
    k = np.arange(-2000, 2001, dtype=np.float64)
    for base in (2.0**53, 2.0**54, 2.0**55):
        assert_reprs(compiled, base + k)


def test_random_doubles_in_every_decade(compiled):
    # 10**5 doubles in each decade across and around the fast path, their
    # significands uniform
    rng = np.random.default_rng(20261019)
    for decade in range(-14, 17):
        assert_reprs(compiled, rng.uniform(10.0**decade, 10.0**(decade + 1), 50_000))


def test_short_significands_that_tie(compiled):
    # a double of few significant bits has an exact decimal one digit past
    # the 17 it needs, often ending in 5: the two nearest 17-digit numbers
    # tie, and repr takes the one with the even last digit
    assert _kernels.float_reprs([1.0 + 2.0**-17], impl=compiled) == ["1.0000076293945312"]
    rng = np.random.default_rng(5)
    odd = 2.0 * rng.integers(1, 2**20, 200_000) + 1.0
    assert_reprs(compiled, np.ldexp(odd, rng.integers(-75, 40, odd.size)))


def test_edge_inputs(impl):
    assert _kernels.float_reprs(np.array([]), impl=impl) == []
    grid = np.arange(12.0) / 7.0
    for view in (grid[::3], grid[::-2], (grid + 1j * grid).real, (grid + 1j * grid).imag):
        assert _kernels.float_reprs(view, impl=impl) == [repr(x) for x in view.tolist()]
    single = grid.astype(np.float32)
    assert _kernels.float_reprs(single, impl=impl) == [repr(float(x)) for x in single]
    assert _kernels.float_reprs([1, 2.5], impl=impl) == ["1.0", "2.5"]
    with pytest.raises(ValueError, match="1-D"):
        _kernels.float_reprs(np.zeros((2, 2)), impl=impl)


def test_compiled_formatter_rejects_other_buffers(compiled):
    for bad in (np.zeros(3, dtype=np.int64), np.zeros((2, 2)), np.zeros(3, dtype=np.float32)):
        with pytest.raises(ValueError, match="1-D float64"):
            compiled.float_reprs(bad)
    with pytest.raises(TypeError):
        compiled.float_reprs([1.0, 2.0])
