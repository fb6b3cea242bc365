"""Closed-form dephasing dynamics for the telegraph-noise qubit pair.

Everything here derives from the coherence decay factor q(t) of the qubit
exposed to the noise: the entanglement-of-formation curve, the
strong-coupling approximation, the revival-time families, and the decay
envelope traced by the revival peaks.
q(t) is one closed form for every coupling (``coherence_factor``): the
frozen noise gamma = 0 and the degenerate g = 1 are points of it, not
routes of their own.  Times are plain floats in the same units as 1/v and
1/gamma; the natural dimensionless variables are v*t and gamma*t.  The
qubits are taken in their rotating frame: their frequencies would only add
the local phase exp(i*(omega_a + omega_b)*t) to the corner element, which
a local frame change removes and no entanglement quantity sees.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from rtdeph import _kernels
from rtdeph.noise import RTParams
from rtdeph.states import entanglement_of_formation


def _match_scalar(out: np.ndarray, t):
    return out[()] if np.ndim(t) == 0 else out


def coherence_factor(params: RTParams, t):
    """Coherence decay factor q(t) of the dephasing qubit, for every v > 0
    and gamma >= 0.

    The paper writes it q(t) = exp(-i*v*t/2) * [A exp(-gamma(1-alpha)t/2)
    + (1-A) exp(-gamma(1+alpha)t/2)], with alpha = sqrt(1 - g^2) and
    A = (1 + 1/alpha)/2: weak coupling (g < 1) gives a pure decay, strong
    coupling (g > 1) damped oscillations.  With kappa = gamma*alpha =
    sqrt(gamma^2 - v^2), the principal root, and gamma - kappa written as
    v^2/(gamma + kappa), the same algebra reads

        q(t) = exp(-(i*v + v^2/(gamma + kappa))*t/2)
               * [1 + (1 - gamma/kappa)/2 * expm1(-kappa*t)].

    This form has no seam.  No difference of close numbers is taken, so
    weak coupling and g near 1 keep their digits; the frozen noise
    gamma = 0 gives kappa = i*v exactly and q = (1 + exp(-i*v*t))/2; and
    kappa is formed from gamma/s and v/s, s = max(v, gamma), so huge or
    tiny g cannot overflow it.  Only kappa = 0 (g = 1) takes its limit,
    the bracket 1 + gamma*t/2.  No exponent overflows either: the decay
    rate Re(v^2/(gamma + kappa)) is >= 0 and |expm1(-kappa*t)| <= 2, and
    a kappa*t that overflows, gamma*t past the largest float at g < 1,
    gives expm1 its limit -1.
    q(t) equals the average of exp(-i * integral of xi) over telegraph
    realizations, which is what the Monte Carlo engine estimates.
    """
    arr = _kernels._check_times(t, "times")
    v, gamma = params.v, params.gamma
    s = max(v, gamma)
    kappa = s * cmath.sqrt((gamma / s - v / s) * (gamma / s + v / s))
    rate = 0.5 * (1j * v + v * (v / (gamma + kappa)))
    if kappa == 0.0:
        bracket = 1.0 + 0.5 * gamma * arr
    else:
        # kappa*t past the largest float is -inf, where expm1 takes its
        # limit -1 exactly: that overflow is no fault
        with np.errstate(over="ignore"):
            bracket = 1.0 + 0.5 * (1.0 - gamma / kappa) * np.expm1(-kappa * arr)
    return _match_scalar(np.exp(-rate * arr) * bracket, t)


def coherence_factor_approx(params: RTParams, t):
    """Strong-coupling approximation of |q(t)|.

    exp(-gamma*t/2) * [cos(v*t/2) + sin(v*t/2)/g], accurate to O(1/g^2) for
    g > 1.  May be negative near the zeros; callers compare absolute values.
    """
    g = params.g
    if not g > 1.0:
        raise ValueError(f"approximation requires strong coupling g > 1, got g = {g!r}")
    arr = _kernels._check_times(t, "times")
    half_vt = 0.5 * params.v * arr
    out = np.exp(-0.5 * params.gamma * arr) * (np.cos(half_vt) + np.sin(half_vt) / g)
    return _match_scalar(out, t)


@dataclass(frozen=True)
class RevivalTimes:
    """Revival-time families for n = 1..n_max.

    ``t_n`` are the full-revival times 2*pi*n/v of the static limit,
    ``t_n_star`` the true peak locations t_n/sqrt(1 - 1/g^2) at finite
    coupling, and ``t_tilde_n`` the static-limit zeros (2n+1)*pi/v.
    """

    t_n: np.ndarray
    t_n_star: np.ndarray
    t_tilde_n: np.ndarray


def revival_times(params: RTParams, n_max: int) -> RevivalTimes:
    """Revival, peak, and zero times for n = 1..n_max.

    Peak locations require strong coupling; g <= 1 is rejected.  In the
    static limit (gamma = 0, g = inf) the peaks sit exactly at t_n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not params.g > 1.0:
        raise ValueError(f"peak times require g > 1, got g = {params.g!r}")
    n = np.arange(1, n_max + 1, dtype=float)
    t_n = 2.0 * np.pi * n / params.v
    t_tilde = (2.0 * n + 1.0) * np.pi / params.v
    t_star = t_n / math.sqrt(1.0 - 1.0 / (params.g * params.g))
    return RevivalTimes(t_n=t_n, t_n_star=t_star, t_tilde_n=t_tilde)


def envelope(params: RTParams, t):
    """Entanglement-of-formation envelope traced by the revival peaks.

    The peak values of |q| equal exp(-gamma*t/2) exactly, so this is the
    entanglement of formation of that decay; constant 1 in the static limit.
    """
    arr = _kernels._check_times(t, "times")
    return _match_scalar(np.asarray(entanglement_of_formation(np.exp(-0.5 * params.gamma * arr))), t)
