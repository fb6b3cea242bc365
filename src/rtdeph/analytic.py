"""Closed-form dephasing dynamics for the telegraph-noise qubit pair.

Everything here derives from the coherence decay factor q(t) of the qubit
exposed to the noise: the evolved two-qubit density matrix, the
entanglement-of-formation curve, the static and strong-coupling limits, the
revival-time families, and the decay envelope traced by the revival peaks.
Times are plain floats in the same units as 1/v and 1/gamma; the natural
dimensionless variables are v*t and gamma*t.  The qubits are taken in their
rotating frame: their frequencies would only add the local phase
exp(i*(omega_a + omega_b)*t) to the corner element, which a local frame
change removes and no entanglement quantity sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rtdeph.noise import RTParams
from rtdeph.states import entanglement_of_formation

#: Couplings this close to g=1 are routed to the g=1 limit formula, where
#: the generic expression suffers catastrophic cancellation in A = (1+1/alpha)/2.
G1_ATOL = 1e-8


@dataclass(frozen=True)
class CoherenceParams:
    """Derived constants of the coherence factor: alpha = sqrt(1-g^2) and
    A = (1 + 1/alpha)/2.

    For g > 1 the principal square root puts alpha on the positive
    imaginary axis.  The opposite branch swaps the two exponential terms
    together with A <-> 1-A and leaves q(t) unchanged.
    """

    g: float
    alpha: complex
    a_coef: complex

    def __post_init__(self):
        residual = abs(self.alpha * self.alpha + self.g * self.g - 1.0)
        if residual > 1e-12 * max(1.0, self.g * self.g):
            raise ValueError(f"alpha^2 + g^2 = 1 violated by {residual!r}")

    @classmethod
    def from_g(cls, g: float) -> "CoherenceParams":
        if not (math.isfinite(g) and g > 0.0):
            raise ValueError(f"coupling g must be finite and positive, got {g!r}")
        alpha = complex(np.sqrt(complex(1.0 - g * g)))
        return cls(g=g, alpha=alpha, a_coef=0.5 * (1.0 + 1.0 / alpha))


def _check_times(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("times must be finite")
    if np.any(arr < 0.0):
        raise ValueError("times must be non-negative")
    return arr


def _match_scalar(out: np.ndarray, t):
    return out[()] if np.ndim(t) == 0 else out


def coherence_factor_static(v: float, t):
    """Coherence factor in the frozen-noise limit: (1 + exp(-i*v*t))/2.

    Its modulus is |cos(v*t/2)|, so the concurrence never decays; it just
    oscillates between 0 and 1.
    """
    arr = np.asarray(t, dtype=float)
    out = 0.5 * (1.0 + np.exp(-1j * v * arr))
    return _match_scalar(out, t)


def coherence_factor_g1(params: RTParams, t):
    """Coherence factor at the degenerate coupling g = 1 (v = gamma).

    This is the alpha -> 0 limit of the generic expression:
    exp(-i*v*t/2) * exp(-gamma*t/2) * (1 + gamma*t/2).
    """
    if abs(params.g - 1.0) > G1_ATOL:
        raise ValueError(f"g=1 limit formula called with g = {params.g!r}")
    arr = _check_times(t)
    gt = params.gamma * arr
    out = np.exp(-0.5j * params.v * arr) * np.exp(-0.5 * gt) * (1.0 + 0.5 * gt)
    return _match_scalar(out, t)


def coherence_factor(params: RTParams, t):
    """Coherence decay factor q(t) of the dephasing qubit.

    q(t) = exp(-i*v*t/2) * [A exp(-gamma(1-alpha)t/2) + (1-A) exp(-gamma(1+alpha)t/2)]

    with alpha = sqrt(1 - g^2) and A = (1 + 1/alpha)/2.  Weak coupling
    (g < 1) gives a pure decay, strong coupling (g > 1) damped oscillations.
    The singular points are routed to their limits: gamma = 0 to the static
    formula and |g - 1| < 1e-8 to the g = 1 formula.  Equals the average of
    exp(-i * integral of xi) over telegraph realizations, which is what the
    Monte Carlo engine estimates.
    """
    arr = _check_times(t)
    if params.gamma == 0.0:
        out = coherence_factor_static(params.v, arr)
    elif abs(params.g - 1.0) < G1_ATOL:
        out = coherence_factor_g1(params, arr)
    else:
        cp = CoherenceParams.from_g(params.g)
        half_gt = 0.5 * params.gamma * arr
        mix = cp.a_coef * np.exp(-(1.0 - cp.alpha) * half_gt) + (
            1.0 - cp.a_coef
        ) * np.exp(-(1.0 + cp.alpha) * half_gt)
        out = np.exp(-0.5j * params.v * arr) * mix
    return _match_scalar(out, t)


def coherence_factor_approx(params: RTParams, t):
    """Strong-coupling approximation of |q(t)|.

    exp(-gamma*t/2) * [cos(v*t/2) + sin(v*t/2)/g], accurate to O(1/g^2) for
    g > 1.  May be negative near the zeros; callers compare absolute values.
    """
    g = params.g
    if not g > 1.0:
        raise ValueError(f"approximation requires strong coupling g > 1, got g = {g!r}")
    arr = _check_times(t)
    half_vt = 0.5 * params.v * arr
    out = np.exp(-0.5 * params.gamma * arr) * (np.cos(half_vt) + np.sin(half_vt) / g)
    return _match_scalar(out, t)


def bell_corner_density(q) -> np.ndarray:
    """Average of the projectors of (|00> + z|11>)/sqrt(2) over trajectory
    coherences z with mean ``q``, in the qubits' rotating frame.

    Only the Bell corners are populated: diag(1/2, 0, 0, 1/2) plus
    <00|rho|11> = conj(q) / 2, so the concurrence equals min(|q|, 1).
    Broadcasts over ``q``, returning (..., 4, 4).
    """
    corner = 0.5 * np.conj(q)
    rho = np.zeros(np.shape(corner) + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho[..., 3, 3] = 0.5
    rho[..., 0, 3] = corner
    rho[..., 3, 0] = np.conj(corner)
    return rho


def density_matrix(params: RTParams, t: float) -> np.ndarray:
    """Evolved two-qubit density matrix for the initial (|00>+|11>)/sqrt(2),
    in the qubits' rotating frame.

    Populations stay at 1/2 on |00> and |11>; the only coherence is the
    corner element conj(q(t)) / 2 of ``bell_corner_density``, so the
    concurrence equals |q(t)|.
    """
    return bell_corner_density(coherence_factor(params, float(t)))


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

    Peak locations require strong coupling; finite g <= 1 is rejected.  In
    the static limit (gamma = 0) the peaks sit exactly at t_n.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    n = np.arange(1, n_max + 1, dtype=float)
    t_n = 2.0 * np.pi * n / params.v
    t_tilde = (2.0 * n + 1.0) * np.pi / params.v
    if params.gamma == 0.0:
        t_star = t_n.copy()
    elif params.g > 1.0:
        t_star = t_n / math.sqrt(1.0 - 1.0 / (params.g * params.g))
    else:
        raise ValueError(f"peak times require g > 1, got g = {params.g!r}")
    return RevivalTimes(t_n=t_n, t_n_star=t_star, t_tilde_n=t_tilde)


def envelope(params: RTParams, t):
    """Entanglement-of-formation envelope traced by the revival peaks.

    The peak values of |q| equal exp(-gamma*t/2) exactly, so this is the
    entanglement of formation of that decay; constant 1 in the static limit.
    """
    arr = _check_times(t)
    return _match_scalar(np.asarray(entanglement_of_formation(np.exp(-0.5 * params.gamma * arr))), t)
