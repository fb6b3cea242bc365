"""Two-qubit states and entanglement measures.

States are plain numpy arrays rather than wrapper classes: a pure state is a
normalized complex 4-vector in the computational basis (|00>, |01>, |10>,
|11>), a density matrix is a 4x4 Hermitian, unit-trace, positive
semidefinite complex array, and a weighted ensemble is a sequence of
``(probability, state)`` pairs.  The ``check_*`` helpers enforce these
conventions at the API boundary.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Validation tolerances for the state conventions above.
NORM_ATOL = 1e-12
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10

#: Tiny negative values of derived entanglement quantities are rounding
#: artifacts and get clamped to zero.
CLAMP_ATOL = 1e-9

WeightedEnsemble = Sequence[tuple[float, np.ndarray]]

# sigma_y (x) sigma_y, used in the spin-flip operation of Wootters' formula.
_SIGMA_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


def check_pure_state(state) -> np.ndarray:
    """Coerce ``state`` to a complex 4-vector and verify normalization."""
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (4,):
        raise ValueError(f"pure state must be a length-4 vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec.view(float))):
        raise ValueError("pure state contains non-finite amplitudes")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValueError(f"pure state is not normalized: ||state|| = {norm!r}")
    return vec


def check_density_matrix(rho) -> np.ndarray:
    """Validate a 4x4 density matrix and return its Hermitian part.

    Rejects inputs that violate Hermiticity, unit trace, or positivity
    beyond the module tolerances.
    """
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.view(float))):
        raise ValueError("density matrix contains non-finite entries")
    herm_dev = np.abs(mat - mat.conj().T).max()
    if herm_dev > HERM_ATOL:
        raise ValueError(f"density matrix is not Hermitian: max deviation {herm_dev!r}")
    trace = mat.trace()
    if abs(trace - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace is {trace!r}, expected 1")
    herm = 0.5 * (mat + mat.conj().T)
    eigmin = np.linalg.eigvalsh(herm)[0]
    if eigmin < -PSD_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {eigmin!r}")
    return herm


def bell_phi_plus() -> np.ndarray:
    """Maximally entangled state (|00> + |11>)/sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def apply_local_phase(state, phase: float, qubit: str = "A") -> np.ndarray:
    """Apply exp(-i*phase/2 * sigma_z) to one qubit of a two-qubit state.

    ``qubit`` selects the tensor factor, "A" (first) or "B" (second).  The
    operation is a local unitary, so norm and entanglement are preserved.
    """
    vec = check_pure_state(state)
    if qubit == "A":
        bits = np.array([0, 0, 1, 1])
    elif qubit == "B":
        bits = np.array([0, 1, 0, 1])
    else:
        raise ValueError(f"qubit must be 'A' or 'B', got {qubit!r}")
    sz = 1.0 - 2.0 * bits  # sigma_z eigenvalue per basis index
    return np.exp(-0.5j * (phase * sz)) * vec


def density_of(state) -> np.ndarray:
    """Rank-1 projector |state><state|."""
    vec = check_pure_state(state)
    return np.outer(vec, vec.conj())


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0.

    Accepts scalars or arrays; values outside [0, 1] beyond 1e-12 are
    rejected, values inside the tolerance band are clamped.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("binary_entropy argument must lie in [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    flat = np.atleast_1d(arr)
    out = np.zeros_like(flat)
    inside = (flat > 0.0) & (flat < 1.0)
    p = flat[inside]
    out[inside] = -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))
    out = out.reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    The usual prescription takes square roots of the eigenvalues of
    rho * (sy x sy) * conj(rho) * (sy x sy); computed naively that loses
    half the working precision on the near-zero eigenvalues.  Equivalently,
    with rho = V V^dagger (columns of V scaled by sqrt of the eigenvalues),
    the same square-rooted eigenvalues are the singular values of the
    complex symmetric matrix V^T (sy x sy) V, which an SVD delivers at full
    precision.
    """
    herm = check_density_matrix(rho)
    w, u = np.linalg.eigh(herm)
    v = u * np.sqrt(np.maximum(w, 0.0))
    tau = v.T @ _SIGMA_YY @ v
    lam = np.linalg.svd(tau, compute_uv=False)  # descending
    return float(min(1.0, max(0.0, 2.0 * lam[0] - lam.sum())))


def entanglement_of_formation(c):
    """Entanglement of formation from a concurrence value.

    E_f = h((1 + sqrt(1 - C^2))/2) with h the binary entropy.  Accepts
    scalars or arrays in [0, 1] (1e-12 slack).
    """
    arr = np.asarray(c, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("concurrence must lie in [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    x = 0.5 * (1.0 + np.sqrt(1.0 - arr * arr))
    return binary_entropy(x)


def entropy_of_entanglement(state) -> float:
    """Von Neumann entropy (base 2) of qubit A's reduced state."""
    vec = check_pure_state(state)
    psi = vec.reshape(2, 2)
    rho_a = psi @ psi.conj().T
    p = float(np.clip(np.linalg.eigvalsh(rho_a)[0], 0.0, 1.0))
    return binary_entropy(p)


def _check_ensemble(ensemble: WeightedEnsemble) -> list[tuple[float, np.ndarray]]:
    members = [(float(p), check_pure_state(s)) for p, s in ensemble]
    if not members:
        raise ValueError("ensemble must have at least one member")
    probs = np.array([p for p, _ in members])
    if np.any(probs < -1e-12):
        raise ValueError("ensemble probabilities must be non-negative")
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"ensemble probabilities sum to {total!r}, expected 1")
    return members


def mixture_density(ensemble: WeightedEnsemble) -> np.ndarray:
    """Density matrix of the ensemble mixture, sum_i p_i |s_i><s_i|."""
    members = _check_ensemble(ensemble)
    rho = np.zeros((4, 4), dtype=complex)
    for p, s in members:
        rho += p * np.outer(s, s.conj())
    return rho


def average_entanglement(ensemble: WeightedEnsemble) -> float:
    """Probability-weighted entropy of entanglement over ensemble members."""
    members = _check_ensemble(ensemble)
    return float(sum(p * entropy_of_entanglement(s) for p, s in members))


def hidden_entanglement(ensemble: WeightedEnsemble) -> float:
    """Average entanglement minus the mixture's entanglement of formation.

    This is the entanglement recoverable by local operations given classical
    knowledge of which ensemble member one holds.  Convexity of the
    entanglement of formation makes it non-negative; rounding-level
    negatives are clamped to zero.
    """
    e_av = average_entanglement(ensemble)
    e_f = entanglement_of_formation(concurrence(mixture_density(ensemble)))
    e_h = e_av - e_f
    if -CLAMP_ATOL < e_h < 0.0:
        e_h = 0.0
    return float(e_h)
