"""Two-qubit entanglement measures.

A density matrix is a 4x4 Hermitian, unit-trace, positive semidefinite
complex array in the computational basis (|00>, |01>, |10>, |11>);
``check_density_matrix`` enforces this at the API boundary.  The Wootters
concurrence of such a matrix and the entanglement of formation of a
concurrence are the package's two measures.
"""

from __future__ import annotations

import numpy as np

# Validation tolerances for the density-matrix convention above.
HERM_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10

# sigma_y (x) sigma_y, used in the spin-flip operation of Wootters' formula.
_SIGMA_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


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


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0.

    Accepts scalars or arrays; NaN and values outside [0, 1] beyond 1e-12
    are rejected, values inside the tolerance band are clamped.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):  # rejects NaN too
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
    scalars or arrays in [0, 1] (1e-12 slack); NaN is rejected.
    """
    arr = np.asarray(c, dtype=float)
    if not np.all((arr >= -1e-12) & (arr <= 1.0 + 1e-12)):  # rejects NaN too
        raise ValueError("concurrence must lie in [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    x = 0.5 * (1.0 + np.sqrt(1.0 - arr * arr))
    return binary_entropy(x)
