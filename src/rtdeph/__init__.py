"""Entanglement of two qubits under random-telegraph pure dephasing.

One qubit of a Bell pair picks up a random phase from a two-level
telegraph process; entanglement then revives periodically even though the
noise acts locally.  The package provides the closed-form coherence factor
and entanglement curves, an exact Monte Carlo ensemble engine that
cross-validates them, the hidden entanglement 1 - E_f of an ensemble, its
recovery by per-trajectory phase corrections, and a CLI that emits CSV/JSON
artifacts.
"""

from rtdeph._kernels import BACKEND
from rtdeph.analytic import (
    RevivalTimes,
    coherence_factor,
    coherence_factor_approx,
    envelope,
    revival_times,
)
from rtdeph.engine import (
    EnsembleResult,
    RecoveryReport,
    recovery_report,
    run_ensemble,
)
from rtdeph.noise import (
    AutocorrelationResult,
    RTParams,
    TrajectoryBatch,
    estimate_autocorrelation,
    sample_batch,
)
from rtdeph.states import (
    binary_entropy,
    concurrence,
    entanglement_of_formation,
)

__version__ = "0.7.1"

__all__ = [
    "BACKEND",
    "AutocorrelationResult",
    "EnsembleResult",
    "RecoveryReport",
    "RevivalTimes",
    "RTParams",
    "TrajectoryBatch",
    "binary_entropy",
    "coherence_factor",
    "coherence_factor_approx",
    "concurrence",
    "entanglement_of_formation",
    "envelope",
    "estimate_autocorrelation",
    "recovery_report",
    "revival_times",
    "run_ensemble",
    "sample_batch",
    "__version__",
]
