"""Entanglement of two qubits under random-telegraph pure dephasing.

One qubit of a Bell pair picks up a random phase from a two-level
telegraph process; entanglement then revives periodically even though the
noise acts locally.  The package provides the closed-form coherence factor
and entanglement curves, an exact Monte Carlo trajectory engine that
cross-validates them, ensemble measures (average and hidden entanglement),
per-trajectory phase recovery, and a CLI that emits CSV/JSON artifacts.
"""

from rtdeph._kernels import BACKEND
from rtdeph.analytic import (
    CoherenceParams,
    RevivalTimes,
    SystemParams,
    coherence_factor,
    coherence_factor_approx,
    coherence_factor_g1,
    coherence_factor_static,
    density_matrix,
    envelope,
    revival_times,
)
from rtdeph.engine import (
    EnsembleResult,
    RecoveryReport,
    RunConfig,
    evolve_trajectory,
    recover_trajectory,
    recovery_report,
    run_ensemble,
    static_ensemble,
)
from rtdeph.noise import (
    AutocorrelationResult,
    RTParams,
    RTTrajectory,
    TrajectoryBatch,
    accumulated_phase,
    estimate_autocorrelation,
    level_at,
    sample_batch,
)
from rtdeph.states import (
    apply_local_phase,
    average_entanglement,
    bell_phi_plus,
    binary_entropy,
    concurrence,
    density_of,
    entanglement_of_formation,
    entropy_of_entanglement,
    hidden_entanglement,
    mixture_density,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "AutocorrelationResult",
    "CoherenceParams",
    "EnsembleResult",
    "RecoveryReport",
    "RevivalTimes",
    "RTParams",
    "RTTrajectory",
    "RunConfig",
    "SystemParams",
    "TrajectoryBatch",
    "accumulated_phase",
    "apply_local_phase",
    "average_entanglement",
    "bell_phi_plus",
    "binary_entropy",
    "coherence_factor",
    "coherence_factor_approx",
    "coherence_factor_g1",
    "coherence_factor_static",
    "concurrence",
    "density_matrix",
    "density_of",
    "entanglement_of_formation",
    "entropy_of_entanglement",
    "envelope",
    "estimate_autocorrelation",
    "evolve_trajectory",
    "hidden_entanglement",
    "level_at",
    "mixture_density",
    "recover_trajectory",
    "recovery_report",
    "revival_times",
    "run_ensemble",
    "sample_batch",
    "static_ensemble",
    "__version__",
]
