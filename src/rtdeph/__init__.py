"""Entanglement of two qubits under random-telegraph pure dephasing.

One qubit of a Bell pair picks up a random phase from a two-level
telegraph process; entanglement then revives periodically even though the
noise acts locally.  The package provides the closed-form coherence factor
and entanglement curves, an exact Monte Carlo ensemble engine that
cross-validates them, the hidden entanglement 1 - E_f of an ensemble, its
recovery by per-trajectory phase corrections, and a CLI that emits CSV/JSON
artifacts.

Imported before numpy, rtdeph lets OpenBLAS's idle threads sleep at once,
as no run calls BLAS (``_import_numpy``; README, "Start-up and BLAS threads").
"""


def _import_numpy() -> None:
    """Import numpy with OpenBLAS's idle workers set to sleep at once.

    OpenBLAS reads ``OPENBLAS_THREAD_TIMEOUT`` once, when numpy loads it:
    an idle worker busy-waits 2**timeout cycles before it sleeps, 2**28 by
    default (about 0.1 s of a core, spent after every import), and 4 is
    the lowest value it accepts.  No run of this package calls BLAS, and a
    later BLAS call still gets every worker.  The variable is set only for
    the import and only if numpy is not yet imported and the user has not
    set it, so ``os.environ`` and child processes are left as they were.
    """
    import os
    import sys

    key = "OPENBLAS_THREAD_TIMEOUT"
    if "numpy" in sys.modules or key in os.environ:
        return
    os.environ[key] = "4"
    try:
        import numpy
    finally:
        del os.environ[key]


_import_numpy()

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

__version__ = "0.7.7"

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
