"""Monte Carlo trajectory engine for the dephasing qubit pair.

Each telegraph realization evolves the initial Bell state in closed form:
the Hamiltonian is diagonal per realization, so the state at time t is
(|00> + exp(-i*theta_tot)|11>)/sqrt(2) with theta_tot the sum of the
deterministic frequency phase and the noise phase integral.  No time
stepping, hence no integration error.  Ensembles average the projectors of
these states; per-trajectory coherences exp(-i * integral of xi) average to
the Monte Carlo estimate of the analytic coherence factor.

Ensembles and recovery reports take their trajectories from the block
stream ``noise.stream``, which reduces each block on its own, on a thread
pool, and adds the block results in block order.  ``run_ensemble`` and
``recovery_report`` take a sequence of configs sharing their seed and
trajectory count, and one pass serves them all: each block is drawn once
and each config reduces its view of the draws, with its own epoch length,
up to its own last grid time, so each result equals its one-config call
bit for bit.  The configs of a pass share their realizations (common
random numbers): their Monte Carlo errors are correlated, and per-config
checks on them are not independent tests.

For an ensemble one backend call (``_kernels.block_sums``) turns a
block's switch times into difference arrays of its coherences
z = exp(-i*v*dwell) on the grid, shifted by their t = 0 value 1: between
two switches a row's coherence is a constant or a constant times a grid
factor, so each stretch between switches is added once and no (n, m)
array is formed.  The blocks'
difference arrays are added in block order, and one prefix sum over the
total (``_kernels.column_sums``) gives the column sums of the coherences
and of their squares, from which follow the mean and the sums of squared
deviations.  Recovery needs only two means, of the coherences at the
revival time without and with the phase correction, so each block gives
their two sums, added in block order.  Memory does not grow with the
number of trajectories, and there is no cap on the ensemble size.  The
concurrence of an averaged ensemble is min(|q|, 1), q its mean coherence.

Reproducibility contract: trajectory i is fixed by (master_seed, i) alone,
its draws being keyed by counters (``noise.sample_batch``); the blocks of
``noise.BLOCK`` trajectories and their merge order do not depend on the
thread count, so results are bit-identical for any thread count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from rtdeph import _kernels, noise, states
from rtdeph.analytic import SystemParams, bell_corner_density

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RunConfig:
    """Ensemble run description: system, sample times, size, and seed."""

    system: SystemParams
    t_grid: np.ndarray
    n_trajectories: int
    master_seed: int

    def __post_init__(self):
        grid = np.asarray(self.t_grid, dtype=float)
        object.__setattr__(self, "t_grid", grid)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("t_grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(grid)):
            raise ValueError("t_grid must be finite")
        if grid[0] < 0.0 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("t_grid must be strictly increasing and start at >= 0")
        if grid[-1] <= 0.0:
            raise ValueError("t_grid must extend beyond t = 0")
        if self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be >= 1, got {self.n_trajectories}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")


@dataclass(frozen=True)
class EnsembleResult:
    """Per-grid-time Monte Carlo estimates and the run metadata.

    ``e_h`` is ``e_av - e_f`` by construction.  ``q_mean`` is the mean of
    the per-trajectory coherence factors exp(-i * integral of xi); its
    standard errors are ddof=1 sample deviations over sqrt(n).  Every
    realization keeps |z| = 1, so every trajectory state is maximally
    entangled: ``e_av`` is 1, ``e_av_se`` 0 and ``min_trajectory_entropy``
    1.0 by construction, and the hidden entanglement is 1 - E_f.
    """

    t_grid: np.ndarray
    rho: np.ndarray
    q_mean: np.ndarray
    q_se_re: np.ndarray
    q_se_im: np.ndarray
    e_av: np.ndarray
    e_av_se: np.ndarray
    e_f: np.ndarray
    e_f_se: np.ndarray
    e_h: np.ndarray
    min_trajectory_entropy: float
    n_trajectories: int
    master_seed: int
    system: SystemParams = field(repr=False)


def evolve_trajectory(system: SystemParams, traj: noise.RTTrajectory, t: float) -> np.ndarray:
    """Bell state evolved along one noise realization, in the gauge where the
    |00> amplitude stays real positive.

    Returns (|00> + exp(-i*theta_tot)|11>)/sqrt(2) with theta_tot =
    (omega_a + omega_b)*t plus the accumulated noise phase.  Exact: the
    phase integral comes from the switch times.
    """
    theta = (system.omega_a + system.omega_b) * float(t) + noise.accumulated_phase(
        traj, t, v=system.rt.v
    )
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    state[3] = np.exp(-1j * theta)
    return state / np.sqrt(2.0)


def _correction_phase(theta, n: int):
    """Leftover noise phase at the revival time t_n, which recovery undoes."""
    return theta - _TWO_PI * n


def _ef_derivative(c: np.ndarray) -> np.ndarray:
    """d E_f / dC = (C/2s) log2((1 + s)/(1 - s)), s = sqrt(1 - C^2), at each
    concurrence C, with the continuous limits 0 at C=0 and 1/ln2 at C=1.
    (1 + s)/(1 - s) is taken as 1 + 2s(1 + s)/C^2, so that small C, whose
    1 - s cancels (and is 0 below C ~ 1e-8), keeps its digits."""
    inside = (c > 0.0) & (c < 1.0)
    x = np.where(inside, c, 0.5)
    s = np.sqrt(1.0 - x * x)
    slope = (x / s) * np.log1p(2.0 * s * (1.0 + s) / (x * x)) / (2.0 * math.log(2.0))
    return np.where(inside, slope, np.where(c >= 1.0, 1.0 / math.log(2.0), 0.0))


def _moments(n: int, d: np.ndarray, t_grid, v: float):
    """The mean of (Re z, Im z) over the n coherences whose difference
    arrays add up to ``d``, and their sums of squared deviations M2, each
    (m, 2): (1 + s_re/n, s_im/n) and max(q - s**2/n, 0), exactly 0 for
    n = 1, from the column sums s and q (``_kernels.column_sums``)."""
    s, q = _kernels.column_sums(d, t_grid, v)
    mean = s / n
    mean[:, 0] += 1.0
    if n == 1:
        return mean, np.zeros_like(s)
    return mean, np.maximum(q - np.square(s) / n, 0.0)


def _one_pass(configs) -> tuple:
    """The configs of one sampled pass, which must share the trajectories:
    the same ``master_seed`` and ``n_trajectories``."""
    configs = tuple(configs)
    if not configs:
        raise ValueError("need at least one RunConfig")
    first = configs[0]
    for config in configs[1:]:
        if (config.master_seed, config.n_trajectories) != (first.master_seed,
                                                          first.n_trajectories):
            raise ValueError("the configs of one call must share master_seed and n_trajectories")
    return configs


def _block_sums(config: RunConfig, batch: noise.TrajectoryBatch) -> np.ndarray:
    return _kernels.block_sums(batch.levels, batch.times, config.t_grid, config.system.rt.v,
                               scale=batch.scale)


def run_ensemble(configs, n_threads: int = 1) -> list[EnsembleResult]:
    """Average an ensemble of noise realizations over the time grid, for
    each config of the sequence ``configs``.

    For each grid time this produces the averaged density matrix, the mean
    coherence with standard errors, the entanglement of formation of the
    average, the average entanglement over trajectories, and their
    difference (the hidden entanglement).  The configs share their seed and
    trajectory count, and one pass over the blocks serves them all: each
    result equals that of a call with its config alone, bit for bit, and
    the results share their realizations.  Deterministic given the seed,
    independent of ``n_threads``.
    """
    configs = _one_pass(configs)
    couplings = [(c.system.rt, float(c.t_grid[-1]), functools.partial(_block_sums, c))
                 for c in configs]
    totals = noise.stream(couplings, configs[0].n_trajectories, configs[0].master_seed,
                          n_threads=n_threads)
    return [_ensemble(c, d) for c, d in zip(configs, totals)]


def _ensemble(config: RunConfig, d: np.ndarray) -> EnsembleResult:
    """The ensemble result of ``config`` from its difference arrays ``d``
    (``_kernels.block_sums``, added over all blocks)."""
    v, n = config.system.rt.v, config.n_trajectories
    mean, m2 = _moments(n, d, config.t_grid, v)
    q_mean = mean.view(np.complex128)[:, 0]
    q_se = np.sqrt(m2 / max(n - 1, 1)) / math.sqrt(n)

    q_abs = np.abs(q_mean)
    concurrence = np.minimum(q_abs, 1.0)
    se_c = np.where(
        q_abs > 0.0,
        np.sqrt(np.square(mean * q_se).sum(axis=1)) / np.where(q_abs > 0.0, q_abs, 1.0),
        q_se.max(axis=1),
    )
    e_f = states.entanglement_of_formation(concurrence)
    e_f_se = _ef_derivative(concurrence) * se_c
    omega_sum = config.system.omega_a + config.system.omega_b
    m = config.t_grid.shape[0]
    e_av = np.ones(m)

    return EnsembleResult(
        t_grid=config.t_grid,
        rho=bell_corner_density(q_mean, omega_sum * config.t_grid),
        q_mean=q_mean,
        q_se_re=q_se[:, 0],
        q_se_im=q_se[:, 1],
        e_av=e_av,
        e_av_se=np.zeros(m),
        e_f=e_f,
        e_f_se=e_f_se,
        e_h=e_av - e_f,
        min_trajectory_entropy=1.0,
        n_trajectories=config.n_trajectories,
        master_seed=config.master_seed,
        system=config.system,
    )


def _revival_index(v: float, t_n: float) -> int:
    """Validate that t_n is a revival time 2*pi*n/v and return n."""
    ratio = v * float(t_n) / _TWO_PI
    n = int(round(ratio))
    if n < 1 or abs(v * float(t_n) - _TWO_PI * n) > 1e-9 * max(1.0, abs(v * float(t_n))):
        raise ValueError(f"t = {t_n!r} is not a revival time 2*pi*n/v for any n >= 1")
    return n


def recover_trajectory(system: SystemParams, traj: noise.RTTrajectory, t_n: float) -> np.ndarray:
    """Undo the random phase of one realization at a revival time.

    The leftover noise phase is theta(t_n) = integral of xi - 2*pi*n; the
    local unitary exp(-i*theta/2*sigma_z) on the noisy qubit cancels it, so
    the corrected state is maximally entangled again.  Knowing theta
    requires the realization, which is exactly the classical side
    information that turns hidden entanglement back into usable
    entanglement.
    """
    n = _revival_index(system.rt.v, t_n)
    vartheta = _correction_phase(noise.accumulated_phase(traj, t_n, v=system.rt.v), n)
    state = evolve_trajectory(system, traj, t_n)
    return states.apply_local_phase(state, vartheta, qubit="A")


@dataclass(frozen=True)
class RecoveryReport:
    """Ensemble concurrence at a revival time, before and after recovery."""

    t_n: float
    revival_index: int
    concurrence_before: float
    concurrence_after: float


def _revival_sums(v: float, n: int, batch: noise.TrajectoryBatch) -> np.ndarray:
    """The sums of the batch's coherences at its horizon, the revival time
    t_n = 2*pi*n/v of its coupling, uncorrected and corrected.  The states
    |00> + z|11> are carried without the common 1/sqrt(2); a corrected
    state's coherence is its |11> over its |00> amplitude.
    exp(-i*vartheta/2*sigma_z) on qubit A multiplies |00> by h =
    exp(-i*vartheta/2) and |11> by conj(h), so the ratio is
    conj(h)*z*conj(h)."""
    theta = v * _kernels.dwell_times(batch.levels, batch.times, [batch.horizon],
                                     scale=batch.scale)[:, 0]
    z = np.exp(-1j * theta)
    h_conj = np.conj(np.exp(-0.5j * _correction_phase(theta, n)))
    return np.array([z.sum(), (h_conj * z * h_conj).sum()])


def recovery_report(configs, n: int, n_threads: int = 1) -> list[RecoveryReport]:
    """Concurrence of the averaged ensemble at t_n = 2*pi*n/v, with and
    without the per-trajectory phase correction, for each config of the
    sequence ``configs``.

    Uses the same trajectory streams and blocks as ``run_ensemble`` for the
    same seed, and like it serves every config from one pass over the
    blocks.  Each block computes the noise phase theta(t_n) once
    (``_kernels.dwell_times``) and sums its uncorrected coherences
    exp(-i*theta) and its corrected ones, which apply the local unitary of
    ``recover_trajectory`` to every trajectory state.  The block sums are
    added in block order, and the ensemble coherences are their means.
    """
    if n < 1:
        raise ValueError(f"revival index must be >= 1, got {n}")
    configs = _one_pass(configs)
    couplings = [(c.system.rt, _TWO_PI * n / c.system.rt.v,
                  functools.partial(_revival_sums, c.system.rt.v, n)) for c in configs]
    totals = noise.stream(couplings, configs[0].n_trajectories, configs[0].master_seed,
                          n_threads=n_threads)
    reports = []
    for (_, t_n, _), total in zip(couplings, totals):
        before, after = np.minimum(np.abs(total / configs[0].n_trajectories), 1.0)
        reports.append(RecoveryReport(t_n=t_n, revival_index=n,
                                      concurrence_before=float(before),
                                      concurrence_after=float(after)))
    return reports


def static_ensemble(system: SystemParams, t: float) -> list[tuple[float, np.ndarray]]:
    """The two-member trajectory ensemble of the frozen-noise limit.

    With gamma = 0 the noise never switches, so the only realizations are
    the constant levels 0 and v, each with probability 1/2.
    """
    if system.rt.gamma != 0.0:
        raise ValueError(f"static ensemble requires gamma = 0, got gamma = {system.rt.gamma!r}")
    t = float(t)
    horizon = max(t, 0.0)
    members = []
    for level in (0, 1):
        traj = noise.RTTrajectory(initial_level=level, switch_times=np.empty(0), horizon=horizon)
        members.append((0.5, evolve_trajectory(system, traj, t)))
    return members
