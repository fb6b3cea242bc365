"""Independent checks of the artifacts the rtdeph CLI writes.

Every reference value is computed here, not read from rtdeph: the
coherence factor q(t) and the entanglement of formation are evaluated in
mpmath at 30 significant digits, the telegraph autocorrelation is
exp(-gamma*tau).  Each ``check_*`` function returns a list of error
strings; an empty list means the artifact is correct.

Tolerances (all fixed here, none taken from the artifact):

- closed-form columns match the mpmath reference to ``EXACT_ATOL``;
- Monte Carlo estimates lie within ``SE_MULTIPLE`` reported standard errors
  on at least ``MIN_FRACTION`` of the points of each coupling, and within
  ``MAX_ABS_DEV`` everywhere;
- single-number estimates from n trajectories (recovery concurrence,
  autocorrelation) lie within ``SE_MULTIPLE / sqrt(n)`` of the reference:
  every per-trajectory term has modulus at most 1, so 1/sqrt(n) bounds the
  standard error.
"""

from __future__ import annotations

import functools
import json
import math

import mpmath

EXACT_ATOL = 1e-9
SE_MULTIPLE = 4.0
MIN_FRACTION = 0.95
MAX_ABS_DEV = 0.05
GRID_ATOL = 1e-12

CSV_HEADER = "vt,g,ef_analytic,envelope,ef_mc,ef_mc_se"


def g_label(g: float) -> str:
    """The CLI's spelling of a coupling value."""
    return "inf" if math.isinf(g) else repr(float(g))


def vt_grid(vt_step: float, vt_max: float) -> list[float]:
    """The CLI's dimensionless time grid: multiples of vt_step up to vt_max."""
    n_steps = int(math.floor(vt_max / vt_step + 1e-9))
    return [vt_step * i for i in range(n_steps + 1)]


@functools.lru_cache(maxsize=None)
def _q_mp(g: float, vt: float, v: float):
    """q(t) in mpmath for coupling g = v/gamma at dimensionless time v*t."""
    with mpmath.workdps(30):
        v_mp = mpmath.mpf(v)
        t = mpmath.mpf(vt) / v_mp
        phase = mpmath.exp(-0.5j * v_mp * t)
        if math.isinf(g):
            return (1 + mpmath.exp(-1j * v_mp * t)) / 2
        gamma = v_mp / mpmath.mpf(g)
        half_gt = gamma * t / 2
        if g == 1.0:
            return phase * mpmath.exp(-half_gt) * (1 + half_gt)
        alpha = mpmath.sqrt(mpmath.mpc(1 - mpmath.mpf(g) ** 2))
        a = (1 + 1 / alpha) / 2
        return phase * (a * mpmath.exp(-(1 - alpha) * half_gt)
                        + (1 - a) * mpmath.exp(-(1 + alpha) * half_gt))


def coherence(g: float, vt: float, v: float = 1.0) -> complex:
    """Reference coherence factor q(t) as a Python complex."""
    return complex(_q_mp(g, vt, v))


def _ef_mp(c):
    with mpmath.workdps(30):
        c = min(max(mpmath.mpf(c), 0), 1)
        x = (1 + mpmath.sqrt(1 - c * c)) / 2
        if x >= 1:
            return mpmath.mpf(0)
        return -(x * mpmath.log(x, 2) + (1 - x) * mpmath.log(1 - x, 2))


@functools.lru_cache(maxsize=None)
def formation(g: float, vt: float, v: float = 1.0) -> float:
    """Reference entanglement of formation E_f(|q(t)|)."""
    with mpmath.workdps(30):
        return float(_ef_mp(abs(_q_mp(g, vt, v))))


@functools.lru_cache(maxsize=None)
def envelope(g: float, vt: float, v: float = 1.0) -> float:
    """Reference revival envelope E_f(exp(-gamma*t/2)); 1 in the static limit."""
    if math.isinf(g):
        return 1.0
    with mpmath.workdps(30):
        return float(_ef_mp(mpmath.exp(-mpmath.mpf(vt) / (2 * mpmath.mpf(g)))))


def _check_verdict(report: dict, exit_code: int) -> list[str]:
    if report.get("pass") is not (exit_code == 0):
        return [f"report pass={report.get('pass')!r} disagrees with exit code {exit_code}"]
    return []


def _check_params(params: dict, seed: int, n_traj: int, g_values) -> list[str]:
    errors = []
    if params.get("seed") != seed or params.get("n_traj") != n_traj:
        errors.append(f"artifact is for seed {params.get('seed')!r}, n_traj {params.get('n_traj')!r}")
    if params.get("g") != [g_label(g) for g in g_values]:
        errors.append(f"artifact couplings {params.get('g')!r}")
    return errors


def _band_errors(label: str, devs: list[float], in_band: list[bool]) -> list[str]:
    """Monte Carlo rule for one coupling: enough points in the standard-error
    band, and no point farther than MAX_ABS_DEV from the reference."""
    within = sum(in_band)
    errors = []
    if within < MIN_FRACTION * len(devs):
        errors.append(f"{label}: {within}/{len(devs)} points within {SE_MULTIPLE} se")
    worst = max(devs)
    if not worst < MAX_ABS_DEV:
        errors.append(f"{label}: max deviation {worst:.4g} >= {MAX_ABS_DEV}")
    return errors


def check_curves(text: str, exit_code: int, *, g_values, n_traj: int, seed: int,
                 vt_step: float, vt_max: float, v: float = 1.0) -> list[str]:
    """Check the CSV of ``--mode mc``: closed-form and Monte Carlo columns."""
    if exit_code != 0:
        return [f"mc mode exited with {exit_code}"]
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    errors = []
    if f"# seed: {seed}" not in meta or f"# n_traj: {n_traj}" not in meta:
        errors.append("metadata does not name this seed and trajectory count")
    if not body or body[0] != CSV_HEADER:
        return errors + [f"unexpected CSV header {body[:1]!r}"]
    grid = vt_grid(vt_step, vt_max)
    rows = [row.split(",") for row in body[1:]]
    if len(rows) != len(grid) * len(g_values):
        return errors + [f"{len(rows)} rows, expected {len(grid) * len(g_values)}"]
    for gi, g in enumerate(g_values):
        devs, in_band = [], []
        for i, vt in enumerate(grid):
            row = rows[gi * len(grid) + i]
            where = f"g={g_label(g)} vt={vt:.6g}"
            if row[1] != g_label(g) or abs(float(row[0]) - vt) > GRID_ATOL:
                errors.append(f"{where}: row labelled vt={row[0]} g={row[1]}")
                continue
            ef = formation(g, vt, v)
            if abs(float(row[2]) - ef) > EXACT_ATOL:
                errors.append(f"{where}: ef_analytic {row[2]} != {ef!r}")
            if abs(float(row[3]) - envelope(g, vt, v)) > EXACT_ATOL:
                errors.append(f"{where}: envelope {row[3]} != {envelope(g, vt, v)!r}")
            devs.append(abs(float(row[4]) - ef))
            in_band.append(devs[-1] <= SE_MULTIPLE * float(row[5]))
        if devs:
            errors += _band_errors(f"g={g_label(g)} ef_mc", devs, in_band)
    return errors


def check_compare(text: str, exit_code: int, *, g_values, n_traj: int, seed: int,
                  vt_step: float, vt_max: float, v: float = 1.0) -> list[str]:
    """Check the JSON report of ``--mode both``: q and qhat per point."""
    report = json.loads(text)
    errors = _check_verdict(report, exit_code)
    errors += _check_params(report["params"], seed, n_traj, g_values)
    grid = vt_grid(vt_step, vt_max)
    points = report["per_point"]
    if len(points) != len(grid) * len(g_values):
        return errors + [f"{len(points)} points, expected {len(grid) * len(g_values)}"]
    for gi, g in enumerate(g_values):
        devs, in_band = [], []
        for i, vt in enumerate(grid):
            p = points[gi * len(grid) + i]
            where = f"g={g_label(g)} vt={vt:.6g}"
            if p["g"] != g_label(g) or abs(p["vt"] - vt) > GRID_ATOL:
                errors.append(f"{where}: point labelled vt={p['vt']} g={p['g']}")
                continue
            q = coherence(g, vt, v)
            if abs(complex(p["q_re"], p["q_im"]) - q) > EXACT_ATOL:
                errors.append(f"{where}: q {p['q_re']}+{p['q_im']}j != {q!r}")
            devs.append(abs(complex(p["qhat_re"], p["qhat_im"]) - q))
            in_band.append(abs(p["qhat_re"] - q.real) <= SE_MULTIPLE * p["se_re"]
                           and abs(p["qhat_im"] - q.imag) <= SE_MULTIPLE * p["se_im"])
        if devs:
            errors += _band_errors(f"g={g_label(g)} qhat", devs, in_band)
    return errors


def check_recovery(text: str, exit_code: int, *, g_values, n_traj: int, seed: int,
                   revival_n: int, v: float = 1.0) -> list[str]:
    """Check the JSON report of ``--mode recovery``."""
    report = json.loads(text)
    errors = _check_verdict(report, exit_code)
    errors += _check_params(report["params"], seed, n_traj, g_values)
    entries = report["results"]
    if [e["g"] for e in entries] != [g_label(g) for g in g_values]:
        return errors + [f"results for couplings {[e['g'] for e in entries]!r}"]
    vt_n = 2.0 * math.pi * revival_n
    tol = SE_MULTIPLE / math.sqrt(n_traj)
    for g, e in zip(g_values, entries):
        where = f"g={g_label(g)}"
        if abs(e["t_n"] - vt_n / v) > GRID_ATOL * vt_n:
            errors.append(f"{where}: t_n {e['t_n']!r} != {vt_n / v!r}")
        c_ref = abs(coherence(g, vt_n, v))
        if abs(e["concurrence_before"] - c_ref) > tol:
            errors.append(f"{where}: concurrence_before {e['concurrence_before']!r} "
                          f"not within {tol:.3g} of |q(t_n)| = {c_ref!r}")
        if abs(e["concurrence_after"] - 1.0) > EXACT_ATOL:
            errors.append(f"{where}: concurrence_after {e['concurrence_after']!r} != 1")
    return errors


#: Lags of ``--mode autocorr`` without ``--lags``, in units of 1/gamma.
DEFAULT_GAMMA_LAGS = (0.5, 1.0, 2.0, 3.0)


def check_autocorr(text: str, exit_code: int, *, g_values, n_traj: int, seed: int,
                   v: float = 1.0) -> list[str]:
    """Check the JSON report of ``--mode autocorr`` at the default lags."""
    report = json.loads(text)
    errors = _check_verdict(report, exit_code)
    errors += _check_params(report["params"], seed, n_traj, g_values)
    sections = report["results"]
    if [s["g"] for s in sections] != [g_label(g) for g in g_values]:
        return errors + [f"results for couplings {[s['g'] for s in sections]!r}"]
    tol = SE_MULTIPLE / math.sqrt(n_traj)
    for g, section in zip(g_values, sections):
        gamma = v / g
        rows = section["per_lag"]
        if len(rows) != len(DEFAULT_GAMMA_LAGS):
            errors.append(f"g={g_label(g)}: {len(rows)} lags")
            continue
        for gamma_lag, row in zip(DEFAULT_GAMMA_LAGS, rows):
            where = f"g={g_label(g)} gamma*tau={gamma_lag}"
            if abs(row["lag"] * gamma - gamma_lag) > GRID_ATOL:
                errors.append(f"{where}: lag {row['lag']!r}")
            expected = math.exp(-gamma_lag)
            if abs(row["estimate"] - expected) > tol:
                errors.append(f"{where}: estimate {row['estimate']!r} not within "
                              f"{tol:.3g} of {expected!r}")
    return errors
