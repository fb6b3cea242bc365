"""Command-line front end: sweeps, validation reports, and artifacts.

Modes
-----
analytic
    Entanglement-of-formation curves and their peak envelope as CSV.
mc
    Same CSV with Monte Carlo columns appended.
both
    JSON report comparing the Monte Carlo mean coherence against the
    closed form, point by point, at 4 standard errors.
recovery
    JSON report of ensemble concurrence at a revival time before and after
    the per-trajectory phase correction.
autocorr
    JSON report checking the sampled telegraph autocorrelation against
    exp(-gamma*tau).

Exit codes: 0 success/pass, 1 validation failure, 2 invalid input,
3 I/O error.  Flags override keys read from an optional plain-text config
file of ``key = value`` lines.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from rtdeph import _kernels, analytic, engine, states
from rtdeph.noise import RTParams, estimate_autocorrelation

MODES = ("analytic", "mc", "both", "recovery", "autocorr")

_DEFAULTS = {
    "g": "inf,200,50,10,5",
    "v": 1.0,
    "vt_max": 6.0 * math.pi,
    "vt_step": 2.0 * math.pi / 200.0,
    "n_traj": 2000,
    "seed": 12345,
    "mode": "analytic",
    "out": "-",
    "no_timestamp": False,
    "threads": None,  # the usable CPU count, see _usable_cpus
    "revival_n": 1,
    "lags": None,
}

CSV_HEADER = "vt,g,ef_analytic,envelope,ef_mc,ef_mc_se"


@dataclass(frozen=True)
class SweepSpec:
    """Effective sweep parameters after merging defaults, config, and flags."""

    g_values: tuple[float, ...]
    v: float
    vt_max: float
    vt_step: float
    n_traj: int
    seed: int
    mode: str
    out: str
    timestamp: bool
    threads: int
    revival_n: int
    lags: tuple[float, ...] | None

    def __post_init__(self):
        if not self.g_values:
            raise ValueError("at least one g value is required")
        for g in self.g_values:
            if not g > 0.0:
                raise ValueError(f"g values must be positive or 'inf', got {g!r}")
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValueError(f"v must be finite and positive, got {self.v!r}")
        if not (math.isfinite(self.vt_step) and self.vt_step > 0.0):
            raise ValueError(f"vt-step must be finite and positive, got {self.vt_step!r}")
        if not (math.isfinite(self.vt_max) and self.vt_max >= self.vt_step):
            raise ValueError("vt range is empty: vt-max must be at least vt-step")
        if self.n_traj < 1:
            raise ValueError(f"n-traj must be >= 1, got {self.n_traj}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.revival_n < 1:
            raise ValueError(f"revival-n must be >= 1, got {self.revival_n}")

    def rt_params(self, g: float) -> RTParams:
        gamma = 0.0 if math.isinf(g) else self.v / g
        return RTParams(v=self.v, gamma=gamma)

    def vt_grid(self) -> np.ndarray:
        n_steps = int(math.floor(self.vt_max / self.vt_step + 1e-9))
        return self.vt_step * np.arange(n_steps + 1)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_g_list(text: str) -> tuple[float, ...]:
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        values.append(math.inf if token.lower() == "inf" else float(token))
    return tuple(values)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_CONFIG_PARSERS = {
    "g": str,
    "v": float,
    "vt_max": float,
    "vt_step": float,
    "n_traj": int,
    "seed": int,
    "mode": str,
    "out": str,
    "no_timestamp": _parse_bool,
    "threads": int,
    "revival_n": int,
    "lags": str,
}


def _read_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _CONFIG_PARSERS[key](value.strip())
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtdeph",
        description="Two-qubit entanglement under random-telegraph dephasing: "
        "analytic curves, Monte Carlo checks, and recovery demos.",
    )
    parser.add_argument("--g", help="comma-separated couplings v/gamma; 'inf' for the static limit")
    parser.add_argument("--v", type=float, help="noise amplitude (sets the time unit)")
    parser.add_argument("--vt-max", type=float, help="end of the dimensionless v*t sweep")
    parser.add_argument("--vt-step", type=float, help="v*t grid step")
    parser.add_argument("--n-traj", type=int, help="Monte Carlo trajectories per g value")
    parser.add_argument("--seed", type=int, help="master seed for trajectory streams")
    parser.add_argument("--mode", choices=MODES, help="what to compute (default analytic)")
    parser.add_argument("--out", help="output path, '-' for stdout")
    parser.add_argument("--no-timestamp", action="store_true", default=None,
                        help="omit the timestamp line for byte-reproducible output")
    parser.add_argument("--config", help="plain-text config file of key = value lines")
    parser.add_argument("--threads", type=int,
                        help="worker threads for the sampled passes (default: the number of "
                        "usable CPUs); results do not depend on it")
    parser.add_argument("--revival-n", type=int, help="revival index for recovery mode")
    parser.add_argument("--lags", help="comma-separated lags for autocorr mode (time units)")
    return parser


def build_spec(args: argparse.Namespace) -> SweepSpec:
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_read_config(args.config))
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    lags = merged["lags"]
    if isinstance(lags, str):
        lags = _parse_float_list(lags)
    return SweepSpec(
        g_values=_parse_g_list(merged["g"]) if isinstance(merged["g"], str) else tuple(merged["g"]),
        v=float(merged["v"]),
        vt_max=float(merged["vt_max"]),
        vt_step=float(merged["vt_step"]),
        n_traj=int(merged["n_traj"]),
        seed=int(merged["seed"]),
        mode=str(merged["mode"]),
        out=str(merged["out"]),
        timestamp=not bool(merged["no_timestamp"]),
        threads=_usable_cpus() if merged["threads"] is None else int(merged["threads"]),
        revival_n=int(merged["revival_n"]),
        lags=lags,
    )


def _fmt_column(values) -> list[str]:
    """The repr of each value as a Python float, converting the column once."""
    return [repr(x) for x in np.asarray(values, dtype=np.float64).tolist()]


def _fmt_g(g: float) -> str:
    return "inf" if math.isinf(g) else repr(float(g))


def _spec_metadata(spec: SweepSpec) -> dict:
    # deliberately no thread count here: results are thread-count
    # independent and artifacts must stay byte-identical
    meta = {
        "g": [_fmt_g(g) for g in spec.g_values],
        "v": spec.v,
        "vt_max": spec.vt_max,
        "vt_step": spec.vt_step,
        "n_traj": spec.n_traj,
        "seed": spec.seed,
        "mode": spec.mode,
        "backend": _kernels.BACKEND,
    }
    if spec.mode == "recovery":
        meta["revival_n"] = spec.revival_n
    if spec.mode == "autocorr" and spec.lags is not None:
        meta["lags"] = list(spec.lags)
    if spec.timestamp:
        meta["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _ensemble_for(spec: SweepSpec, g: float) -> engine.EnsembleResult:
    params = spec.rt_params(g)
    t_grid = spec.vt_grid() / spec.v
    config = engine.RunConfig(
        system=analytic.SystemParams(rt=params),
        t_grid=t_grid,
        n_trajectories=spec.n_traj,
        master_seed=spec.seed,
    )
    return engine.run_ensemble(config, n_threads=spec.threads)


def cmd_figure1(spec: SweepSpec) -> tuple[str, int]:
    """CSV of E_f and envelope versus v*t per coupling, with optional MC columns."""
    with_mc = spec.mode == "mc"
    lines = [f"# {key}: {value}" for key, value in _spec_metadata(spec).items()]
    lines.append(CSV_HEADER)
    vt = spec.vt_grid()
    t_grid = vt / spec.v
    vt_col = _fmt_column(vt)
    for g in spec.g_values:
        params = spec.rt_params(g)
        q_abs = np.abs(analytic.coherence_factor(params, t_grid))
        ef = states.entanglement_of_formation(np.minimum(q_abs, 1.0))
        env = analytic.envelope(params, t_grid)
        if with_mc:
            result = _ensemble_for(spec, g)
            mc_cols = _fmt_column(result.e_f), _fmt_column(result.e_f_se)
        else:
            mc_cols = [""] * vt.size, [""] * vt.size
        g_col = [_fmt_g(g)] * vt.size
        lines.extend(",".join(row) for row in
                     zip(vt_col, g_col, _fmt_column(ef), _fmt_column(env), *mc_cols))
    return "\n".join(lines) + "\n", 0


#: Monte Carlo versus closed form: component deviations beyond this many
#: standard errors count a grid point as failing.
COMPARE_SE_MULTIPLE = 4.0
#: Minimum fraction of grid points that must sit within the error band.
COMPARE_MIN_FRACTION = 0.95
#: Hard cap on |q_mc - q_analytic| anywhere on the grid.
COMPARE_MAX_ABS_DEV = 0.05


def build_compare_report(spec: SweepSpec, results: dict[float, engine.EnsembleResult]) -> dict:
    """Assemble the comparison report from per-coupling ensemble results."""
    per_point = []
    per_g = []
    global_max = 0.0
    for g, result in results.items():
        params = spec.rt_params(g)
        q_ref = np.atleast_1d(analytic.coherence_factor(params, result.t_grid))
        within = 0
        g_max = 0.0
        for i, t in enumerate(result.t_grid):
            dev_re = abs(result.q_mean[i].real - q_ref[i].real)
            dev_im = abs(result.q_mean[i].imag - q_ref[i].imag)
            point_ok = (
                dev_re <= COMPARE_SE_MULTIPLE * result.q_se_re[i]
                and dev_im <= COMPARE_SE_MULTIPLE * result.q_se_im[i]
            )
            within += point_ok
            g_max = max(g_max, abs(result.q_mean[i] - q_ref[i]))
            per_point.append(
                {
                    "g": _fmt_g(g),
                    "vt": spec.v * float(t),
                    "q_re": float(q_ref[i].real),
                    "q_im": float(q_ref[i].imag),
                    "qhat_re": float(result.q_mean[i].real),
                    "qhat_im": float(result.q_mean[i].imag),
                    "se_re": float(result.q_se_re[i]),
                    "se_im": float(result.q_se_im[i]),
                    "within_band": bool(point_ok),
                }
            )
        frac = within / result.t_grid.size
        per_g.append(
            {
                "g": _fmt_g(g),
                "max_abs_dev": g_max,
                "fraction_within_band": frac,
                "pass": bool(frac >= COMPARE_MIN_FRACTION and g_max < COMPARE_MAX_ABS_DEV),
            }
        )
        global_max = max(global_max, g_max)
    overall = all(entry["pass"] for entry in per_g)
    return {
        "params": _spec_metadata(spec),
        "max_abs_dev": global_max,
        "tolerance": {
            "se_multiple": COMPARE_SE_MULTIPLE,
            "min_fraction_within": COMPARE_MIN_FRACTION,
            "max_abs_dev": COMPARE_MAX_ABS_DEV,
        },
        "pass": bool(overall),
        "per_g": per_g,
        "per_point": per_point,
    }


def cmd_compare(spec: SweepSpec) -> tuple[str, int]:
    """JSON report: MC mean coherence versus the closed form on the sweep grid."""
    results = {g: _ensemble_for(spec, g) for g in spec.g_values}
    report = build_compare_report(spec, results)
    return json.dumps(report, indent=2) + "\n", 0 if report["pass"] else 1


#: Recovered concurrence must return to 1 within this tolerance.
RECOVERY_ATOL = 1e-9

#: The uncorrected concurrence must match |q(t_n)| within this multiple of
#: 1/sqrt(n_traj), a bound on its standard error since every trajectory
#: coherence has modulus 1.
RECOVERY_SE_MULTIPLE = 4.0


def cmd_recovery(spec: SweepSpec) -> tuple[str, int]:
    """JSON report of concurrence at t_n before and after phase recovery."""
    n = spec.revival_n
    before_tol = RECOVERY_SE_MULTIPLE / math.sqrt(spec.n_traj)
    entries = []
    for g in spec.g_values:
        params = spec.rt_params(g)
        config = engine.RunConfig(
            system=analytic.SystemParams(rt=params),
            t_grid=np.array([2.0 * math.pi * n / spec.v]),
            n_trajectories=spec.n_traj,
            master_seed=spec.seed,
        )
        report = engine.recovery_report(config, n, n_threads=spec.threads)
        expected = float(abs(analytic.coherence_factor(params, report.t_n)))
        entries.append({
            "g": _fmt_g(g),
            "t_n": report.t_n,
            "concurrence_before": report.concurrence_before,
            "concurrence_after": report.concurrence_after,
            "pass": bool(abs(report.concurrence_after - 1.0) <= RECOVERY_ATOL
                         and abs(report.concurrence_before - expected) <= before_tol),
            "expected_uncorrected": expected,
        })
    overall = all(entry["pass"] for entry in entries)
    report = {
        "params": _spec_metadata(spec),
        "revival_index": n,
        "tolerance": RECOVERY_ATOL,
        "uncorrected_tolerance": before_tol,
        "pass": bool(overall),
        "results": entries,
    }
    return json.dumps(report, indent=2) + "\n", 0 if overall else 1


#: Autocorrelation estimates must match exp(-gamma*tau) within this many
#: standard errors.
AUTOCORR_SE_MULTIPLE = 3.0


def cmd_autocorr(spec: SweepSpec) -> tuple[str, int]:
    """JSON table of sampled versus exact telegraph autocorrelation.

    Coupling number j samples trajectories [j*n_traj, (j+1)*n_traj), so
    every g is estimated from its own realizations.
    """
    sections = []
    for j, g in enumerate(spec.g_values):
        if math.isinf(g):
            raise ValueError("autocorr mode needs a finite g (gamma > 0)")
        params = spec.rt_params(g)
        lags = (
            np.asarray(spec.lags, dtype=float)
            if spec.lags is not None
            else np.array([0.5, 1.0, 2.0, 3.0]) / params.gamma
        )
        est = estimate_autocorrelation(params, lags, spec.n_traj, spec.seed,
                                       start_index=j * spec.n_traj, n_threads=spec.threads)
        rows = []
        for lag, value, se in zip(est.lags, est.estimates, est.stderrs):
            expected = math.exp(-params.gamma * lag)
            rows.append(
                {
                    "lag": float(lag),
                    "estimate": float(value),
                    "expected": expected,
                    "stderr": float(se),
                    "within_3se": bool(abs(value - expected) <= AUTOCORR_SE_MULTIPLE * se),
                }
            )
        sections.append(
            {
                "g": _fmt_g(g),
                "gamma": params.gamma,
                "per_lag": rows,
                "pass": bool(all(row["within_3se"] for row in rows)),
            }
        )
    overall = all(section["pass"] for section in sections)
    report = {
        "params": _spec_metadata(spec),
        "se_multiple": AUTOCORR_SE_MULTIPLE,
        "pass": bool(overall),
        "results": sections,
    }
    return json.dumps(report, indent=2) + "\n", 0 if overall else 1


def _write_artifact(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def run(spec: SweepSpec) -> int:
    if spec.mode in ("analytic", "mc"):
        text, code = cmd_figure1(spec)
    elif spec.mode == "both":
        text, code = cmd_compare(spec)
    elif spec.mode == "recovery":
        text, code = cmd_recovery(spec)
    else:
        text, code = cmd_autocorr(spec)
    _write_artifact(spec.out, text)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        spec = build_spec(args)
    except (ValueError, OSError) as exc:
        print(f"rtdeph: invalid input: {exc}", file=sys.stderr)
        return 2
    try:
        return run(spec)
    except ValueError as exc:
        print(f"rtdeph: invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None) or spec.out
        print(f"rtdeph: cannot write {target}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
