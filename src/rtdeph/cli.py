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

Exit codes: 0 success/pass, 1 validation failure, 2 invalid input or a
run whose memory cannot be allocated, 3 I/O error, 4 an unexpected error
in the program (its type and message, no traceback).  Every option is
declared once, as a ``SweepSpec`` field (``_option``), and ``_OPTIONS``
is read from those fields; the config keys of the optional plain-text
file of ``key = value`` lines are exactly the flag names (``vt_max`` or
``vt-max`` for ``--vt-max``), parsed alike, and flags override them.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from rtdeph import _kernels, analytic, engine, noise, states
from rtdeph.noise import RTParams, estimate_autocorrelation

MODES = ("analytic", "mc", "both", "recovery", "autocorr")

CSV_HEADER = "vt,g,ef_analytic,envelope,ef_mc,ef_mc_se"


def _parse_float_list(text: str) -> tuple[float, ...]:
    # float() reads 'inf', the static limit of --g, in any case
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_bool(text) -> bool:
    # str() because the --no-timestamp flag stores True, not a string
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _option(parse, default, help_text):
    """A ``SweepSpec`` field that is also an option: ``parse`` reads its
    flag's and its config key's text, ``default`` is already parsed, and
    the field itself has no default, so a spec states every value."""
    return field(metadata={"option": (parse, default, help_text)})


@dataclass(frozen=True)
class SweepSpec:
    """Effective sweep parameters after merging defaults, config, and flags.

    Each field is an option (``_option``): the field name is the config
    key, and ``--name`` with dashes is the flag.  None defaults: threads
    is set to the usable CPU count (see _usable_cpus) when the spec is
    built, lags means the per-g default lags."""

    g: tuple[float, ...] = _option(
        _parse_float_list, (math.inf, 200.0, 50.0, 10.0, 5.0),
        "comma-separated couplings v/gamma; 'inf' for the static limit")
    v: float = _option(float, 1.0, "noise amplitude (sets the time unit)")
    vt_max: float = _option(float, 6.0 * math.pi, "end of the dimensionless v*t sweep")
    vt_step: float = _option(float, 2.0 * math.pi / 200.0, "v*t grid step")
    n_traj: int = _option(int, 2000, "Monte Carlo trajectories per g value")
    seed: int = _option(int, 12345, "master seed for trajectory streams")
    mode: str = _option(str, "analytic", "what to compute (default analytic)")
    out: str = _option(str, "-", "output path, '-' for stdout")
    no_timestamp: bool = _option(_parse_bool, False,
                                 "omit the timestamp line for byte-reproducible output")
    threads: int = _option(int, None, "worker threads for the sampled passes (default: the "
                           "number of usable CPUs); results do not depend on it")
    revival_n: int = _option(int, 1, "revival index for recovery mode")
    lags: tuple[float, ...] | None = _option(
        _parse_float_list, None, "comma-separated lags for autocorr mode (time units)")

    def __post_init__(self):
        if not self.g:
            raise ValueError("at least one g value is required")
        if len(set(self.g)) != len(self.g):
            raise ValueError(f"g values must be distinct, got {list(self.g)}")
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValueError(f"v must be finite and positive, got {self.v!r}")
        if not (math.isfinite(self.vt_step) and self.vt_step > 0.0):
            raise ValueError(f"vt-step must be finite and positive, got {self.vt_step!r}")
        if not (math.isfinite(self.vt_max) and self.vt_max >= self.vt_step):
            raise ValueError("vt range is empty: vt-max must be at least vt-step")
        if not math.isfinite(self.vt_max / self.vt_step):
            raise ValueError(f"vt grid has too many points to count: vt-max / vt-step "
                             f"overflows ({self.vt_max!r} / {self.vt_step!r})")
        points = self._vt_steps() + 1
        if points > np.iinfo(np.intp).max // np.dtype(np.float64).itemsize:
            # numpy indexes an array's bytes with intp: a bound on what one
            # array can hold, not on memory
            raise ValueError(f"vt grid has {points:.4g} points, more than one numpy array can "
                             f"hold: vt-max / vt-step = {self.vt_max!r} / {self.vt_step!r}")
        if self.revival_n < 1:
            raise ValueError(f"revival-n must be >= 1, got {self.revival_n}")
        if self.n_traj < 1:
            raise ValueError(f"n-traj must be >= 1, got {self.n_traj}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != "analytic":
            # a pass reads trajectories 0 to n - 1; autocorr gives each g its own
            option, n = f"--n-traj {self.n_traj}", self.n_traj
            if self.mode == "autocorr":
                option, n = f"{option} with {len(self.g)} values of --g", n * len(self.g)
            try:
                noise._check_indices(self.seed, 0, n)
            except ValueError as exc:
                raise ValueError(f"{option}: {exc}") from None
        if self.threads is None:
            # frozen: the default is resolved once, when the spec is built
            object.__setattr__(self, "threads", _usable_cpus())
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.lags is not None:
            try:
                noise._check_lags(self.lags)
            except ValueError as exc:
                raise ValueError(f"--lags {list(self.lags)}: {exc}") from None
        for g in self.g:
            if not g > 0.0:
                raise ValueError(f"--g {g!r}: g values must be positive or 'inf'")
            try:
                gamma = self.rt_params(g).gamma
                if self.mode != "analytic":
                    # a sampled coupling needs a finite epoch length
                    _kernels.epoch_grid(gamma, 0.0)
                if self.mode == "autocorr" and gamma == 0.0:
                    # the static limit has no autocorrelation to estimate
                    raise ValueError("autocorr mode needs a finite g (gamma > 0)")
            except ValueError as exc:
                # gamma = v/g: a tiny or huge v is as much at fault as g
                raise ValueError(f"--g {g!r}: {exc}, where gamma = v/g at --v "
                                 f"{self.v!r}") from None
            horizon, option = self._horizon(g)
            if self.mode != "analytic":
                # the epoch count of the horizon, with the option that sets it
                try:
                    _kernels.epoch_grid(gamma, horizon)
                except ValueError as exc:
                    raise ValueError(f"--g {g!r} with {option}: {exc}") from None

    def _horizon(self, g: float) -> tuple[float, str]:
        """The last time the pass of this mode reads at ``g``, as the pass
        forms it, and the option that sets it, with its value.  Analytic,
        mc and both turn v*t into t = vt/v and recovery reads t =
        2*pi*revival-n/v: a last time that overflows is refused here,
        before any of them divides, naming --v only where the division
        overflows."""
        if self.mode == "autocorr":
            lags = self.autocorr_lags(g)
            return float(lags.max()), "--lags " + ",".join(map(repr, lags.tolist()))
        if self.mode == "recovery":
            option = f"--revival-n {self.revival_n}"
            # no float holds a larger one, so 2*pi*revival-n overflows
            span = (2.0 * math.pi * self.revival_n if self.revival_n <= sys.float_info.max
                    else math.inf)
        else:
            option = f"--vt-max {self.vt_max!r}"
            span = self.vt_step * self._vt_steps()
        if not math.isfinite(span):
            raise ValueError(f"{option}: the last time of the run overflows")
        horizon = span / self.v
        if not math.isfinite(horizon):
            raise ValueError(f"--v {self.v!r} with {option}: the last time of the run overflows")
        return horizon, option

    def rt_params(self, g: float) -> RTParams:
        # v / inf is 0.0: the static limit
        return RTParams(v=self.v, gamma=self.v / g)

    def autocorr_lags(self, g: float) -> np.ndarray:
        """The lags of the autocorrelation at ``g``: ``lags``, or else
        (0.5, 1, 2, 3)/gamma."""
        return noise._check_lags(self.lags if self.lags is not None
                                 else np.array([0.5, 1.0, 2.0, 3.0]) / self.rt_params(g).gamma)

    def _vt_steps(self) -> int:
        return math.floor(self.vt_max / self.vt_step + 1e-9)

    def vt_grid(self) -> np.ndarray:
        return self.vt_step * np.arange(self._vt_steps() + 1)


#: Every sweep option, in field order: key -> (parser, parsed default, help).
_OPTIONS = {f.name: f.metadata["option"] for f in fields(SweepSpec)}


def _parse(key: str, text, where: str):
    """``text`` through ``key``'s parser, with ``where`` named on failure."""
    try:
        return _OPTIONS[key][0](text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _usable_cpus() -> int:
    """Number of CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
            if key not in _OPTIONS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse(key, value.strip(), f"{path}:{lineno}: {key}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtdeph",
        description="Two-qubit entanglement under random-telegraph dephasing: "
        "analytic curves, Monte Carlo checks, and recovery demos.",
    )
    # default=None everywhere, so that an unset flag leaves the config value
    for key, (_, _, help_text) in _OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if key == "no_timestamp":
            parser.add_argument(flag, action="store_true", default=None, help=help_text)
        else:
            parser.add_argument(flag, choices=MODES if key == "mode" else None, help=help_text)
    parser.add_argument("--config", help="plain-text config file of key = value lines")
    return parser


def build_spec(args: argparse.Namespace) -> SweepSpec:
    values = {key: default for key, (_, default, _) in _OPTIONS.items()}
    if args.config:
        values.update(_read_config(args.config))
    for key in _OPTIONS:
        text = getattr(args, key)
        if text is not None:
            values[key] = _parse(key, text, "argument --" + key.replace("_", "-"))
    return SweepSpec(**values)


def _fmt_g(g: float) -> str:
    return "inf" if math.isinf(g) else repr(float(g))


def _spec_metadata(spec: SweepSpec) -> dict:
    # deliberately no thread count here: results are thread-count
    # independent and artifacts must stay byte-identical
    echoed = ("v", "vt_max", "vt_step", "n_traj", "seed", "mode")
    meta = {"g": [_fmt_g(g) for g in spec.g], **{key: getattr(spec, key) for key in echoed},
            "backend": _kernels.BACKEND}
    if spec.mode == "recovery":
        meta["revival_n"] = spec.revival_n
    if spec.mode == "autocorr" and spec.lags is not None:
        meta["lags"] = list(spec.lags)
    if not spec.no_timestamp:
        meta["generated"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


#: json's text of the non-finite floats, which repr writes as nan, inf, -inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: Stands in for the per_point records while json writes the rest of a report.
_RECORDS_SLOT = "\0per_point\0"


def _json_texts(values: list) -> list[str]:
    """The ``json.dumps`` text of each value of one record field: a field of
    floats from one ``float_reprs`` call, of booleans as true and false,
    and any other value by value through ``json.dumps``."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return [_JSON_NONFINITE.get(text, text) for text in _kernels.float_reprs(values)]
    if kinds == {bool}:
        return ["true" if value else "false" for value in values]
    return [json.dumps(value) for value in values]


def _json_records(records: list[dict], indent: str) -> str:
    """``json.dumps(records, indent=2)`` for a list that starts ``indent``
    deep, of records with the same keys in the same order: each field's
    texts come from one ``_json_texts`` call and fill one row template."""
    if not records:
        return "[]"
    keys = list(records[0])
    if not keys or sum(map(len, records)) != len(keys) * len(records):
        raise ValueError("records must be non-empty and have the same keys")
    pad = indent + "  "
    fields = (f'{pad}  {json.dumps(key).replace("%", "%%")}: %s' for key in keys)
    template = f"{pad}{{\n" + ",\n".join(fields) + f"\n{pad}}}"
    columns = [_json_texts([record[key] for record in records]) for key in keys]
    rows = ",\n".join(template % row for row in zip(*columns))
    return f"[\n{rows}\n{indent}]"


def _verdict(report: dict, entries: list[dict]) -> tuple[str, int]:
    """The report as JSON text, equal to ``json.dumps(report, indent=2)``,
    and its exit code.  The report's "pass" key, placed by the caller, is
    set to whether every entry passes.  A "per_point" list of records is
    written by ``_json_records``, the rest by ``json``."""
    report["pass"] = all(entry["pass"] for entry in entries)
    code = 0 if report["pass"] else 1
    if "per_point" not in report:
        return json.dumps(report, indent=2) + "\n", code
    text = json.dumps({**report, "per_point": _RECORDS_SLOT}, indent=2)
    head, _, tail = text.partition(json.dumps(_RECORDS_SLOT))
    return head + _json_records(report["per_point"], "  ") + tail + "\n", code


def cmd_figure1(spec: SweepSpec) -> tuple[str, int]:
    """CSV of E_f and envelope versus v*t per coupling, with optional MC columns."""
    with_mc = spec.mode == "mc"
    lines = [f"# {key}: {value}" for key, value in _spec_metadata(spec).items()]
    lines.append(CSV_HEADER)
    vt = spec.vt_grid()
    t_grid = vt / spec.v
    vt_col = _kernels.float_reprs(vt)
    params_list = [spec.rt_params(g) for g in spec.g]
    results = (engine.run_ensemble(params_list, t_grid, spec.n_traj, spec.seed,
                                   n_threads=spec.threads)
               if with_mc else [None] * len(spec.g))
    for g, params, result in zip(spec.g, params_list, results):
        q_abs = np.abs(analytic.coherence_factor(params, t_grid))
        ef = states.entanglement_of_formation(np.minimum(q_abs, 1.0))
        env = analytic.envelope(params, t_grid)
        if with_mc:
            mc_cols = _kernels.float_reprs(result.e_f), _kernels.float_reprs(result.e_f_se)
        else:
            mc_cols = [""] * vt.size, [""] * vt.size
        g_col = [_fmt_g(g)] * vt.size
        lines.extend(",".join(row) for row in
                     zip(vt_col, g_col, _kernels.float_reprs(ef),
                         _kernels.float_reprs(env), *mc_cols))
    return "\n".join(lines) + "\n", 0


#: Monte Carlo versus closed form: component deviations beyond this many
#: standard errors count a grid point as failing.
COMPARE_SE_MULTIPLE = 4.0
#: Minimum fraction of grid points that must sit within the error band.
COMPARE_MIN_FRACTION = 0.95
#: Hard cap on |q_mc - q_analytic| anywhere on the grid.
COMPARE_MAX_ABS_DEV = 0.05


def build_compare_report(spec: SweepSpec, results: dict[float, engine.EnsembleResult]) -> dict:
    """The comparison report of per-coupling ensemble results; ``_verdict`` sets its "pass"."""
    per_point = []
    per_g = []
    for g, result in results.items():
        g_text = _fmt_g(g)
        q_ref = analytic.coherence_factor(spec.rt_params(g), result.t_grid)
        dev = result.q_mean - q_ref
        within = ((np.abs(dev.real) <= COMPARE_SE_MULTIPLE * result.q_se_re)
                  & (np.abs(dev.imag) <= COMPARE_SE_MULTIPLE * result.q_se_im))
        # hypot, not np.abs: it rounds |dev| as the scalar complex abs does
        g_max = float(np.max(np.hypot(dev.real, dev.imag), initial=0.0))
        frac = int(np.count_nonzero(within)) / result.t_grid.size
        per_g.append({
            "g": g_text,
            "max_abs_dev": g_max,
            "fraction_within_band": frac,
            "pass": bool(frac >= COMPARE_MIN_FRACTION and g_max < COMPARE_MAX_ABS_DEV),
        })
        columns = {
            "vt": spec.v * result.t_grid,
            "q_re": q_ref.real, "q_im": q_ref.imag,
            "qhat_re": result.q_mean.real, "qhat_im": result.q_mean.imag,
            "se_re": result.q_se_re, "se_im": result.q_se_im,
            "within_band": within,
        }
        rows = zip(*(column.tolist() for column in columns.values()))
        per_point.extend({"g": g_text, **dict(zip(columns, row))} for row in rows)
    return {
        "params": _spec_metadata(spec),
        "max_abs_dev": max((entry["max_abs_dev"] for entry in per_g), default=0.0),
        "tolerance": {
            "se_multiple": COMPARE_SE_MULTIPLE,
            "min_fraction_within": COMPARE_MIN_FRACTION,
            "max_abs_dev": COMPARE_MAX_ABS_DEV,
        },
        "pass": None,
        "per_g": per_g,
        "per_point": per_point,
    }


def cmd_compare(spec: SweepSpec) -> tuple[str, int]:
    """JSON report: MC mean coherence versus the closed form on the sweep grid."""
    t_grid = spec.vt_grid() / spec.v
    results = dict(zip(spec.g, engine.run_ensemble([spec.rt_params(g) for g in spec.g], t_grid,
                                                   spec.n_traj, spec.seed,
                                                   n_threads=spec.threads)))
    report = build_compare_report(spec, results)
    return _verdict(report, report["per_g"])


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
    reports = engine.recovery_report([spec.rt_params(g) for g in spec.g], n, spec.n_traj,
                                     spec.seed, n_threads=spec.threads)
    entries = []
    for g, report in zip(spec.g, reports):
        expected = float(abs(analytic.coherence_factor(spec.rt_params(g), report.t_n)))
        entries.append({
            "g": _fmt_g(g),
            "t_n": report.t_n,
            "concurrence_before": report.concurrence_before,
            "concurrence_after": report.concurrence_after,
            "pass": bool(abs(report.concurrence_after - 1.0) <= RECOVERY_ATOL
                         and abs(report.concurrence_before - expected) <= before_tol),
            "expected_uncorrected": expected,
        })
    return _verdict({
        "params": _spec_metadata(spec),
        "revival_index": n,
        "tolerance": RECOVERY_ATOL,
        "uncorrected_tolerance": before_tol,
        "pass": None,
        "results": entries,
    }, entries)


#: Autocorrelation estimates must match exp(-gamma*tau) within this many
#: standard errors.
AUTOCORR_SE_MULTIPLE = 3.0


def cmd_autocorr(spec: SweepSpec) -> tuple[str, int]:
    """JSON table of sampled versus exact telegraph autocorrelation.

    Coupling number j samples trajectories [j*n_traj, (j+1)*n_traj), so
    every g is estimated from its own realizations, and one pass samples
    them all.
    """
    params_list = [spec.rt_params(g) for g in spec.g]
    estimates = estimate_autocorrelation(params_list, [spec.autocorr_lags(g) for g in spec.g],
                                         spec.n_traj, spec.seed, n_threads=spec.threads)
    sections = []
    for g, params, est in zip(spec.g, params_list, estimates):
        rows = []
        for lag, value, se in zip(est.lags, est.estimates, est.stderrs):
            expected = math.exp(-params.gamma * lag)
            rows.append({
                "lag": float(lag),
                "estimate": float(value),
                "expected": expected,
                "stderr": float(se),
                "within_3se": bool(abs(value - expected) <= AUTOCORR_SE_MULTIPLE * se),
            })
        sections.append({
            "g": _fmt_g(g),
            "gamma": params.gamma,
            "per_lag": rows,
            "pass": all(row["within_3se"] for row in rows),
        })
    return _verdict({
        "params": _spec_metadata(spec),
        "se_multiple": AUTOCORR_SE_MULTIPLE,
        "pass": None,
        "results": sections,
    }, sections)


def _write_artifact(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def run(spec: SweepSpec) -> int:
    # built per call, so that it holds whatever the module names hold now
    commands = {"both": cmd_compare, "recovery": cmd_recovery, "autocorr": cmd_autocorr}
    text, code = commands.get(spec.mode, cmd_figure1)(spec)
    _write_artifact(spec.out, text)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    spec = None
    try:
        spec = build_spec(args)
        return run(spec)
    except ValueError as exc:
        print(f"rtdeph: invalid input: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"rtdeph: cannot allocate memory for this run: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if spec is None:
            # the config file could not be read: the input is at fault
            print(f"rtdeph: invalid input: {exc}", file=sys.stderr)
            return 2
        target = getattr(exc, "filename", None) or spec.out
        print(f"rtdeph: cannot write {target}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a fault of the program, neither of the input nor of the numbers:
        # exit 1 stays the failed verdict's alone
        print(f"rtdeph: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

if __name__ == "__main__":
    sys.exit(main())
