"""End-to-end benchmark of the rtdeph CLI.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each workload is a fixed list of
``rtdeph --no-timestamp`` calls (see ``WORKLOADS``); ``--seed`` becomes the
CLI's ``--seed``.  One round runs every call of the workload once, each in
a fresh Python process, the way a user runs the CLI.  Rounds repeat while
another round still fits in ``--seconds``.  Every artifact is checked
against references computed in checks.py, never against stored output.

With ``--trace 0`` the end-to-end metrics are printed:

- ``setup_s``: process start until rtdeph.cli is imported and the spec is
  built; median over every call of the run;
- ``wall_s``: ``cli.main`` until the artifact is written, summed over the
  round's calls; median over rounds;
- ``peak_rss_mb``: the largest peak resident set of the round's calls;
  median over rounds.

With ``--trace 1`` each round runs every call twice, untraced and traced,
alternating which goes first; the per-layer metrics come from the traced
round with the median traced wall time, so its self times add up (see
tracer.py).  ``trace.overhead_s`` is the median traced minus the median
untraced wall time, and ``process.cpu_s`` the median untraced CPU time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (CLI calls), ``failed`` (calls that wrote no
artifact) and ``metrics``, named and with units as in BENCHMARK.json.
A full record of the run goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy

import checks
from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
INVOKE = os.path.join(HERE, "invoke.py")

#: A call that runs longer than this is killed and ends the run.
CALL_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check of the artifact it writes."""

    args: tuple[str, ...]
    check: Callable[..., list[str]]


# The CLI's default grid: v*t from 0 to 6*pi in steps of 2*pi/200 (601 points).
DEFAULT_GRID = {"vt_step": 2.0 * math.pi / 200.0, "vt_max": 6.0 * math.pi}
COARSE_STEP = math.pi / 10.0  # 61 points on the same range

WORKLOADS = {
    # The paper's revival figure: the per-point pipeline (dwell kernel with
    # few switches, phase exponential, n*m entropy pass, Wootters per point)
    # on 601 points, with the dwell kernel on a 2-thread pool.
    "figure_strong": (
        Call(("--mode", "mc", "--g", "5,10,50", "--n-traj", "5000", "--threads", "2"),
             functools.partial(checks.check_curves, g_values=(5.0, 10.0, 50.0), n_traj=5000,
                               **DEFAULT_GRID)),
    ),
    # MC check of q(t) below, at and above g=1: dominated by per-trajectory
    # sampling; the dwell kernel runs wide (many switches) on a coarse grid.
    "validate_weak": (
        Call(("--mode", "both", "--g", "0.5,1,2,5", "--n-traj", "20000",
              "--vt-step", repr(COARSE_STEP)),
             functools.partial(checks.check_compare, g_values=(0.5, 1.0, 2.0, 5.0), n_traj=20000,
                               vt_step=COARSE_STEP, vt_max=DEFAULT_GRID["vt_max"])),
    ),
    # No n*m pipeline: sampling, one-point dwell, levels_at_times and the
    # recovery path.
    "recovery_autocorr": (
        Call(("--mode", "recovery", "--g", "0.5,5,inf", "--revival-n", "2", "--n-traj", "20000"),
             functools.partial(checks.check_recovery, g_values=(0.5, 5.0, math.inf), n_traj=20000,
                               revival_n=2)),
        Call(("--mode", "autocorr", "--g", "0.5,1,2", "--n-traj", "20000"),
             functools.partial(checks.check_autocorr, g_values=(0.5, 1.0, 2.0), n_traj=20000)),
    ),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def build() -> None:
    """Build the package in place once per checkout, as an install would.

    setup.py compiles the optional kernel extension when it can; without
    Cython it builds nothing and the pure backend runs.
    """
    if not (os.path.isfile(os.path.join(ROOT, "setup.py"))
            and os.path.isdir(os.path.join(ROOT, "src", "rtdeph"))):
        raise BenchmarkError(f"no rtdeph source tree (setup.py, src/rtdeph) under {ROOT}")
    stamp = os.path.join(RESULTS, "build.stamp")
    if os.path.exists(stamp):
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--build-temp", ".bench_build"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"build failed:\n{proc.stdout}{proc.stderr}")
    with open(stamp, "w", encoding="utf-8") as handle:
        handle.write(proc.stdout)


class CallFailed(Exception):
    """A CLI call that wrote no artifact: one failed operation."""


def run_call(call: Call, seed: int, traced: bool, out_path: str) -> dict:
    """Run one call in a fresh process; return its record with the artifact text."""
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = [sys.executable, INVOKE, "1" if traced else "0",
            "--no-timestamp", "--seed", str(seed), "--out", out_path, *call.args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{' '.join(call.args)} ran over {CALL_TIMEOUT_S} s") from exc
    if proc.returncode == 4:
        raise BenchmarkError(proc.stderr.strip())
    if proc.returncode != 0 or not proc.stdout.strip():
        raise CallFailed(f"{' '.join(call.args)}: crashed: {proc.stderr.strip()[-400:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["setup_done"] - spawned
    # exit 1 is the CLI's own statistical verdict; its report is still written
    if record["exit"] not in (0, 1) or not os.path.exists(out_path):
        raise CallFailed(f"{' '.join(call.args)}: exit {record['exit']}, "
                         f"{proc.stderr.strip()[-400:]}")
    with open(out_path, encoding="utf-8") as handle:
        record["artifact"] = handle.read()
    return record


class Run:
    """Rounds of one workload and what they measured."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.calls = WORKLOADS[workload]
        self.seed = seed
        self.traced = traced
        self.out_dir = os.path.join(RESULTS, workload)
        os.makedirs(self.out_dir, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # checks failed by artifacts of calls that succeeded
        self.failures: list[str] = []
        self.backends: set[str] = set()
        self.setups: list[float] = []
        self.rounds: list[dict] = []
        self.checked: dict[int, tuple[str, int]] = {}

    def _call(self, index: int, traced: bool) -> dict | None:
        call = self.calls[index]
        self.attempted += 1
        try:
            record = run_call(call, self.seed, traced,
                              os.path.join(self.out_dir, f"call{index}.out"))
        except CallFailed as exc:
            self.failed += 1
            self.failures.append(str(exc))
            return None
        self.backends.add(record["backend"])
        self.setups.append(record["setup_s"])
        self.errors += self._check(index, record.pop("artifact"), record["exit"])
        return record

    def _check(self, index: int, text: str, exit_code: int) -> list[str]:
        """Check an artifact; a fixed seed must give the same bytes every round,
        traced or not, so an artifact equal to a checked one passes as it."""
        call = self.calls[index]
        checked = self.checked.get(index)
        if checked is not None:
            if checked == (text, exit_code):
                return []
            return [f"{' '.join(call.args)}: artifact differs from an earlier round's"]
        self.checked[index] = (text, exit_code)
        try:
            errors = call.check(text, exit_code, seed=self.seed)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors = [f"malformed artifact: {exc!r}"]
        return [f"{' '.join(call.args)}: {e}" for e in errors]

    def round(self) -> None:
        plain, traced = [], []
        order = (False, True) if len(self.rounds) % 2 == 0 else (True, False)
        for index in range(len(self.calls)):
            for with_trace in (order if self.traced else (False,)):
                record = self._call(index, with_trace)
                if record is not None:
                    (traced if with_trace else plain).append(record)
        summary = {
            "wall_s": sum(r["wall_s"] for r in plain),
            "cpu_s": sum(r["cpu_s"] for r in plain),
            "peak_rss_mb": max((r["peak_rss_kb"] / 1024.0 for r in plain), default=math.nan),
        }
        if self.traced:
            totals: dict[str, float] = {}
            for record in traced:
                for key, value in record["layers"].items():
                    totals[key] = totals.get(key, 0.0) + value
            summary["layers"] = totals
        self.rounds.append(summary)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(r["wall_s"] for r in self.rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.rounds),
        }

    def per_layer(self) -> dict[str, float]:
        by_wall = sorted(self.rounds, key=lambda r: r["layers"]["trace.wall_s"])
        chosen = by_wall[(len(by_wall) - 1) // 2]["layers"]
        attributed = chosen["trace.unattributed_s"] + sum(
            v for k, v in chosen.items() if k.endswith(".self_s"))
        if abs(attributed - chosen["trace.wall_s"]) > 1e-6 * chosen["trace.wall_s"]:
            raise BenchmarkError(f"self times add up to {attributed}, traced wall is "
                                 f"{chosen['trace.wall_s']}")
        metrics = layer_metrics(chosen)
        traced_wall = statistics.median(r["layers"]["trace.wall_s"] for r in self.rounds)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in self.rounds)
        metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in self.rounds)
        return metrics


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        os.makedirs(RESULTS, exist_ok=True)
        build()
        run = Run(args.workload, args.seed, bool(args.trace))
        start = time.monotonic()
        while True:
            run.round()
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(run.rounds) > args.seconds:
                break
        if run.failed == run.attempted:
            raise BenchmarkError("every CLI call failed:\n" + "\n".join(run.failures[:10]))
        values = run.per_layer() if args.trace else run.end_to_end()
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    for line in run.failures[:10]:
        print(f"perfbench: call failed: {line}", file=sys.stderr)
    for line in run.errors[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    backend = ",".join(sorted(run.backends))
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(run.rounds)}  "
          f"backend {backend}  attempted {run.attempted}  failed {run.failed}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "backend": backend, "machine": machine(), "metrics": values,
              "rounds": run.rounds, "setups": run.setups, "errors": run.errors,
              "failures": run.failures}
    if args.trace:
        # share of the traced wall time per layer, for the README's figures
        record["self_shares"] = {k: v / values["trace.wall_s"] for k, v in values.items()
                                 if k.endswith(".self_s") or k == "trace.unattributed_s"}
    with open(os.path.join(RESULTS, f"{args.workload}.trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
