"""Tests of the benchmark's own output checks and span attribution.

    python3 -m pytest perfbench

Each check must accept a real artifact of the CLI and reject the same
artifact with one corruption.  The artifacts are small runs of the CLI at a
fixed seed, made in-process from the checkout's ``src``.  The tracer is
tested through invoke.py, in its own process, because it rewires rtdeph's
modules for good.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from rtdeph import cli  # noqa: E402

SEED = 11
COARSE = {"vt_step": math.pi / 10.0, "vt_max": 6.0 * math.pi}


def _artifact(tmp_path, *args):
    out = tmp_path / "artifact"
    code = cli.main(["--no-timestamp", "--seed", str(SEED), "--out", str(out), *args])
    assert code in (0, 1)
    return out.read_text(), code


def _shift_csv_column(text, column, delta):
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    rows = list(csv.reader(lines[i] for i in body))
    col = rows[0].index(column)
    for i, row in zip(body[1:], rows[1:]):
        row[col] = repr(float(row[col]) + delta)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow(row)
        lines[i] = buf.getvalue()
    return "\n".join(lines) + "\n"


def test_curves_reject_shifted_ef_mc(tmp_path):
    params = {"g_values": (5.0, 50.0), "n_traj": 2000, "seed": SEED, **COARSE}
    text, code = _artifact(tmp_path, "--mode", "mc", "--g", "5,50", "--n-traj", "2000",
                           "--vt-step", repr(COARSE["vt_step"]))
    assert checks.check_curves(text, code, **params) == []
    assert checks.check_curves(_shift_csv_column(text, "ef_mc", 0.05), code, **params)


def test_compare_rejects_scaled_qhat_re(tmp_path):
    params = {"g_values": (0.5, 1.0, 5.0), "n_traj": 2000, "seed": SEED, **COARSE}
    text, code = _artifact(tmp_path, "--mode", "both", "--g", "0.5,1,5", "--n-traj", "2000",
                           "--vt-step", repr(COARSE["vt_step"]))
    assert checks.check_compare(text, code, **params) == []
    report = json.loads(text)
    for point in report["per_point"]:
        point["qhat_re"] *= 1.1
    assert checks.check_compare(json.dumps(report), code, **params)


def test_recovery_rejects_envelope_as_concurrence_before(tmp_path):
    params = {"g_values": (0.5, 5.0, math.inf), "n_traj": 2000, "seed": SEED, "revival_n": 2}
    text, code = _artifact(tmp_path, "--mode", "recovery", "--g", "0.5,5,inf",
                           "--revival-n", "2", "--n-traj", "2000")
    assert checks.check_recovery(text, code, **params) == []
    report = json.loads(text)
    for entry in report["results"]:
        if "expected_uncorrected" in entry:
            entry["concurrence_before"] = entry["expected_uncorrected"]
    assert checks.check_recovery(json.dumps(report), code, **params)


def test_autocorr_rejects_estimate_off_by_five_over_sqrt_n(tmp_path):
    n = 2000
    params = {"g_values": (0.5, 2.0), "n_traj": n, "seed": SEED}
    text, code = _artifact(tmp_path, "--mode", "autocorr", "--g", "0.5,2", "--n-traj", str(n))
    assert checks.check_autocorr(text, code, **params) == []
    report = json.loads(text)
    row = report["results"][1]["per_lag"][2]
    away = 1.0 if row["estimate"] >= math.exp(-2.0) else -1.0
    row["estimate"] += away * 5.0 / math.sqrt(n)
    assert checks.check_autocorr(json.dumps(report), code, **params)


def test_report_verdict_must_match_exit_code(tmp_path):
    params = {"g_values": (0.5,), "n_traj": 500, "seed": SEED}
    text, code = _artifact(tmp_path, "--mode", "autocorr", "--g", "0.5", "--n-traj", "500")
    assert checks.check_autocorr(text, code, **params) == []
    assert checks.check_autocorr(text, 1 - code, **params)


def test_reference_coherence_limits():
    # g -> 1 from both sides meets the g = 1 limit formula
    for vt in (0.3, 2.0, 7.5):
        assert abs(checks.coherence(1.0 + 1e-7, vt) - checks.coherence(1.0, vt)) < 1e-6
        assert abs(checks.coherence(1.0 - 1e-7, vt) - checks.coherence(1.0, vt)) < 1e-6
    # static limit: |q| = |cos(vt/2)|
    assert abs(abs(checks.coherence(math.inf, 1.3)) - abs(math.cos(0.65))) < 1e-15
    assert checks.formation(5.0, 0.0) == 1.0


def test_self_times_partition_the_root_with_concurrent_children():
    # root [0, 10]; A [1, 9] on the main thread; B [2, 6] and C [4, 8] run
    # concurrently on pool threads under A
    spans = [["root", None, 0.0, 10.0], ["A", 0, 1.0, 9.0],
             ["B", 1, 2.0, 6.0], ["C", 1, 4.0, 8.0]]
    own = tracer._attribute(spans)
    assert own == pytest.approx([2.0, 2.0, 3.0, 3.0])
    assert sum(own) == pytest.approx(10.0)


def _traced(tmp_path, *args):
    out = tmp_path / "artifact"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "invoke.py"), "1", "--no-timestamp",
         "--seed", str(SEED), "--out", str(out), *args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["layers"]


def test_tracer_wraps_each_layer_where_its_caller_looks_it_up(tmp_path):
    layers = _traced(tmp_path, "--mode", "autocorr", "--g", "0.5,2", "--n-traj", "300")
    # cli imports estimate_autocorrelation by name; noise calls the kernel
    assert layers["noise.estimate_autocorrelation.calls"] == 2
    assert layers["noise.sample_batch.calls"] == 2
    assert layers["kernels.levels_at_times.calls"] == 2
    assert layers["noise.trajectories"] == 600
    layers = _traced(tmp_path, "--mode", "mc", "--g", "5", "--n-traj", "300",
                     "--vt-step", repr(COARSE["vt_step"]), "--threads", "2")
    assert layers["engine.run_ensemble.calls"] == 1
    assert layers["kernels.dwell_times.values"] == 300 * 61
    assert layers["states.concurrence.calls"] == 61
    assert layers["cli._write_artifact.calls"] == 1
    own = layers["trace.unattributed_s"] + sum(
        v for k, v in layers.items() if k.endswith(".self_s"))
    assert own == pytest.approx(layers["trace.wall_s"], rel=1e-9)
