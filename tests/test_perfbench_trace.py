"""perfbench's tracer wraps rtdeph functions by name and reads
``TrajectoryBatch.counts``, so renaming one of them must fail this test
suite, not only ``perfbench/run.py --trace 1``."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# 64 trajectories per call; seed 2 also passes the autocorrelation's own
# 3-sigma check, which decides the CLI's exit code
CALLS = [
    (["--mode", "recovery", "--g", "0.5,5", "--revival-n", "1"], "kernels.dwell_times.calls"),
    (["--mode", "mc", "--g", "5", "--vt-max", "10", "--vt-step", "0.5"], "engine.run_ensemble.calls"),
    (["--mode", "autocorr", "--g", "0.5"], "kernels.levels_at_times.calls"),
]


@pytest.mark.parametrize("args, layer", CALLS, ids=["recovery", "mc", "autocorr"])
def test_traced_invoke_attributes_each_layer(tmp_path, args, layer):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "invoke.py"), "1", *args, "--n-traj", "64",
         "--seed", "2", "--no-timestamp", "--out", str(tmp_path / "artifact")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["exit"] == 0
    layers = record["layers"]
    assert layers["noise.trajectories"] > 0
    assert layers[layer] > 0
    # one formatting command and one write per call: the tracer sees them
    # only if the CLI calls them by their module names
    assert layers["cli.format.calls"] == 1
    assert layers["cli._write_artifact.calls"] == 1


def test_traced_self_times_add_up_under_threads(tmp_path):
    # 5000 trajectories are three blocks per g, sampled and summed on two
    # threads, so spans of the pool threads overlap; the self times of all
    # layers and the unattributed time still partition the root span, the
    # identity perfbench/run.py checks
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "invoke.py"), "1", "--mode", "both",
         "--g", "0.5,5", "--vt-step", "1.3", "--vt-max", "13.0", "--n-traj", "5000",
         "--threads", "2", "--seed", "8", "--no-timestamp", "--out", str(tmp_path / "artifact")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["exit"] == 0
    layers = record["layers"]
    assert layers["cli.format.calls"] == 1
    assert layers["cli.build_compare_report.calls"] == 1
    assert layers["cli._write_artifact.calls"] == 1
    assert layers["noise.sample_batch.calls"] == 6
    assert layers["noise.trajectories"] == 10000
    own = layers["trace.unattributed_s"] + sum(
        v for k, v in layers.items() if k.endswith(".self_s"))
    assert own == pytest.approx(layers["trace.wall_s"], rel=1e-6, abs=0)
