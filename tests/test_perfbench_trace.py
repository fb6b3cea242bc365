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
