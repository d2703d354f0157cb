"""Smoke test of the benchmark's traced training run."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_train_run_is_correct():
    # One traced second of the train workload: the tracer keys each conv's
    # forward and backward spans by id(layer.conv), checks the traced MACs
    # against count_macs and that its spans cover the forward pass.  Traces
    # go to the checkout's .perfbench-traces/.
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    *_, details, result = run.stdout.splitlines()
    assert json.loads(details)["details"]["problems"] == []
    result = json.loads(result)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    bwd = {k: v["value"] for k, v in metrics.items() if k.startswith("tensor.conv_bwd_ms.")}
    assert len(bwd) == 17 and all(v > 0 for v in bwd.values())
