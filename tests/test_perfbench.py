"""Smoke tests of the benchmark's traced training, detection and evaluation
runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload):
    """The metrics of one traced benchmark second of ``workload``, after
    checking that it exits 0, is correct, fails no operation and reports no
    tracer problem.  Traces go to the checkout's .perfbench-traces/."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    *_, details, result = run.stdout.splitlines()
    assert json.loads(details)["details"]["problems"] == []
    result = json.loads(result)
    assert result["correct"] is True and result["failed"] == 0
    return result["metrics"]


def test_traced_train_run_is_correct():
    # The tracer keys each conv's forward and backward spans by
    # id(layer.conv), checks the traced MACs against count_macs and that its
    # spans cover the forward pass.
    metrics = traced_run("train")
    bwd = {k: v["value"] for k, v in metrics.items() if k.startswith("tensor.conv_bwd_ms.")}
    assert len(bwd) == 17 and all(v > 0 for v in bwd.values())


def test_traced_detect_run_is_correct():
    # The detect workload's correctness includes the float64 reference check
    # of the head outputs.  Every conv's forward span and the per-frame
    # decode and postprocess spans must be seen.
    metrics = traced_run("detect")
    fwd = {k: v["value"] for k, v in metrics.items() if k.startswith("tensor.conv_fwd_ms.")}
    assert len(fwd) == 17 and all(v > 0 for v in fwd.values())
    assert metrics["detect.decode_ms"]["value"] > 0
    assert metrics["detect.post_ms"]["value"] > 0


def test_traced_eval_run_is_correct():
    # The eval workload's correctness includes the perfbench/reference.npz
    # mAP check.  The tracer wraps evaluate.match and
    # evaluate.average_precision by name, so a renamed or bypassed function
    # would leave these spans empty.
    metrics = traced_run("eval")
    assert metrics["evaluate.match_ms"]["value"] > 0
    assert metrics["evaluate.ap_ms"]["value"] > 0
