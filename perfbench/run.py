"""robodet benchmark: one workload per process, measured for a fixed time.

    python3 perfbench/run.py --workload {train,detect,eval} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of an untraced run.  ``--trace 1`` spends half the time untraced
and half traced, and prints the per-layer metrics of the traced half plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the environment, sample counts and input properties.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import bootstrap  # noqa: F401  (pins BLAS threads before numpy loads)

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import reference
import tracing
import workloads

WORKLOADS = ("train", "detect", "eval")
SETUPS = 11
SETUP = {"train": workloads.setup, "detect": workloads.setup_detect, "eval": workloads.setup}


def blas_threads() -> int:
    """Thread count numpy's bundled OpenBLAS reports it will use."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    libs = glob.glob(str(libdir / "libscipy_openblas*.so"))
    if not libs:
        raise RuntimeError(f"no bundled OpenBLAS under {libdir}")
    lib = ctypes.CDLL(libs[0])
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes = []
    get.restype = ctypes.c_int
    return get()


def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must not be negative")
    return args


def run_workload(name, ctx, seconds, seed) -> workloads.Run:
    if name == "train":
        return workloads.run_train(ctx, seconds, seed)
    if name == "detect":
        return workloads.run_detect(ctx, seconds)
    return workloads.run_eval(ctx, seconds)


def best_op_ms(run: workloads.Run) -> np.ndarray:
    """Each operation's best latency: the minimum over the run's repeats of
    the unit of the operation at that position (frame k of the pool, step k
    of a train_loop call, the eval pass).  Other tenants of a shared host
    only ever slow an operation down, so its fastest repeat is the closest
    to its own cost."""
    positions = max(len(u.op_ms) for u in run.units)
    return np.array([
        min(u.op_ms[k] for u in run.units if k < len(u.op_ms)) for k in range(positions)
    ])


def img_per_s(run: workloads.Run) -> float:
    """Images of a unit over the summed best latencies of its operations."""
    return run.units[0].images / (best_op_ms(run).sum() / 1e3)


def end_to_end(run: workloads.Run, setup_s: float, peak_rss_mb: float) -> dict:
    best = best_op_ms(run)
    return {
        "setup_s": setup_s,
        "img_per_s": img_per_s(run),
        "op_ms_p50": float(np.percentile(best, 50)),
        "op_ms_p95": float(np.percentile(best, 95)),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - run.failed / run.attempted,
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(bootstrap.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def recorded_check(name, work: Path) -> list[str]:
    """Compare this commit's outputs on the reference inputs with the
    outputs recorded when the benchmark was defined."""
    if name == "train":
        return []  # training is checked per step, not against a recording
    rec = np.load(Path(__file__).resolve().parent / "reference.npz")
    ctx = SETUP[name](work / "reference", reference.REF_SEED)
    if name == "detect":
        for i in range(reference.REF_FRAMES):
            raw_lo, raw_hi, _ = workloads.detect_frame(ctx, i)
            if not reference.heads_match(
                (raw_lo, raw_hi), (rec[f"detect_lo_{i}"], rec[f"detect_hi_{i}"])
            ):
                return [f"head outputs of reference frame {i} differ from the recording"]
        return []
    maps = np.array(workloads.eval_pass(ctx))
    if maps.shape != rec["eval_map"].shape or np.abs(maps - rec["eval_map"]).max() > reference.MAP_TOL:
        return [f"mAPs {maps.tolist()} differ from the recording {rec['eval_map'].tolist()}"]
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = blas_threads()
    if threads != bootstrap.BLAS_THREADS:
        print(f"perfbench: OpenBLAS runs {threads} threads, expected "
              f"{bootstrap.BLAS_THREADS}", file=sys.stderr)
        return 2
    work = bootstrap.ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, threads, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, threads, work: Path) -> int:
    name = args.workload
    setup_times, gen_times = [], []
    for i in range(SETUPS):
        start = perf_counter()
        ctx = SETUP[name](work / f"setup{i}", args.seed)
        setup_times.append(perf_counter() - start)
        gen_times.append(ctx.gen_s)
    setup_s = statistics.median(setup_times)

    problems = []
    if args.trace:
        plain = run_workload(name, ctx, args.seconds / 2, args.seed)
        tracer = tracing.Tracer(ctx.net)
        tracer.install()
        try:
            traced = run_workload(name, ctx, args.seconds / 2, args.seed)
        finally:
            tracer.uninstall()
        metrics, problems = tracer.layer_metrics(traced.processed)
        metrics["data.gen_s"] = statistics.median(gen_times)
        metrics["trace.overhead_frac"] = (
            img_per_s(plain) / img_per_s(traced) - 1.0
        )
        runs = (plain, traced)
        trace_dir = bootstrap.ROOT / ".perfbench-traces"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{name}-seed{args.seed}.jsonl")
        sample = traced
    else:
        run = run_workload(name, ctx, args.seconds, args.seed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runs = (run,)
        metrics = end_to_end(run, setup_s, peak_rss_mb)
        sample = run

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} are reported but not "
            "declared in BENCHMARK.json, or declared but not reported"
        )

    problems += recorded_check(name, work)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    details = {
        "env": environment(threads),
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": len(sample.units),
        "ops_per_unit": len(best_op_ms(sample)),
        "setups": SETUPS,
        "problems": problems,
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
