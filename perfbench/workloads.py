"""The three workloads: set-up, one operation, and the timed loop.

Every workload uses ROBO at k=1, the spec that takes the 256x192 toy
images, with weights from ``init_network(spec, seed)`` and anchors from
``compute_anchors`` on the workload's own toy set.  Weights are never
trained during set-up, so a change to training cannot move the inference
inputs.  All inputs derive from the seed.

Each loop repeats a unit of work (a pass over the detect pool, a
``train_loop`` call, an ``evaluate`` pass): one unit untimed first, then
units until the time is up.  robodet functions are called through their
modules (``robodet.model.forward`` rather than an imported name), so the
tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import robodet.data
import robodet.detect
import robodet.evaluate
import robodet.model
import robodet.train
from reference import forward64, heads_match

TOY_IMAGES = 32
DETECT_CONF = 0.5
DETECT_NMS_IOU = 0.5
PRUNE_THETA = 0.3
# Share of detect candidates whose confidence reaches DETECT_CONF, about
# two per frame as in the toy scenes, and the frames it is calibrated on.
DETECT_KEEP = 0.02
CALIBRATION_FRAMES = 4
TRAIN_BATCH = 16
TRAIN_L1 = 0.003
EVAL_CRITERIA = 10


@dataclass
class Context:
    net: robodet.model.Network
    index: robodet.data.DatasetIndex
    gen_s: float  # time spent rendering the toy set

    @property
    def paths(self) -> list[Path]:
        return [self.index.root / img for img, _ in self.index.entries]


@dataclass
class Unit:
    """One timed unit of work: its images and the latencies of its
    operations (frames, train steps or eval passes), in order."""

    images: int
    op_ms: list[float]


@dataclass
class Run:
    units: list[Unit] = field(default_factory=list)
    processed: int = 0  # images, the untimed unit included
    attempted: int = 0  # operations
    failed: int = 0


def setup(out_dir: Path, seed: int) -> Context:
    """Render the toy set, then build the seeded network with its anchors."""
    start = perf_counter()
    index = robodet.data.generate_toy_dataset(TOY_IMAGES, "A", seed, out_dir)
    gen_s = perf_counter() - start
    net = robodet.model.init_network(robodet.model.build_robo(1), seed)
    boxes = [(a.class_id, a.box) for a in robodet.data.load_all_annotations(index)]
    net.anchors = robodet.detect.compute_anchors(boxes)
    return Context(net, index, gen_s)


def setup_detect(out_dir: Path, seed: int) -> Context:
    """Prune, then shift the objectness biases so that DETECT_KEEP of the
    candidates pass DETECT_CONF.  Untrained, every confidence sits near 0.5,
    so without the shift the seed alone would decide whether none or all
    candidates reach NMS."""
    ctx = setup(out_dir, seed)
    robodet.train.prune(ctx.net, PRUNE_THETA)
    logits = []
    for path in ctx.paths[:CALIBRATION_FRAMES]:
        x = robodet.data.rgb_to_yuv(robodet.data.read_ppm(path))[None]
        for raw in robodet.model.forward(ctx.net, x):
            logits.append(raw[0, 4::5].ravel())
    shift = np.quantile(np.concatenate(logits), 1.0 - DETECT_KEEP)
    for head in ctx.net.heads.values():
        head.conv.bias[4::5] -= np.float32(shift)
    return ctx


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# --------------------------------------------------------------------------
# detect: closed loop, one client, batch 1.


def detect_frame(ctx: Context, i: int):
    """The robot's per-frame loop on pool image ``i``."""
    image = robodet.data.read_ppm(ctx.paths[i])
    x = robodet.data.rgb_to_yuv(image)[None]
    raw_lo, raw_hi = robodet.model.forward(ctx.net, x)
    lo, hi = robodet.detect.decode_network_output(raw_lo, raw_hi, ctx.net.spec, ctx.net.anchors)
    dets = robodet.detect.postprocess(lo, hi, conf_threshold=DETECT_CONF, nms_iou=DETECT_NMS_IOU)
    return raw_lo, raw_hi, dets


def run_detect(ctx: Context, seconds: float) -> Run:
    """Passes over the frame pool.  A frame passes when its head outputs
    equal those of the pool image's first frame and those agree with the
    float64 reference."""
    run = Run()
    pool = len(ctx.paths)
    first: dict[int, tuple] = {}
    passed_of = [0] * pool
    deadline = None
    while deadline is None or perf_counter() < deadline:
        op_ms = []
        for k in range(pool):
            start = perf_counter()
            try:
                raw_lo, raw_hi, dets = detect_frame(ctx, k)
            except Exception:
                _report_failure(f"frame {k}")
                raw_lo = None
            op_ms.append((perf_counter() - start) * 1e3)
            if raw_lo is None or any(d.confidence < DETECT_CONF for d in dets):
                run.failed += 1
            elif k not in first:
                first[k] = (raw_lo, raw_hi)
                passed_of[k] += 1
            elif np.array_equal(raw_lo, first[k][0]) and np.array_equal(raw_hi, first[k][1]):
                passed_of[k] += 1
            else:
                run.failed += 1
        run.attempted += pool
        run.processed += pool
        if deadline is None:
            deadline = perf_counter() + seconds
        else:
            run.units.append(Unit(pool, op_ms))
    # Every frame that matched a wrong first output is wrong too.
    for k, heads in first.items():
        x = robodet.data.rgb_to_yuv(robodet.data.read_ppm(ctx.paths[k]))[None]
        if not heads_match(heads, forward64(ctx.net, x)):
            run.failed += passed_of[k]
    return run


# --------------------------------------------------------------------------
# train: consecutive one-epoch train_loop calls on the same network.


class _StepProbe:
    """Records each step's loss and the time its Adam update returns."""

    def __init__(self):
        self.losses: list[float] = []
        self.ends: list[float] = []
        self._patched = []

    def install(self):
        loss_fn = robodet.train.batch_detection_loss
        adam_fn = robodet.train.adam_step

        def loss(*args, **kwargs):
            out = loss_fn(*args, **kwargs)
            self.losses.append(out[0])
            return out

        def adam(*args, **kwargs):
            adam_fn(*args, **kwargs)
            self.ends.append(perf_counter())

        self._patched = [("batch_detection_loss", loss_fn), ("adam_step", adam_fn)]
        robodet.train.batch_detection_loss = loss
        robodet.train.adam_step = adam

    def uninstall(self):
        for name, fn in self._patched:
            setattr(robodet.train, name, fn)


def run_train(ctx: Context, seconds: float, seed: int) -> Run:
    """One-epoch ``train_loop`` calls, each continuing to train ``ctx.net``
    with its own shuffle and augmentation seed.  A step passes when its loss
    is finite and the last call's mean loss is below the first call's."""
    probe = _StepProbe()
    probe.install()
    try:
        return _train_calls(ctx, seconds, seed, probe)
    finally:
        probe.uninstall()


def _train_calls(ctx, seconds, seed, probe) -> Run:
    lw = robodet.train.LossWeights(l1=TRAIN_L1)
    steps = math.ceil(len(ctx.index) / TRAIN_BATCH)
    run = Run()
    epoch_losses = []
    deadline = None
    while deadline is None or perf_counter() < deadline:
        cfg = robodet.train.TrainConfig(
            epochs=1, batch=TRAIN_BATCH, seed=seed * 1000 + len(epoch_losses)
        )
        probe.losses.clear()
        probe.ends.clear()
        start = perf_counter()
        try:
            metrics = robodet.train.train_loop(ctx.net, ctx.index, cfg, lw, augment_data=True)
        except Exception:
            _report_failure("train_loop")
            metrics = None
        end = perf_counter()
        run.attempted += steps
        run.processed += len(ctx.index)
        if (metrics is None or len(probe.losses) != steps
                or not all(math.isfinite(v) for v in probe.losses)):
            run.failed += steps
            epoch_losses.append(math.nan)
        else:
            epoch_losses.append(metrics[0]["loss"])
        if deadline is None:
            deadline = perf_counter() + seconds
            continue
        # A step runs from the previous step's Adam update to its own; the
        # last one runs to the end of the call, so the steps sum to the call.
        ends = probe.ends[:-1] + [end]
        op_ms = [(b - a) * 1e3 for a, b in zip([start] + ends, ends)]
        run.units.append(Unit(len(ctx.index), op_ms))
    if not epoch_losses[-1] < epoch_losses[0]:
        run.failed = run.attempted
    return run


# --------------------------------------------------------------------------
# eval: the default criterion sweep over the val set.


def eval_pass(ctx: Context) -> list[float]:
    reports = robodet.evaluate.evaluate(ctx.net, ctx.index)
    return [r.map for r in reports]


def run_eval(ctx: Context, seconds: float) -> Run:
    """``evaluate`` passes.  A pass passes when its mAPs lie in [0, 1] and
    equal the first pass's."""
    run = Run()
    first = None
    deadline = None
    while deadline is None or perf_counter() < deadline:
        start = perf_counter()
        try:
            maps = eval_pass(ctx)
        except Exception:
            _report_failure("evaluate")
            maps = None
        elapsed = perf_counter() - start
        run.attempted += 1
        run.processed += len(ctx.index)
        if first is None:
            first = maps
        if maps is None or maps != first or len(maps) != EVAL_CRITERIA or not all(
            0.0 <= v <= 1.0 for v in maps
        ):
            run.failed += 1
        if deadline is None:
            deadline = perf_counter() + seconds
            continue
        run.units.append(Unit(len(ctx.index), [elapsed * 1e3]))
    return run
