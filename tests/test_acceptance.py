"""End-to-end acceptance gate: toy ROBO k=1 training, pruning and transfer.

A change to training behaviour (augmentation, the loss, the optimiser) can
pass every unit test and still train a worse detector.  This module trains
one net the way the paper does, on the toy soccer scenes, and checks what
comes out:

- the trained net reaches a mAP@16px floor (an untrained net scores about
  0.006-0.016);
- pruning at theta = 0.01 followed by fine-tuning loses at most a stated mAP;
- transfer from style A to style B beats training from scratch on the same
  B data and budget by a stated margin.

The floors and margins were set from seeds 0-3, below the worst seed, and
the per-seed numbers are recorded in CHANGES.md.  Do not change the seed,
shrink the data or lower a floor to get a failing change through.

The module takes about 80-90 s on 2 cores; deselect it with
`-m "not slow"`.  `measure(seed, root)` returns every number the checks
read, for recalibration from the repository root:
`PYTHONPATH=src:tests python -c "import test_acceptance as t; print(t.measure(1, 'cal'))"`.
"""

from __future__ import annotations

import copy
from pathlib import Path

import pytest

from robodet.data import generate_toy_dataset, load_all_annotations
from robodet.detect import compute_anchors
from robodet.evaluate import map_at_distance
from robodet.model import build_robo, init_network
from robodet.train import (
    LossWeights,
    TrainConfig,
    finetune_pruned,
    prune,
    train_loop,
    transfer_finetune,
)

pytestmark = pytest.mark.slow

SEED = 0

TRAIN_A = 256  # style-A images, generator seed 100 + seed
VAL_A = 64  # style-A validation images, generator seed 999
TRAIN_CFG = dict(epochs=20, batch=16, lr_max=3e-3)

PRUNE_THETA = 0.01
PRUNE_CFG = dict(batch=16, finetune_epochs=2)

TRAIN_B = 128  # style-B images, generator seed 200 + seed
VAL_B = 64  # style-B validation images, generator seed 999
TRANSFER_CFG = dict(epochs=5, batch=16, lr_max=3e-3, transfer_layers=3)

# Calibrated on seeds 0-3 (CHANGES.md), each below the worst seed: trained
# mAP 0.221 at worst, prune-and-finetune loss 0.0007 at worst (it gained
# on three seeds) and transfer gain 0.204 at worst.
MAP_FLOOR = 0.15
PRUNE_LOSS_MAX = 0.03
TRANSFER_MARGIN = 0.1


def _dataset(root: Path, name: str, n: int, style: str, seed: int):
    return generate_toy_dataset(n, style, seed=seed, out_dir=root / name)


def _fresh_net(index, seed: int):
    net = init_network(build_robo(1), seed=seed)
    net.anchors = compute_anchors(load_all_annotations(index))
    return net


def train_a(root: Path, seed: int):
    """The net trained on style A, its validation set and its mAP@16px
    before and after training."""
    train = _dataset(root, "train_a", TRAIN_A, "A", 100 + seed)
    val = _dataset(root, "val_a", VAL_A, "A", 999)
    net = _fresh_net(train, seed)
    untrained = map_at_distance(net, val)
    metrics = train_loop(net, train, TrainConfig(seed=seed, **TRAIN_CFG), LossWeights())
    return {
        "net": net, "train": train, "val": val, "untrained": untrained,
        "trained": map_at_distance(net, val),
        "loss": (metrics[0]["loss"], metrics[-1]["loss"]),
    }


def prune_and_finetune(trained, seed: int) -> float:
    """mAP@16px of a copy of the trained net after prune and fine-tune."""
    net = copy.deepcopy(trained["net"])
    prune(net, PRUNE_THETA)
    finetune_pruned(net, trained["train"], TrainConfig(seed=seed, **PRUNE_CFG), LossWeights())
    return map_at_distance(net, trained["val"])


def transfer_and_scratch(trained, root: Path, seed: int) -> tuple[float, float]:
    """Style-B mAP@16px of the transferred net and of a net trained from
    init_network on the same B data and budget."""
    train = _dataset(root, "train_b", TRAIN_B, "B", 200 + seed)
    val = _dataset(root, "val_b", VAL_B, "B", 999)
    cfg = TrainConfig(seed=seed, **TRANSFER_CFG)
    moved = transfer_finetune(copy.deepcopy(trained["net"]), train, cfg, LossWeights())
    scratch = _fresh_net(train, seed)
    train_loop(scratch, train, cfg, LossWeights())
    return map_at_distance(moved, val), map_at_distance(scratch, val)


def measure(seed: int, root) -> dict:
    """Every number the gate checks, for one seed, with datasets under root."""
    root = Path(root)
    trained = train_a(root, seed)
    transfer, scratch = transfer_and_scratch(trained, root, seed)
    return {
        "untrained": trained["untrained"], "trained": trained["trained"],
        "loss": trained["loss"], "pruned": prune_and_finetune(trained, seed),
        "transfer": transfer, "scratch": scratch,
    }


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return train_a(tmp_path_factory.mktemp("acceptance"), SEED)


def test_training_reaches_map_floor(trained):
    assert trained["loss"][1] < trained["loss"][0]
    assert trained["trained"] >= MAP_FLOOR, trained["trained"]


def test_prune_and_finetune_keeps_map(trained):
    pruned = prune_and_finetune(trained, SEED)
    assert trained["trained"] - pruned <= PRUNE_LOSS_MAX, (trained["trained"], pruned)


def test_transfer_beats_training_from_scratch(trained, tmp_path):
    transfer, scratch = transfer_and_scratch(trained, tmp_path, SEED)
    assert transfer - scratch >= TRANSFER_MARGIN, (transfer, scratch)
