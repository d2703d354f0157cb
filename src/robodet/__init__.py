"""robodet: a from-scratch single-shot detection engine for robot soccer
scenes, with pruning-aware training and dual-criterion mAP evaluation."""

__version__ = "0.1.0"

from .detect import BBox, Detection, compute_anchors, decode, encode, iou, postprocess
from .model import (
    Network,
    build_robo,
    build_robo_bn,
    build_robo_hr,
    forward,
    init_network,
    load_weights,
    save_weights,
)
from .train import LossWeights, TrainConfig, prune, train_loop

__all__ = [
    "BBox",
    "Detection",
    "LossWeights",
    "Network",
    "TrainConfig",
    "build_robo",
    "build_robo_bn",
    "build_robo_hr",
    "compute_anchors",
    "decode",
    "encode",
    "forward",
    "init_network",
    "iou",
    "load_weights",
    "postprocess",
    "prune",
    "save_weights",
    "train_loop",
]
