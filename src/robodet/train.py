"""Training: detection loss with L1 regularization, Adam with a cosine
learning-rate schedule, photometric/flip augmentation, magnitude pruning
with mask-frozen fine-tuning, and first-k-layers transfer fine-tuning.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import data as data_mod
from .detect import BBox, encode, sigmoid
from .model import (
    CLASS_NAMES,
    HEADS,
    Network,
    backward,
    forward_with_cache,
    trainable_params,
)

logger = logging.getLogger(__name__)


@dataclass
class LossWeights:
    coord: float = 5.0
    obj: float = 1.0
    noobj: float = 0.5
    l1: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"loss weight {f.name} must be finite and non-negative, got {value}"
                )


@dataclass
class TrainConfig:
    lr_max: float = 1e-3
    lr_min: float = 5e-5
    epochs: int = 125
    batch: int = 64
    finetune_epochs: int = 10
    finetune_lr: float = 5e-5
    seed: int = 0
    transfer_layers: int | None = None
    transfer_lr_factor: float = 10.0

    def __post_init__(self):
        if not (math.isfinite(self.lr_max) and self.lr_max > 0):
            raise ValueError(f"lr_max must be finite and positive, got {self.lr_max}")
        if not (math.isfinite(self.lr_min) and self.lr_min >= 0):
            raise ValueError(f"lr_min must be finite and non-negative, got {self.lr_min}")
        if not (math.isfinite(self.finetune_lr) and self.finetune_lr > 0):
            raise ValueError(f"finetune_lr must be finite and positive, got {self.finetune_lr}")
        if self.lr_min > self.lr_max:
            raise ValueError("lr_min must not exceed lr_max")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch < 1:
            raise ValueError(f"batch must be at least 1, got {self.batch}")
        if self.finetune_epochs < 0:
            raise ValueError(f"finetune_epochs must be non-negative, got {self.finetune_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (math.isfinite(self.transfer_lr_factor) and self.transfer_lr_factor > 0):
            raise ValueError(
                f"transfer_lr_factor must be finite and positive, got {self.transfer_lr_factor}"
            )


_CONFIG_INT_FIELDS = {"epochs", "batch", "finetune_epochs", "seed", "transfer_layers"}
_LOSS_KEYS = {"lambda_coord": "coord", "lambda_obj": "obj",
              "lambda_noobj": "noobj", "lambda_l1": "l1"}


def parse_config(text: str, source) -> tuple[TrainConfig, LossWeights]:
    """Flat key=value config covering TrainConfig and the loss weights,
    read from source; an error names source (and the line, for a bad
    line)."""
    cfg_kwargs = {}
    loss_kwargs = {}
    known = {f.name for f in fields(TrainConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _LOSS_KEYS and key not in known:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
        try:
            if key in _LOSS_KEYS:
                loss_kwargs[_LOSS_KEYS[key]] = float(value)
            elif key == "transfer_layers" and value.lower() == "none":
                cfg_kwargs[key] = None
            elif key in _CONFIG_INT_FIELDS:
                cfg_kwargs[key] = int(value)
            else:
                cfg_kwargs[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {key}: {exc}") from None
    try:
        return TrainConfig(**cfg_kwargs), LossWeights(**loss_kwargs)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def cosine_lr(t: int, total: int, cfg: TrainConfig) -> float:
    """Half-cosine decay from lr_max at t=0 to lr_min at t=total."""
    if not 0 <= t <= total:
        raise ValueError(f"step {t} outside schedule of {total} steps")
    if total == 0:
        return cfg.lr_max
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1 + math.cos(math.pi * t / total))


class AdamState:
    """First/second moment estimates keyed like the parameter dict."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(params, grads, state: AdamState, lr: float, masks=None, lr_scale=None):
    """Bias-corrected Adam update in place; masked weights stay exactly 0."""
    state.t += 1
    b1c = 1.0 - state.beta1**state.t
    b2c = 1.0 - state.beta2**state.t
    for name, p in params.items():
        g = grads[name]
        mask = masks.get(name) if masks else None
        if mask is not None:
            g = g * mask
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        scale = lr if lr_scale is None else lr * lr_scale.get(name, 1.0)
        p -= scale * (m / b1c) / (np.sqrt(v / b2c) + state.eps)
        if mask is not None:
            p[~mask] = 0.0


# ---------------------------------------------------------------------------
# Detection loss.


# class id -> (head, slot): the head that owns the class, and the class's
# position among that head's classes.
_OWNER = {c: (head, slot) for head in HEADS for slot, c in enumerate(head.classes_owned)}


def _assign_targets(targets_per_image, spec, anchors):
    """Responsible cells of a batch, keyed by (image, slot, i, j) per head.

    Two boxes of one class in one cell of one image collide, and the larger
    is kept.  Returns {head name: (b, slot, i, j, t)}: four index arrays and
    the (4, m) float64 table of (tx, ty, tw, th) regression targets.
    """
    assigned = {head.name: {} for head in HEADS}
    for b, targets in enumerate(targets_per_image):
        for class_id, box in targets:
            head, slot = _OWNER[class_id]
            (i, j), t = encode((class_id, box), anchors, spec.head_grid(head))
            cells = assigned[head.name]
            key = (b, slot, i, j)
            if key in cells:
                old_box, _ = cells[key]
                logger.warning(
                    "target collision: two '%s' boxes in cell (%d, %d) of %s "
                    "in image %d; keeping the larger one",
                    CLASS_NAMES[class_id], i, j, head.name, b,
                )
                if box.w * box.h <= old_box.w * old_box.h:
                    continue
            cells[key] = (box, t)
    out = {}
    for name, cells in assigned.items():
        index = np.array(list(cells), dtype=np.intp).reshape(-1, 4).T
        table = np.array([t for _, t in cells.values()], dtype=np.float64).reshape(-1, 4).T
        out[name] = (*index, table)
    return out


def _l1_term(net: Network) -> float:
    return float(sum(np.abs(layer.conv.weights).sum() for _, layer in net.all_layers()))


def batch_detection_loss(raw_lo, raw_hi, targets_per_image, net: Network, lw: LossWeights):
    """Mean per-image detection loss over a batch and its gradients on the
    two raw head tensors; the L1 term enters once.

    Every slot of every cell is a non-object, except the one (cell, class
    slot) responsible for each target, which carries the coordinate and
    object terms; there is no classification term.  The responsible cells
    are computed in float64.  Returns (loss, grad_lo, grad_hi).
    """
    n = raw_lo.shape[0]
    cells = _assign_targets(targets_per_image, net.spec, net.anchors)
    l1 = lw.l1 * _l1_term(net) if lw.l1 else 0.0
    total = 0.0
    grads = []
    for head, raw in zip(HEADS, (raw_lo, raw_hi)):
        b, slot, i, j, (txh, tyh, twh, thh) = cells[head.name]
        to = raw[:, 4::5]  # (n, slots, gh, gw)
        grad = np.zeros_like(raw)
        grad[:, 4::5] = lw.noobj * sigmoid(to)
        # One sum per image in the head's dtype, as for a batch of one.
        total += lw.noobj * np.logaddexp(0.0, to).sum(axis=(1, 2, 3)).sum(dtype=np.float64)
        base = 5 * slot
        tx, ty, tw, th, t_o = (raw[b, base + c, i, j].astype(np.float64) for c in range(5))
        sx, sy = sigmoid(tx), sigmoid(ty)
        total += lw.coord * (
            (sx - txh) ** 2 + (sy - tyh) ** 2 + (tw - twh) ** 2 + (th - thh) ** 2
        ).sum()
        # Swap each responsible cell's objectness from the no-object to the
        # object term.
        total += (lw.obj * np.logaddexp(0.0, -t_o) - lw.noobj * np.logaddexp(0.0, t_o)).sum()
        grad[b, base + 0, i, j] = lw.coord * 2 * (sx - txh) * sx * (1 - sx)
        grad[b, base + 1, i, j] = lw.coord * 2 * (sy - tyh) * sy * (1 - sy)
        grad[b, base + 2, i, j] = lw.coord * 2 * (tw - twh)
        grad[b, base + 3, i, j] = lw.coord * 2 * (th - thh)
        grad[b, base + 4, i, j] = lw.obj * (sigmoid(t_o) - 1.0)
        grads.append(grad / n)
    return (float(total) / n + l1, *grads)


# ---------------------------------------------------------------------------
# Augmentation.


def colour_matrix(brightness, contrast, saturation, hue_deg):
    """The 3x3 RGB matrix of brightness and contrast scales, a saturation
    scale and a hue rotation by hue_deg degrees in the BT.601 chroma plane
    (the hueRotate of SVG's feColorMatrix).  Saturation and hue keep luma,
    and grey maps to grey scaled by brightness * contrast."""
    a = np.array(data_mod.BT601)
    t = np.radians(hue_deg)
    chroma = np.zeros((3, 3))
    rotation = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    chroma[1:, 1:] = saturation * rotation - np.eye(2)
    return contrast * brightness * (np.eye(3) + np.linalg.solve(a, chroma @ a))


# augment's draws: a flip with probability FLIP_PROB; brightness, contrast
# and saturation scales in 1 ± JITTER; a hue rotation within ±HUE_MAX_DEG.
FLIP_PROB = 0.5
JITTER = 0.25
HUE_MAX_DEG = 18.0


def augment(image, boxes, rng, out):
    """Random horizontal flip plus brightness/contrast/saturation/hue jitter
    of an 8-bit RGB image, written as YUV planes into out, a float32
    (3, h, w) array; returns the boxes, mirrored when the image is.

    The four colour ops are one affine map in 0-255 units: `colour_matrix`
    plus, on every channel, the offset that makes the contrast scale about
    the image mean.  Its result is clipped to [0, 255] and rounded, as an
    8-bit image would be, then mapped to YUV as `data.rgb_to_yuv` maps it:
    by `data.yuv_product` (the 1/255 scale and the float32 BT.601 product),
    plus `data.YUV_OFFSET`.
    The planes equal `data.rgb_to_yuv` of that 8-bit image bit for bit.  The
    map and the mean are the same for every pixel, so flipping the planes at
    the end equals flipping the 8-bit image first.  Box sizes are untouched.
    """
    flip = rng.random() < FLIP_PROB
    brightness = rng.uniform(1 - JITTER, 1 + JITTER)
    contrast = rng.uniform(1 - JITTER, 1 + JITTER)
    saturation = rng.uniform(1 - JITTER, 1 + JITTER)
    hue_deg = rng.uniform(-HUE_MAX_DEG, HUE_MAX_DEG)
    matrix = colour_matrix(brightness, contrast, saturation, hue_deg)
    # The exact integer sum, so the same float64 as image.mean().
    offset = (1 - contrast) * brightness * (int(image.sum()) / image.size)
    # The RGB pixels live in out's buffer, as (h*w, 3), until the YUV map
    # reads them into the buffer of the float copy of the image, which out
    # then takes back: one image-sized allocation in all.
    pixels = image.astype(np.float32).reshape(-1, 3)
    rgb = out.reshape(-1, 3)
    # C-ordered: on the F-ordered `matrix.T.astype(...)` numpy's matmul takes
    # twice as long for the same bits.
    np.matmul(pixels, np.ascontiguousarray(matrix.T, dtype=np.float32), out=rgb)
    rgb += np.float32(offset)
    np.clip(rgb, 0, 255, out=rgb)
    np.rint(rgb, out=rgb)
    yuv = data_mod.yuv_product(rgb, pixels.reshape(out.shape))
    np.add(yuv[:, :, ::-1] if flip else yuv, data_mod.YUV_OFFSET, out=out)
    if flip:
        boxes = [
            data_mod.Annotation(a.class_id, BBox(1.0 - a.box.cx, a.box.cy, a.box.w, a.box.h))
            for a in boxes
        ]
    return boxes


# ---------------------------------------------------------------------------
# Training loops.


def _load_dataset(index):
    images, targets = [], []
    for image, annotations in data_mod.load_all_samples(index):
        images.append(image)
        targets.append(data_mod.filter_min_size(annotations))
    return images, targets


def _epoch_batches(n, batch, rng):
    """Shuffled index batches covering every sample exactly once; the final
    batch may be short."""
    order = rng.permutation(n)
    return [order[i : i + batch] for i in range(0, n, batch)]


def _layer_lr_scale(net: Network, k_t: int, factor: float):
    """Full rate for backbone layers 1..k_t, reduced for the rest and heads."""
    scale = {}
    for position, (name, _) in enumerate(net.all_layers()):
        mult = 1.0 if position < k_t else 1.0 / factor
        for suffix in (".w", ".b", ".gamma", ".beta"):
            scale[name + suffix] = mult
    return scale


def _diagnostics(net, epoch, batch):
    norms = ", ".join(
        f"{name}|w|={np.abs(layer.conv.weights).max():.3g}"
        for name, layer in net.all_layers()
    )
    return f"epoch {epoch}, batch {batch}, layer max-abs weights: {norms}"


def _make_batch(images, targets, ids, rng, augment_data):
    """The YUV input tensor and the targets of the samples ids, augmented
    when augment_data is set; each image is written into its batch slot."""
    x = np.empty((len(ids), 3) + images[ids[0]].shape[:2], np.float32)
    batch_targets = []
    for slot, i in zip(x, ids):
        if augment_data:
            batch_targets.append(augment(images[i], targets[i], rng, slot))
        else:
            slot[...] = data_mod.rgb_to_yuv(images[i])
            batch_targets.append(targets[i])
    return x, batch_targets


def _loss_and_grads(net, x, batch_targets, lw, epoch, b):
    """Loss and parameter gradients of one batch.  Its forward cache lives
    only within this call, so one training step holds one cache."""
    (raw_lo, raw_hi), cache = forward_with_cache(net, x)
    loss, grad_lo, grad_hi = batch_detection_loss(raw_lo, raw_hi, batch_targets, net, lw)
    if not math.isfinite(loss):
        raise RuntimeError(f"non-finite training loss; {_diagnostics(net, epoch, b)}")
    return loss, backward(net, cache, grad_lo, grad_hi)


def train_loop(
    net: Network,
    index,
    cfg: TrainConfig,
    lw: LossWeights,
    val_index=None,
    lr_scale=None,
    augment_data: bool = True,
    log_path=None,
):
    """Shuffled minibatch Adam training for cfg.epochs epochs on the cosine
    schedule; returns per-epoch metrics.

    Every 5 epochs (and on the last), validation mAP at the 16 px
    center-distance criterion is logged when val_index is given.
    """
    from .evaluate import map_at_distance

    rng = np.random.default_rng(cfg.seed)
    images, targets = _load_dataset(index)
    n = len(images)
    batch = min(cfg.batch, n)
    n_batches = -(-n // batch)
    params = trainable_params(net)
    masks = {f"{name}.w": mask for name, mask in net.mask_dict().items()}
    active_masks = {k: m for k, m in masks.items() if not m.all()}
    state = AdamState(params)
    total_steps = cfg.epochs * n_batches
    metrics = []
    log_file = open(log_path, "a") if log_path else None
    try:
        step = 0
        for epoch in range(cfg.epochs):
            epoch_losses = []
            for b, ids in enumerate(_epoch_batches(n, batch, rng)):
                x, batch_targets = _make_batch(images, targets, ids, rng, augment_data)
                loss, grads = _loss_and_grads(net, x, batch_targets, lw, epoch, b)
                if lw.l1 > 0:
                    for name in masks:
                        grads[name] += lw.l1 * np.sign(params[name])  # backward's own array
                lr = cosine_lr(step, total_steps, cfg)
                adam_step(params, grads, state, lr, masks=active_masks, lr_scale=lr_scale)
                epoch_losses.append(loss)
                step += 1
            mean_loss = float(np.mean(epoch_losses))
            val_map = None
            if val_index is not None and ((epoch + 1) % 5 == 0 or epoch == cfg.epochs - 1):
                val_map = map_at_distance(net, val_index)
            metrics.append({"epoch": epoch, "loss": mean_loss, "lr": lr, "val_map": val_map})
            if log_file:
                cell = "" if val_map is None else f"{val_map:.4f}"
                log_file.write(f"{epoch},{mean_loss:.6f},{lr:.6g},{cell}\n")
                log_file.flush()
            logger.info("epoch %d: loss %.4f lr %.2e val_map %s",
                        epoch, mean_loss, lr, val_map)
    finally:
        if log_file:
            log_file.close()
    return metrics


@dataclass
class PruneReport:
    per_layer: dict[str, float]  # pruned fraction per layer
    total: float

    def __str__(self):
        lines = [f"{name}: {frac:.1%} pruned" for name, frac in self.per_layer.items()]
        lines.append(f"total: {self.total:.1%} pruned")
        return "\n".join(lines)


def prune(net: Network, theta: float) -> PruneReport:
    """Mask every weight below theta times its layer's largest magnitude, in
    place."""
    if not 0.0 < theta < 1.0:
        raise ValueError("prune threshold must lie in (0, 1)")
    per_layer = {}
    pruned = 0
    total = 0
    for name, layer in net.all_layers():
        w = layer.conv.weights
        top = np.abs(w).max()
        if top == 0.0:
            warnings.warn(f"layer {name} is all zero; masking it entirely")
            mask = np.zeros(w.shape, dtype=bool)
        else:
            mask = np.abs(w) >= theta * top
        layer.mask = mask
        layer.apply_mask()
        per_layer[name] = 1.0 - float(mask.mean())
        pruned += int((~mask).sum())
        total += mask.size
    return PruneReport(per_layer, pruned / total)


def finetune_pruned(net: Network, index, cfg: TrainConfig, lw: LossWeights, val_index=None,
                    log_path=None):
    """cfg.finetune_epochs epochs at the flat rate cfg.finetune_lr (a cosine
    with equal ends); adam_step keeps every pruned weight at zero.  Zero
    epochs return net untouched, without reading the dataset."""
    if all(layer.mask.all() for _, layer in net.all_layers()):
        warnings.warn("finetune_pruned called on a network with no pruned weights")
    if cfg.finetune_epochs == 0:
        return net
    flat = replace(cfg, epochs=cfg.finetune_epochs, lr_max=cfg.finetune_lr,
                   lr_min=cfg.finetune_lr)
    train_loop(net, index, flat, lw, val_index=val_index, log_path=log_path)
    return net


def check_transfer_layers(net: Network, k_t) -> None:
    """Raise ValueError unless k_t counts 0 up to all of net's backbone layers."""
    if k_t is None or not 0 <= k_t <= len(net.layers):
        raise ValueError(f"transfer_layers must lie in 0..{len(net.layers)}, got {k_t}")


def transfer_finetune(net: Network, index, cfg: TrainConfig, lw: LossWeights,
                      val_index=None, log_path=None):
    """Retrain the first transfer_layers backbone layers at the scheduled
    rate; all later layers and both heads run at lr / transfer_lr_factor."""
    k_t = cfg.transfer_layers
    check_transfer_layers(net, k_t)
    lr_scale = _layer_lr_scale(net, k_t, cfg.transfer_lr_factor)
    train_loop(net, index, cfg, lw, val_index=val_index, lr_scale=lr_scale,
               log_path=log_path)
    return net
