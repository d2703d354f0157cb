"""Anchor priors, grid decoding of raw head outputs, box geometry,
confidence filtering and optional per-class non-maximum suppression.

Boxes are center-parameterized and normalized to the full image:
cx, cy in [0, 1], w, h > 0 (may exceed 1 for boxes spilling past borders).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CLASS_NAMES, HEADS, HeadSpec
from .tensor import ShapeError

DEFAULT_CONF_THRESHOLD = 0.5


@dataclass(frozen=True)
class BBox:
    cx: float
    cy: float
    w: float
    h: float


@dataclass(frozen=True)
class Detection:
    box: BBox
    class_id: int
    confidence: float


@dataclass(frozen=True, eq=False)
class Detections:
    """Detections as parallel 1-D arrays, entry k being one candidate.

    ``len`` counts the entries and iteration yields them as `Detection`
    objects, which `format_detections` and the overlay read.
    """

    class_id: np.ndarray  # int64
    confidence: np.ndarray  # float64, like the box fields
    cx: np.ndarray
    cy: np.ndarray
    w: np.ndarray
    h: np.ndarray

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.class_id, self.confidence, self.cx, self.cy, self.w, self.h)

    def __len__(self) -> int:
        return len(self.confidence)

    def __iter__(self):
        for c, p, x, y, w, h in zip(*(v.tolist() for v in self.columns())):
            yield Detection(BBox(x, y, w, h), c, p)

    def select(self, index) -> Detections:
        """The entries at an integer index array, in its order."""
        return Detections(*(v[index] for v in self.columns()))

    @staticmethod
    def concat(parts) -> Detections:
        """The entries of every part, part by part."""
        if not parts:
            return Detections(np.zeros(0, dtype=np.int64), *np.zeros((5, 0)))
        return Detections(*(np.concatenate(v) for v in zip(*(p.columns() for p in parts))))


def compute_anchors(annotations) -> np.ndarray:
    """Per-class mean (width, height) over (class_id, BBox) pairs.

    Returns a (4, 2) float32 array ordered like CLASS_NAMES.
    """
    sums = np.zeros((len(CLASS_NAMES), 2), dtype=np.float64)
    counts = np.zeros(len(CLASS_NAMES), dtype=np.int64)
    for class_id, box in annotations:
        sums[class_id, 0] += box.w
        sums[class_id, 1] += box.h
        counts[class_id] += 1
    for c, n in enumerate(counts):
        if n == 0:
            raise ValueError(f"no annotations for class '{CLASS_NAMES[c]}'")
    return (sums / counts[:, None]).astype(np.float32)


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)) in the dtype of x.

    exp(-x) overflows to inf for very negative x, which gives exactly 0;
    that overflow is expected and not warned about.
    """
    with np.errstate(over="ignore"):
        return 1 / (1 + np.exp(-x))


def decode(raw: np.ndarray, head: HeadSpec, anchors: np.ndarray, grid) -> Detections:
    """Turn one head's raw tensor into a candidate per (cell, owned class),
    ordered slot by slot, then row by row, then column by column.

    Channel block [5c, 5c+5) of slot c holds (tx, ty, tw, th, to); the cell
    offset goes through a sigmoid, the size through exp against the class
    anchor, and the objectness through a sigmoid.
    """
    gh, gw = grid
    if raw.shape != (1, head.channels, gh, gw):
        raise ShapeError(
            f"raw head tensor shape {tuple(raw.shape)} does not match "
            f"(1, {head.channels}, {gh}, {gw})"
        )
    owned = list(head.classes_owned)
    t = raw[0].astype(np.float64).reshape(len(owned), 5, gh, gw)
    s = sigmoid(t)  # one call for the offsets and the objectness
    cx = (np.arange(gw) + s[:, 0]) / gw
    cy = (np.arange(gh)[:, None] + s[:, 1]) / gh
    wh = anchors[owned][:, :, None, None] * np.exp(t[:, 2:4])
    conf = s[:, 4]
    return Detections(
        np.repeat(np.array(owned, dtype=np.int64), gh * gw),
        conf.ravel(), cx.ravel(), cy.ravel(), wh[:, 0].ravel(), wh[:, 1].ravel(),
    )


def encode(gt, anchors: np.ndarray, grid):
    """Map a ground-truth (class_id, BBox) to its responsible cell and the
    regression targets ((i, j), (tx, ty, tw, th)).

    tx, ty are targets for the sigmoid offsets in [0, 1); tw, th are log
    size ratios against the class anchor.  A center exactly at 1.0 clamps
    to the last cell.
    """
    class_id, box = gt
    if not (0.0 <= box.cx <= 1.0 and 0.0 <= box.cy <= 1.0):
        raise ValueError(f"box center ({box.cx}, {box.cy}) outside the image")
    gh, gw = grid
    i = min(int(box.cy * gh), gh - 1)
    j = min(int(box.cx * gw), gw - 1)
    tx = box.cx * gw - j
    ty = box.cy * gh - i
    tw = math.log(box.w / anchors[class_id, 0])
    th = math.log(box.h / anchors[class_id, 1])
    return (i, j), (tx, ty, tw, th)


def iou(a: BBox, b: BBox) -> float:
    ax0, ax1 = a.cx - a.w / 2, a.cx + a.w / 2
    ay0, ay1 = a.cy - a.h / 2, a.cy + a.h / 2
    bx0, bx1 = b.cx - b.w / 2, b.cx + b.w / 2
    by0, by1 = b.cy - b.h / 2, b.cy + b.h / 2
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.w * a.h + b.w * b.h - inter
    # union <= 0 only on degenerate boxes, such as areas that underflow to 0
    return inter / union if union > 0 else 0.0


def iou_matrix(a, b) -> np.ndarray:
    """IoU of every box of ``a`` (rows) against every box of ``b`` (columns),
    each given as (cx, cy, w, h) 1-D arrays.

    Runs the operations of `iou` in its order, so for boxes with finite
    corners entry [i, j] is bitwise equal to ``iou(a[i], b[j])``.
    """
    acx, acy, aw, ah = (v[:, None] for v in a)
    bcx, bcy, bw, bh = (v[None, :] for v in b)
    iw = np.minimum(acx + aw / 2, bcx + bw / 2) - np.maximum(acx - aw / 2, bcx - bw / 2)
    ih = np.minimum(acy + ah / 2, bcy + bh / 2) - np.maximum(acy - ah / 2, bcy - bh / 2)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros_like(inter),
                     where=(iw > 0) & (ih > 0) & (union > 0))


def nms(dets: Detections, iou_threshold: float) -> np.ndarray:
    """Indices of the entries kept by greedy per-class suppression of boxes
    overlapping a kept box by more than the threshold, class by class in
    descending confidence; ties in confidence keep the earlier entry."""
    classes, confidences = dets.class_id.tolist(), dets.confidence.tolist()
    boxes = list(map(BBox, dets.cx.tolist(), dets.cy.tolist(), dets.w.tolist(), dets.h.tolist()))
    kept: list[int] = []
    for class_id in range(len(CLASS_NAMES)):
        cls = [i for i, c in enumerate(classes) if c == class_id]
        cls.sort(key=lambda i: -confidences[i])
        survivors: list[int] = []
        for i in cls:
            if all(iou(boxes[i], boxes[s]) <= iou_threshold for s in survivors):
                survivors.append(i)
        kept.extend(survivors)
    return np.array(kept, dtype=np.intp)


def postprocess(
    dets_lo: Detections,
    dets_hi: Detections,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    nms_iou: float | None = None,
) -> Detections:
    """Merge both heads' candidates, drop low confidences, optionally NMS."""
    merged = Detections.concat([dets_lo, dets_hi])
    kept = merged.select(np.flatnonzero(merged.confidence >= conf_threshold))
    if nms_iou is not None:
        kept = kept.select(nms(kept, nms_iou))
    return kept


def decode_network_output(raw_lo, raw_hi, spec, anchors) -> tuple[Detections, Detections]:
    """Decode both heads of a single-image forward pass (batch size 1)."""
    return tuple(decode(raw, head, anchors, spec.head_grid(head))
                 for raw, head in zip((raw_lo, raw_hi), HEADS))


# ---------------------------------------------------------------------------
# Text formats.


def format_detections(detections) -> str:
    """One `class_id confidence cx cy w h` line per detection, 6 decimals."""
    lines = [
        f"{d.class_id} {d.confidence:.6f} {d.box.cx:.6f} {d.box.cy:.6f} "
        f"{d.box.w:.6f} {d.box.h:.6f}"
        for d in detections
    ]
    return "\n".join(lines) + ("\n" if lines else "")
