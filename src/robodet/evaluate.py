"""Detection-vs-ground-truth matching and (mean) Average Precision under
IoU and center-distance criteria.

AP uses all-point interpolation: the precision curve is made monotone
non-increasing in recall, then integrated over the recall steps.  Matching
is greedy by descending confidence; each ground truth is claimed at most
once; score ties break toward the lower ground-truth index.
"""

from __future__ import annotations

import csv
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import detect as detect_mod
from . import model as model_mod
from .detect import Detections, as_detections, iou_matrix
from .model import CLASS_NAMES

DEFAULT_IOU_SWEEP = (0.75, 0.5, 0.25, 0.1, 0.05)
DEFAULT_DISTANCE_SWEEP = (4.0, 8.0, 16.0, 32.0, 64.0)


@dataclass(frozen=True)
class MatchCriterion:
    kind: str  # "iou" | "center_distance"
    threshold: float
    image_size: tuple[int, int] | None = None  # (w, h), required for distance

    def __post_init__(self):
        if self.kind not in ("iou", "center_distance"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.threshold <= 0:
            raise ValueError("criterion threshold must be positive")
        if self.kind == "center_distance" and self.image_size is None:
            raise ValueError("center_distance criterion needs image_size")

    @property
    def label(self) -> str:
        if self.kind == "iou":
            return f"iou@{self.threshold:g}"
        return f"dist@{self.threshold:g}px"


@dataclass
class EvalReport:
    criterion: MatchCriterion
    ap: dict[int, float | None]  # per class; None when the class has no gts
    counts: dict[int, tuple[int, int, int]]  # class -> (tp, fp, fn)

    @property
    def map(self) -> float:
        defined = [v for v in self.ap.values() if v is not None]
        return float(np.mean(defined)) if defined else 0.0


def match(dets, gts, crit: MatchCriterion) -> np.ndarray:
    """Per-detection TP flags (aligned with the input order) for one image.

    ``dets`` is `Detections` or a sequence of `Detection`; ``gts`` is a
    sequence of (class_id, BBox).  One score matrix holds every (detection,
    ground truth) pair: the IoU, bitwise equal to `iou` for finite boxes, or
    the negated center distance in pixels.  The distance comes from
    ``np.hypot``, which can differ from ``math.hypot`` in the last ulp, so a
    flag can differ from a ``math.hypot`` matcher only where a distance lies
    within one ulp of the threshold or of another ground truth's distance.
    """
    dets = as_detections(dets)
    flags = np.zeros(len(dets), dtype=bool)
    if len(dets) == 0 or len(gts) == 0:
        return flags
    gt = np.array([(c, b.cx, b.cy, b.w, b.h) for c, b in gts], dtype=np.float64).T
    if crit.kind == "iou":
        score = iou_matrix((dets.cx, dets.cy, dets.w, dets.h), gt[1:])
        ok = score >= crit.threshold
    else:
        w, h = crit.image_size
        dist = np.hypot((dets.cx[:, None] - gt[1]) * w, (dets.cy[:, None] - gt[2]) * h)
        ok = dist <= crit.threshold
        score = -dist
    ok &= dets.class_id[:, None] == gt[0]
    # Rows in descending confidence; a claimed ground truth's column is
    # knocked out to -inf, so argmax picks the best free one, lowest index
    # first on ties.
    order = np.argsort(-dets.confidence, kind="stable")
    score = np.where(ok, score, -np.inf)[order]
    unclaimed = np.count_nonzero(ok.any(axis=0))
    for r in np.flatnonzero(ok.any(axis=1)[order]):
        g = score[r].argmax()
        if score[r, g] == -np.inf:
            continue
        flags[order[r]] = True
        score[:, g] = -np.inf
        unclaimed -= 1
        if unclaimed == 0:
            break
    return flags


def average_precision(confidences, tp_flags, n_gt: int) -> float | None:
    """All-point interpolated AP for one class over the whole dataset."""
    if n_gt == 0:
        return None
    confidences = np.asarray(confidences, dtype=np.float64)
    tp_flags = np.asarray(tp_flags, dtype=bool)
    if confidences.size == 0:
        return 0.0
    order = np.argsort(-confidences, kind="stable")
    tp = tp_flags[order]
    ctp = np.cumsum(tp)
    cfp = np.cumsum(~tp)
    recall = ctp / n_gt
    precision = ctp / np.maximum(ctp + cfp, 1)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    steps = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def evaluate_detections(per_image_dets, per_image_gts, criteria) -> list[EvalReport]:
    """Score fixed detections against ground truth under each criterion.

    per_image_dets: list over images of `Detections` (or `Detection`
    lists); per_image_gts: matching list of (class_id, BBox) lists.
    """
    if len(per_image_dets) != len(per_image_gts):
        raise ValueError("detections and ground truth must cover the same images")
    per_image_dets = [as_detections(d) for d in per_image_dets]
    # Image order, then detection order: AP's stable sort keeps equal
    # confidences of one class in this order.
    dets = Detections.concat(per_image_dets)
    class_masks = [dets.class_id == c for c in range(len(CLASS_NAMES))]
    n_gt = Counter(c for gts in per_image_gts for c, _ in gts)
    reports = []
    for crit in criteria:
        flags = np.concatenate(
            [np.zeros(0, dtype=bool)]
            + [match(d, g, crit) for d, g in zip(per_image_dets, per_image_gts)]
        )
        ap = {}
        counts = {}
        for c, mask in enumerate(class_masks):
            ap[c] = average_precision(dets.confidence[mask], flags[mask], n_gt[c])
            if ap[c] is None:
                warnings.warn(
                    f"class '{CLASS_NAMES[c]}' has no ground truth; "
                    f"excluded from mAP under {crit.label}"
                )
            tp = int(np.count_nonzero(flags[mask]))
            counts[c] = (tp, int(np.count_nonzero(mask)) - tp, n_gt[c] - tp)
        reports.append(EvalReport(crit, ap, counts))
    return reports


def default_criteria(image_size) -> list[MatchCriterion]:
    crits = [MatchCriterion("iou", t) for t in DEFAULT_IOU_SWEEP]
    crits += [
        MatchCriterion("center_distance", t, image_size) for t in DEFAULT_DISTANCE_SWEEP
    ]
    return crits


def evaluate(net, index, criteria=None, conf_threshold: float = 0.01):
    """Run inference over a dataset index and score the criterion sweep."""
    if criteria is None:
        criteria = default_criteria(index.image_size)
    per_image_dets = []
    per_image_gts = []
    for i in range(len(index)):
        image, annotations = data_mod.load_sample(index, i)
        x = data_mod.rgb_to_yuv(image)[None]
        raw_lo, raw_hi = model_mod.forward(net, x)
        lo, hi = detect_mod.decode_network_output(raw_lo, raw_hi, net.spec, net.anchors)
        per_image_dets.append(detect_mod.postprocess(lo, hi, conf_threshold=conf_threshold))
        per_image_gts.append([(a.class_id, a.box) for a in annotations])
    return evaluate_detections(per_image_dets, per_image_gts, criteria)


def map_at_distance(net, index, distance_px: float = 16.0, **kwargs) -> float:
    """Convenience: mAP under a single center-distance criterion."""
    crit = MatchCriterion("center_distance", distance_px, index.image_size)
    return evaluate(net, index, criteria=[crit], **kwargs)[0].map


def write_report_csv(path, rows) -> None:
    """rows: list of (model_name, list[EvalReport]); one CSV row per model,
    one column per criterion, cells are mAP."""
    if not rows:
        raise ValueError("no evaluation rows to write")
    labels = [r.criterion.label for r in rows[0][1]]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model"] + labels)
        for name, reports in rows:
            if [r.criterion.label for r in reports] != labels:
                raise ValueError("criterion sweep differs between models")
            writer.writerow([name] + [f"{r.map:.4f}" for r in reports])


def write_per_class_csv(path, model_name, reports) -> None:
    """One row per criterion: each class's AP, the mAP, then each class's
    tp, fp and fn counts."""
    count_cols = [f"{n}_{k}" for n in CLASS_NAMES for k in ("tp", "fp", "fn")]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "criterion"] + list(CLASS_NAMES) + ["mAP"] + count_cols)
        for r in reports:
            cells = ["" if r.ap[c] is None else f"{r.ap[c]:.4f}" for c in range(len(CLASS_NAMES))]
            counts = [n for c in range(len(CLASS_NAMES)) for n in r.counts[c]]
            writer.writerow([model_name, r.criterion.label] + cells + [f"{r.map:.4f}"] + counts)
