"""Detection-vs-ground-truth matching and (mean) Average Precision under
IoU and center-distance criteria.

AP uses all-point interpolation: the precision curve is made monotone
non-increasing in recall, then integrated over the recall steps.  Matching
is greedy by descending confidence; each ground truth is claimed at most
once; score ties break toward the lower ground-truth index.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .detect import iou
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


def _pair_score(det, gt_box, crit: MatchCriterion):
    """(qualifies, score) where larger score is always better."""
    if crit.kind == "iou":
        s = iou(det.box, gt_box)
        return s >= crit.threshold, s
    w, h = crit.image_size
    d = math.hypot((det.box.cx - gt_box.cx) * w, (det.box.cy - gt_box.cy) * h)
    return d <= crit.threshold, -d


def match(dets, gts, crit: MatchCriterion) -> np.ndarray:
    """Per-detection TP flags (aligned with the input order) for one image."""
    flags = np.zeros(len(dets), dtype=bool)
    taken = [False] * len(gts)
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    for i in order:
        det = dets[i]
        best = None
        for g, (gt_class, gt_box) in enumerate(gts):
            if taken[g] or gt_class != det.class_id:
                continue
            ok, score = _pair_score(det, gt_box, crit)
            if ok and (best is None or score > best[1]):
                best = (g, score)
        if best is not None:
            taken[best[0]] = True
            flags[i] = True
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

    per_image_dets: list over images of Detection lists; per_image_gts:
    matching list of (class_id, BBox) lists.
    """
    if len(per_image_dets) != len(per_image_gts):
        raise ValueError("detections and ground truth must cover the same images")
    reports = []
    for crit in criteria:
        confs = {c: [] for c in range(len(CLASS_NAMES))}
        tps = {c: [] for c in range(len(CLASS_NAMES))}
        n_gt = {c: 0 for c in range(len(CLASS_NAMES))}
        for dets, gts in zip(per_image_dets, per_image_gts):
            flags = match(dets, gts, crit)
            for det, flag in zip(dets, flags):
                confs[det.class_id].append(det.confidence)
                tps[det.class_id].append(flag)
            for gt_class, _ in gts:
                n_gt[gt_class] += 1
        ap = {}
        counts = {}
        for c in range(len(CLASS_NAMES)):
            ap[c] = average_precision(confs[c], tps[c], n_gt[c])
            if ap[c] is None:
                warnings.warn(
                    f"class '{CLASS_NAMES[c]}' has no ground truth; "
                    f"excluded from mAP under {crit.label}"
                )
            tp = int(np.sum(tps[c])) if tps[c] else 0
            fp = len(tps[c]) - tp
            counts[c] = (tp, fp, n_gt[c] - tp)
        reports.append(EvalReport(crit, ap, counts))
    return reports


def default_criteria(image_size) -> list[MatchCriterion]:
    crits = [MatchCriterion("iou", t) for t in DEFAULT_IOU_SWEEP]
    crits += [
        MatchCriterion("center_distance", t, image_size) for t in DEFAULT_DISTANCE_SWEEP
    ]
    return crits


def evaluate(net, index, criteria=None, conf_threshold: float = 0.01, use_sparse=False):
    """Run inference over a dataset index and score the criterion sweep."""
    from . import data as data_mod
    from .detect import postprocess
    from .model import forward

    if criteria is None:
        criteria = default_criteria(index.image_size)
    per_image_dets = []
    per_image_gts = []
    for i in range(len(index)):
        image, annotations = data_mod.load_sample(index, i)
        x = data_mod.rgb_to_yuv(image)[None]
        raw_lo, raw_hi = forward(net, x, mode="infer", use_sparse=use_sparse)
        from .detect import decode_network_output

        lo, hi = decode_network_output(raw_lo, raw_hi, net.spec, net.anchors)
        per_image_dets.append(postprocess(lo, hi, conf_threshold=conf_threshold))
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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "criterion"] + list(CLASS_NAMES) + ["mAP"])
        for r in reports:
            cells = ["" if r.ap[c] is None else f"{r.ap[c]:.4f}" for c in range(len(CLASS_NAMES))]
            writer.writerow([model_name, r.criterion.label] + cells + [f"{r.map:.4f}"])
