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
from .detect import Detections, iou_matrix
from .model import CLASS_NAMES

DEFAULT_IOU_SWEEP = (0.75, 0.5, 0.25, 0.1, 0.05)
DEFAULT_DISTANCE_SWEEP = (4.0, 8.0, 16.0, 32.0, 64.0)
# evaluate's confidence threshold: low, so each class's recall can run high.
EVAL_CONF_THRESHOLD = 0.01


@dataclass(frozen=True)
class MatchCriterion:
    kind: str  # "iou" | "center_distance"
    threshold: float  # IoU, or center distance in pixels

    def __post_init__(self):
        if self.kind not in ("iou", "center_distance"):
            raise ValueError(f"unknown criterion kind {self.kind!r}")
        if self.threshold <= 0:
            raise ValueError("criterion threshold must be positive")

    @property
    def label(self) -> str:
        if self.kind == "iou":
            return f"iou@{self.threshold:g}"
        return f"dist@{self.threshold:g}px"


DEFAULT_CRITERIA = tuple(
    [MatchCriterion("iou", t) for t in DEFAULT_IOU_SWEEP]
    + [MatchCriterion("center_distance", t) for t in DEFAULT_DISTANCE_SWEEP]
)
# The criterion of the validation mAP that training logs.
VALIDATION_CRITERION = MatchCriterion("center_distance", 16.0)


@dataclass
class EvalReport:
    criterion: MatchCriterion
    ap: dict[int, float | None]  # per class; None when the class has no gts
    counts: dict[int, tuple[int, int, int]]  # class -> (tp, fp, fn)

    @property
    def map(self) -> float:
        defined = [v for v in self.ap.values() if v is not None]
        return float(np.mean(defined)) if defined else 0.0


def _score_matrix(dets: Detections, gt: np.ndarray, kind: str, image_size) -> np.ndarray:
    """The (detection, ground truth) scores of one criterion kind: the IoU,
    or the negated center distance in pixels, so that higher is better."""
    if kind == "iou":
        return iou_matrix((dets.cx, dets.cy, dets.w, dets.h), gt[1:])
    w, h = image_size
    return -np.hypot((dets.cx[:, None] - gt[1]) * w, (dets.cy[:, None] - gt[2]) * h)


def match(dets: Detections, gts, criteria, image_size) -> np.ndarray:
    """Per-detection TP flags for one image of ``image_size`` (width,
    height) pixels, one row per criterion, columns aligned with the input
    order.

    ``gts`` is a sequence of (class_id, BBox).  One score matrix per kind
    holds every (detection, ground truth) pair and serves every threshold
    of that kind: the IoU, bitwise equal to `iou` for finite boxes, or the
    negated center distance in pixels.  The distance comes from
    ``np.hypot``, which can differ from ``math.hypot`` in the last ulp, so a
    flag can differ from a ``math.hypot`` matcher only where a distance lies
    within one ulp of the threshold or of another ground truth's distance.
    """
    flags = np.zeros((len(criteria), len(dets)), dtype=bool)
    if len(dets) == 0 or len(gts) == 0:
        return flags
    gt = np.array([(c, b.cx, b.cy, b.w, b.h) for c, b in gts], dtype=np.float64).T
    # Rows in descending confidence; a claimed ground truth's column is
    # knocked out to -inf, so argmax picks the best free one, lowest index
    # first on ties.
    order = np.argsort(-dets.confidence, kind="stable")
    same_class = (dets.class_id[:, None] == gt[0])[order]
    scores = {}
    for row, crit in zip(flags, criteria):
        if crit.kind not in scores:
            scores[crit.kind] = _score_matrix(dets, gt, crit.kind, image_size)[order]
        score = scores[crit.kind]
        # A pair qualifies at a score of at least `bound`.
        bound = crit.threshold if crit.kind == "iou" else -crit.threshold
        ok = (score >= bound) & same_class
        score = np.where(ok, score, -np.inf)
        unclaimed = np.count_nonzero(ok.any(axis=0))
        for r in np.flatnonzero(ok.any(axis=1)):
            g = score[r].argmax()
            if score[r, g] == -np.inf:
                continue
            row[order[r]] = True
            score[:, g] = -np.inf
            unclaimed -= 1
            if unclaimed == 0:
                break
    return flags


def average_precision(tp_flags, n_gt: int) -> float | None:
    """All-point interpolated AP for one class over the whole dataset, from
    its detections' TP flags in descending confidence."""
    if n_gt == 0:
        return None
    tp = np.asarray(tp_flags, dtype=bool)
    if tp.size == 0:
        return 0.0
    ctp = np.cumsum(tp)
    cfp = np.cumsum(~tp)
    recall = ctp / n_gt
    precision = ctp / np.maximum(ctp + cfp, 1)
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    steps = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def evaluate_detections(per_image_dets, per_image_gts, criteria, image_size) -> list[EvalReport]:
    """Score fixed detections against ground truth under each criterion.

    per_image_dets: list over images of `Detections`; per_image_gts:
    matching list of (class_id, BBox) lists; image_size: the (width,
    height) in pixels that every image shares.
    """
    if len(per_image_dets) != len(per_image_gts):
        raise ValueError("detections and ground truth must cover the same images")
    dets = Detections.concat(per_image_dets)
    flags = np.concatenate(
        [np.zeros((len(criteria), 0), dtype=bool)]
        + [match(d, g, criteria, image_size) for d, g in zip(per_image_dets, per_image_gts)],
        axis=1,
    )
    # Each class's entries in descending confidence.  The sort is stable
    # over the concatenation, so equal confidences stay in image order, then
    # detection order.
    ranked = []
    for c in range(len(CLASS_NAMES)):
        idx = np.flatnonzero(dets.class_id == c)
        ranked.append(idx[np.argsort(-dets.confidence[idx], kind="stable")])
    n_gt = Counter(c for gts in per_image_gts for c, _ in gts)
    reports = []
    for crit, crit_flags in zip(criteria, flags):
        ap = {}
        counts = {}
        for c, idx in enumerate(ranked):
            tp_flags = crit_flags[idx]
            ap[c] = average_precision(tp_flags, n_gt[c])
            if ap[c] is None:
                warnings.warn(
                    f"class '{CLASS_NAMES[c]}' has no ground truth; "
                    f"excluded from mAP under {crit.label}"
                )
            tp = int(np.count_nonzero(tp_flags))
            counts[c] = (tp, len(idx) - tp, n_gt[c] - tp)
        reports.append(EvalReport(crit, ap, counts))
    return reports


# Images per forward pass in `evaluate`.  Convs run one matrix product per
# image of a chunk, so each image's heads equal its batch-1 heads bit for
# bit; a chunk only shares each layer call's fixed cost.  On perfbench's
# `eval` workload (robo k=1, 32 toy images, 2 vCPUs, one BLAS thread, seeds
# 5 and 6), chunks of 1, 2, 3, 4, 6 and 8 images ran at 397-430, 401-459,
# 449-471, 491-504, 505-506 and 480-505 img/s with peak RSS of 47.6, 48.4,
# 49.2, 50.2, 51.8 and 53.5 MB: past 4 the speed levels off and the memory
# keeps growing.
_EVAL_CHUNK = 4


def evaluate(net, index, criteria=DEFAULT_CRITERIA, conf_threshold: float = EVAL_CONF_THRESHOLD):
    """Run inference over a dataset index and score the criterion sweep.

    The forward pass takes `_EVAL_CHUNK` images at a time, through one
    preallocated input buffer; decoding and postprocessing stay per image.
    """
    width, height = index.image_size
    chunk = np.empty((min(_EVAL_CHUNK, len(index)), 3, height, width), dtype=np.float32)
    per_image_dets = []
    per_image_gts = []
    for start in range(0, len(index), _EVAL_CHUNK):
        x = chunk[: len(index) - start]
        for k, yuv in enumerate(x):
            image, annotations = data_mod.load_sample(index, start + k)
            yuv[...] = data_mod.rgb_to_yuv(image)
            per_image_gts.append(annotations)
        raw_lo, raw_hi = model_mod.forward(net, x)
        for k in range(len(x)):
            lo, hi = detect_mod.decode_network_output(
                raw_lo[k : k + 1], raw_hi[k : k + 1], net.spec, net.anchors
            )
            per_image_dets.append(detect_mod.postprocess(lo, hi, conf_threshold=conf_threshold))
    return evaluate_detections(per_image_dets, per_image_gts, criteria, index.image_size)


def map_at_distance(net, index) -> float:
    """mAP under the validation criterion alone."""
    return evaluate(net, index, criteria=[VALIDATION_CRITERION])[0].map


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


def write_per_class_csv(path, rows) -> None:
    """rows: list of (model_name, list[EvalReport]); one CSV row per model
    and criterion: each class's AP, the mAP, then each class's tp, fp and
    fn counts."""
    count_cols = [f"{n}_{k}" for n in CLASS_NAMES for k in ("tp", "fp", "fn")]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "criterion"] + list(CLASS_NAMES) + ["mAP"] + count_cols)
        for name, reports in rows:
            for r in reports:
                cells = ["" if r.ap[c] is None else f"{r.ap[c]:.4f}"
                         for c in range(len(CLASS_NAMES))]
                counts = [n for c in range(len(CLASS_NAMES)) for n in r.counts[c]]
                writer.writerow([name, r.criterion.label] + cells + [f"{r.map:.4f}"] + counts)
