import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robodet.detect import BBox, Detection, iou
from robodet.evaluate import (
    DEFAULT_DISTANCE_SWEEP,
    DEFAULT_IOU_SWEEP,
    EvalReport,
    MatchCriterion,
    average_precision,
    default_criteria,
    evaluate_detections,
    match,
    write_report_csv,
)

IMG = (640, 480)


def det(cx, cy, w, h, cid, conf):
    return Detection(BBox(cx, cy, w, h), cid, conf)


def match_oracle(dets, gts, crit):
    """Independent greedy matcher used to cross-check match()."""
    flags = [False] * len(dets)
    used = set()
    for i in sorted(range(len(dets)), key=lambda i: -dets[i].confidence):
        d = dets[i]
        best_g, best_score = None, None
        for g, (gc, gb) in enumerate(gts):
            if g in used or gc != d.class_id:
                continue
            if crit.kind == "iou":
                s = iou(d.box, gb)
                if s < crit.threshold:
                    continue
            else:
                w, h = crit.image_size
                s = -math.hypot((d.box.cx - gb.cx) * w, (d.box.cy - gb.cy) * h)
                if -s > crit.threshold:
                    continue
            if best_score is None or s > best_score:
                best_g, best_score = g, s
        if best_g is not None:
            used.add(best_g)
            flags[i] = True
    return flags


class TestMatch:
    def test_exact_match_is_tp(self):
        gts = [(0, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = [det(0.5, 0.5, 0.2, 0.2, 0, 0.9)]
        flags = match(dets, gts, MatchCriterion("iou", 0.5))
        assert flags.tolist() == [True]

    def test_single_match_rule(self):
        gts = [(0, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = [det(0.5, 0.5, 0.2, 0.2, 0, 0.9), det(0.5, 0.5, 0.2, 0.2, 0, 0.8)]
        flags = match(dets, gts, MatchCriterion("iou", 0.5))
        assert flags.tolist() == [True, False]

    def test_class_must_agree(self):
        gts = [(1, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = [det(0.5, 0.5, 0.2, 0.2, 0, 0.9)]
        assert match(dets, gts, MatchCriterion("iou", 0.5)).tolist() == [False]

    @pytest.mark.parametrize("kind,thr", [("iou", 0.3), ("center_distance", 40.0)])
    def test_random_matches_oracle(self, rng, kind, thr):
        crit = MatchCriterion(kind, thr, IMG if kind == "center_distance" else None)
        for _ in range(30):
            dets = [
                det(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2),
                    int(rng.integers(0, 4)), float(rng.uniform(0, 1)))
                for _ in range(10)
            ]
            gts = [
                (int(rng.integers(0, 4)),
                 BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2)))
                for _ in range(5)
            ]
            assert match(dets, gts, crit).tolist() == match_oracle(dets, gts, crit)

    def test_distance_ignores_box_size(self, rng):
        crit = MatchCriterion("center_distance", 16.0, IMG)
        gts = [(0, BBox(0.5, 0.5, 0.1, 0.1))]
        base = [det(0.51, 0.5, 0.1, 0.1, 0, 0.9)]
        resized = [det(0.51, 0.5, 0.7, 0.33, 0, 0.9)]
        assert match(base, gts, crit).tolist() == match(resized, gts, crit).tolist()


def average_precision_reference(confidences, tp_flags, n_gt):
    """Frozen copy of the earlier average_precision with the Python envelope loop."""
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
    for i in range(mpre.size - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    steps = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


class TestAveragePrecision:
    @given(
        points=st.lists(st.tuples(st.integers(0, 8), st.booleans()), max_size=80),
        extra_gt=st.integers(0, 20),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, points, extra_gt):
        # Confidences on a coarse grid, so many are tied.
        confs = [level / 8 for level, _ in points]
        flags = [flag for _, flag in points]
        n_gt = sum(flags) + extra_gt
        got = average_precision(confs, flags, n_gt)
        want = average_precision_reference(confs, flags, n_gt)
        assert got == want

    def test_perfect_detector(self):
        ap = average_precision([0.9, 0.8, 0.7], [True, True, True], 3)
        assert ap == pytest.approx(1.0)

    def test_no_detections(self):
        assert average_precision([], [], 5) == 0.0

    def test_tp_then_fp_half(self):
        ap = average_precision([0.9, 0.8], [True, False], 2)
        assert ap == pytest.approx(0.5)

    def test_zero_gt_undefined(self):
        assert average_precision([0.9], [False], 0) is None

    def test_confidence_rescaling_invariance(self, rng):
        confs = rng.uniform(0.1, 0.9, 30)
        tps = rng.random(30) < 0.5
        a = average_precision(confs, tps, 20)
        b = average_precision(confs * 0.5 + 0.05, tps, 20)  # order-preserving
        assert a == pytest.approx(b)


class TestEvaluateDetections:
    def test_gt_fed_back_is_perfect(self, rng):
        per_gts = []
        per_dets = []
        for _ in range(10):
            gts = [
                (int(rng.integers(0, 4)),
                 BBox(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.05, 0.2, 2)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            per_gts.append(gts)
            per_dets.append([Detection(b, c, 1.0) for c, b in gts])
        reports = evaluate_detections(per_dets, per_gts, default_criteria(IMG))
        assert len(reports) == 10
        for r in reports:
            assert r.map == pytest.approx(1.0)

    def test_sweep_shape(self):
        crits = default_criteria(IMG)
        assert len(crits) == 10
        assert [c.threshold for c in crits[:5]] == list(DEFAULT_IOU_SWEEP)
        assert [c.threshold for c in crits[5:]] == list(DEFAULT_DISTANCE_SWEEP)

    def test_monotone_in_threshold(self, rng):
        # noisy detections: loosening the criterion never lowers an AP
        per_gts, per_dets = [], []
        for _ in range(20):
            gts = [
                (int(rng.integers(0, 4)),
                 BBox(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.05, 0.2, 2)))
                for _ in range(int(rng.integers(1, 4)))
            ]
            dets = [
                det(
                    min(max(b.cx + rng.normal(0, 0.03), 0), 1),
                    min(max(b.cy + rng.normal(0, 0.03), 0), 1),
                    b.w * float(rng.uniform(0.7, 1.4)),
                    b.h * float(rng.uniform(0.7, 1.4)),
                    c, float(rng.uniform(0.2, 1.0)),
                )
                for c, b in gts
            ]
            per_gts.append(gts)
            per_dets.append(dets)
        reports = evaluate_detections(per_dets, per_gts, default_criteria(IMG))
        iou_maps = [r.map for r in reports[:5]]      # thresholds 0.75 -> 0.05
        dist_maps = [r.map for r in reports[5:]]     # thresholds 4px -> 64px
        assert all(a <= b + 1e-12 for a, b in zip(iou_maps, iou_maps[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(dist_maps, dist_maps[1:]))

    def test_tp_bounded_by_gt_count(self, rng):
        gts = [(0, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = [det(0.5, 0.5, 0.2, 0.2, 0, c / 10) for c in range(1, 8)]
        reports = evaluate_detections([dets], [gts], [MatchCriterion("iou", 0.1)])
        tp, fp, fn = reports[0].counts[0]
        assert tp == 1 and fp == 6 and fn == 0

    def test_zero_gt_class_warns_and_excluded(self, rng):
        gts = [[(0, BBox(0.5, 0.5, 0.2, 0.2))]]
        dets = [[det(0.5, 0.5, 0.2, 0.2, 0, 0.9)]]
        with pytest.warns(UserWarning, match="no ground truth"):
            reports = evaluate_detections(dets, gts, [MatchCriterion("iou", 0.5)])
        assert reports[0].ap[1] is None
        assert reports[0].map == pytest.approx(1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            evaluate_detections([[]], [[], []], [MatchCriterion("iou", 0.5)])


class TestCriterionValidation:
    def test_distance_needs_image_size(self):
        with pytest.raises(ValueError, match="image_size"):
            MatchCriterion("center_distance", 8.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MatchCriterion("giou", 0.5)

    def test_threshold_positive(self):
        with pytest.raises(ValueError, match="positive"):
            MatchCriterion("iou", 0.0)


def test_report_csv_layout(tmp_path):
    crits = [MatchCriterion("iou", 0.5), MatchCriterion("center_distance", 16.0, IMG)]
    gts = [[(0, BBox(0.5, 0.5, 0.2, 0.2)), (1, BBox(0.2, 0.2, 0.1, 0.1)),
            (2, BBox(0.8, 0.2, 0.1, 0.2)), (3, BBox(0.2, 0.8, 0.2, 0.2))]]
    dets = [[Detection(b, c, 1.0) for c, b in gts[0]]]
    reports = evaluate_detections(dets, gts, crits)
    path = tmp_path / "report.csv"
    write_report_csv(path, [("robo", reports), ("robo_hr", reports)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "model,iou@0.5,dist@16px"
    assert lines[1].startswith("robo,1.0000")
    assert len(lines) == 3
