import csv
import math
import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import to_detections
import robodet.data
import robodet.evaluate
import robodet.model
from robodet.cli import main
from robodet.data import (
    DatasetIndex,
    generate_toy_dataset,
    load_all_annotations,
    load_sample,
    rgb_to_yuv,
)
from robodet.detect import (
    BBox,
    Detection,
    compute_anchors,
    decode_network_output,
    iou,
    postprocess,
)
from robodet.evaluate import (
    DEFAULT_CRITERIA,
    DEFAULT_DISTANCE_SWEEP,
    DEFAULT_IOU_SWEEP,
    EvalReport,
    MatchCriterion,
    average_precision,
    evaluate,
    evaluate_detections,
    match,
    write_per_class_csv,
    write_report_csv,
)
from robodet.model import (
    CLASS_NAMES,
    build_robo,
    build_robo_bn,
    build_robo_hr,
    init_network,
    save_weights,
)

IMG = (640, 480)


def det(cx, cy, w, h, cid, conf):
    return Detection(BBox(cx, cy, w, h), cid, conf)


def match_oracle(dets, gts, crit, image_size):
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
                w, h = image_size
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
        dets = to_detections([det(0.5, 0.5, 0.2, 0.2, 0, 0.9)])
        flags = match(dets, gts, [MatchCriterion("iou", 0.5)], IMG)[0]
        assert flags.tolist() == [True]

    def test_single_match_rule(self):
        gts = [(0, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = to_detections([det(0.5, 0.5, 0.2, 0.2, 0, 0.9), det(0.5, 0.5, 0.2, 0.2, 0, 0.8)])
        flags = match(dets, gts, [MatchCriterion("iou", 0.5)], IMG)[0]
        assert flags.tolist() == [True, False]

    def test_class_must_agree(self):
        gts = [(1, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = to_detections([det(0.5, 0.5, 0.2, 0.2, 0, 0.9)])
        assert match(dets, gts, [MatchCriterion("iou", 0.5)], IMG)[0].tolist() == [False]

    @pytest.mark.parametrize("kind,thr", [("iou", 0.3), ("center_distance", 40.0)])
    def test_random_matches_oracle(self, rng, kind, thr):
        crit = MatchCriterion(kind, thr)
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
            got = match(to_detections(dets), gts, [crit], IMG)[0]
            assert got.tolist() == match_oracle(dets, gts, crit, IMG)

    def test_distance_ignores_box_size(self, rng):
        crit = MatchCriterion("center_distance", 16.0)
        gts = [(0, BBox(0.5, 0.5, 0.1, 0.1))]
        base = to_detections([det(0.51, 0.5, 0.1, 0.1, 0, 0.9)])
        resized = to_detections([det(0.51, 0.5, 0.7, 0.33, 0, 0.9)])
        assert match(base, gts, [crit], IMG).tolist() == match(resized, gts, [crit], IMG).tolist()


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


def ranked(confidences, tp_flags):
    """TP flags in descending confidence, ties in input order: the order in
    which `average_precision` takes them."""
    order = np.argsort(-np.asarray(confidences, dtype=np.float64), kind="stable")
    return np.asarray(tp_flags, dtype=bool)[order]


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
        got = average_precision(ranked(confs, flags), n_gt)
        want = average_precision_reference(confs, flags, n_gt)
        assert got == want

    def test_perfect_detector(self):
        ap = average_precision([True, True, True], 3)
        assert ap == pytest.approx(1.0)

    def test_no_detections(self):
        assert average_precision([], 5) == 0.0

    def test_tp_then_fp_half(self):
        ap = average_precision([True, False], 2)
        assert ap == pytest.approx(0.5)

    def test_zero_gt_undefined(self):
        assert average_precision([False], 0) is None

    def test_confidence_rescaling_invariance(self, rng):
        confs = rng.uniform(0.1, 0.9, 30)
        tps = rng.random(30) < 0.5
        a = average_precision(ranked(confs, tps), 20)
        b = average_precision(ranked(confs * 0.5 + 0.05, tps), 20)  # order-preserving
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
            per_dets.append(to_detections([Detection(b, c, 1.0) for c, b in gts]))
        reports = evaluate_detections(per_dets, per_gts, DEFAULT_CRITERIA, IMG)
        assert len(reports) == 10
        for r in reports:
            assert r.map == pytest.approx(1.0)

    def test_sweep_shape(self):
        crits = DEFAULT_CRITERIA
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
            dets = to_detections([
                det(
                    min(max(b.cx + rng.normal(0, 0.03), 0), 1),
                    min(max(b.cy + rng.normal(0, 0.03), 0), 1),
                    b.w * float(rng.uniform(0.7, 1.4)),
                    b.h * float(rng.uniform(0.7, 1.4)),
                    c, float(rng.uniform(0.2, 1.0)),
                )
                for c, b in gts
            ])
            per_gts.append(gts)
            per_dets.append(dets)
        reports = evaluate_detections(per_dets, per_gts, DEFAULT_CRITERIA, IMG)
        iou_maps = [r.map for r in reports[:5]]      # thresholds 0.75 -> 0.05
        dist_maps = [r.map for r in reports[5:]]     # thresholds 4px -> 64px
        assert all(a <= b + 1e-12 for a, b in zip(iou_maps, iou_maps[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(dist_maps, dist_maps[1:]))

    def test_tp_bounded_by_gt_count(self, rng):
        gts = [(0, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = to_detections([det(0.5, 0.5, 0.2, 0.2, 0, c / 10) for c in range(1, 8)])
        with pytest.warns(UserWarning, match="no ground truth"):
            reports = evaluate_detections([dets], [gts], [MatchCriterion("iou", 0.1)], IMG)
        tp, fp, fn = reports[0].counts[0]
        assert tp == 1 and fp == 6 and fn == 0

    def test_zero_gt_class_warns_and_excluded(self, rng):
        gts = [[(0, BBox(0.5, 0.5, 0.2, 0.2))]]
        dets = [to_detections([det(0.5, 0.5, 0.2, 0.2, 0, 0.9)])]
        with pytest.warns(UserWarning, match="no ground truth"):
            reports = evaluate_detections(dets, gts, [MatchCriterion("iou", 0.5)], IMG)
        assert reports[0].ap[1] is None
        assert reports[0].map == pytest.approx(1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            evaluate_detections([to_detections([])], [[], []], [MatchCriterion("iou", 0.5)],
                                IMG)


class TestCriterionValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            MatchCriterion("giou", 0.5)

    def test_threshold_positive(self):
        with pytest.raises(ValueError, match="positive"):
            MatchCriterion("iou", 0.0)


def test_report_csv_layout(tmp_path):
    crits = [MatchCriterion("iou", 0.5), MatchCriterion("center_distance", 16.0)]
    gts = [[(0, BBox(0.5, 0.5, 0.2, 0.2)), (1, BBox(0.2, 0.2, 0.1, 0.1)),
            (2, BBox(0.8, 0.2, 0.1, 0.2)), (3, BBox(0.2, 0.8, 0.2, 0.2))]]
    dets = [to_detections([Detection(b, c, 1.0) for c, b in gts[0]])]
    reports = evaluate_detections(dets, gts, crits, IMG)
    path = tmp_path / "report.csv"
    write_report_csv(path, [("robo", reports), ("robo_hr", reports)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "model,iou@0.5,dist@16px"
    assert lines[1].startswith("robo,1.0000")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# Frozen copies of the scalar pair-loop matcher and the dict-of-lists
# evaluate_detections (one criterion at a time, AP by the frozen
# average_precision_reference) that the score-matrix path replaced.  ``hypot`` is
# math.hypot in the original; the matrix path uses np.hypot, which may differ
# in the last ulp.  The image size, once a field of each distance criterion,
# is an argument.


def _pair_score_reference(det, gt_box, crit, image_size, hypot):
    if crit.kind == "iou":
        s = iou(det.box, gt_box)
        return s >= crit.threshold, s
    w, h = image_size
    d = hypot((det.box.cx - gt_box.cx) * w, (det.box.cy - gt_box.cy) * h)
    return d <= crit.threshold, -d


def match_reference(dets, gts, crit, image_size, hypot=math.hypot):
    flags = np.zeros(len(dets), dtype=bool)
    taken = [False] * len(gts)
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    for i in order:
        det = dets[i]
        best = None
        for g, (gt_class, gt_box) in enumerate(gts):
            if taken[g] or gt_class != det.class_id:
                continue
            ok, score = _pair_score_reference(det, gt_box, crit, image_size, hypot)
            if ok and (best is None or score > best[1]):
                best = (g, score)
        if best is not None:
            taken[best[0]] = True
            flags[i] = True
    return flags


def evaluate_detections_reference(per_image_dets, per_image_gts, criteria, image_size,
                                  hypot=math.hypot):
    reports = []
    for crit in criteria:
        confs = {c: [] for c in range(len(CLASS_NAMES))}
        tps = {c: [] for c in range(len(CLASS_NAMES))}
        n_gt = {c: 0 for c in range(len(CLASS_NAMES))}
        for dets, gts in zip(per_image_dets, per_image_gts):
            flags = match_reference(dets, gts, crit, image_size, hypot)
            for det, flag in zip(dets, flags):
                confs[det.class_id].append(det.confidence)
                tps[det.class_id].append(flag)
            for gt_class, _ in gts:
                n_gt[gt_class] += 1
        ap = {}
        counts = {}
        for c in range(len(CLASS_NAMES)):
            ap[c] = average_precision_reference(confs[c], tps[c], n_gt[c])
            tp = int(np.sum(tps[c])) if tps[c] else 0
            fp = len(tps[c]) - tp
            counts[c] = (tp, fp, n_gt[c] - tp)
        reports.append(EvalReport(crit, ap, counts))
    return reports


def np_hypot(x, y):
    return float(np.hypot(x, y))


# 64x48 pixels: a 1/16 grid step is 4 px across and 3 px down, so center
# distances land exactly on the 4..64 px thresholds and on each other.
SMALL_IMG = (64, 48)

# Coordinates on a 1/16 grid give identical, touching (IoU 0) and exactly
# half-overlapping boxes; free floats cover the rest.
coord = st.one_of(st.integers(0, 16).map(lambda k: k / 16), st.floats(0.0, 1.0))
size = st.one_of(st.integers(1, 6).map(lambda k: k / 16), st.floats(0.01, 0.5))
box = st.builds(BBox, coord, coord, size, size)
class_id = st.integers(0, 3)
detection = st.builds(Detection, box, class_id,
                      st.one_of(st.integers(0, 4).map(lambda k: k / 4), st.floats(0.0, 1.0)))


@st.composite
def ground_truths(draw):
    """(class_id, BBox) pairs, some repeated, so coincident ground truths
    tie on every score."""
    base = draw(st.lists(st.tuples(class_id, box), max_size=5))
    return base + base[: draw(st.integers(0, 2))]


image = st.tuples(st.lists(detection, max_size=8), ground_truths())


def hypot_differs(per_image_dets, per_image_gts, criteria, image_size):
    """Whether np.hypot and math.hypot disagree on any scored pair."""
    for crit in criteria:
        if crit.kind != "center_distance":
            continue
        w, h = image_size
        for dets, gts in zip(per_image_dets, per_image_gts):
            for d in dets:
                for _, g in gts:
                    x, y = (d.box.cx - g.cx) * w, (d.box.cy - g.cy) * h
                    if math.hypot(x, y) != np_hypot(x, y):
                        return True
    return False


# Criterion lists other than the default sweep: the kinds interleaved; one
# criterion repeated; one criterion alone, as `map_at_distance` passes it.
CRITERION_LISTS = {
    "interleaved": [
        MatchCriterion("center_distance", 16.0),
        MatchCriterion("iou", 0.5),
        MatchCriterion("center_distance", 4.0),
        MatchCriterion("iou", 0.05),
    ],
    "repeated": [
        MatchCriterion("iou", 0.25),
        MatchCriterion("center_distance", 8.0),
        MatchCriterion("iou", 0.25),
    ],
    "alone": [MatchCriterion("center_distance", 16.0)],
}


def assert_reports_match_reference(images, criteria):
    """`evaluate_detections` gives the frozen reference's APs and counts bit
    for bit: always with the matrix's hypot, and with math.hypot unless the
    two hypots disagree on some pair."""
    per_dets = [dets for dets, _ in images]
    per_gts = [gts for _, gts in images]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = evaluate_detections([to_detections(d) for d in per_dets], per_gts, criteria,
                                  SMALL_IMG)
        wants = [evaluate_detections_reference(per_dets, per_gts, criteria, SMALL_IMG, np_hypot)]
        if not hypot_differs(per_dets, per_gts, criteria, SMALL_IMG):
            wants.append(evaluate_detections_reference(per_dets, per_gts, criteria, SMALL_IMG))
    for want in wants:
        assert [r.ap for r in got] == [r.ap for r in want]
        assert [r.counts for r in got] == [r.counts for r in want]


class TestMatrixMatchesPairLoop:
    @given(image, st.sampled_from(DEFAULT_CRITERIA))
    @settings(max_examples=300, deadline=None)
    def test_match_flags(self, img, crit):
        dets, gts = img
        got = match(to_detections(dets), gts, [crit], SMALL_IMG)[0]
        assert got.dtype == bool and got.shape == (len(dets),)
        # Exactly the pair loop run with the matrix's hypot ...
        assert got.tolist() == match_reference(dets, gts, crit, SMALL_IMG, np_hypot).tolist()
        # ... and the original pair loop unless the two hypots disagree.
        if not hypot_differs([dets], [gts], [crit], SMALL_IMG):
            assert got.tolist() == match_reference(dets, gts, crit, SMALL_IMG).tolist()

    @given(image, st.sampled_from(sorted(CRITERION_LISTS)))
    @settings(max_examples=200, deadline=None)
    def test_sweep_rows_equal_single_criterion_calls(self, img, name):
        # Each row of a sweep is the flags of its criterion matched alone,
        # whatever the criteria around it share.
        dets, gts = img
        criteria = [*DEFAULT_CRITERIA, *CRITERION_LISTS[name]]
        got = match(to_detections(dets), gts, criteria, SMALL_IMG)
        assert got.dtype == bool and got.shape == (len(criteria), len(dets))
        for row, crit in zip(got, criteria):
            assert row.tolist() == match(to_detections(dets), gts, [crit], SMALL_IMG)[0].tolist()

    @pytest.mark.parametrize("crit", DEFAULT_CRITERIA, ids=lambda c: c.label)
    def test_edge_cases(self, crit):
        a = BBox(0.25, 0.5, 0.5, 1.0)
        touching = BBox(0.75, 0.5, 0.5, 1.0)
        dets = [Detection(a, 0, 0.5), Detection(a, 0, 0.5), Detection(touching, 0, 0.9)]
        for gts in ([], [(0, a), (0, a)], [(0, touching)], [(1, a)]):
            got = match(to_detections(dets), gts, [crit], SMALL_IMG)[0]
            assert got.tolist() == match_reference(dets, gts, crit, SMALL_IMG).tolist()
            assert match(to_detections([]), gts, [crit], SMALL_IMG).shape == (1, 0)

    def test_coincident_ground_truths_go_to_the_lower_index(self):
        # Equal scores: each detection takes the lowest free ground truth,
        # so both are claimed and both detections are true positives.
        b = BBox(0.5, 0.5, 0.2, 0.2)
        dets = to_detections([Detection(b, 0, 0.9), Detection(b, 0, 0.8)])
        flags = match(dets, [(0, b), (0, b)], [MatchCriterion("iou", 0.5)], SMALL_IMG)[0]
        assert flags.tolist() == [True, True]

    @pytest.mark.parametrize("crit", [MatchCriterion("iou", 0.5),
                                      MatchCriterion("center_distance", 16.0)],
                             ids=lambda c: c.label)
    def test_score_tie_goes_to_the_lower_index(self, crit):
        # The first detection scores the same against both ground truths and
        # must take the first; the second detection only qualifies for the
        # first ground truth, so it is then left without one.
        gts = [(0, BBox(0.375, 0.5, 0.5, 0.5)), (0, BBox(0.625, 0.5, 0.5, 0.5))]
        dets = [Detection(BBox(0.5, 0.5, 0.5, 0.5), 0, 0.9),
                Detection(BBox(0.25, 0.5, 0.5, 0.5), 0, 0.8)]
        assert match(to_detections(dets), gts, [crit], SMALL_IMG)[0].tolist() == [True, False]
        assert match_reference(dets, gts, crit, SMALL_IMG).tolist() == [True, False]

    def test_distance_scales_x_by_width_and_y_by_height(self):
        # On the 64x48 image an offset of 1/4 is 16 px across, 12 px down.
        gts = [(0, BBox(0.5, 0.5, 0.1, 0.1))]
        crits = [MatchCriterion("center_distance", 12.0), MatchCriterion("center_distance", 16.0)]
        across = [Detection(BBox(0.75, 0.5, 0.1, 0.1), 0, 0.9)]
        down = [Detection(BBox(0.5, 0.75, 0.1, 0.1), 0, 0.9)]
        assert match(to_detections(across), gts, crits, SMALL_IMG).tolist() == [[False], [True]]
        assert match(to_detections(down), gts, crits, SMALL_IMG).tolist() == [[True], [True]]

    @given(st.lists(image, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_evaluate_detections_aps_and_counts(self, images):
        assert_reports_match_reference(images, DEFAULT_CRITERIA)

    @pytest.mark.parametrize("name", sorted(CRITERION_LISTS))
    @given(images=st.lists(image, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_evaluate_detections_criterion_lists(self, name, images):
        assert_reports_match_reference(images, CRITERION_LISTS[name])

    @given(st.lists(image, min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_per_class_csv_counts(self, tmp_path_factory, images):
        per_dets = [dets for dets, _ in images]
        per_gts = [gts for _, gts in images]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = evaluate_detections([to_detections(d) for d in per_dets], per_gts,
                                          DEFAULT_CRITERIA, SMALL_IMG)
            want = evaluate_detections_reference(per_dets, per_gts, DEFAULT_CRITERIA, SMALL_IMG,
                                                 np_hypot)
        path = tmp_path_factory.mktemp("per_class") / "classes.csv"
        write_per_class_csv(path, [("robo", reports)])
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [row["criterion"] for row in rows] == [c.label for c in DEFAULT_CRITERIA]
        for row, r in zip(rows, want):
            for c, name in enumerate(CLASS_NAMES):
                got = tuple(int(row[f"{name}_{k}"]) for k in ("tp", "fp", "fn"))
                assert got == r.counts[c]


def test_one_score_matrix_per_image_and_kind(rng, monkeypatch):
    # The default sweep has five IoU and five distance criteria; each kind's
    # matrix is built once for an image with both detections and ground
    # truth, and not at all for an image that lacks either.
    calls = {"iou": 0, "hypot": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(robodet.evaluate, "iou_matrix",
                        counting("iou", robodet.evaluate.iou_matrix))
    monkeypatch.setattr(np, "hypot", counting("hypot", np.hypot))
    boxes = lambda n: [(int(rng.integers(0, 4)),
                        BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2)))
                       for _ in range(n)]
    per_gts = [boxes(3), boxes(2), [], boxes(4), boxes(1)]
    per_dets = [to_detections([Detection(b, c, float(rng.uniform(0, 1)))
                               for c, b in boxes(n)]) for n in (6, 0, 5, 8, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        evaluate_detections(per_dets, per_gts, DEFAULT_CRITERIA, IMG)
    assert calls == {"iou": 3, "hypot": 3}


# ---------------------------------------------------------------------------
# The inference loop of `evaluate`.


def evaluate_reference(net, index, criteria=DEFAULT_CRITERIA, conf_threshold=0.01):
    """Frozen copy of the earlier `evaluate`: one batch-1 forward per image."""
    per_image_dets = []
    per_image_gts = []
    for i in range(len(index)):
        image, annotations = load_sample(index, i)
        x = rgb_to_yuv(image)[None]
        raw_lo, raw_hi = robodet.model.forward(net, x)
        lo, hi = decode_network_output(raw_lo, raw_hi, net.spec, net.anchors)
        per_image_dets.append(postprocess(lo, hi, conf_threshold=conf_threshold))
        per_image_gts.append(annotations)
    return evaluate_detections(per_image_dets, per_image_gts, criteria, index.image_size)


SPECS = {"robo": build_robo(1), "robo_bn": build_robo_bn(1), "robo_hr": build_robo_hr(1)}


@pytest.fixture(scope="module")
def eval_set(tmp_path_factory):
    """Seven toy images and an untrained net per spec, with the set's anchors."""
    index = generate_toy_dataset(7, "A", seed=3, out_dir=tmp_path_factory.mktemp("eval"))
    anchors = compute_anchors([(a.class_id, a.box) for a in load_all_annotations(index)])
    nets = {}
    for name, spec in SPECS.items():
        nets[name] = init_network(spec, seed=3)
        nets[name].anchors = anchors
    return index, nets


def first_images(index, n):
    return DatasetIndex(index.root, index.entries[:n], index.image_size,
                        index.annotations[:n])


def force_streams(monkeypatch, streams):
    """Make `evaluate` run `streams` streams: one CPU for 1; two CPUs and
    one-thread BLAS for 2."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(streams)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: streams)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def quiet_evaluate(net, index):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return evaluate(net, index)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_chunked_evaluate_equals_per_image_loop(eval_set, monkeypatch, name, n):
    # One stream: 5 and 7 images leave a short last chunk.  Two streams: 1
    # and 2 images leave the worker idle, 3 and 7 end on a short worker
    # chunk and 5 on a short caller chunk.
    index, nets = eval_set
    net, index = nets[name], first_images(index, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = evaluate_reference(net, index)
    for streams in (1, 2):
        force_streams(monkeypatch, streams)
        got = quiet_evaluate(net, index)
        assert [r.criterion for r in got] == [r.criterion for r in want]
        assert [r.ap for r in got] == [r.ap for r in want]
        assert [r.counts for r in got] == [r.counts for r in want]
        assert [r.map for r in got] == [r.map for r in want]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_two_streams_equal_the_loop_under_a_short_switch_interval(eval_set, monkeypatch,
                                                                 name):
    # The interpreter switches threads every few microseconds, so the two
    # streams interleave inside each chunk; a shared buffer would show.
    index, nets = eval_set
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = evaluate_reference(nets[name], index)
    force_streams(monkeypatch, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [quiet_evaluate(nets[name], index) for _ in range(10)]
    finally:
        sys.setswitchinterval(interval)
    for reports in got:
        assert [(r.criterion, r.ap, r.counts) for r in reports] == [
            (r.criterion, r.ap, r.counts) for r in want]


def spy_forward(monkeypatch):
    """Patch `model.forward` to record each call's (batch size, thread)
    and the most images inside forward at once; returns the record."""
    record = {"calls": [], "in_flight": 0, "most": 0}
    lock = threading.Lock()
    forward = robodet.model.forward

    def spy(net, x):
        with lock:
            record["calls"].append((x.shape[0], threading.get_ident()))
            record["in_flight"] += x.shape[0]
            record["most"] = max(record["most"], record["in_flight"])
        try:
            return forward(net, x)
        finally:
            with lock:
                record["in_flight"] -= x.shape[0]

    monkeypatch.setattr(robodet.model, "forward", spy)
    return record


def test_forward_runs_four_images_at_a_time(eval_set, monkeypatch):
    index, nets = eval_set
    force_streams(monkeypatch, 1)
    record = spy_forward(monkeypatch)
    quiet_evaluate(nets["robo"], first_images(index, 5))
    assert [size for size, _ in record["calls"]] == [4, 1]
    assert {thread for _, thread in record["calls"]} == {threading.get_ident()}


def test_two_streams_run_two_images_per_chunk(eval_set, monkeypatch):
    index, nets = eval_set
    force_streams(monkeypatch, 2)
    record = spy_forward(monkeypatch)
    quiet_evaluate(nets["robo"], first_images(index, 7))
    # The order across the two threads is not fixed.
    assert sorted(size for size, _ in record["calls"]) == [1, 2, 2, 2]
    assert record["most"] <= 4
    threads = [thread for _, thread in record["calls"]]
    assert threads.count(threading.get_ident()) == 2 and len(set(threads)) == 2


@pytest.mark.parametrize("cpus, openblas, omp, streams", [
    (2, "1", None, 2),
    (2, None, "1", 2),
    (2, None, None, 1),  # unpinned: BLAS threads use both cores already
    (2, "2", None, 1),
    (2, "2", "1", 1),  # OpenBLAS reads its own variable first
    (4, "1", "4", 2),
    (1, "1", "1", 1),
])
def test_second_stream_needs_two_cpus_and_one_blas_thread(eval_set, monkeypatch, cpus,
                                                          openblas, omp, streams):
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    index, nets = eval_set
    record = spy_forward(monkeypatch)
    quiet_evaluate(nets["robo"], first_images(index, 7))
    assert len({thread for _, thread in record["calls"]}) == streams
    assert len(record["calls"]) == {1: 2, 2: 4}[streams]


def test_cpu_count_stands_in_for_a_missing_affinity_call(eval_set, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    index, nets = eval_set
    record = spy_forward(monkeypatch)
    quiet_evaluate(nets["robo"], first_images(index, 7))
    assert len({thread for _, thread in record["calls"]}) == 2


@pytest.fixture
def bad_set(tmp_path):
    """Seven toy images loaded as an index, and a function truncating the
    pixel data of image i after the index was read."""
    index = generate_toy_dataset(7, "A", seed=3, out_dir=tmp_path)

    def truncate(i):
        path = index.root / index.entries[i][0]
        path.write_bytes(path.read_bytes()[:-10])
        return path

    return index, truncate


def evaluate_error(net, index, monkeypatch, streams):
    force_streams(monkeypatch, streams)
    with pytest.raises(ValueError) as info:
        quiet_evaluate(net, index)
    return str(info.value)


# Two streams: the caller runs images 0-1 and 4-5, the worker 2-3 and 6.
@pytest.mark.parametrize("bad, named", [
    ((2,), 2),  # worker only
    ((6,), 6),  # the worker's short last chunk
    ((3, 4), 3),  # worker's is lower
    ((1, 2), 1),  # caller's is lower
    ((5, 6), 5),
    ((0, 6), 0),
])
def test_bad_image_raises_the_serial_error(eval_set, bad_set, monkeypatch, bad, named):
    index, truncate = bad_set
    paths = {i: truncate(i) for i in bad}
    net = eval_set[1]["robo"]
    serial = evaluate_error(net, index, monkeypatch, 1)
    assert serial.startswith(f"{paths[named]}: truncated pixel data")
    before = threading.active_count()
    assert evaluate_error(net, index, monkeypatch, 2) == serial
    assert threading.active_count() == before


@pytest.mark.parametrize("streams", [1, 2])
def test_no_thread_outlives_evaluate(eval_set, monkeypatch, streams):
    index, nets = eval_set
    force_streams(monkeypatch, streams)
    before = threading.active_count()
    quiet_evaluate(nets["robo"], index)
    assert threading.active_count() == before


def test_cli_eval_reports_a_worker_stream_error_on_one_line(eval_set, bad_set, monkeypatch,
                                                            tmp_path, capsys):
    index, truncate = bad_set
    weights = tmp_path / "net.rbw"
    save_weights(eval_set[1]["robo"], weights)
    load_index = robodet.data.load_index

    def load_then_truncate(root):
        loaded = load_index(root)
        truncate(3)
        return loaded

    monkeypatch.setattr(robodet.data, "load_index", load_then_truncate)
    force_streams(monkeypatch, 2)
    code = main(["eval", "--data", str(index.root), "--weights", str(weights)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("error:") == 1 and captured.err.startswith(
        f"error: {index.root / index.entries[3][0]}: truncated pixel data")
    assert "Traceback" not in captured.err
