import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import to_detections
import robodet.evaluate
import robodet.model
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
    DEFAULT_DISTANCE_SWEEP,
    DEFAULT_IOU_SWEEP,
    EvalReport,
    MatchCriterion,
    average_precision,
    default_criteria,
    evaluate,
    evaluate_detections,
    match,
    write_per_class_csv,
    write_report_csv,
)
from robodet.model import CLASS_NAMES, build_robo, build_robo_bn, build_robo_hr, init_network

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
        dets = to_detections([det(0.5, 0.5, 0.2, 0.2, 0, 0.9)])
        flags = match(dets, gts, [MatchCriterion("iou", 0.5)])[0]
        assert flags.tolist() == [True]

    def test_single_match_rule(self):
        gts = [(0, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = to_detections([det(0.5, 0.5, 0.2, 0.2, 0, 0.9), det(0.5, 0.5, 0.2, 0.2, 0, 0.8)])
        flags = match(dets, gts, [MatchCriterion("iou", 0.5)])[0]
        assert flags.tolist() == [True, False]

    def test_class_must_agree(self):
        gts = [(1, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = to_detections([det(0.5, 0.5, 0.2, 0.2, 0, 0.9)])
        assert match(dets, gts, [MatchCriterion("iou", 0.5)])[0].tolist() == [False]

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
            got = match(to_detections(dets), gts, [crit])[0]
            assert got.tolist() == match_oracle(dets, gts, crit)

    def test_distance_ignores_box_size(self, rng):
        crit = MatchCriterion("center_distance", 16.0, IMG)
        gts = [(0, BBox(0.5, 0.5, 0.1, 0.1))]
        base = to_detections([det(0.51, 0.5, 0.1, 0.1, 0, 0.9)])
        resized = to_detections([det(0.51, 0.5, 0.7, 0.33, 0, 0.9)])
        assert match(base, gts, [crit]).tolist() == match(resized, gts, [crit]).tolist()


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
        reports = evaluate_detections(per_dets, per_gts, default_criteria(IMG))
        iou_maps = [r.map for r in reports[:5]]      # thresholds 0.75 -> 0.05
        dist_maps = [r.map for r in reports[5:]]     # thresholds 4px -> 64px
        assert all(a <= b + 1e-12 for a, b in zip(iou_maps, iou_maps[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(dist_maps, dist_maps[1:]))

    def test_tp_bounded_by_gt_count(self, rng):
        gts = [(0, BBox(0.5, 0.5, 0.2, 0.2))]
        dets = to_detections([det(0.5, 0.5, 0.2, 0.2, 0, c / 10) for c in range(1, 8)])
        with pytest.warns(UserWarning, match="no ground truth"):
            reports = evaluate_detections([dets], [gts], [MatchCriterion("iou", 0.1)])
        tp, fp, fn = reports[0].counts[0]
        assert tp == 1 and fp == 6 and fn == 0

    def test_zero_gt_class_warns_and_excluded(self, rng):
        gts = [[(0, BBox(0.5, 0.5, 0.2, 0.2))]]
        dets = [to_detections([det(0.5, 0.5, 0.2, 0.2, 0, 0.9)])]
        with pytest.warns(UserWarning, match="no ground truth"):
            reports = evaluate_detections(dets, gts, [MatchCriterion("iou", 0.5)])
        assert reports[0].ap[1] is None
        assert reports[0].map == pytest.approx(1.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            evaluate_detections([to_detections([])], [[], []], [MatchCriterion("iou", 0.5)])


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
    dets = [to_detections([Detection(b, c, 1.0) for c, b in gts[0]])]
    reports = evaluate_detections(dets, gts, crits)
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
# in the last ulp.


def _pair_score_reference(det, gt_box, crit, hypot):
    if crit.kind == "iou":
        s = iou(det.box, gt_box)
        return s >= crit.threshold, s
    w, h = crit.image_size
    d = hypot((det.box.cx - gt_box.cx) * w, (det.box.cy - gt_box.cy) * h)
    return d <= crit.threshold, -d


def match_reference(dets, gts, crit, hypot=math.hypot):
    flags = np.zeros(len(dets), dtype=bool)
    taken = [False] * len(gts)
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    for i in order:
        det = dets[i]
        best = None
        for g, (gt_class, gt_box) in enumerate(gts):
            if taken[g] or gt_class != det.class_id:
                continue
            ok, score = _pair_score_reference(det, gt_box, crit, hypot)
            if ok and (best is None or score > best[1]):
                best = (g, score)
        if best is not None:
            taken[best[0]] = True
            flags[i] = True
    return flags


def evaluate_detections_reference(per_image_dets, per_image_gts, criteria, hypot=math.hypot):
    reports = []
    for crit in criteria:
        confs = {c: [] for c in range(len(CLASS_NAMES))}
        tps = {c: [] for c in range(len(CLASS_NAMES))}
        n_gt = {c: 0 for c in range(len(CLASS_NAMES))}
        for dets, gts in zip(per_image_dets, per_image_gts):
            flags = match_reference(dets, gts, crit, hypot)
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
SMALL_CRITERIA = default_criteria(SMALL_IMG)

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


def hypot_differs(per_image_dets, per_image_gts, criteria):
    """Whether np.hypot and math.hypot disagree on any scored pair."""
    for crit in criteria:
        if crit.kind != "center_distance":
            continue
        w, h = crit.image_size
        for dets, gts in zip(per_image_dets, per_image_gts):
            for d in dets:
                for _, g in gts:
                    x, y = (d.box.cx - g.cx) * w, (d.box.cy - g.cy) * h
                    if math.hypot(x, y) != np_hypot(x, y):
                        return True
    return False


# Criterion lists other than the default sweep: the kinds interleaved, with
# a second image size for distances; one criterion repeated; one criterion
# alone, as `map_at_distance` passes it.
CRITERION_LISTS = {
    "interleaved": [
        MatchCriterion("center_distance", 16.0, SMALL_IMG),
        MatchCriterion("iou", 0.5),
        MatchCriterion("center_distance", 4.0, SMALL_IMG),
        MatchCriterion("iou", 0.05),
        MatchCriterion("center_distance", 8.0, (32, 24)),
    ],
    "repeated": [
        MatchCriterion("iou", 0.25),
        MatchCriterion("center_distance", 8.0, SMALL_IMG),
        MatchCriterion("iou", 0.25),
    ],
    "alone": [MatchCriterion("center_distance", 16.0, SMALL_IMG)],
}


def assert_reports_match_reference(images, criteria):
    """`evaluate_detections` gives the frozen reference's APs and counts bit
    for bit: always with the matrix's hypot, and with math.hypot unless the
    two hypots disagree on some pair."""
    per_dets = [dets for dets, _ in images]
    per_gts = [gts for _, gts in images]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = evaluate_detections([to_detections(d) for d in per_dets], per_gts, criteria)
        wants = [evaluate_detections_reference(per_dets, per_gts, criteria, np_hypot)]
        if not hypot_differs(per_dets, per_gts, criteria):
            wants.append(evaluate_detections_reference(per_dets, per_gts, criteria))
    for want in wants:
        assert [r.ap for r in got] == [r.ap for r in want]
        assert [r.counts for r in got] == [r.counts for r in want]


class TestMatrixMatchesPairLoop:
    @given(image, st.sampled_from(SMALL_CRITERIA))
    @settings(max_examples=300, deadline=None)
    def test_match_flags(self, img, crit):
        dets, gts = img
        got = match(to_detections(dets), gts, [crit])[0]
        assert got.dtype == bool and got.shape == (len(dets),)
        # Exactly the pair loop run with the matrix's hypot ...
        assert got.tolist() == match_reference(dets, gts, crit, np_hypot).tolist()
        # ... and the original pair loop unless the two hypots disagree.
        if not hypot_differs([dets], [gts], [crit]):
            assert got.tolist() == match_reference(dets, gts, crit).tolist()

    @given(image, st.sampled_from(sorted(CRITERION_LISTS)))
    @settings(max_examples=200, deadline=None)
    def test_sweep_rows_equal_single_criterion_calls(self, img, name):
        # Each row of a sweep is the flags of its criterion matched alone,
        # whatever the criteria around it share.
        dets, gts = img
        criteria = SMALL_CRITERIA + CRITERION_LISTS[name]
        got = match(to_detections(dets), gts, criteria)
        assert got.dtype == bool and got.shape == (len(criteria), len(dets))
        for row, crit in zip(got, criteria):
            assert row.tolist() == match(to_detections(dets), gts, [crit])[0].tolist()

    @pytest.mark.parametrize("crit", SMALL_CRITERIA, ids=lambda c: c.label)
    def test_edge_cases(self, crit):
        a = BBox(0.25, 0.5, 0.5, 1.0)
        touching = BBox(0.75, 0.5, 0.5, 1.0)
        dets = [Detection(a, 0, 0.5), Detection(a, 0, 0.5), Detection(touching, 0, 0.9)]
        for gts in ([], [(0, a), (0, a)], [(0, touching)], [(1, a)]):
            got = match(to_detections(dets), gts, [crit])[0]
            assert got.tolist() == match_reference(dets, gts, crit).tolist()
            assert match(to_detections([]), gts, [crit]).shape == (1, 0)

    def test_coincident_ground_truths_go_to_the_lower_index(self):
        # Equal scores: each detection takes the lowest free ground truth,
        # so both are claimed and both detections are true positives.
        b = BBox(0.5, 0.5, 0.2, 0.2)
        dets = to_detections([Detection(b, 0, 0.9), Detection(b, 0, 0.8)])
        flags = match(dets, [(0, b), (0, b)], [MatchCriterion("iou", 0.5)])[0]
        assert flags.tolist() == [True, True]

    @pytest.mark.parametrize("crit", [MatchCriterion("iou", 0.5),
                                      MatchCriterion("center_distance", 16.0, SMALL_IMG)],
                             ids=lambda c: c.label)
    def test_score_tie_goes_to_the_lower_index(self, crit):
        # The first detection scores the same against both ground truths and
        # must take the first; the second detection only qualifies for the
        # first ground truth, so it is then left without one.
        gts = [(0, BBox(0.375, 0.5, 0.5, 0.5)), (0, BBox(0.625, 0.5, 0.5, 0.5))]
        dets = [Detection(BBox(0.5, 0.5, 0.5, 0.5), 0, 0.9),
                Detection(BBox(0.25, 0.5, 0.5, 0.5), 0, 0.8)]
        assert match(to_detections(dets), gts, [crit])[0].tolist() == [True, False]
        assert match_reference(dets, gts, crit).tolist() == [True, False]

    @given(st.lists(image, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_evaluate_detections_aps_and_counts(self, images):
        assert_reports_match_reference(images, SMALL_CRITERIA)

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
                                          SMALL_CRITERIA)
            want = evaluate_detections_reference(per_dets, per_gts, SMALL_CRITERIA, np_hypot)
        path = tmp_path_factory.mktemp("per_class") / "classes.csv"
        write_per_class_csv(path, [("robo", reports)])
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [row["criterion"] for row in rows] == [c.label for c in SMALL_CRITERIA]
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
        evaluate_detections(per_dets, per_gts, default_criteria(IMG))
    assert calls == {"iou": 3, "hypot": 3}


# ---------------------------------------------------------------------------
# The inference loop of `evaluate`.


def evaluate_reference(net, index, criteria=None, conf_threshold=0.01):
    """Frozen copy of the earlier `evaluate`: one batch-1 forward per image."""
    if criteria is None:
        criteria = default_criteria(index.image_size)
    per_image_dets = []
    per_image_gts = []
    for i in range(len(index)):
        image, annotations = load_sample(index, i)
        x = rgb_to_yuv(image)[None]
        raw_lo, raw_hi = robodet.model.forward(net, x)
        lo, hi = decode_network_output(raw_lo, raw_hi, net.spec, net.anchors)
        per_image_dets.append(postprocess(lo, hi, conf_threshold=conf_threshold))
        per_image_gts.append(annotations)
    return evaluate_detections(per_image_dets, per_image_gts, criteria)


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


@pytest.mark.parametrize("n", [1, 4, 5, 7])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_chunked_evaluate_equals_per_image_loop(eval_set, name, n):
    # 5 and 7 images leave a short last chunk.
    index, nets = eval_set
    net, index = nets[name], first_images(index, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, want = evaluate(net, index), evaluate_reference(net, index)
    assert [r.criterion for r in got] == [r.criterion for r in want]
    assert [r.ap for r in got] == [r.ap for r in want]
    assert [r.counts for r in got] == [r.counts for r in want]
    assert [r.map for r in got] == [r.map for r in want]


def test_forward_runs_four_images_at_a_time(eval_set, monkeypatch):
    index, nets = eval_set
    sizes = []
    forward = robodet.model.forward

    def spy(net, x):
        sizes.append(x.shape[0])
        return forward(net, x)

    monkeypatch.setattr(robodet.model, "forward", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        evaluate(nets["robo"], first_images(index, 5))
    assert sizes == [4, 1]
