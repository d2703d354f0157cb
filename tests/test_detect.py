import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import to_detections
from robodet.detect import (
    BBox,
    Detection,
    Detections,
    compute_anchors,
    decode,
    decode_network_output,
    encode,
    format_detections,
    iou,
    iou_matrix,
    load_anchors,
    nms,
    postprocess,
    save_anchors,
    sigmoid,
)
from robodet.model import CLASS_NAMES, HEADS, HeadSpec, build_robo, forward, init_network
from robodet.tensor import ShapeError

HEAD_LO, HEAD_HI = HEADS


def make_anchors():
    return np.array(
        [[0.05, 0.07], [0.08, 0.08], [0.04, 0.3], [0.15, 0.25]], dtype=np.float32
    )


class TestAnchors:
    def test_mean_of_two(self):
        anns = [(0, BBox(0.5, 0.5, 0.1, 0.2)), (0, BBox(0.5, 0.5, 0.3, 0.4))]
        anns += [(c, BBox(0.5, 0.5, 0.1, 0.1)) for c in (1, 2, 3)]
        anchors = compute_anchors(anns)
        np.testing.assert_allclose(anchors[0], [0.2, 0.3], rtol=1e-6)

    def test_single_box_per_class(self):
        anns = [(c, BBox(0.5, 0.5, 0.1 * (c + 1), 0.05 * (c + 1))) for c in range(4)]
        anchors = compute_anchors(anns)
        for c in range(4):
            np.testing.assert_allclose(anchors[c], [0.1 * (c + 1), 0.05 * (c + 1)],
                                       rtol=1e-6)

    def test_matches_streaming_mean_oracle(self, rng):
        anns = []
        sums = np.zeros((4, 2))
        counts = np.zeros(4)
        for _ in range(4000):
            c = int(rng.integers(0, 4))
            w, h = rng.uniform(0.01, 0.5, 2)
            anns.append((c, BBox(0.5, 0.5, w, h)))
            sums[c] += (w, h)
            counts[c] += 1
        anchors = compute_anchors(anns)
        np.testing.assert_allclose(anchors, sums / counts[:, None], atol=1e-6)

    def test_empty_class_names_class(self):
        anns = [(c, BBox(0.5, 0.5, 0.1, 0.1)) for c in (0, 1, 3)]
        with pytest.raises(ValueError, match="goalpost"):
            compute_anchors(anns)

    def test_file_round_trip(self, tmp_path):
        anchors = make_anchors()
        save_anchors(tmp_path / "a.txt", anchors)
        np.testing.assert_allclose(load_anchors(tmp_path / "a.txt"), anchors, atol=1e-6)

    @pytest.mark.parametrize("line, reason", [
        ("ball abc 0.1", "non-numeric"),
        ("ball 0.1", "expected"),
        ("ball nan 0.1", "finite and positive"),
        ("crossing -1 0.1", "finite and positive"),
        ("goalpost inf 0", "finite and positive"),
        ("robot 0 0.1", "finite and positive"),
        ("ball 1e40 0.1", "finite and positive"),  # overflows float32
        ("ball 1e-50 0.1", "finite and positive"),  # underflows float32 to 0
        ("ball 0.2 0.2", "duplicate anchors for 'ball'"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, line, reason):
        path = tmp_path / "a.txt"
        path.write_text("# anchors\nball 0.1 0.1\n" + line + "\n")
        with pytest.raises(ValueError) as info:
            load_anchors(path)
        assert str(info.value).startswith(f"{path}:3: ")
        assert reason in str(info.value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fuzz_raises_only_value_error_naming_file(self, fuzz_dir, data):
        valid = "# w h\nball 0.05 0.07\ncrossing 0.08 0.08\ngoalpost 0.04 0.3\nrobot 0.15 0.25\n"
        token = st.one_of(
            st.floats().map(repr),
            st.text(alphabet="0123456789.-+eEinfa_", max_size=8),
        )
        line = st.tuples(st.sampled_from(CLASS_NAMES + ("x",)), token, token).map(" ".join)
        text = data.draw(st.one_of(
            st.text(alphabet=st.characters(codec="ascii"), max_size=80),
            st.integers(0, len(valid)).map(lambda n: valid[:n]),
            st.lists(line, min_size=1, max_size=6).map("\n".join),
            line.map(lambda extra: valid + extra),
        ))
        raw = text.encode()
        # Each non-empty insert leaves the ASCII text invalid UTF-8, wherever it goes.
        spot = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"", b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"]))
        path = fuzz_dir / "anchors.txt"
        path.write_bytes(raw[:spot] + bad + raw[spot:])
        try:
            anchors = load_anchors(path)
        except ValueError as exc:
            assert not isinstance(exc, UnicodeDecodeError)
            assert str(exc).startswith(f"{path}:")
        else:
            assert not bad
            assert anchors.shape == (4, 2) and anchors.dtype == np.float32
            assert np.isfinite(anchors).all() and (anchors > 0).all()


def math_sigmoid(v):
    return 1.0 / (1.0 + math.exp(-v))


def decode_cell_oracle(raw, head, anchors, grid, slot, i, j):
    """Scalar re-implementation of the decode arithmetic for one cell."""
    gh, gw = grid
    base = 5 * slot
    tx, ty, tw, th, to = (float(raw[0, base + q, i, j]) for q in range(5))
    class_id = head.classes_owned[slot]
    return (
        (j + math_sigmoid(tx)) / gw,
        (i + math_sigmoid(ty)) / gh,
        anchors[class_id, 0] * math.exp(tw),
        anchors[class_id, 1] * math.exp(th),
        math_sigmoid(to),
        class_id,
    )


class TestSigmoid:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant,
                        reason="np.longdouble is no wider than float64 here")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [10.0, 800.0])
    def test_within_four_ulp_of_longdouble(self, rng, dtype, scale):
        x = rng.uniform(-scale, scale, 200_000).astype(dtype)
        got = sigmoid(x)
        ref = 1 / (1 + np.exp(-x.astype(np.longdouble)))
        err = np.abs(got.astype(np.longdouble) - ref)
        # Where the true value is subnormal in dtype, exp(-x) has already
        # overflowed to inf and the result is 0, off by less than tiny.
        normal = ref >= np.finfo(dtype).tiny
        ulp = np.spacing(ref[normal].astype(dtype)).astype(np.longdouble)
        assert (err[normal] / ulp).max() <= 4
        assert (err[~normal] < np.finfo(dtype).tiny).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype(self, dtype):
        assert sigmoid(np.zeros((2, 3), dtype=dtype)).dtype == dtype
        assert sigmoid(dtype(0.5)).dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values(self, dtype):
        got = sigmoid(np.array([np.inf, -np.inf, np.nan, 0.0], dtype=dtype))
        assert got[0] == 1 and got[1] == 0 and np.isnan(got[2]) and got[3] == 0.5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_warning_at_extremes(self, dtype):
        x = np.array([1e4, -1e4, np.inf, -np.inf], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigmoid(x)
        assert got.tolist() == [1, 0, 1, 0]


class TestDecode:
    def test_zero_offsets_center_of_cell(self):
        raw = np.zeros((1, 10, 6, 8), dtype=np.float32)
        dets = decode(raw, HEAD_LO, make_anchors(), (6, 8))
        first = list(dets)[0]
        assert first.box.cx == pytest.approx(0.5 / 8)
        assert first.box.cy == pytest.approx(0.5 / 6)

    def test_zero_sizes_give_anchor(self):
        anchors = make_anchors()
        raw = np.zeros((1, 10, 6, 8), dtype=np.float32)
        dets = decode(raw, HEAD_LO, anchors, (6, 8))
        for d in dets:
            np.testing.assert_allclose(
                [d.box.w, d.box.h], anchors[d.class_id], rtol=1e-6
            )

    def test_candidate_count(self):
        raw = np.zeros((1, 10, 12, 16), dtype=np.float32)
        assert len(decode(raw, HEAD_HI, make_anchors(), (12, 16))) == 12 * 16 * 2

    def test_matches_per_cell_scalar_oracle(self, rng):
        anchors = make_anchors()
        raw = rng.normal(0, 1.5, (1, 10, 6, 8)).astype(np.float32)
        dets = list(decode(raw, HEAD_LO, anchors, (6, 8)))
        idx = 0
        for slot in range(2):
            for i in range(6):
                for j in range(8):
                    cx, cy, w, h, conf, cid = decode_cell_oracle(
                        raw, HEAD_LO, anchors, (6, 8), slot, i, j
                    )
                    d = dets[idx]
                    assert abs(d.box.cx - cx) < 1e-6
                    assert abs(d.box.cy - cy) < 1e-6
                    assert abs(d.box.w - w) < 1e-6
                    assert abs(d.box.h - h) < 1e-6
                    assert abs(d.confidence - conf) < 1e-6
                    assert d.class_id == cid
                    idx += 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            decode(np.zeros((1, 10, 5, 8), np.float32), HEAD_LO, make_anchors(), (6, 8))


class TestEncode:
    def test_center_box(self):
        anchors = make_anchors()
        (i, j), (tx, ty, tw, th) = encode(
            (3, BBox(0.5, 0.5, anchors[3, 0], anchors[3, 1])), anchors, (6, 8)
        )
        assert (i, j) == (3, 4)
        assert tx == pytest.approx(0.0)
        assert ty == pytest.approx(0.0)
        assert tw == pytest.approx(0.0)
        assert th == pytest.approx(0.0)

    def test_center_at_one_clamps(self):
        (i, j), _ = encode((0, BBox(1.0, 1.0, 0.1, 0.1)), make_anchors(), (6, 8))
        assert (i, j) == (5, 7)

    def test_round_trip_100_random_boxes(self, rng):
        anchors = make_anchors()
        grid = (6, 8)
        for _ in range(100):
            c = int(rng.integers(0, 4))
            box = BBox(
                float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)),
                float(rng.uniform(0.02, 0.6)), float(rng.uniform(0.02, 0.6)),
            )
            (i, j), (tx, ty, tw, th) = encode((c, box), anchors, grid)
            # invert targets back through logit/exp and re-decode that cell
            raw = np.zeros((1, 10, 6, 8), dtype=np.float64)
            slot = HEAD_LO.classes_owned.index(c) if c in HEAD_LO.classes_owned else None
            head = HEAD_LO if slot is not None else HEAD_HI
            slot = head.classes_owned.index(c)
            base = 5 * slot
            eps = 1e-12
            raw[0, base + 0, i, j] = math.log((tx + eps) / (1 - tx + eps))
            raw[0, base + 1, i, j] = math.log((ty + eps) / (1 - ty + eps))
            raw[0, base + 2, i, j] = tw
            raw[0, base + 3, i, j] = th
            cx, cy, w, h, _, _ = decode_cell_oracle(raw, head, anchors, grid, slot, i, j)
            assert abs(cx - box.cx) < 1e-6
            assert abs(cy - box.cy) < 1e-6
            assert abs(w - box.w) < 1e-6
            assert abs(h - box.h) < 1e-6

    def test_out_of_image_raises(self):
        with pytest.raises(ValueError, match="outside"):
            encode((0, BBox(1.2, 0.5, 0.1, 0.1)), make_anchors(), (6, 8))


class TestIou:
    def test_identical(self):
        b = BBox(0.4, 0.6, 0.2, 0.1)
        assert iou(b, b) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou(BBox(0.2, 0.2, 0.1, 0.1), BBox(0.8, 0.8, 0.1, 0.1)) == 0.0

    def test_half_overlap_is_one_third(self):
        a = BBox(0.25, 0.5, 0.5, 1.0)
        b = BBox(0.5, 0.5, 0.5, 1.0)
        assert iou(a, b) == pytest.approx(1 / 3)

    def test_touching_boxes_do_not_overlap(self):
        a = BBox(0.25, 0.5, 0.5, 1.0)
        b = BBox(0.75, 0.5, 0.5, 1.0)
        assert iou(a, b) == 0.0

    def test_rasterized_pixel_count_oracle(self, rng):
        res = 1000
        yy, xx = np.mgrid[0:res, 0:res]
        px = (xx + 0.5) / res
        py = (yy + 0.5) / res
        for _ in range(5):
            a = BBox(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.2, 0.5, 2))
            b = BBox(*rng.uniform(0.3, 0.7, 2), *rng.uniform(0.2, 0.5, 2))
            in_a = (np.abs(px - a.cx) < a.w / 2) & (np.abs(py - a.cy) < a.h / 2)
            in_b = (np.abs(px - b.cx) < b.w / 2) & (np.abs(py - b.cy) < b.h / 2)
            union = (in_a | in_b).sum()
            if union == 0:
                continue
            raster = (in_a & in_b).sum() / union
            assert iou(a, b) == pytest.approx(raster, abs=5e-3)

    @given(
        st.tuples(*[st.floats(0.1, 0.9) for _ in range(2)],
                  *[st.floats(0.05, 0.8) for _ in range(2)]),
        st.tuples(*[st.floats(0.1, 0.9) for _ in range(2)],
                  *[st.floats(0.05, 0.8) for _ in range(2)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, ta, tb):
        a, b = BBox(*ta), BBox(*tb)
        v = iou(a, b)
        assert v == pytest.approx(iou(b, a))
        assert 0.0 <= v <= 1.0 + 1e-12


def nms_oracle(dets, thr):
    """O(n^2) per-class suppression written independently of nms()."""
    keep = []
    for c in range(4):
        pool = sorted(
            [d for d in dets if d.class_id == c], key=lambda d: -d.confidence
        )
        taken = []
        for d in pool:
            if not any(iou(d.box, t.box) > thr for t in taken):
                taken.append(d)
        keep.extend(taken)
    return keep


class TestPostprocess:
    def test_all_below_threshold(self):
        dets = to_detections([Detection(BBox(0.5, 0.5, 0.1, 0.1), 0, 0.0) for _ in range(5)])
        assert len(postprocess(dets, to_detections([]), conf_threshold=0.5)) == 0

    def test_identical_boxes_nms(self):
        b = BBox(0.5, 0.5, 0.2, 0.2)
        dets = to_detections([Detection(b, 1, 0.9), Detection(b, 1, 0.8)])
        out = list(postprocess(dets, to_detections([]), conf_threshold=0.1, nms_iou=0.5))
        assert len(out) == 1
        assert out[0].confidence == 0.9

    def test_matches_brute_force_oracle(self, rng):
        dets = [
            Detection(
                BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.4, 2)),
                int(rng.integers(0, 4)),
                float(rng.uniform(0, 1)),
            )
            for _ in range(20)
        ]
        got = [dets[i] for i in nms(to_detections(dets), 0.5)]
        assert got == nms_oracle(dets, 0.5)

    def test_output_subset_and_threshold(self, rng):
        dets = [
            Detection(
                BBox(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.4, 2)),
                int(rng.integers(0, 4)),
                float(rng.uniform(0, 1)),
            )
            for _ in range(30)
        ]
        out = postprocess(to_detections(dets[:15]), to_detections(dets[15:]),
                          conf_threshold=0.3, nms_iou=0.6)
        assert all(d in dets for d in out)
        assert all(d.confidence >= 0.3 for d in out)

    def test_no_nms_keeps_duplicates(self):
        b = BBox(0.5, 0.5, 0.2, 0.2)
        dets = to_detections([Detection(b, 1, 0.9), Detection(b, 1, 0.8)])
        assert len(postprocess(dets, to_detections([]), conf_threshold=0.1)) == 2


class TestDumpFormat:
    def test_exact_text(self):
        dets = to_detections([
            Detection(BBox(0.5, 0.25, 0.125, 0.0625), 2, 0.875),
            Detection(BBox(0.1, 0.9, 0.05, 0.05), 0, 0.125),
        ])
        assert format_detections(dets) == (
            "2 0.875000 0.500000 0.250000 0.125000 0.062500\n"
            "0 0.125000 0.100000 0.900000 0.050000 0.050000\n"
        )

    def test_empty(self):
        assert format_detections([]) == ""


# ---------------------------------------------------------------------------
# Frozen copies of the object-per-candidate decode, nms and postprocess that
# the array path replaced; the array path must reproduce them bit for bit.


def decode_reference(raw, head, anchors, grid):
    gh, gw = grid
    out = []
    for slot, class_id in enumerate(head.classes_owned):
        tx, ty, tw, th, to = raw[0, 5 * slot : 5 * slot + 5].astype(np.float64)
        cx = (np.arange(gw) + sigmoid(tx)) / gw
        cy = (np.arange(gh)[:, None] + sigmoid(ty)) / gh
        w = anchors[class_id, 0] * np.exp(tw)
        h = anchors[class_id, 1] * np.exp(th)
        conf = sigmoid(to)
        for i in range(gh):
            for j in range(gw):
                out.append(
                    Detection(
                        BBox(cx[i, j], cy[i, j], w[i, j], h[i, j]),
                        class_id,
                        conf[i, j],
                    )
                )
    return out


def nms_reference(detections, iou_threshold):
    kept = []
    for class_id in range(len(CLASS_NAMES)):
        cls = [d for d in detections if d.class_id == class_id]
        cls.sort(key=lambda d: -d.confidence)
        survivors = []
        for d in cls:
            if all(iou(d.box, s.box) <= iou_threshold for s in survivors):
                survivors.append(d)
        kept.extend(survivors)
    return kept


def postprocess_reference(dets_lo, dets_hi, conf_threshold=0.5, nms_iou=None):
    merged = [d for d in list(dets_lo) + list(dets_hi) if d.confidence >= conf_threshold]
    if nms_iou is not None:
        merged = nms_reference(merged, nms_iou)
    return merged


def assert_same_detections(got, want):
    """Same sequence, with every float equal bit for bit and int class ids."""
    got, want = list(got), list(want)
    assert [d.class_id for d in got] == [d.class_id for d in want]
    assert all(type(d.class_id) is int for d in got)

    def bits(dets):
        return np.array(
            [(d.confidence, d.box.cx, d.box.cy, d.box.w, d.box.h) for d in dets],
            dtype=np.float64,
        ).tobytes()

    assert bits(got) == bits(want)


@st.composite
def head_outputs(draw, coarse=False):
    """A head spec, its grid, a raw float32 tensor and float32 anchors.

    ``coarse`` draws raw values from a few levels, so confidences tie."""
    gh, gw = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    owned = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True)))
    head = HeadSpec("head", owned)
    if coarse:
        elements = st.sampled_from([-2.0, -0.5, 0.0, 0.5, 2.0])
    else:
        elements = st.floats(allow_nan=False, width=32)
    raw = draw(arrays(np.float32, (1, head.channels, gh, gw), elements=elements))
    anchors = draw(arrays(np.float32, (4, 2), elements=st.floats(2.0**-10, 2.0, width=32)))
    return head, (gh, gw), raw, anchors


class TestDetectionsContainer:
    def test_len_and_iteration_yield_detections(self):
        want = [
            Detection(BBox(0.5, 0.25, 0.125, 0.0625), 2, 0.875),
            Detection(BBox(0.1, 0.9, 0.05, 0.05), 0, 0.125),
        ]
        dets = to_detections(want)
        assert len(dets) == 2
        assert list(dets) == want
        assert all(type(d.class_id) is int for d in dets)

    def test_empty(self):
        dets = Detections.concat([])
        assert len(dets) == 0 and list(dets) == []
        assert dets.class_id.dtype == np.int64 and dets.cx.dtype == np.float64


class TestArrayPathMatchesObjectPath:
    @given(head_outputs())
    @settings(max_examples=200, deadline=None)
    def test_decode_bitwise(self, case):
        head, grid, raw, anchors = case
        with np.errstate(over="ignore"):
            got = decode(raw, head, anchors, grid)
            want = decode_reference(raw, head, anchors, grid)
        assert len(got) == len(want)
        assert_same_detections(got, want)

    @given(
        head_outputs(coarse=True),
        head_outputs(coarse=True),
        st.one_of(st.sampled_from([0.0, float(sigmoid(0.0)), float(sigmoid(0.5)), 1.0]),
                  st.floats(0.0, 1.0)),
        st.one_of(st.none(), st.floats(0.01, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_postprocess_bitwise(self, lo_case, hi_case, conf, nms_iou):
        lo, hi = (decode(raw, head, anchors, grid)
                  for head, grid, raw, anchors in (lo_case, hi_case))
        want = postprocess_reference(list(lo), list(hi), conf, nms_iou)
        assert_same_detections(postprocess(lo, hi, conf, nms_iou), want)

    @pytest.mark.parametrize("nms_iou", [None, 0.5])
    def test_network_output_bitwise(self, rng, nms_iou):
        spec = build_robo(1)
        net = init_network(spec, seed=3)
        net.anchors = make_anchors()
        x = rng.normal(0, 1, (1, 3, *spec.input_hw)).astype(np.float32)
        raw_lo, raw_hi = forward(net, x)
        lo, hi = decode_network_output(raw_lo, raw_hi, spec, net.anchors)
        want_lo = decode_reference(raw_lo, HEAD_LO, net.anchors, spec.head_grid(HEAD_LO))
        want_hi = decode_reference(raw_hi, HEAD_HI, net.anchors, spec.head_grid(HEAD_HI))
        assert_same_detections(lo, want_lo)
        assert_same_detections(hi, want_hi)
        conf = float(np.median([d.confidence for d in want_lo + want_hi]))
        assert_same_detections(postprocess(lo, hi, conf, nms_iou),
                               postprocess_reference(want_lo, want_hi, conf, nms_iou))

    def test_postprocess_builds_no_detection(self, rng, monkeypatch):
        spec = build_robo(1)
        net = init_network(spec, seed=3)
        net.anchors = make_anchors()
        x = rng.normal(0, 1, (1, 3, *spec.input_hw)).astype(np.float32)
        lo, hi = decode_network_output(*forward(net, x), spec, net.anchors)
        conf = float(np.median(np.concatenate([lo.confidence, hi.confidence])))
        want = postprocess_reference(list(lo), list(hi), conf, 0.5)
        kept = postprocess(lo, hi, conf)
        objects = list(kept)
        position = {id(d): i for i, d in enumerate(objects)}
        want_index = [position[id(d)] for d in nms_reference(objects, 0.5)]

        def no_detection(*args):
            raise AssertionError("postprocess built a Detection")

        monkeypatch.setattr("robodet.detect.Detection", no_detection)
        got = postprocess(lo, hi, conf, 0.5)
        index = nms(kept, 0.5)
        monkeypatch.undo()
        assert 0 < len(got) < len(kept)
        assert_same_detections(got, want)
        assert index.dtype == np.intp and index.tolist() == want_index
        # Class by class, each class in descending confidence.
        keys = list(zip(kept.class_id[index].tolist(), (-kept.confidence[index]).tolist()))
        assert keys == sorted(keys)


coarse_box = st.builds(
    BBox, *[st.integers(0, 8).map(lambda k: k / 8)] * 2,
    *[st.integers(0, 4).map(lambda k: k / 8)] * 2,
)
any_box = st.one_of(
    coarse_box,
    st.builds(BBox, *[st.floats(-2.0, 2.0)] * 2, *[st.floats(0.0, 2.0)] * 2),
)


class TestIouMatrix:
    @given(st.lists(any_box, max_size=6), st.lists(any_box, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_scalar_iou(self, a, b):
        def columns(boxes):
            table = np.array([(x.cx, x.cy, x.w, x.h) for x in boxes], dtype=np.float64)
            return table.reshape(-1, 4).T

        got = iou_matrix(columns(a), columns(b))
        want = np.array([[iou(x, y) for y in b] for x in a], dtype=np.float64)
        assert got.shape == (len(a), len(b))
        assert got.tobytes() == want.reshape(len(a), len(b)).tobytes()

    def test_areas_that_underflow_give_zero(self):
        # The sides overlap, but every area and the intersection round to 0.
        box = BBox(0.0, 0.0, 2.0**-52, 2.0**-1030)
        assert iou(box, box) == 0.0
        cols = np.array([[box.cx], [box.cy], [box.w], [box.h]])
        assert iou_matrix(cols, cols).tolist() == [[0.0]]

    def test_touching_boxes_are_zero(self):
        a = np.array([[0.25], [0.5], [0.5], [1.0]])
        b = np.array([[0.75], [0.5], [0.5], [1.0]])
        assert iou_matrix(a, b).tolist() == [[0.0]]
