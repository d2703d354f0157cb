import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import robodet.data
from robodet.data import (
    Annotation,
    filter_min_size,
    generate_toy_dataset,
    load_all_samples,
    load_annotations,
    load_index,
    load_sample,
    ppm_size,
    read_ppm,
    rgb_to_yuv,
    save_annotations,
    write_ppm,
)
from robodet.detect import BBox

from conftest import flip_bytes


class TestPpm:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (33, 47, 3), dtype=np.uint8)
        write_ppm(tmp_path / "x.ppm", img)
        np.testing.assert_array_equal(read_ppm(tmp_path / "x.ppm"), img)

    def test_header_comment(self, tmp_path):
        img = np.zeros((2, 3, 3), dtype=np.uint8)
        raw = b"P6\n# a comment\n3 2\n255\n" + img.tobytes()
        (tmp_path / "c.ppm").write_bytes(raw)
        assert read_ppm(tmp_path / "c.ppm").shape == (2, 3, 3)

    def test_rejects_non_p6(self, tmp_path):
        (tmp_path / "bad.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0")
        with pytest.raises(ValueError, match="P6"):
            read_ppm(tmp_path / "bad.ppm")

    @pytest.mark.parametrize("raw, reason", [
        (b"P6\n3 2\n255\n" + bytes(17), "truncated pixel data: 17 of 18"),
        (b"P6\n3 x\n255\n" + bytes(18), "malformed header field b'x'"),
        (b"P6\n-3 2\n255\n" + bytes(18), "malformed header field b'-3'"),
        (b"P6\n0 2\n255\n", "size 0x2 is not positive"),
        (b"P6\n3 0\n255\n", "size 3x0 is not positive"),
        (b"P6\n3 2 # no newline", "comment runs to the end"),
        (b"P6\n3 2", "header ends"),
        (b"P6\n3 2\n255", "truncated pixel data"),
        (b"P6\n3 2\n65535\n" + bytes(36), "unsupported maxval 65535"),
    ], ids=["short-pixels", "letter", "negative", "zero-width", "zero-height",
            "open-comment", "no-maxval", "no-pixels", "maxval"])
    def test_malformed_names_file(self, tmp_path, raw, reason):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        for reader in (read_ppm, ppm_size):
            with pytest.raises(ValueError) as info:
                reader(path)
            assert str(info.value).startswith(f"{path}: ")
            assert reason in str(info.value)

    def test_size_skips_multi_word_comment(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# two words\n3 2\n255\n" + bytes(18))
        assert ppm_size(path) == (3, 2)

    def test_size_reads_only_the_header(self, tmp_path, monkeypatch):
        path = tmp_path / "x.ppm"
        write_ppm(path, np.zeros((96, 128, 3), dtype=np.uint8))
        read_upto = []

        class Unbuffered(io.FileIO):
            """A file read byte by byte from the OS, noting where it stopped."""

            def close(self):
                if not self.closed:
                    read_upto.append(self.tell())
                super().close()

        monkeypatch.setattr(robodet.data, "open", Unbuffered, raising=False)
        assert ppm_size(path) == (128, 96)
        assert read_upto == [len(b"P6\n128 96\n255\n")]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_raises_only_value_error_naming_file(self, fuzz_dir, data):
        valid = b"P6\n# c\n4 3\n255\n" + bytes(range(36))
        raw = data.draw(st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=64).map(lambda tail: b"P6" + tail),
            st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
            st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4).map(lambda flips: flip_bytes(valid, flips)),
        ))
        path = fuzz_dir / "f.ppm"
        path.write_bytes(raw)
        try:
            image = read_ppm(path)
        except ValueError as exc:
            assert str(path) in str(exc)
        else:
            assert image.dtype == np.uint8 and image.ndim == 3 and image.shape[2] == 3
            assert image.size > 0


class TestAnnotations:
    def test_basic_line(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("0 0.5 0.5 0.1 0.1\n")
        anns = load_annotations(p)
        assert len(anns) == 1
        assert anns[0].class_id == 0
        assert anns[0].box == BBox(0.5, 0.5, 0.1, 0.1)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        assert load_annotations(p) == []

    def test_class_range_error(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("4 0.5 0.5 0.1 0.1\n")
        with pytest.raises(ValueError, match="class_id 4"):
            load_annotations(p)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("0 0.5 0.5 0.1 0.1\n1 0.5 0.5\n")
        with pytest.raises(ValueError, match=":2"):
            load_annotations(p)

    def test_out_of_range_value(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("0 1.5 0.5 0.1 0.1\n")
        with pytest.raises(ValueError, match="center"):
            load_annotations(p)

    def test_round_trip_six_decimals(self, tmp_path, rng):
        anns = [
            Annotation(int(rng.integers(0, 4)),
                       BBox(*np.round(rng.uniform(0.1, 0.9, 4), 6)))
            for _ in range(20)
        ]
        p = tmp_path / "rt.txt"
        save_annotations(p, anns)
        loaded = load_annotations(p)
        for a, b in zip(anns, loaded):
            assert a.class_id == b.class_id
            for f in ("cx", "cy", "w", "h"):
                assert getattr(a.box, f) == pytest.approx(getattr(b.box, f), abs=1e-6)


    def test_not_utf8_names_file(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_bytes(b"0 0.5 0.5 0.1 0.1\n\xff\n")
        with pytest.raises(ValueError) as info:
            load_annotations(p)
        assert not isinstance(info.value, UnicodeDecodeError)
        assert str(info.value).startswith(f"{p}: not UTF-8 text")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_raises_only_value_error_naming_file(self, fuzz_dir, data):
        valid = b"0 0.5 0.5 0.1 0.2\n3 0.25 0.75 0.05 0.4\n"
        raw = data.draw(st.one_of(
            st.binary(max_size=64),
            st.text(max_size=64).map(str.encode),
            token_lines(["0", "3", "4", "-1", "0.5", "1", "0", "1e-9", "nan", "inf",
                         "x", "0x1"]),
            st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
            st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4).map(lambda flips: flip_bytes(valid, flips)),
        ))
        path = fuzz_dir / "a.txt"
        path.write_bytes(raw)
        try:
            annotations = load_annotations(path)
        except ValueError as exc:
            assert not isinstance(exc, UnicodeDecodeError)
            assert str(exc).startswith(f"{path}:")
        else:
            for a in annotations:
                assert 0 <= a.class_id < 4
                assert 0 <= a.box.cx <= 1 and 0 <= a.box.cy <= 1
                assert 0 < a.box.w <= 1 and 0 < a.box.h <= 1


def token_lines(tokens):
    """UTF-8 lines of up to six space-separated tokens drawn from tokens."""
    line = st.lists(st.sampled_from(tokens), max_size=6).map(" ".join)
    return st.lists(line, max_size=4).map(lambda lines: "\n".join(lines).encode())


def rgb_to_yuv_reference(image):
    """Frozen copy of the plane-wise rgb_to_yuv on the interleaved (h, w, 3)
    array."""
    rgb = image.astype(np.float32) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    u = 0.5 - 0.168736 * r - 0.331264 * g + 0.5 * b
    v = 0.5 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.stack([y, u, v]).astype(np.float32)


# rgb_to_yuv is one float32 matrix product; the plane-wise oracle takes its
# own order of float32 operations.  They agree within one float32 step at 1.0,
# the top of the planes' range.
YUV_ULP = float(np.finfo(np.float32).eps)


def assert_yuv_near_oracle(image):
    got, want = rgb_to_yuv(image), rgb_to_yuv_reference(image)
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert np.abs(got - want).max() <= YUV_ULP
    return got


class TestYuv:
    @given(image=arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24),
                                            st.just(3))))
    @settings(max_examples=200, deadline=None)
    def test_matches_interleaved_oracle(self, image):
        assert_yuv_near_oracle(image)

    def test_full_size_matches_oracle(self, rng):
        image = rng.integers(0, 256, (192, 256, 3), dtype=np.uint8)
        assert assert_yuv_near_oracle(image).flags.c_contiguous

    @staticmethod
    def every_colour():
        """All 2**24 colours, one blue level per 256x256 slab of (red, green)."""
        red, green = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        slab = np.stack([red, green, np.zeros_like(red)], axis=-1).astype(np.uint8)
        for blue in range(256):
            slab[..., 2] = blue
            yield slab

    def test_every_colour_matches_oracle(self):
        for slab in self.every_colour():
            assert_yuv_near_oracle(slab)

    def test_every_colour_within_1e_7_of_float64_bt601(self):
        m = np.array(robodet.data.BT601)
        for slab in self.every_colour():
            want = np.moveaxis(slab / 255.0 @ m.T, -1, 0) + [[[0.0]], [[0.5]], [[0.5]]]
            assert np.abs(rgb_to_yuv(slab) - want).max() <= 1e-7

    def test_returns_fresh_c_array_and_leaves_input_unchanged(self, rng):
        # A non-contiguous view as input: the conversion must not write
        # through it, and its output is a fresh C-ordered float32 array.
        base = rng.integers(0, 256, (20, 30, 3), dtype=np.uint8)
        image = base[::2, ::-1]
        before = base.copy()
        yuv = rgb_to_yuv(image)
        assert yuv.dtype == np.float32 and yuv.shape == (3, 10, 30)
        assert yuv.flags.c_contiguous and yuv.flags.owndata
        np.testing.assert_array_equal(base, before)
        assert np.abs(yuv - rgb_to_yuv_reference(image)).max() <= YUV_ULP

    def test_mid_gray(self):
        img = np.full((1, 1, 3), 128, dtype=np.uint8)
        yuv = rgb_to_yuv(img)
        assert yuv.shape == (3, 1, 1)
        assert yuv[0, 0, 0] == pytest.approx(128 / 255, abs=1e-6)
        assert yuv[1, 0, 0] == pytest.approx(0.5, abs=1e-6)
        assert yuv[2, 0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_black(self):
        yuv = rgb_to_yuv(np.zeros((2, 2, 3), dtype=np.uint8))
        assert np.allclose(yuv[0], 0.0)
        assert np.allclose(yuv[1:], 0.5)

    def test_matches_per_pixel_matrix_oracle(self, rng):
        img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        yuv = rgb_to_yuv(img)
        m = np.array([
            [0.299, 0.587, 0.114],
            [-0.168736, -0.331264, 0.5],
            [0.5, -0.418688, -0.081312],
        ])
        for y in range(8):
            for x in range(8):
                want = m @ (img[y, x] / 255.0) + np.array([0.0, 0.5, 0.5])
                got = yuv[:, y, x]
                assert np.abs(got - want).max() < 1 / 255


class TestFilterMinSize:
    def test_tiny_box_dropped(self):
        anns = [Annotation(0, BBox(0.5, 0.5, 0.001, 0.1))]
        assert filter_min_size(anns) == []

    def test_zero_threshold_identity(self, monkeypatch):
        monkeypatch.setattr(robodet.data, "MIN_WH", 0.0)
        anns = [Annotation(0, BBox(0.5, 0.5, 0.001, 0.001))]
        assert filter_min_size(anns) == anns

    def test_matches_scan_oracle(self, rng, monkeypatch):
        t = 0.02
        monkeypatch.setattr(robodet.data, "MIN_WH", t)
        anns = [
            Annotation(0, BBox(0.5, 0.5, float(w), float(h)))
            for w, h in rng.uniform(0.001, 0.1, (50, 2))
        ]
        got = filter_min_size(anns)
        want = [a for a in anns if a.box.w >= t and a.box.h >= t]
        assert got == want


class TestToyGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        a = generate_toy_dataset(6, "A", seed=5, out_dir=tmp_path / "a")
        b = generate_toy_dataset(6, "A", seed=5, out_dir=tmp_path / "b")
        for (img_a, ann_a), (img_b, ann_b) in zip(a.entries, b.entries):
            assert (a.root / img_a).read_bytes() == (b.root / img_b).read_bytes()
            assert (a.root / ann_a).read_text() == (b.root / ann_b).read_text()

    def test_different_styles_differ(self, tmp_path):
        a = generate_toy_dataset(2, "A", seed=5, out_dir=tmp_path / "a")
        b = generate_toy_dataset(2, "B", seed=5, out_dir=tmp_path / "b")
        assert (a.root / a.entries[0][0]).read_bytes() != (b.root / b.entries[0][0]).read_bytes()

    def test_shapes_render_inside_boxes(self, tmp_path):
        index = generate_toy_dataset(12, "A", seed=9, out_dir=tmp_path / "d")
        w_img, h_img = index.image_size
        field_like = None
        for i in range(len(index)):
            image, anns = load_sample(index, i)
            if not anns:
                continue
            for ann in anns:
                b = ann.box
                x0 = int(np.floor((b.cx - b.w / 2) * w_img)) - 1
                x1 = int(np.ceil((b.cx + b.w / 2) * w_img)) + 1
                y0 = int(np.floor((b.cy - b.h / 2) * h_img)) - 1
                y1 = int(np.ceil((b.cy + b.h / 2) * h_img)) + 1
                assert 0 <= x0 and x1 <= w_img and 0 <= y0 and y1 <= h_img
        # objects must not paint anything outside the union of boxes:
        # regenerate the background-only image statistics by masking boxes out
        image, anns = load_sample(index, 1)
        mask = np.zeros(image.shape[:2], dtype=bool)
        for ann in anns:
            b = ann.box
            x0 = max(int(np.floor((b.cx - b.w / 2) * w_img)) - 1, 0)
            x1 = min(int(np.ceil((b.cx + b.w / 2) * w_img)) + 1, w_img)
            y0 = max(int(np.floor((b.cy - b.h / 2) * h_img)) - 1, 0)
            y1 = min(int(np.ceil((b.cy + b.h / 2) * h_img)) + 1, h_img)
            mask[y0:y1, x0:x1] = True
        outside = image[~mask].astype(np.float64)
        # background is green-ish noise around the field color; no bright
        # object pixels like the white goalposts should appear outside boxes
        assert outside.mean(axis=0)[1] > outside.mean(axis=0)[2]  # green > blue

    def test_balanced_class_counts(self, tmp_path):
        index = generate_toy_dataset(500, "A", seed=0, out_dir=tmp_path / "big")
        counts = np.zeros(4, dtype=int)
        for i in range(len(index)):
            _, anns = load_sample(index, i)
            for ann in anns:
                counts[ann.class_id] += 1
        assert (counts >= 100).all()

    def test_index_loads(self, tmp_path):
        generate_toy_dataset(3, "A", seed=1, out_dir=tmp_path / "d")
        index = load_index(tmp_path / "d")
        assert len(index) == 3
        assert index.image_size == (256, 192)
        samples = load_all_samples(index)
        assert len(samples) == 3
        assert samples[0][0].shape == (192, 256, 3)

    def test_mixed_image_sizes_raise_naming_image_and_sizes(self, tmp_path):
        generate_toy_dataset(4, "A", seed=1, out_dir=tmp_path)
        write_ppm(tmp_path / "img_00002.ppm", np.zeros((96, 128, 3), dtype=np.uint8))
        with pytest.raises(ValueError) as info:
            load_index(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / 'img_00002.ppm'}: image size 128x96 differs from 256x192 "
            f"of {tmp_path / 'img_00000.ppm'}"
        )

    @pytest.mark.parametrize("name", ["missing.ppm", "sub", "."])
    def test_missing_image_names_index_line(self, tmp_path, name):
        generate_toy_dataset(2, "A", seed=1, out_dir=tmp_path)
        (tmp_path / "sub").mkdir()
        with open(tmp_path / "index.txt", "a") as f:
            f.write(f"\n{name} img_00000.txt\n")
        with pytest.raises(FileNotFoundError) as info:
            load_index(tmp_path)
        assert str(info.value) == f"{tmp_path / 'index.txt'}:4: no image file {name!r}"

    @pytest.mark.parametrize("name", ["missing.txt", "sub", "."])
    def test_missing_annotation_names_index_line(self, tmp_path, name):
        generate_toy_dataset(2, "A", seed=1, out_dir=tmp_path)
        (tmp_path / "sub").mkdir()
        with open(tmp_path / "index.txt", "a") as f:
            f.write(f"img_00000.ppm {name}\n")
        with pytest.raises(FileNotFoundError) as info:
            load_index(tmp_path)
        assert str(info.value) == f"{tmp_path / 'index.txt'}:3: no annotation file {name!r}"

    def test_index_holds_the_annotations_as_written(self, tmp_path):
        index = generate_toy_dataset(4, "A", seed=1, out_dir=tmp_path)
        assert index.annotations == [load_annotations(tmp_path / ann) for _, ann in index.entries]
        assert load_index(tmp_path) == index

    def test_bad_args(self, tmp_path):
        with pytest.raises(ValueError, match="n_images"):
            generate_toy_dataset(0, "A", 0, tmp_path)
        with pytest.raises(ValueError, match="style"):
            generate_toy_dataset(1, "Z", 0, tmp_path)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    """A dataset directory with images of two sizes, a bad image and a
    subdirectory, for index.txt files (and the a.txt each example writes) to
    point at."""
    root = tmp_path_factory.mktemp("index_fuzz")
    write_ppm(root / "a.ppm", np.zeros((3, 4, 3), dtype=np.uint8))
    write_ppm(root / "b.ppm", np.ones((3, 4, 3), dtype=np.uint8))
    write_ppm(root / "small.ppm", np.zeros((2, 2, 3), dtype=np.uint8))
    (root / "bad.ppm").write_bytes(b"P6\n4 3\n255\n")
    (root / "sub").mkdir()
    return root


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_load_index_fuzz_raises_only_documented_errors(index_dir, data):
    valid = b"# pairs\na.ppm a.txt\nb.ppm a.txt\n"
    names = ["a.ppm", "b.ppm", "small.ppm", "bad.ppm", "a.txt", "sub", ".", "..",
             "missing.ppm", "#", ""]
    raw = data.draw(st.one_of(
        st.binary(max_size=64),
        st.text(max_size=64).map(str.encode),
        token_lines(names),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                 min_size=1, max_size=4).map(lambda flips: flip_bytes(valid, flips)),
    ))
    valid_ann = b"0 0.5 0.5 0.1 0.1\n"
    ann = data.draw(st.one_of(
        st.just(valid_ann),
        st.binary(max_size=32),
        st.lists(st.tuples(st.integers(0, len(valid_ann) - 1), st.integers(0, 255)),
                 min_size=1, max_size=4).map(lambda flips: flip_bytes(valid_ann, flips)),
    ))
    (index_dir / "index.txt").write_bytes(raw)
    (index_dir / "a.txt").write_bytes(ann)
    try:
        index = load_index(index_dir)
    except (ValueError, FileNotFoundError) as exc:
        assert not isinstance(exc, UnicodeDecodeError)
        assert str(index_dir) in str(exc)
    else:
        assert len(index) >= 1 and len(index.annotations) == len(index)
        assert {ppm_size(index_dir / img) for img, _ in index.entries} == {index.image_size}
