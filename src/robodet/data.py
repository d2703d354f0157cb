"""Dataset I/O and the deterministic toy soccer-scene generator.

Images are 8-bit RGB numpy arrays of shape (h, w, 3) stored as binary PPM
(P6).  Annotations are text files with one `class_id cx cy w h` line per
object, all fields normalized to the image.  A dataset directory holds an
`index.txt` with one `image.ppm annotations.txt` pair per line.  An anchor
file holds one `<class> <w> <h>` line per class, sizes normalized to the
image.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .detect import BBox, iou
from .model import ANCHOR_MAX, ANCHOR_MIN, BASE_INPUT_HW, CLASS_NAMES

INDEX_FILE = "index.txt"

# Minimum box side kept by filter_min_size: 8 pixels of a VGA-width image.
MIN_WH = 8 / 640


class Annotation(NamedTuple):
    """The (class_id, box) pair that anchors, targets and matching unpack."""

    class_id: int
    box: BBox


@dataclass
class DatasetIndex:
    root: Path
    entries: list[tuple[str, str]]  # (image path, annotation path), relative
    image_size: tuple[int, int]  # (width, height) in pixels
    annotations: list[list[Annotation]]  # one list per entry, read by load_index

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# PPM (P6) image container.


def write_ppm(path, image: np.ndarray) -> None:
    if image.dtype != np.uint8 or image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("write_ppm expects a (h, w, 3) uint8 array")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(image.tobytes())


def read_ppm(path) -> np.ndarray:
    """Decode a binary PPM (P6) image with maxval 255 into (h, w, 3) uint8.

    A malformed file raises ValueError naming the path.
    """
    with open(path, "rb") as f:
        w, h = _read_ppm_header(f, path)
        image = np.empty((h, w, 3), dtype=np.uint8)
        got = f.readinto(image)
    if got != image.nbytes:
        raise ValueError(f"{path}: truncated pixel data: {got} of {image.nbytes} bytes")
    return image


def ppm_size(path) -> tuple[int, int]:
    """(width, height) of a PPM, reading only its header and file size."""
    with open(path, "rb") as f:
        return _read_ppm_header(f, path)


def _read_ppm_header(f, path) -> tuple[int, int]:
    """(width, height) of the P6 file open as f, leaving f at the first
    pixel byte; raises ValueError naming path unless the file is long
    enough to hold every pixel."""
    try:
        w, h = _parse_ppm_header(f)
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have < w * h * 3:
            raise ValueError(f"truncated pixel data: {max(have, 0)} of {w * h * 3} bytes")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return w, h


def _parse_ppm_header(f) -> tuple[int, int]:
    """(width, height) from the P6 header at the start of binary file f."""
    if f.read(2) != b"P6":
        raise ValueError("not a binary PPM (P6) file")
    # Header: magic, width, height, maxval; '#' comments allowed between tokens.
    fields = []
    c = f.read(1)
    while len(fields) < 3:
        if c.isspace():
            c = f.read(1)
            continue
        if c == b"#":
            if not f.readline().endswith(b"\n"):
                raise ValueError("header comment runs to the end of the file")
            c = f.read(1)
            continue
        token = bytearray()
        while c and not c.isspace():
            token += c
            c = f.read(1)
        if not token:
            raise ValueError("header ends before width, height and maxval")
        if not token.isdigit():
            raise ValueError(f"malformed header field {bytes(token[:16])!r}")
        fields.append(int(token))
    # The single whitespace byte after maxval, now in c, ends the header.
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"image size {w}x{h} is not positive")
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    return w, h


# ---------------------------------------------------------------------------
# Annotations.


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; undecodable bytes raise ValueError
    naming path."""
    try:
        with open(path, encoding="utf-8") as f:
            return list(f)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_annotations(path) -> list[Annotation]:
    """The annotations of one image; a malformed file raises ValueError
    naming the path (and the line, for a bad line)."""
    out = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(
                f"{path}:{lineno}: expected 'class_id cx cy w h', got {len(parts)} fields"
            )
        try:
            class_id = int(parts[0])
            cx, cy, w, h = (float(p) for p in parts[1:])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from None
        if not 0 <= class_id < len(CLASS_NAMES):
            raise ValueError(
                f"{path}:{lineno}: class_id {class_id} outside 0..{len(CLASS_NAMES) - 1}"
            )
        if not (0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0):
            raise ValueError(f"{path}:{lineno}: box center outside [0, 1]")
        if not (0.0 < w <= 1.0 and 0.0 < h <= 1.0):
            raise ValueError(f"{path}:{lineno}: box size outside (0, 1]")
        out.append(Annotation(class_id, BBox(cx, cy, w, h)))
    return out


def save_annotations(path, annotations) -> None:
    with open(path, "w") as f:
        for ann in annotations:
            b = ann.box
            f.write(f"{ann.class_id} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f}\n")


def filter_min_size(annotations):
    return [a for a in annotations if a.box.w >= MIN_WH and a.box.h >= MIN_WH]


# ---------------------------------------------------------------------------
# Anchor files.


def save_anchors(path, anchors: np.ndarray) -> None:
    with open(path, "w") as f:
        for name, (aw, ah) in zip(CLASS_NAMES, anchors):
            f.write(f"{name} {aw:.6f} {ah:.6f}\n")


def load_anchors(path) -> np.ndarray:
    table = {}
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] not in CLASS_NAMES:
            raise ValueError(f"{path}:{lineno}: expected '<class> <w> <h>'")
        try:
            size = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric anchor size") from None
        if not all(ANCHOR_MIN <= v <= ANCHOR_MAX for v in size):  # False for NaN
            raise ValueError(f"{path}:{lineno}: anchor size must be finite and positive")
        if parts[0] in table:
            raise ValueError(f"{path}:{lineno}: duplicate anchors for '{parts[0]}'")
        table[parts[0]] = size
    missing = [n for n in CLASS_NAMES if n not in table]
    if missing:
        raise ValueError(f"{path}: missing anchors for {', '.join(missing)}")
    return np.array([table[n] for n in CLASS_NAMES], dtype=np.float32)


# ---------------------------------------------------------------------------
# Color conversion (BT.601 full range, the JFIF YCbCr matrix).

# Rows give Y, U and V from RGB in [0, 1], with U and V centred at 0.  Python
# floats, for the float64 algebra of train.colour_matrix.
BT601 = (
    (0.299, 0.587, 0.114),
    (-0.168736, -0.331264, 0.5),
    (0.5, -0.418688, -0.081312),
)
# The float32 map that rgb_to_yuv and train.augment share: the planes are
# BT601_F32 @ (rgb / 255), by yuv_product, plus YUV_OFFSET, which centres
# chroma at 0.5.
BT601_F32 = np.array(BT601, np.float32)
YUV_OFFSET = np.array([0.0, 0.5, 0.5], np.float32)[:, None, None]


def yuv_product(rgb: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (h*w, 3) float32 RGB pixels rgb, in 0-255 units, scaled in place
    by 1/255 and multiplied by BT601_F32 into the C-ordered float32
    (3, h, w) planes out, which are returned; the chroma offset is the
    caller's to add."""
    rgb /= np.float32(255)
    np.matmul(BT601_F32, rgb.T, out=out.reshape(3, -1))
    return out


def rgb_to_yuv(image: np.ndarray) -> np.ndarray:
    """8-bit (h, w, 3) RGB -> float32 (3, h, w) YUV with channels in [0, 1]:
    yuv_product of the pixels, plus YUV_OFFSET in place."""
    rgb = image.astype(np.float32, order="C").reshape(-1, 3)
    out = yuv_product(rgb, np.empty((3,) + image.shape[:2], np.float32))
    out += YUV_OFFSET
    return out


# ---------------------------------------------------------------------------
# Dataset index.


def load_index(root) -> DatasetIndex:
    """The dataset at root, after reading every image's header and then
    every annotation file.

    An image or annotation file that is missing raises FileNotFoundError
    naming its index line; a malformed index line, an empty index, an
    unreadable image header, images of different sizes and a malformed
    annotation file raise ValueError.
    """
    root = Path(root)
    index_path = root / INDEX_FILE
    if not index_path.is_file():
        raise FileNotFoundError(f"no {INDEX_FILE} in {root}")
    entries = []
    for lineno, raw in enumerate(_read_lines(index_path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{index_path}:{lineno}: expected 'image annotations'")
        for kind, rel in zip(("image", "annotation"), parts):
            if not os.path.isfile(root / rel):
                raise FileNotFoundError(f"{index_path}:{lineno}: no {kind} file {rel!r}")
        entries.append((parts[0], parts[1]))
    if not entries:
        raise ValueError(f"{index_path}: empty dataset index")
    first = root / entries[0][0]
    image_size = ppm_size(first)
    for img_rel, _ in entries[1:]:
        size = ppm_size(root / img_rel)
        if size != image_size:
            raise ValueError(
                f"{root / img_rel}: image size {size[0]}x{size[1]} differs from "
                f"{image_size[0]}x{image_size[1]} of {first}"
            )
    annotations = [load_annotations(root / ann_rel) for _, ann_rel in entries]
    return DatasetIndex(root, entries, image_size, annotations)


def load_sample(index: DatasetIndex, i: int):
    """(image, annotations) of entry i: the image is read from its file, the
    annotations are the ones load_index read."""
    return read_ppm(index.root / index.entries[i][0]), index.annotations[i]


def load_all_samples(index: DatasetIndex):
    """Load every (image, annotations) pair in index order."""
    return [load_sample(index, i) for i in range(len(index))]


def load_all_annotations(index: DatasetIndex) -> list[Annotation]:
    return [ann for annotations in index.annotations for ann in annotations]


# ---------------------------------------------------------------------------
# Toy scene generator.  Two palettes (A, B) share geometry so that a model
# pretrained on one style can be transferred to the other.

STYLES = {
    "A": {
        "field": (45, 110, 50),
        "ball": (250, 140, 30),
        "crossing": (240, 240, 240),
        "goalpost": (235, 235, 225),
        "robot": (40, 40, 55),
    },
    "B": {
        "field": (110, 150, 75),
        "ball": (205, 40, 45),
        "crossing": (205, 205, 255),
        "goalpost": (255, 250, 190),
        "robot": (80, 40, 30),
    },
}


def _paint(image, mask, color, jitter):
    image[mask] = np.clip(np.asarray(color, dtype=np.float32) + jitter, 0, 255)


def _sample_geometry(class_id, rng, w, h):
    """Class-plausible (cx, cy, half_w, half_h, extra) in pixel units."""
    if class_id == 0:  # ball
        r = rng.uniform(6, 14)
        return _place(rng, w, h, r, r) + (r,)
    if class_id == 1:  # crossing
        s = rng.uniform(6, 13)
        t = rng.uniform(1.0, 2.0)
        return _place(rng, w, h, s, s) + (t,)
    if class_id == 2:  # goalpost
        a = rng.uniform(2.5, 6)
        b = rng.uniform(18, 42)
        return _place(rng, w, h, a, b) + (0.0,)
    a = rng.uniform(9, 19)  # robot
    b = rng.uniform(15, 33)
    return _place(rng, w, h, a, b) + (0.0,)


def _place(rng, w, h, half_w, half_h):
    cx = rng.uniform(half_w + 2, w - half_w - 2)
    cy = rng.uniform(half_h + 2, h - half_h - 2)
    return cx, cy, half_w, half_h


def _rasterize(image, grids, class_id, geom, color, jitter):
    yy, xx = grids
    cx, cy, a, b, extra = geom
    dx, dy = np.abs(xx - cx), np.abs(yy - cy)
    if class_id == 0:
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= a * a
    elif class_id == 1:
        t = extra
        mask = ((dx <= a) & (dy <= t)) | ((dx <= t) & (dy <= b))
    elif class_id == 2:
        mask = (dx <= a) & (dy <= b)
    else:
        rho = 0.4 * min(a, b)
        inner = np.maximum(dx - (a - rho), 0) ** 2 + np.maximum(dy - (b - rho), 0) ** 2
        mask = (dx <= a) & (dy <= b) & (inner <= rho * rho)
    _paint(image, mask, color, jitter)


def _draw_object(image, grids, class_id, rng, palette, existing):
    """Rasterize one object fully inside the image, resampling its position
    a few times to avoid heavy overlap; returns its exact BBox."""
    h, w = image.shape[:2]
    geom = _sample_geometry(class_id, rng, w, h)
    for _ in range(8):
        cx, cy, a, b, _extra = geom
        box = BBox(cx / w, cy / h, 2 * a / w, 2 * b / h)
        if all(iou(box, other.box) < 0.25 for other in existing):
            break
        geom = _sample_geometry(class_id, rng, w, h)
    jitter = rng.uniform(-7, 7, size=3).astype(np.float32)
    _rasterize(image, grids, class_id, geom, palette[CLASS_NAMES[class_id]], jitter)
    cx, cy, a, b, _extra = geom
    return BBox(cx / w, cy / h, 2 * a / w, 2 * b / h)


def generate_toy_dataset(n_images: int, style: str = "A", seed: int = 0, out_dir=".") -> DatasetIndex:
    """Render n deterministic field scenes, at the k=1 model input size
    `model.BASE_INPUT_HW`, with exact annotations.

    Each image holds 0..4 objects; classes are dealt from a shuffled
    round-robin stream so the dataset stays balanced.  The returned index is
    load_index of out_dir, so it holds the annotations as written, to 6
    decimals.
    """
    if n_images < 1:
        raise ValueError("n_images must be >= 1")
    if style not in STYLES:
        raise ValueError(f"unknown style {style!r}, pick one of {sorted(STYLES)}")
    palette = STYLES[style]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    height, width = BASE_INPUT_HW
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float32)

    class_queue: list[int] = []

    def next_class() -> int:
        if not class_queue:
            class_queue.extend(rng.permutation(len(CLASS_NAMES)))
        return int(class_queue.pop())

    entries = []
    for i in range(n_images):
        base = np.asarray(palette["field"], dtype=np.float32)
        shade = rng.uniform(0.93, 1.07)
        image = np.tile(base * shade, (height, width, 1))
        image += rng.normal(0, 3, size=image.shape).astype(np.float32)
        annotations = []
        for _ in range(int(rng.integers(0, 5))):
            class_id = next_class()
            box = _draw_object(image, (yy, xx), class_id, rng, palette, annotations)
            annotations.append(Annotation(class_id, box))
        img_name = f"img_{i:05d}.ppm"
        ann_name = f"img_{i:05d}.txt"
        write_ppm(out / img_name, np.clip(image, 0, 255).astype(np.uint8))
        save_annotations(out / ann_name, annotations)
        entries.append((img_name, ann_name))
    with open(out / INDEX_FILE, "w") as f:
        for img_name, ann_name in entries:
            f.write(f"{img_name} {ann_name}\n")
    return load_index(out)
