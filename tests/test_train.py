import contextlib
import logging
import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import robodet.data
from robodet.data import (
    BT601,
    Annotation,
    generate_toy_dataset,
    load_all_samples,
    load_index,
    rgb_to_yuv,
)
from robodet.detect import BBox, encode, sigmoid
from robodet.evaluate import evaluate
from robodet import train as train_mod
from robodet.model import (
    CLASS_NAMES,
    HEAD_HI,
    HEAD_LO,
    HEADS,
    build_robo,
    init_network,
    save_weights,
)
from robodet.train import (
    AdamState,
    LossWeights,
    TrainConfig,
    _epoch_batches,
    _layer_lr_scale,
    adam_step,
    augment,
    batch_detection_loss,
    colour_matrix,
    cosine_lr,
    finetune_pruned,
    parse_config,
    prune,
    train_loop,
    transfer_finetune,
)

from conftest import finite_difference, grad_error


def _tiny_net():
    net = init_network(build_robo(1), seed=0)
    net.anchors = np.array(
        [[0.06, 0.08], [0.07, 0.07], [0.03, 0.25], [0.12, 0.2]], dtype=np.float32
    )
    return net


@pytest.fixture
def tiny_net():
    return _tiny_net()


@pytest.fixture(scope="module")
def loss_net():
    """A tiny_net shared by the examples of a hypothesis property; read only."""
    return _tiny_net()


class TestCosineSchedule:
    def test_start_is_lr_max(self):
        assert cosine_lr(0, 1000, TrainConfig()) == pytest.approx(1e-3)

    def test_end_is_lr_min(self):
        assert cosine_lr(1000, 1000, TrainConfig()) == pytest.approx(5e-5)

    def test_midpoint(self):
        assert cosine_lr(500, 1000, TrainConfig()) == pytest.approx(5.25e-4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(5, 4, TrainConfig())

    @given(x=st.floats(1e-12, 1e3), total=st.integers(0, 10**6), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equal_ends_are_flat(self, x, total, data):
        # finetune_pruned's flat rate rests on this: the cosine term is 0.0.
        t = data.draw(st.integers(0, total))
        assert cosine_lr(t, total, TrainConfig(lr_max=x, lr_min=x)) == x


class TestAdam:
    def test_zero_grad_no_move(self):
        p = {"w": np.array([1.0, -2.0], dtype=np.float32)}
        state = AdamState(p)
        adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, state, 1e-3)
        np.testing.assert_array_equal(p["w"], [1.0, -2.0])
        assert state.t == 1

    def test_descent_direction(self):
        p = {"w": np.array([0.0], dtype=np.float32)}
        state = AdamState(p)
        for _ in range(20):
            adam_step(p, {"w": np.array([3.0], dtype=np.float32)}, state, 1e-2)
        assert p["w"][0] < 0  # moves opposite the (positive) gradient

    def test_quadratic_bowl_strictly_decreases(self):
        p = {"w": np.array([0.0], dtype=np.float64)}
        state = AdamState(p)
        losses = []
        for _ in range(10):
            losses.append(float((p["w"][0] - 3.0) ** 2))
            g = {"w": np.array([2.0 * (p["w"][0] - 3.0)])}
            adam_step(p, g, state, 5e-2)
        losses.append(float((p["w"][0] - 3.0) ** 2))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_masked_weights_pinned_to_zero(self):
        p = {"w": np.array([0.0, 1.0], dtype=np.float32)}
        mask = {"w": np.array([False, True])}
        state = AdamState(p)
        for _ in range(5):
            adam_step(p, {"w": np.array([1.0, 1.0], dtype=np.float32)}, state,
                      1e-2, masks=mask)
            assert p["w"][0] == 0.0
        assert p["w"][1] != 1.0

    def test_lr_scale(self):
        p = {"a": np.array([0.0]), "b": np.array([0.0])}
        state = AdamState(p)
        g = {"a": np.array([1.0]), "b": np.array([1.0])}
        adam_step(p, g, state, 1e-2, lr_scale={"a": 1.0, "b": 0.1})
        assert abs(p["b"][0]) == pytest.approx(abs(p["a"][0]) / 10, rel=1e-6)


# Frozen copy of the per-image loss and its batch wrapper as they stood
# before the loss was batched: batch_detection_loss must give bitwise-equal
# head gradients, the same collision warnings and the same loss up to float64
# summation order.  It logs to robodet.train, as it did.

_reference_logger = logging.getLogger("robodet.train")


def _reference_assign_targets(targets, spec, anchors):
    owner = {}
    for head in HEADS:
        for slot, class_id in enumerate(head.classes_owned):
            owner[class_id] = (head.name, slot)
    assigned = {}
    for class_id, box in targets:
        head_name, slot = owner[class_id]
        head = next(h for h in HEADS if h.name == head_name)
        (i, j), t = encode((class_id, box), anchors, spec.head_grid(head))
        key = (head_name, slot, i, j)
        if key in assigned:
            old_box, _ = assigned[key]
            _reference_logger.warning(
                "target collision: two '%s' boxes in cell (%d, %d) of %s; "
                "keeping the larger one",
                CLASS_NAMES[class_id], i, j, head_name,
            )
            if box.w * box.h <= old_box.w * old_box.h:
                continue
        assigned[key] = (box, t)
    return assigned


def _reference_l1_term(net):
    return float(sum(np.abs(layer.conv.weights).sum() for _, layer in net.all_layers()))


def reference_detection_loss(raw_lo, raw_hi, targets, net, lw):
    spec = net.spec
    assigned = _reference_assign_targets(targets, spec, net.anchors)
    raws = {HEAD_LO: raw_lo, HEAD_HI: raw_hi}
    grads = {}
    loss = lw.l1 * _reference_l1_term(net) if lw.l1 else 0.0
    for head in HEADS:
        raw = raws[head.name]
        grad = np.zeros_like(raw)
        to = raw[0, 4::5]
        sig_to = sigmoid(to)
        loss += lw.noobj * float(np.logaddexp(0.0, to).sum())
        grad[0, 4::5] = lw.noobj * sig_to
        for (hname, slot, i, j), (_box, t) in assigned.items():
            if hname != head.name:
                continue
            base = 5 * slot
            tx, ty, tw, th, t_o = (float(v) for v in raw[0, base : base + 5, i, j])
            sx, sy = sigmoid(tx), sigmoid(ty)
            txh, tyh, twh, thh = t
            loss += lw.coord * (
                (sx - txh) ** 2 + (sy - tyh) ** 2 + (tw - twh) ** 2 + (th - thh) ** 2
            )
            grad[0, base + 0, i, j] = lw.coord * 2 * (sx - txh) * sx * (1 - sx)
            grad[0, base + 1, i, j] = lw.coord * 2 * (sy - tyh) * sy * (1 - sy)
            grad[0, base + 2, i, j] = lw.coord * 2 * (tw - twh)
            grad[0, base + 3, i, j] = lw.coord * 2 * (th - thh)
            loss -= lw.noobj * float(np.logaddexp(0.0, t_o))
            loss += lw.obj * float(np.logaddexp(0.0, -t_o))
            s_o = float(sigmoid(t_o))
            grad[0, base + 4, i, j] = lw.obj * (s_o - 1.0)
        grads[head.name] = grad
    return loss, grads[HEAD_LO], grads[HEAD_HI]


def reference_batch_detection_loss(raw_lo, raw_hi, targets_per_image, net, lw):
    n = raw_lo.shape[0]
    grad_lo = np.zeros_like(raw_lo)
    grad_hi = np.zeros_like(raw_hi)
    total = 0.0
    l1 = lw.l1 * _reference_l1_term(net) if lw.l1 else 0.0
    for b in range(n):
        loss, glo, ghi = reference_detection_loss(
            raw_lo[b : b + 1], raw_hi[b : b + 1], targets_per_image[b],
            net, replace(lw, l1=0.0),
        )
        total += loss
        grad_lo[b] = glo[0]
        grad_hi[b] = ghi[0]
    return total / n + l1, grad_lo / n, grad_hi / n


class _CollisionRecords(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += record.getMessage().startswith("target collision")


def _loss_and_collisions(loss_fn, *args):
    handler = _CollisionRecords()
    logger = logging.getLogger("robodet.train")
    logger.addHandler(handler)
    try:
        out = loss_fn(*args)
    finally:
        logger.removeHandler(handler)
    return out, handler.count


_sizes = st.floats(0.01, 0.6)
_targets = st.tuples(
    st.integers(0, 3), st.builds(BBox, st.floats(0.0, 1.0), st.floats(0.0, 1.0), _sizes, _sizes)
)


@st.composite
def _loss_batches(draw):
    """Float32 heads of a robo k=1 batch and targets per image, some images
    empty; boxes are repeated with another (or the same) size into the same
    image, a collision, or into another image, which is none."""
    n = draw(st.integers(1, 4))
    heads = [
        draw(arrays(np.float32, (n, 10) + grid, elements=st.floats(-30, 30, width=32)))
        for grid in ((3, 4), (6, 8))
    ]
    images = [draw(st.lists(_targets, max_size=6)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        src = draw(st.integers(0, n - 1))
        if not images[src]:
            continue
        class_id, box = draw(st.sampled_from(images[src]))
        w = draw(st.one_of(st.just(box.w), _sizes))
        h = draw(st.one_of(st.just(box.h), _sizes))
        images[draw(st.integers(0, n - 1))].append((class_id, BBox(box.cx, box.cy, w, h)))
    return heads, images


class TestDetectionLoss:
    def test_no_targets_confident_negatives(self, tiny_net):
        raw_lo = np.zeros((1, 10, 3, 4))
        raw_hi = np.zeros((1, 10, 6, 8))
        raw_lo[0, 4::5] = -20.0
        raw_hi[0, 4::5] = -20.0
        lw = LossWeights(l1=0.0)
        loss, glo, ghi = batch_detection_loss(raw_lo, raw_hi, [[]], tiny_net, lw)
        assert loss < 1e-4
        lw = LossWeights(l1=1e-3)
        loss_l1, _, _ = batch_detection_loss(raw_lo, raw_hi, [[]], tiny_net, lw)
        assert loss_l1 > loss  # only the L1 term remains

    def test_perfect_prediction_near_zero(self, tiny_net):
        spec = tiny_net.spec
        target = (3, BBox(0.52, 0.5, 0.12, 0.2))
        head = HEADS[0]
        grid = spec.head_grid(head)
        (i, j), (tx, ty, tw, th) = encode(target, tiny_net.anchors, grid)
        raw_lo = np.full((1, 10, 3, 4), 0.0)
        raw_hi = np.zeros((1, 10, 6, 8))
        raw_lo[0, 4::5] = -20.0
        raw_hi[0, 4::5] = -20.0
        slot = head.classes_owned.index(3)
        base = 5 * slot
        raw_lo[0, base + 0, i, j] = math.log(tx / (1 - tx))
        raw_lo[0, base + 1, i, j] = math.log(ty / (1 - ty))
        raw_lo[0, base + 2, i, j] = tw
        raw_lo[0, base + 3, i, j] = th
        raw_lo[0, base + 4, i, j] = 20.0  # sigma -> 1
        loss, _, _ = batch_detection_loss(raw_lo, raw_hi, [[target]], tiny_net,
                                          LossWeights(l1=0.0))
        assert loss < 1e-4

    def test_gradient_matches_finite_differences(self, rng, tiny_net):
        targets = [[
            (0, BBox(0.3, 0.4, 0.05, 0.07)),
            (3, BBox(0.7, 0.6, 0.15, 0.22)),
            (1, BBox(0.15, 0.85, 0.06, 0.06)),
        ]]
        lw = LossWeights(l1=1e-4)
        raw_lo = rng.normal(0, 1, (1, 10, 3, 4))
        raw_hi = rng.normal(0, 1, (1, 10, 6, 8))
        _, glo, ghi = batch_detection_loss(raw_lo, raw_hi, targets, tiny_net, lw)

        fd_lo = finite_difference(
            lambda v: batch_detection_loss(v, raw_hi, targets, tiny_net, lw)[0], raw_lo
        )
        fd_hi = finite_difference(
            lambda v: batch_detection_loss(raw_lo, v, targets, tiny_net, lw)[0], raw_hi
        )
        assert grad_error(glo, fd_lo) < 1e-4
        assert grad_error(ghi, fd_hi) < 1e-4

    def test_same_cell_collision_keeps_larger(self, tiny_net, caplog):
        # two robots whose centers share a head_lo cell
        small = (3, BBox(0.51, 0.51, 0.05, 0.05))
        big = (3, BBox(0.6, 0.55, 0.3, 0.3))
        raw_lo = np.zeros((1, 10, 3, 4))
        raw_hi = np.zeros((1, 10, 6, 8))
        lw = LossWeights(l1=0.0)
        with caplog.at_level(logging.WARNING, logger="robodet.train"):
            loss_both, _, _ = batch_detection_loss(raw_lo, raw_hi, [[small, big]],
                                                   tiny_net, lw)
        assert "collision" in caplog.text
        loss_big, _, _ = batch_detection_loss(raw_lo, raw_hi, [[big]], tiny_net, lw)
        assert loss_both == pytest.approx(loss_big)

    def test_same_cell_in_two_images_is_no_collision(self, tiny_net, caplog):
        small = (3, BBox(0.51, 0.51, 0.05, 0.05))
        big = (3, BBox(0.6, 0.55, 0.3, 0.3))
        raw_lo = np.zeros((2, 10, 3, 4))
        raw_hi = np.zeros((2, 10, 6, 8))
        lw = LossWeights(l1=0.0)
        with caplog.at_level(logging.WARNING, logger="robodet.train"):
            loss, _, _ = batch_detection_loss(raw_lo, raw_hi, [[small], [big]], tiny_net, lw)
        assert "collision" not in caplog.text
        one = [batch_detection_loss(raw_lo[:1], raw_hi[:1], [t], tiny_net, lw)[0]
               for t in ([small], [big])]
        assert loss == pytest.approx(sum(one) / 2)

    def test_batch_loss_averages(self, rng, tiny_net):
        raw_lo = rng.normal(0, 1, (2, 10, 3, 4)).astype(np.float32)
        raw_hi = rng.normal(0, 1, (2, 10, 6, 8)).astype(np.float32)
        targets = [[(0, BBox(0.3, 0.4, 0.05, 0.07))], []]
        lw = LossWeights(l1=0.0)
        loss, glo, ghi = batch_detection_loss(raw_lo, raw_hi, targets, tiny_net, lw)
        a, ga, _ = batch_detection_loss(raw_lo[:1], raw_hi[:1], targets[:1], tiny_net, lw)
        b, gb, _ = batch_detection_loss(raw_lo[1:], raw_hi[1:], targets[1:], tiny_net, lw)
        assert loss == pytest.approx((a + b) / 2, rel=1e-6)
        np.testing.assert_allclose(glo[0], ga[0] / 2, rtol=1e-6)

    def test_weight_sum_skipped_at_zero_l1(self, rng, tiny_net, monkeypatch):
        calls = []
        original = train_mod._l1_term

        def counting(net):
            calls.append(net)
            return original(net)

        monkeypatch.setattr(train_mod, "_l1_term", counting)
        raw_lo = rng.normal(0, 1, (2, 10, 3, 4))
        raw_hi = rng.normal(0, 1, (2, 10, 6, 8))
        targets = [[(0, BBox(0.3, 0.4, 0.05, 0.07))], []]
        batch_detection_loss(raw_lo[:1], raw_hi[:1], targets[:1], tiny_net,
                             LossWeights(l1=0.0))
        batch_detection_loss(raw_lo, raw_hi, targets, tiny_net, LossWeights(l1=0.0))
        assert calls == []
        # A non-zero weight sums the weights once per batch, not once per image.
        batch_detection_loss(raw_lo, raw_hi, targets, tiny_net, LossWeights(l1=1e-3))
        assert len(calls) == 1

    @given(batch=_loss_batches(), lw=st.sampled_from([
        LossWeights(), LossWeights(l1=3e-3), LossWeights(coord=1.3, obj=0.7, noobj=2.0),
    ]))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, loss_net, batch, lw):
        (raw_lo, raw_hi), targets = batch
        (loss, glo, ghi), collisions = _loss_and_collisions(
            batch_detection_loss, raw_lo, raw_hi, targets, loss_net, lw)
        (want, want_lo, want_hi), want_collisions = _loss_and_collisions(
            reference_batch_detection_loss, raw_lo, raw_hi, targets, loss_net, lw)
        assert glo.dtype == want_lo.dtype and glo.tobytes() == want_lo.tobytes()
        assert ghi.dtype == want_hi.dtype and ghi.tobytes() == want_hi.tobytes()
        assert loss == pytest.approx(want, rel=1e-6)
        assert collisions == want_collisions


@contextlib.contextmanager
def augment_settings(flip_prob=train_mod.FLIP_PROB, jitter=train_mod.JITTER,
                     hue_max_deg=train_mod.HUE_MAX_DEG):
    """augment's draw ranges set to the given values while the block runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(train_mod, "FLIP_PROB", flip_prob)
        mp.setattr(train_mod, "JITTER", jitter)
        mp.setattr(train_mod, "HUE_MAX_DEG", hue_max_deg)
        yield


def hflip(image, boxes):
    """Frozen copy of the deleted `train.hflip`: the mirrored 8-bit image and
    box centres, as augment flipped them before it wrote YUV planes."""
    flipped = image[:, ::-1].copy()
    out = [Annotation(a.class_id, BBox(1.0 - a.box.cx, a.box.cy, a.box.w, a.box.h))
           for a in boxes]
    return flipped, out


def augment_planes(image, boxes, rng):
    """augment's YUV planes, in a fresh (3, h, w) array, and its boxes."""
    out = np.empty((3,) + image.shape[:2], np.float32)
    boxes = augment(image, boxes, rng, out)
    return out, boxes


def assert_yuv_of(planes, rgb8):
    """planes are the YUV of the 8-bit RGB image rgb8, bit for bit: augment
    maps its clipped and rounded colours to YUV as rgb_to_yuv does."""
    want = rgb_to_yuv(rgb8)
    assert planes.dtype == np.float32 and planes.shape == want.shape
    assert planes.tobytes() == want.tobytes()


# Float64 reference of augment's 8-bit image, written out step by step:
# brightness, contrast about the mean, then saturation and hue on each
# pixel's BT.601 chroma.  augment folds these into one float32 affine map,
# so the two agree within one 8-bit step.


def reference_augment(image, boxes, rng, flip_prob=0.5, jitter=0.25, hue_max_deg=18.0):
    if rng.random() < flip_prob:
        image, boxes = hflip(image, boxes)
    brightness = rng.uniform(1 - jitter, 1 + jitter)
    contrast = rng.uniform(1 - jitter, 1 + jitter)
    saturation = rng.uniform(1 - jitter, 1 + jitter)
    hue = np.radians(rng.uniform(-hue_max_deg, hue_max_deg))
    rgb = image.astype(np.float64) * brightness
    mean = rgb.mean()
    rgb = (rgb - mean) * contrast + mean
    a = np.array(BT601)
    y, u, v = np.moveaxis(rgb @ a.T, -1, 0)
    u, v = (saturation * (np.cos(hue) * u - np.sin(hue) * v),
            saturation * (np.sin(hue) * u + np.cos(hue) * v))
    rgb = np.stack([y, u, v], axis=-1) @ np.linalg.inv(a).T
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8), boxes


def augment_f_ordered(image, boxes, rng, flip_prob=0.5, jitter=0.25, hue_max_deg=18.0):
    """Frozen copy of `augment` as it was when it returned the flipped and
    jittered 8-bit image, and passed the colour matrix to matmul as an
    F-ordered transpose."""
    if rng.random() < flip_prob:
        image, boxes = hflip(image, boxes)
    brightness = rng.uniform(1 - jitter, 1 + jitter)
    contrast = rng.uniform(1 - jitter, 1 + jitter)
    saturation = rng.uniform(1 - jitter, 1 + jitter)
    hue_deg = rng.uniform(-hue_max_deg, hue_max_deg)
    matrix = colour_matrix(brightness, contrast, saturation, hue_deg)
    offset = (1 - contrast) * brightness * image.mean()
    out = image.astype(np.float32) @ matrix.T.astype(np.float32)
    out += np.float32(offset)
    np.clip(out, 0, 255, out=out)
    return np.rint(out, out=out).astype(np.uint8), boxes


def assert_augment_matches_reference(image, seed, **kw):
    """The frozen 8-bit copy is within one 8-bit step of the float64
    reference, and augment's planes are its YUV."""
    boxes = [Annotation(0, BBox(0.3, 0.4, 0.1, 0.2))]
    want8, want8_boxes = augment_f_ordered(image, boxes, np.random.default_rng(seed), **kw)
    want, want_boxes = reference_augment(image, boxes, np.random.default_rng(seed), **kw)
    assert want8.dtype == np.uint8 and want8.shape == image.shape
    assert np.abs(want8.astype(int) - want).max(initial=0) <= 1
    assert want8_boxes == want_boxes
    with augment_settings(**kw):
        got, got_boxes = augment_planes(image, boxes, np.random.default_rng(seed))
    assert_yuv_of(got, want8)
    assert got_boxes == want_boxes


def _solid(*rgb):
    return np.broadcast_to(np.array(rgb, dtype=np.uint8), (6, 5, 3)).copy()


class _Draws:
    """Stands in for augment's rng: no flip, then the given brightness,
    contrast, saturation and hue (degrees), in augment's draw order."""

    def __init__(self, brightness, contrast, saturation, hue_deg):
        self._draws = [brightness, contrast, saturation, hue_deg]

    def random(self):
        return 1.0

    def uniform(self, low, high):
        return self._draws.pop(0)


def augment_both(image, *draws):
    """(augment's planes, the frozen copy's 8-bit image) for the draws."""
    planes, _ = augment_planes(image, [], _Draws(*draws))
    want8, _ = augment_f_ordered(image, [], _Draws(*draws))
    assert_yuv_of(planes, want8)
    return planes, want8


_GREYS = np.stack([_solid(v, v, v)[0] for v in (0, 1, 77, 128, 200, 254, 255)])
_SATURATIONS = st.floats(0.0, 2.0)
_HUES = st.floats(-180.0, 180.0)


class TestColourMatrix:
    def test_identity_at_neutral_parameters(self):
        np.testing.assert_array_equal(colour_matrix(1.0, 1.0, 1.0, 0.0), np.eye(3))

    def test_bt601_maps_grey_to_zero_chroma(self):
        np.testing.assert_allclose(np.array(BT601).sum(axis=1), [1.0, 0.0, 0.0],
                                   rtol=0, atol=1e-15)

    @given(saturation=_SATURATIONS, hue_deg=_HUES)
    @settings(deadline=None)
    def test_grey_is_unchanged_by_saturation_and_hue(self, saturation, hue_deg):
        m = colour_matrix(1.0, 1.0, saturation, hue_deg)
        np.testing.assert_allclose(m @ np.ones(3), np.ones(3), rtol=0, atol=1e-12)
        _, out = augment_both(_GREYS, 1.0, 1.0, saturation, hue_deg)
        np.testing.assert_array_equal(out, _GREYS)

    @given(hue_deg=_HUES, brightness=st.floats(0.5, 1.5), contrast=st.floats(0.5, 1.5),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_zero_saturation_gives_grey(self, hue_deg, brightness, contrast, seed):
        m = colour_matrix(brightness, contrast, 0.0, hue_deg)
        np.testing.assert_allclose(m, m[[0, 0, 0]], rtol=0, atol=1e-12)
        image = np.random.default_rng(seed).integers(0, 256, (8, 8, 3), dtype=np.uint8)
        _, out = augment_both(image, brightness, contrast, 0.0, hue_deg)
        assert np.abs(np.diff(out.astype(int), axis=-1)).max() <= 1

    @given(saturation=_SATURATIONS, hue_deg=_HUES)
    @settings(deadline=None)
    def test_saturation_and_hue_keep_luma(self, saturation, hue_deg):
        luma = np.array(BT601[0])
        m = colour_matrix(1.0, 1.0, saturation, hue_deg)
        np.testing.assert_allclose(luma @ m, luma, rtol=0, atol=1e-12)

    @given(saturation=st.floats(0.0, 1.25), hue_deg=_HUES, seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_augment_keeps_luma_within_rounding(self, saturation, hue_deg, seed):
        # Mid-range colours stay inside [0, 255] at any hue and this
        # saturation, so only the rounding of each channel moves the luma.
        image = np.random.default_rng(seed).integers(96, 161, (8, 8, 3), dtype=np.uint8)
        planes, out = augment_both(image, 1.0, 1.0, saturation, hue_deg)
        luma = np.array(BT601[0])
        assert np.abs(out @ luma - image @ luma).max() <= 0.5 + 1e-4
        assert np.abs(planes[0] * 255 - image @ luma).max() <= 0.5 + 1e-3

    @given(hue_deg=_HUES)
    @settings(deadline=None)
    def test_hue_rotation_then_its_inverse_is_identity(self, hue_deg):
        there = colour_matrix(1.0, 1.0, 1.0, hue_deg)
        back = colour_matrix(1.0, 1.0, 1.0, -hue_deg)
        np.testing.assert_allclose(back @ there, np.eye(3), rtol=0, atol=1e-12)


class TestAugment:
    def test_flip_is_involution(self, rng):
        img = rng.integers(0, 256, (24, 32, 3), dtype=np.uint8)
        boxes = [Annotation(0, BBox(0.3, 0.4, 0.1, 0.1))]
        with augment_settings(flip_prob=1.0, jitter=0.0, hue_max_deg=0.0):
            once, boxes1 = augment_planes(img, boxes, np.random.default_rng(0))
            twice, boxes2 = augment_planes(img[:, ::-1], boxes1, np.random.default_rng(0))
        assert_yuv_of(once, img[:, ::-1])
        assert_yuv_of(twice, img)
        assert boxes2[0].box.cx == pytest.approx(boxes[0].box.cx)
        assert boxes2[0].box == BBox(boxes2[0].box.cx, 0.4, 0.1, 0.1)

    def test_flip_moves_cx(self, rng):
        img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        with augment_settings(flip_prob=1.0):
            _, boxes = augment_planes(img, [Annotation(1, BBox(0.3, 0.4, 0.1, 0.2))],
                                      np.random.default_rng(0))
        assert boxes[0].box.cx == pytest.approx(0.7)
        assert boxes[0].box.cy == pytest.approx(0.4)

    def test_identity_when_disabled(self, rng):
        img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        boxes = [Annotation(2, BBox(0.5, 0.5, 0.2, 0.2))]
        with augment_settings(flip_prob=0.0, jitter=0.0, hue_max_deg=0.0):
            out, boxes2 = augment_planes(img, boxes, np.random.default_rng(0))
        assert_yuv_of(out, img)
        assert boxes2 == boxes

    def test_photometric_keeps_box_geometry(self, rng):
        img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        boxes = [Annotation(2, BBox(0.5, 0.5, 0.2, 0.2))]
        with augment_settings(flip_prob=0.0):
            _, boxes2 = augment_planes(img, boxes, np.random.default_rng(1))
        assert boxes2[0].box.w == pytest.approx(0.2)
        assert boxes2[0].box.h == pytest.approx(0.2)

    def test_output_stays_uint8(self, rng):
        # The jittered colours are still clipped and rounded to 8 bits before
        # the YUV map: mapped back to RGB, the planes are integers in [0, 255].
        img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
        out, _ = augment_planes(img, [], np.random.default_rng(2))
        rgb = np.linalg.solve(np.array(BT601), out.reshape(3, -1) - [[0.0], [0.5], [0.5]])
        rgb *= 255
        assert np.abs(rgb - np.rint(rgb)).max() <= 1e-3
        assert rgb.min() >= -1e-3 and rgb.max() <= 255 + 1e-3

    def test_deterministic_per_seed(self, rng):
        img = rng.integers(0, 256, (16, 24, 3), dtype=np.uint8)
        boxes = [Annotation(1, BBox(0.3, 0.4, 0.1, 0.2))]
        a, boxes_a = augment_planes(img, boxes, np.random.default_rng(5))
        b, boxes_b = augment_planes(img, boxes, np.random.default_rng(5))
        assert a.tobytes() == b.tobytes()
        assert boxes_a == boxes_b
        c, _ = augment_planes(img, boxes, np.random.default_rng(6))
        assert not np.array_equal(a, c)

    @given(
        image=arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3))),
        seed=st.integers(0, 2**32 - 1),
        jitter=st.floats(0.0, 0.9),
        hue_max_deg=st.floats(0.0, 180.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, image, seed, jitter, hue_max_deg):
        assert_augment_matches_reference(image, seed, jitter=jitter, hue_max_deg=hue_max_deg)

    @pytest.mark.parametrize("image", [
        _solid(0, 0, 0),
        _solid(255, 255, 255),
        np.stack([_solid(v, v, v)[0] for v in (0, 1, 77, 128, 200, 254)]),
        np.stack([_solid(255, 0, 0)[0], _solid(0, 255, 0)[0], _solid(0, 0, 255)[0]]),
    ], ids=["black", "white", "greys", "pure_rgb"])
    @pytest.mark.parametrize("jitter, hue_max_deg", [(0.25, 18.0), (0.9, 180.0)])
    def test_matches_reference_on_edge_colours(self, image, jitter, hue_max_deg):
        for seed in range(20):
            assert_augment_matches_reference(image, seed, jitter=jitter,
                                             hue_max_deg=hue_max_deg)

    def test_matches_reference_on_full_size_images(self, micro_dataset):
        images = [image for image, _ in load_all_samples(micro_dataset)][:4]
        noise = np.random.default_rng(0)
        images += [noise.integers(0, 256, (192, 256, 3), dtype=np.uint8) for _ in range(4)]
        for k, image in enumerate(images):
            assert_augment_matches_reference(image, k)
            assert_augment_matches_reference(image, k, jitter=0.9, hue_max_deg=180.0)


def test_augment_bitwise_equals_yuv_of_f_ordered_copy(micro_dataset):
    # augment's planes against the YUV of the frozen copy's 8-bit image:
    # the same draws, the same flip and boxes, the same clipped and rounded
    # colours and the same YUV map, so the planes match bit for bit.
    images = [image for image, _ in load_all_samples(micro_dataset)][:3]
    images += [np.random.default_rng(0).integers(0, 256, (192, 256, 3), dtype=np.uint8),
               np.random.default_rng(1).integers(0, 256, (7, 11, 3), dtype=np.uint8), _GREYS]
    boxes = [Annotation(0, BBox(0.3, 0.4, 0.1, 0.2))]
    for image in images:
        for seed in range(6):
            for kw in ({}, {"jitter": 0.9, "hue_max_deg": 180.0}):
                with augment_settings(**kw):
                    got, got_boxes = augment_planes(image, boxes, np.random.default_rng(seed))
                want, want_boxes = augment_f_ordered(image, boxes, np.random.default_rng(seed),
                                                     **kw)
                assert_yuv_of(got, want)
                assert got_boxes == want_boxes


def test_make_batch_writes_each_image_into_its_slot(micro_dataset):
    images, targets = train_mod._load_dataset(micro_dataset)
    ids = np.array([5, 0, 3])
    x, batch_targets = train_mod._make_batch(images, targets, ids, np.random.default_rng(4),
                                             augment_data=True)
    assert x.dtype == np.float32 and x.shape == (3, 3) + images[0].shape[:2]
    draws = np.random.default_rng(4)
    for slot, i, got_boxes in zip(x, ids, batch_targets):
        want, want_boxes = augment_f_ordered(images[i], targets[i], draws)
        assert_yuv_of(slot, want)
        assert got_boxes == want_boxes
    x, batch_targets = train_mod._make_batch(images, targets, ids, None, augment_data=False)
    for slot, i, got_boxes in zip(x, ids, batch_targets):
        assert slot.tobytes() == rgb_to_yuv(images[i]).tobytes()
        assert got_boxes is targets[i]


class TestPrune:
    def test_spec_example(self, tiny_net):
        layer = tiny_net.layers[0]
        layer.conv.weights.flat[:3] = [1.0, 0.005, -0.02]
        layer.conv.weights.flat[3:] = 0.5
        report = prune(tiny_net, 0.01)
        w = layer.conv.weights
        assert w.flat[0] == 1.0
        assert w.flat[1] == 0.0  # |0.005| < 0.01 * 1.0
        assert w.flat[2] == -0.02

    def test_theta_tiny_prunes_nothing(self, tiny_net):
        report = prune(tiny_net, 1e-12)
        assert report.total == 0.0

    def test_matches_brute_force_scan(self, rng, tiny_net):
        report = prune(tiny_net, 0.05)
        for name, layer in tiny_net.all_layers():
            w = layer.conv.weights
            top = np.abs(w).max()
            # weights were already zeroed; the mask must match the scan that
            # used the pre-zeroed values, which pruning preserves in `w`
            scan = np.abs(w) >= 0.05 * top if top > 0 else np.zeros_like(w, bool)
            keep_scan = int(scan.sum())
            assert keep_scan == int(layer.mask.sum())

    def test_all_zero_layer_warns(self, tiny_net):
        tiny_net.layers[3].conv.weights[:] = 0.0
        with pytest.warns(UserWarning, match="all zero"):
            report = prune(tiny_net, 0.01)
        assert report.per_layer["l4"] == 1.0

    def test_bad_theta(self, tiny_net):
        with pytest.raises(ValueError):
            prune(tiny_net, 0.0)


# The source name that parse_config puts in its errors.
CONFIG = "c.cfg"


class TestConfigFile:
    def test_round_trip(self):
        text = (
            "lr_max=0.002\nlr_min=1e-05\nepochs=25\nbatch=16\nfinetune_epochs=3\n"
            "finetune_lr=2e-05\nseed=9\ntransfer_layers=5\n"
            "transfer_lr_factor=4.0\n"
            "lambda_coord=4.0\nlambda_obj=2.0\nlambda_noobj=0.25\nlambda_l1=0.001\n"
        )
        keys = {line.split("=")[0] for line in text.splitlines()}
        assert keys == {f.name for f in fields(TrainConfig)} | set(train_mod._LOSS_KEYS)
        cfg, lw = parse_config(text, CONFIG)
        assert cfg == TrainConfig(
            lr_max=0.002, lr_min=1e-5, epochs=25, batch=16, finetune_epochs=3,
            finetune_lr=2e-5, seed=9, transfer_layers=5,
            transfer_lr_factor=4.0,
        )
        assert lw == LossWeights(coord=4.0, obj=2.0, noobj=0.25, l1=1e-3)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("warmup_epochs=3\n", CONFIG)

    # `<file>:<line>: `, as the index, annotation and anchor readers write it.
    @pytest.mark.parametrize("text, prefix", [
        ("epochs=abc\n", "c.cfg:1: epochs: invalid literal"),
        ("lr_max=\n", "c.cfg:1: lr_max: could not convert"),
        ("lambda_l1=x\n", "c.cfg:1: lambda_l1: could not convert"),
        ("epochs=5\n\n# note\nbatch=1.5\n", "c.cfg:4: batch: invalid literal"),
        ("epochs=5\nepochs\n", "c.cfg:2: expected key=value"),
        ("warmup_epochs=3\n", "c.cfg:1: unknown config key 'warmup_epochs'"),
    ])
    def test_bad_value_names_line_and_key(self, text, prefix):
        with pytest.raises(ValueError) as info:
            parse_config(text, CONFIG)
        assert str(info.value).startswith(prefix)

    @pytest.mark.parametrize("text", ["batch=0\n", "lr_min=1\nlr_max=0.1\n",
                                      "lambda_obj=-1\n"])
    def test_bad_value_in_range_names_the_source(self, text):
        with pytest.raises(ValueError) as info:
            parse_config(text, CONFIG)
        assert str(info.value).startswith("c.cfg: ")

    @pytest.mark.parametrize("field", ["coord", "obj", "noobj", "l1"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1.0])
    def test_loss_weights_must_be_finite_and_non_negative(self, field, value):
        with pytest.raises(ValueError, match=f"loss weight {field} must be finite"):
            LossWeights(**{field: value})
        with pytest.raises(ValueError, match=f"loss weight {field} must be finite"):
            parse_config(f"lambda_{field}={value}\n", CONFIG)

    def test_loss_weights_accept_zero(self):
        assert LossWeights(coord=0.0, obj=0.0, noobj=0.0, l1=0.0).l1 == 0.0

    def test_comments_and_blanks(self):
        cfg, lw = parse_config("# comment\n\nepochs=7\nlambda_l1=0.01\n", CONFIG)
        assert cfg.epochs == 7
        assert lw.l1 == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_min=1.0, lr_max=0.1)
        with pytest.raises(ValueError):
            LossWeights(coord=-1)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 0), ("batch", 0), ("batch", -3), ("finetune_epochs", -1),
        ("transfer_lr_factor", 0.0), ("transfer_lr_factor", -10.0),
        ("transfer_lr_factor", float("inf")), ("transfer_lr_factor", float("nan")),
        ("lr_max", float("nan")), ("lr_max", float("inf")), ("lr_max", 0.0), ("lr_max", -1.0),
        ("lr_min", float("nan")), ("lr_min", -1e-4),
        ("finetune_lr", float("nan")), ("finetune_lr", 0.0), ("finetune_lr", float("-inf")),
        ("seed", -1),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            parse_config(f"{field}={value}\n", CONFIG)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fuzz_raises_only_value_error(self, data):
        keys = [f.name for f in fields(TrainConfig)] + list(train_mod._LOSS_KEYS)
        values = ["0", "1", "-1", "3", "0.5", "1e-3", "1e400", "nan", "-inf", "None",
                  "x", "", "1_0", "0x10"]
        line = st.tuples(st.sampled_from(keys + ["", "epochs ", "bogus"]),
                         st.sampled_from(["=", "==", " = ", ":"]),
                         st.sampled_from(values)).map("".join)
        valid = "epochs=3\nbatch=2\nlr_max=0.01\nlambda_l1=0.001\n"
        text = data.draw(st.one_of(
            st.text(max_size=64),
            st.lists(line, max_size=6).map("\n".join),
            st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        ))
        try:
            cfg, lw = parse_config(text, CONFIG)
        except ValueError as exc:
            assert str(exc).startswith("c.cfg:")
        else:
            assert isinstance(cfg, TrainConfig) and isinstance(lw, LossWeights)

    def test_accepts_boundaries(self):
        cfg = TrainConfig(epochs=1, batch=1, finetune_epochs=0, transfer_lr_factor=0.5,
                          lr_min=0.0)
        assert (cfg.epochs, cfg.batch, cfg.finetune_epochs, cfg.lr_min) == (1, 1, 0, 0.0)


def test_epoch_batches_cover_dataset(rng):
    for n, batch in ((10, 3), (16, 16), (7, 10), (500, 16)):
        batches = _epoch_batches(n, batch, rng)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(n))
        assert all(len(b) <= batch for b in batches)


@pytest.fixture(scope="module")
def micro_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("micro")
    return generate_toy_dataset(24, "A", seed=3, out_dir=root)


def micro_cfg(**kw):
    base = dict(epochs=2, batch=8, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_seed_determinism(self, micro_dataset):
        runs = []
        for _ in range(2):
            net = init_network(build_robo(1), seed=2)
            metrics = train_loop(net, micro_dataset, micro_cfg(), LossWeights())
            runs.append([m["loss"] for m in metrics])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("l1", [0.0, 3e-3])
    def test_weights_match_reference_loss(self, micro_dataset, tmp_path, monkeypatch, l1):
        saved = []
        for loss_fn in (batch_detection_loss, reference_batch_detection_loss):
            monkeypatch.setattr(train_mod, "batch_detection_loss", loss_fn)
            net = init_network(build_robo(1), seed=2)
            train_loop(net, micro_dataset, micro_cfg(), LossWeights(l1=l1))
            path = tmp_path / f"{loss_fn.__name__}.rbw"
            save_weights(net, path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

    def test_forward_starts_without_last_steps_arrays(self, micro_dataset, monkeypatch):
        # One training step holds one forward cache: when a step's forward
        # begins, no array of the last step's batch or cache is alive.
        forward = train_mod.forward_with_cache
        last_step, alive_at_entry = [], []

        def spy(net, x):
            alive_at_entry.append(sum(ref() is not None for ref in last_step))
            (lo, hi), cache = out = forward(net, x)
            arrays = [x, lo, hi, *cache["taps"].values()]
            for entry in cache["layers"]:
                for value in entry.values():
                    arrays += value if isinstance(value, tuple) else [value]
            last_step[:] = [weakref.ref(a) for a in arrays if isinstance(a, np.ndarray)]
            return out

        monkeypatch.setattr(train_mod, "forward_with_cache", spy)
        net = init_network(build_robo(1), seed=2)
        train_loop(net, micro_dataset, micro_cfg(), LossWeights())
        assert len(last_step) > 50
        assert alive_at_entry == [0] * 6

    def test_loss_decreases_on_micro_run(self, micro_dataset):
        net = init_network(build_robo(1), seed=2)
        metrics = train_loop(net, micro_dataset, micro_cfg(epochs=6), LossWeights())
        assert metrics[-1]["loss"] < metrics[0]["loss"]

    def test_metrics_log_csv(self, micro_dataset, tmp_path):
        net = init_network(build_robo(1), seed=2)
        log = tmp_path / "log.csv"
        train_loop(net, micro_dataset, micro_cfg(), LossWeights(), log_path=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split(",")) == 4

    def test_finetune_keeps_masks_zero(self, micro_dataset):
        net = init_network(build_robo(1), seed=2)
        train_loop(net, micro_dataset, micro_cfg(), LossWeights())
        report = prune(net, 0.3)
        assert report.total > 0.05
        cfg = micro_cfg(finetune_epochs=2)
        finetune_pruned(net, micro_dataset, cfg, LossWeights())
        for _, layer in net.all_layers():
            assert np.all(layer.conv.weights[~layer.mask] == 0.0)

    def test_finetune_is_train_loop_at_constant_rate(self, micro_dataset, tmp_path,
                                                     monkeypatch):
        # Oracle: the former constant-rate mode, train_loop for
        # finetune_epochs with every step at finetune_lr.
        cfg = micro_cfg(finetune_epochs=2, finetune_lr=3e-4)
        saved = []
        for oracle in (False, True):
            net = init_network(build_robo(1), seed=2)
            prune(net, 0.3)
            if oracle:
                monkeypatch.setattr(train_mod, "cosine_lr", lambda t, total, c: c.finetune_lr)
                train_loop(net, micro_dataset, replace(cfg, epochs=cfg.finetune_epochs),
                           LossWeights(l1=3e-3))
            else:
                finetune_pruned(net, micro_dataset, cfg, LossWeights(l1=3e-3))
            path = tmp_path / f"{oracle}.rbw"
            save_weights(net, path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

    def test_zero_finetune_epochs_reads_nothing(self, tmp_path):
        data = generate_toy_dataset(2, "A", seed=0, out_dir=tmp_path / "d")
        image = tmp_path / "d" / data.entries[0][0]
        image.write_bytes(image.read_bytes()[:-10])
        net = init_network(build_robo(1), seed=2)
        prune(net, 0.3)
        before = tmp_path / "before.rbw"
        after = tmp_path / "after.rbw"
        save_weights(net, before)
        assert finetune_pruned(net, data, micro_cfg(finetune_epochs=0), LossWeights()) is net
        save_weights(net, after)
        assert after.read_bytes() == before.read_bytes()

    def test_annotations_are_read_once_by_load_index(self, tmp_path, monkeypatch):
        generate_toy_dataset(3, "A", seed=0, out_dir=tmp_path)
        read = []
        load_annotations = robodet.data.load_annotations

        def spy(path):
            read.append(path)
            return load_annotations(path)

        monkeypatch.setattr(robodet.data, "load_annotations", spy)
        index = load_index(tmp_path)
        assert len(read) == len(index)
        net = _tiny_net()
        evaluate(net, index)
        train_loop(net, index, micro_cfg(epochs=1), LossWeights())
        assert len(read) == len(index)

    def test_layer_lr_scale_by_position(self):
        net = init_network(build_robo(1), seed=0)
        scale = _layer_lr_scale(net, 4, 10.0)
        names = [name for name, _ in net.all_layers()]
        assert len(names) == 17
        for position, name in enumerate(names):
            assert scale[name + ".w"] == (1.0 if position < 4 else 0.1), name

    def test_finetune_changes_unmasked(self, micro_dataset):
        net = init_network(build_robo(1), seed=2)
        prune(net, 0.2)
        before = net.layers[5].conv.weights.copy()
        finetune_pruned(net, micro_dataset, micro_cfg(finetune_epochs=1),
                        LossWeights())
        after = net.layers[5].conv.weights
        changed = (before != after) & net.layers[5].mask
        assert changed.any()

    def test_transfer_lr_scaling_moves_early_layers_more(self, micro_dataset):
        slow = init_network(build_robo(1), seed=2)
        fast = init_network(build_robo(1), seed=2)
        cfg0 = micro_cfg(transfer_layers=0)
        cfg5 = micro_cfg(transfer_layers=5)
        transfer_finetune(slow, micro_dataset, cfg0, LossWeights())
        transfer_finetune(fast, micro_dataset, cfg5, LossWeights())
        def shift(net_a, net_b, idx):
            ref = init_network(build_robo(1), seed=2)
            da = np.abs(net_a.layers[idx].conv.weights - ref.layers[idx].conv.weights).mean()
            db = np.abs(net_b.layers[idx].conv.weights - ref.layers[idx].conv.weights).mean()
            return da, db
        s0, f0 = shift(slow, fast, 0)
        assert f0 > s0  # layer 1 trains at full rate only in the k_t=5 run

    def test_transfer_requires_k(self, micro_dataset):
        net = init_network(build_robo(1), seed=2)
        with pytest.raises(ValueError, match="transfer_layers"):
            transfer_finetune(net, micro_dataset, micro_cfg(), LossWeights())

    def test_l1_increases_small_weight_fraction(self, micro_dataset):
        frac = {}
        for l1 in (0.0, 3e-3):
            net = init_network(build_robo(1), seed=2)
            train_loop(net, micro_dataset, micro_cfg(epochs=4), LossWeights(l1=l1))
            small = total = 0
            for _, layer in net.all_layers():
                w = layer.conv.weights
                small += int((np.abs(w) < 0.01 * np.abs(w).max()).sum())
                total += w.size
            frac[l1] = small / total
        assert frac[3e-3] > frac[0.0]

    def test_l1_shrinks_every_layer(self, micro_dataset, monkeypatch):
        # With zero head gradients, only the L1 term moves the weights.
        def l1_only(raw_lo, raw_hi, targets, net, lw):
            return 0.0, np.zeros_like(raw_lo), np.zeros_like(raw_hi)

        monkeypatch.setattr(train_mod, "batch_detection_loss", l1_only)
        net = init_network(build_robo(1), seed=2)
        before = {name: np.abs(layer.conv.weights).sum() for name, layer in net.all_layers()}
        train_loop(net, micro_dataset, micro_cfg(epochs=1), LossWeights(l1=1e-3))
        for name, layer in net.all_layers():
            assert np.abs(layer.conv.weights).sum() < before[name], name
