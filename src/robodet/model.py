"""ROBO detector family: declarative layer tables, network instantiation,
forward/backward passes, and the binary weight format.

Layer indices are 1-based along the backbone; the two detection heads are
1x1 convolutions tapping intermediate feature maps and are handled
separately from the backbone list.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .tensor import (
    BatchNormParams,
    ConvParams,
    ShapeError,
    batch_norm,
    batch_norm_backward,
    conv2d_backward,
    conv2d_forward,
    leaky_relu,
    leaky_relu_backward,
)

CLASS_NAMES = ("ball", "crossing", "goalpost", "robot")
HEAD_LO = "head_lo"
HEAD_HI = "head_hi"

# (height, width) of the k=1 input, which ModelSpec.input_hw scales by k and
# data.generate_toy_dataset renders.
BASE_INPUT_HW = (192, 256)

WEIGHT_MAGIC = b"ROBO"
WEIGHT_VERSION = 1

# The anchor sizes a float32 table holds as finite, positive (normal) numbers.
ANCHOR_MIN = float(np.finfo(np.float32).tiny)
ANCHOR_MAX = float(np.finfo(np.float32).max)


class WeightFormatError(ValueError):
    """Base error for weight file problems."""


class BadMagicError(WeightFormatError):
    pass


class VersionError(WeightFormatError):
    pass


class TruncatedFileError(WeightFormatError):
    pass


class SpecMismatchError(WeightFormatError):
    pass


@dataclass(frozen=True)
class LayerSpec:
    kernel: int
    stride: int
    in_ch: int
    out_ch: int
    # The leaky ReLU goes by role: every backbone layer has it, and no head
    # does. This copy of the role stays only while perfbench/reference.py
    # reads it (ROADMAP item 3).
    activation: str = "leaky"  # leaky | linear
    tap: str | None = None  # head_lo | head_hi


@dataclass(frozen=True)
class HeadSpec:
    name: str
    classes_owned: tuple[int, int]

    @property
    def channels(self) -> int:
        return 5 * len(self.classes_owned)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    k: int
    layers: tuple[LayerSpec, ...]

    @property
    def input_hw(self) -> tuple[int, int]:
        """(height, width): k times BASE_INPUT_HW."""
        return tuple(side * self.k for side in BASE_INPUT_HW)

    @property
    def total_stride(self) -> int:
        return math.prod(layer.stride for layer in self.layers)

    def head_source(self, head: HeadSpec) -> int:
        """1-based position of the backbone layer whose tap feeds head."""
        return next(i for i, l in enumerate(self.layers, start=1) if l.tap == head.name)

    def head_grid(self, head: HeadSpec) -> tuple[int, int]:
        s = math.prod(layer.stride for layer in self.layers[: self.head_source(head)])
        return self.input_hw[0] // s, self.input_hw[1] // s


# Canonical ROBO backbone: (kernel, stride, in_ch, out_ch) per layer.
_ROBO_BACKBONE = (
    (3, 2, 3, 4),
    (3, 2, 4, 8),
    (3, 2, 8, 16),
    (3, 1, 16, 16),
    (3, 2, 16, 32),
    (3, 1, 32, 32),
    (3, 2, 32, 64),
    (3, 1, 64, 64),
    (3, 1, 64, 64),
    (3, 2, 64, 128),
    (3, 1, 128, 128),
    (1, 1, 128, 256),
    (1, 1, 256, 256),
    (1, 1, 256, 256),
    (1, 1, 256, 256),
)
_ROBO_TAP_HI = 9
_ROBO_TAP_LO = 15

# The heads of every model, in (lo, hi) order, with the classes each owns:
# the low-resolution head predicts the large object classes, the
# higher-resolution one the small classes.
HEADS = (
    HeadSpec(HEAD_LO, (2, 3)),  # goalpost, robot
    HeadSpec(HEAD_HI, (0, 1)),  # ball, crossing
)


def _validate(spec: ModelSpec) -> ModelSpec:
    for i, (prev, cur) in enumerate(zip(spec.layers, spec.layers[1:]), start=2):
        if prev.out_ch != cur.in_ch:
            raise ValueError(
                f"layer {i} in_ch {cur.in_ch} does not chain from "
                f"layer {i - 1} out_ch {prev.out_ch}"
            )
    for i, layer in enumerate(spec.layers, start=1):
        if layer.stride == 2 and layer.out_ch <= layer.in_ch:
            raise ValueError(
                f"strided layer {i} must increase channels "
                f"({layer.in_ch} -> {layer.out_ch})"
            )
    taps = {l.tap for l in spec.layers if l.tap}
    if taps != {h.name for h in HEADS}:
        raise ValueError(f"expected exactly one tap per head, got {taps}")
    h, w = spec.input_hw
    if h % spec.total_stride or w % spec.total_stride:
        raise ValueError(
            f"input {h}x{w} not divisible by total stride {spec.total_stride}"
        )
    return spec


def _make_layers(rows, tap_hi: int, tap_lo: int) -> tuple[LayerSpec, ...]:
    layers = []
    for idx, (k, s, ci, co) in enumerate(rows, start=1):
        tap = HEAD_HI if idx == tap_hi else HEAD_LO if idx == tap_lo else None
        layers.append(LayerSpec(k, s, ci, co, tap=tap))
    return tuple(layers)


def build_robo(k: int = 2) -> ModelSpec:
    """The 15-conv ROBO backbone at input resolution k*64*(4x3)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    layers = _make_layers(_ROBO_BACKBONE, _ROBO_TAP_HI, _ROBO_TAP_LO)
    return _validate(ModelSpec("robo", k, layers))


def build_robo_hr(k: int = 1) -> ModelSpec:
    """Low-resolution ROBO variant: first strided conv removed, input fixed
    at BASE_INPUT_HW so the head grids match ROBO at k=2: k=1 only."""
    if k != 1:
        h, w = BASE_INPUT_HW
        raise ValueError(f"robo_hr has a fixed {h}x{w} input; k must be 1, got {k}")
    rows = [(3, 2, 3, 8)] + [list(r) for r in _ROBO_BACKBONE[2:]]
    layers = _make_layers(rows, _ROBO_TAP_HI - 1, _ROBO_TAP_LO - 1)
    return _validate(ModelSpec("robo_hr", 1, layers))


def build_robo_bn(k: int = 2) -> ModelSpec:
    """Bottleneck variant: every channel width doubled, with a 1x1 conv
    halving the input of each 3x3 conv whose input width exceeds 64."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    rows = []
    tap_hi = tap_lo = None
    for idx, (kk, s, ci, co) in enumerate(_ROBO_BACKBONE, start=1):
        ci2 = 3 if idx == 1 else ci * 2
        co2 = co * 2
        if kk == 3 and ci2 > 64:
            rows.append((1, 1, ci2, ci2 // 2))
            ci2 //= 2
        rows.append((kk, s, ci2, co2))
        if idx == _ROBO_TAP_HI:
            tap_hi = len(rows)
        elif idx == _ROBO_TAP_LO:
            tap_lo = len(rows)
    layers = _make_layers(rows, tap_hi, tap_lo)
    return _validate(ModelSpec("robo_bn", k, layers))


_BUILDERS = {"robo": build_robo, "robo_bn": build_robo_bn, "robo_hr": build_robo_hr}


def build_spec(name: str, k: int | None = None) -> ModelSpec:
    """The named model at multiplier k; k=None takes the builder's default."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}") from None
    return builder() if k is None else builder(k)


def head_layer_spec(spec: ModelSpec, head: HeadSpec) -> LayerSpec:
    """The implicit 1x1 linear conv realizing a detection head."""
    src_ch = spec.layers[spec.head_source(head) - 1].out_ch
    return LayerSpec(1, 1, src_ch, head.channels, activation="linear")


@dataclass
class Layer:
    """Instantiated parameters of one convolution (backbone layer or head)."""

    spec: LayerSpec
    conv: ConvParams
    bn: BatchNormParams | None
    mask: np.ndarray  # bool, same shape as conv.weights; False = pruned

    def apply_mask(self) -> None:
        self.conv.weights[~self.mask] = 0.0


class Network:
    """A ModelSpec bound to weights, BN state, prune masks, and anchors."""

    def __init__(self, spec: ModelSpec, layers, heads, anchors):
        self.spec = spec
        self.layers: list[Layer] = layers
        self.heads: dict[str, Layer] = heads
        self.anchors = anchors  # (4, 2) float32, (width, height) per class

    def all_layers(self):
        """Backbone layers then heads, with their parameter-name prefixes."""
        for i, layer in enumerate(self.layers, start=1):
            yield f"l{i}", layer
        for head in HEADS:
            yield head.name, self.heads[head.name]

    def apply_masks(self) -> None:
        for _, layer in self.all_layers():
            layer.apply_mask()

    def mask_dict(self) -> dict[str, np.ndarray]:
        return {name: layer.mask for name, layer in self.all_layers()}


def init_network(spec: ModelSpec, seed: int = 0) -> Network:
    """He-initialized network with identity BN on every backbone layer (the
    heads have none), all-pass masks, and placeholder anchors."""
    rng = np.random.default_rng(seed)

    def make_layer(ls: LayerSpec) -> Layer:
        std = np.sqrt(2.0 / (ls.kernel * ls.kernel * ls.in_ch))
        shape = (ls.out_ch, ls.in_ch, ls.kernel, ls.kernel)
        weights = rng.normal(0.0, std, size=shape).astype(np.float32)
        conv = ConvParams(ls.stride, weights, np.zeros(ls.out_ch, dtype=np.float32))
        return Layer(ls, conv, None, np.ones(shape, dtype=bool))

    layers = [make_layer(ls) for ls in spec.layers]
    for layer in layers:
        layer.bn = BatchNormParams.identity(layer.spec.out_ch)
    heads = {h.name: make_layer(head_layer_spec(spec, h)) for h in HEADS}
    anchors = np.full((len(CLASS_NAMES), 2), 0.1, dtype=np.float32)
    return Network(spec, layers, heads, anchors)


def _check_input(net: Network, x: np.ndarray) -> None:
    if x.ndim != 4 or x.shape[1:] != (3,) + net.spec.input_hw:
        raise ShapeError(
            f"input shape {tuple(x.shape)} does not match model input "
            f"(n, 3, {net.spec.input_hw[0]}, {net.spec.input_hw[1]})"
        )


def forward(net: Network, x: np.ndarray):
    """Inference-mode forward; returns (raw_lo, raw_hi) head output tensors."""
    _check_input(net, x)
    taps = {}
    for layer in net.layers:
        z = conv2d_forward(x, layer.conv)
        x = batch_norm(z, layer.bn, "infer")
        del z  # free the conv output before the activation allocates
        x = leaky_relu(x)
        if layer.spec.tap:
            taps[layer.spec.tap] = x
    return tuple(conv2d_forward(taps[h.name], net.heads[h.name].conv) for h in HEADS)


def forward_with_cache(net: Network, x: np.ndarray):
    """Train-mode forward keeping, per layer, the input, the conv output,
    the batch statistics and the activation's sign mask for backward().

    Returns ((raw_lo, raw_hi), cache); the cache holds the per-layer entries
    under ``layers`` and the head inputs under ``taps``.
    """
    _check_input(net, x)
    cache = []
    taps = {}
    for layer in net.layers:
        z = conv2d_forward(x, layer.conv)
        zn, stats = batch_norm(z, layer.bn, "train")
        # Backward needs zn only through its sign; the 1-byte mask takes the
        # place of the 4-byte BN output.
        cache.append({"x": x, "z": z, "mask": zn >= 0, "stats": stats})
        x = leaky_relu(zn)
        if layer.spec.tap:
            taps[layer.spec.tap] = x
    heads = tuple(conv2d_forward(taps[h.name], net.heads[h.name].conv) for h in HEADS)
    return heads, {"layers": cache, "taps": taps}


def backward(net: Network, cache, grad_lo: np.ndarray, grad_hi: np.ndarray):
    """Backprop head-output gradients to every parameter.

    Returns a dict keyed like trainable_params().  The image is not a
    parameter, so layer 1's input gradient is not computed.

    The cache is consumed: each layer's entry, each head tap and each tap
    gradient is dropped as soon as it is used, so every layer's backward
    runs beside only the entries of the layers below it, and the cache's
    ``layers`` list and ``taps`` dict are empty on return.
    """
    grads: dict[str, np.ndarray] = {}
    tap_grads = {}
    for name, g in zip((h.name for h in HEADS), (grad_lo, grad_hi)):
        tap_grads[name], grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward(
            cache["taps"].pop(name), net.heads[name].conv, g
        )
    g = None
    for i in range(len(net.layers), 0, -1):
        layer = net.layers[i - 1]
        entry = cache["layers"].pop()
        tap = layer.spec.tap
        if tap and g is None:
            g = tap_grads.pop(tap)
        elif tap:
            g += tap_grads.pop(tap)  # both fresh arrays; += rounds as + does
        g = leaky_relu_backward(entry.pop("mask"), g)
        g, grads[f"l{i}.gamma"], grads[f"l{i}.beta"] = batch_norm_backward(
            entry.pop("z"), layer.bn, g, entry.pop("stats"))
        g, grads[f"l{i}.w"], _ = conv2d_backward(entry.pop("x"), layer.conv, g,
                                                 input_grad=i > 1)
    return grads


def trainable_params(net: Network) -> dict[str, np.ndarray]:
    """Name -> array views of every trainable parameter (mutated in place).

    Conv biases under batch norm are excluded; they stay zero.
    """
    params: dict[str, np.ndarray] = {}
    for name, layer in net.all_layers():
        params[f"{name}.w"] = layer.conv.weights
        if layer.bn is not None:
            params[f"{name}.gamma"] = layer.bn.gamma
            params[f"{name}.beta"] = layer.bn.beta
        else:
            params[f"{name}.b"] = layer.conv.bias
    return params


# ---------------------------------------------------------------------------
# Binary weight file format (little-endian).


def save_weights(net: Network, path) -> None:
    chunks = [WEIGHT_MAGIC, struct.pack("<H", WEIGHT_VERSION)]
    name = net.spec.name.encode()
    chunks.append(struct.pack("<H", len(name)))
    chunks.append(name)
    layer_list = list(net.all_layers())
    chunks.append(struct.pack("<HH", net.spec.k, len(layer_list)))
    for _, layer in layer_list:
        c = layer.conv
        chunks.append(struct.pack("<HHHH", c.kernel, c.stride, c.in_ch, c.out_ch))
        w = np.ascontiguousarray(c.weights, dtype="<f4")
        chunks.append(struct.pack("<I", w.size))
        chunks.append(w.tobytes())
        chunks.append(np.ascontiguousarray(c.bias, dtype="<f4").tobytes())
        if layer.bn is not None:
            chunks.append(struct.pack("<B", 1))
            bn = np.stack([layer.bn.gamma, layer.bn.beta, layer.bn.mean, layer.bn.var])
            chunks.append(np.ascontiguousarray(bn, dtype="<f4").tobytes())
        else:
            chunks.append(struct.pack("<B", 0))
        packed = np.packbits(layer.mask.reshape(-1), bitorder="little").tobytes()
        chunks.append(struct.pack("<I", len(packed)))
        chunks.append(packed)
    chunks.append(np.ascontiguousarray(net.anchors, dtype="<f4").tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(chunks))


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.pos = 0
        self.context = "header"

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedFileError(f"{self.path}: file truncated while reading {self.context}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def floats(self, count: int) -> np.ndarray:
        raw = self.take(4 * count)
        return np.frombuffer(raw, dtype="<f4").astype(np.float32)


def load_weights(path) -> Network:
    """Read a weight file; a malformed file raises a WeightFormatError
    subclass naming the path."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
    if r.take(4) != WEIGHT_MAGIC:
        raise BadMagicError(f"{path}: bad magic, not a robodet weight file")
    (version,) = r.unpack("<H")
    if version != WEIGHT_VERSION:
        raise VersionError(f"{path}: format version {version}, expected {WEIGHT_VERSION}")
    (name_len,) = r.unpack("<H")
    name = r.take(name_len)
    k, layer_count = r.unpack("<HH")
    try:
        spec = build_spec(name.decode(), k)
    except ValueError:  # also an undecodable name (UnicodeDecodeError)
        raise SpecMismatchError(f"{path}: no model {name!r} at k={k}") from None
    if layer_count != len(spec.layers) + 2:
        raise SpecMismatchError(
            f"{path}: {layer_count} layers in file, spec {spec.name} has {len(spec.layers) + 2}"
        )

    def read_layer(lname: str, ls: LayerSpec, has_bn: bool) -> Layer:
        r.context = f"layer {lname}"
        geometry, want = r.unpack("<HHHH"), (ls.kernel, ls.stride, ls.in_ch, ls.out_ch)
        if geometry != want:
            raise SpecMismatchError(
                f"{path}: layer {lname} geometry {geometry} does not match spec {want}"
            )
        shape = (ls.out_ch, ls.in_ch, ls.kernel, ls.kernel)
        size = math.prod(shape)
        (wcount,) = r.unpack("<I")
        if wcount != size:
            raise SpecMismatchError(
                f"{path}: layer {lname} has {wcount} weights, spec expects {size}"
            )
        conv = ConvParams(ls.stride, r.floats(size).reshape(shape), r.floats(ls.out_ch))
        (bn_flag,) = r.unpack("<B")
        if bn_flag != has_bn:
            raise SpecMismatchError(f"{path}: layer {lname} batch norm flag mismatch")
        bn_rows = r.floats(4 * ls.out_ch).reshape(4, ls.out_ch) if has_bn else np.zeros(0)
        (mask_bytes,) = r.unpack("<I")
        if mask_bytes != -(-size // 8):
            raise SpecMismatchError(
                f"{path}: layer {lname} mask has {mask_bytes} bytes, spec expects {-(-size // 8)}"
            )
        bits = np.unpackbits(np.frombuffer(r.take(mask_bytes), dtype=np.uint8), bitorder="little")
        if not all(np.isfinite(a).all() for a in (conv.weights, conv.bias, bn_rows)):
            raise WeightFormatError(f"{path}: layer {lname} stores a value that is not finite")
        if has_bn and (bn_rows[3] < 0).any():
            raise WeightFormatError(f"{path}: layer {lname} has a negative batch-norm variance")
        bn = BatchNormParams(*bn_rows) if has_bn else None
        return Layer(ls, conv, bn, bits[:size].astype(bool).reshape(shape))

    # Batch norm goes by role: every backbone layer has it and no head does.
    layers = [read_layer(f"l{i}", ls, True) for i, ls in enumerate(spec.layers, start=1)]
    heads = {h.name: read_layer(h.name, head_layer_spec(spec, h), False) for h in HEADS}
    r.context = "anchors"
    anchors = r.floats(2 * len(CLASS_NAMES)).reshape(len(CLASS_NAMES), 2)
    if not ((anchors >= ANCHOR_MIN) & (anchors <= ANCHOR_MAX)).all():  # False for NaN
        raise WeightFormatError(f"{path}: anchors must be finite and positive")
    net = Network(spec, layers, heads, anchors)
    net.apply_masks()
    return net

