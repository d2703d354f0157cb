"""ROBO detector family: declarative layer tables, network instantiation,
forward/backward passes, and the binary weight format.

Layer indices are 1-based along the backbone; the two detection heads are
1x1 convolutions tapping intermediate feature maps and are handled
separately from the backbone list.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

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

WEIGHT_MAGIC = b"ROBO"
WEIGHT_VERSION = 1


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
    index: int
    kernel: int
    stride: int
    in_ch: int
    out_ch: int
    activation: str = "leaky"  # leaky | linear
    tap: str | None = None  # head_lo | head_hi


@dataclass(frozen=True)
class HeadSpec:
    name: str
    source_layer: int
    classes_owned: tuple[int, int]

    @property
    def channels(self) -> int:
        return 5 * len(self.classes_owned)


@dataclass(frozen=True)
class ModelSpec:
    name: str
    k: int
    input_hw: tuple[int, int]  # (height, width)
    layers: tuple[LayerSpec, ...]
    heads: tuple[HeadSpec, HeadSpec]

    @property
    def total_stride(self) -> int:
        return math.prod(layer.stride for layer in self.layers)

    def head_grid(self, head: HeadSpec) -> tuple[int, int]:
        s = math.prod(layer.stride for layer in self.layers[: head.source_layer])
        return self.input_hw[0] // s, self.input_hw[1] // s

    def head(self, name: str) -> HeadSpec:
        for h in self.heads:
            if h.name == name:
                return h
        raise KeyError(name)


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

# Classes owned by each head: the low-resolution head predicts the large
# object classes, the higher-resolution one the small classes.
_HEAD_LO_CLASSES = (2, 3)  # goalpost, robot
_HEAD_HI_CLASSES = (0, 1)  # ball, crossing


def _validate(spec: ModelSpec) -> ModelSpec:
    for prev, cur in zip(spec.layers, spec.layers[1:]):
        if prev.out_ch != cur.in_ch:
            raise ValueError(
                f"layer {cur.index} in_ch {cur.in_ch} does not chain from "
                f"layer {prev.index} out_ch {prev.out_ch}"
            )
    for layer in spec.layers:
        if layer.stride == 2 and layer.out_ch <= layer.in_ch:
            raise ValueError(
                f"strided layer {layer.index} must increase channels "
                f"({layer.in_ch} -> {layer.out_ch})"
            )
    taps = {l.tap for l in spec.layers if l.tap}
    if taps != {HEAD_LO, HEAD_HI}:
        raise ValueError(f"expected exactly one tap per head, got {taps}")
    for head in spec.heads:
        if spec.layers[head.source_layer - 1].tap != head.name:
            raise ValueError(f"head {head.name} source layer tap mismatch")
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
        layers.append(LayerSpec(idx, k, s, ci, co, tap=tap))
    return tuple(layers)


def build_robo(k: int = 2) -> ModelSpec:
    """The 15-conv ROBO backbone at input resolution k*64*(4x3)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    layers = _make_layers(_ROBO_BACKBONE, _ROBO_TAP_HI, _ROBO_TAP_LO)
    heads = (
        HeadSpec(HEAD_LO, _ROBO_TAP_LO, _HEAD_LO_CLASSES),
        HeadSpec(HEAD_HI, _ROBO_TAP_HI, _HEAD_HI_CLASSES),
    )
    return _validate(ModelSpec("robo", k, (k * 192, k * 256), layers, heads))


def build_robo_hr(k: int = 1) -> ModelSpec:
    """Low-resolution ROBO variant: first strided conv removed, input fixed
    at 192x256 so the head grids match ROBO at k=2.  k=1 is the only size."""
    if k != 1:
        raise ValueError(f"robo_hr has a fixed 192x256 input; k must be 1, got {k}")
    rows = [(3, 2, 3, 8)] + [list(r) for r in _ROBO_BACKBONE[2:]]
    layers = _make_layers(rows, _ROBO_TAP_HI - 1, _ROBO_TAP_LO - 1)
    heads = (
        HeadSpec(HEAD_LO, _ROBO_TAP_LO - 1, _HEAD_LO_CLASSES),
        HeadSpec(HEAD_HI, _ROBO_TAP_HI - 1, _HEAD_HI_CLASSES),
    )
    return _validate(ModelSpec("robo_hr", 1, (192, 256), layers, heads))


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
    heads = (
        HeadSpec(HEAD_LO, tap_lo, _HEAD_LO_CLASSES),
        HeadSpec(HEAD_HI, tap_hi, _HEAD_HI_CLASSES),
    )
    return _validate(ModelSpec("robo_bn", k, (k * 192, k * 256), layers, heads))


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
    src_ch = spec.layers[head.source_layer - 1].out_ch
    return LayerSpec(
        index=0,
        kernel=1,
        stride=1,
        in_ch=src_ch,
        out_ch=head.channels,
        activation="linear",
    )


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
        for name in (HEAD_LO, HEAD_HI):
            yield name, self.heads[name]

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
        conv = ConvParams(
            ls.kernel, ls.stride, ls.in_ch, ls.out_ch,
            weights, np.zeros(ls.out_ch, dtype=np.float32),
        )
        return Layer(ls, conv, None, np.ones(shape, dtype=bool))

    layers = [make_layer(ls) for ls in spec.layers]
    for layer in layers:
        layer.bn = BatchNormParams.identity(layer.spec.out_ch)
    heads = {h.name: make_layer(head_layer_spec(spec, h)) for h in spec.heads}
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
        if layer.spec.activation == "leaky":
            x = leaky_relu(x)
        if layer.spec.tap:
            taps[layer.spec.tap] = x
    return tuple(conv2d_forward(taps[name], net.heads[name].conv) for name in (HEAD_LO, HEAD_HI))


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
        leaky = layer.spec.activation == "leaky"
        # Backward needs zn only through its sign; the 1-byte mask takes the
        # place of the 4-byte BN output.
        cache.append({"x": x, "z": z, "mask": zn >= 0 if leaky else None, "stats": stats})
        x = leaky_relu(zn) if leaky else zn
        if layer.spec.tap:
            taps[layer.spec.tap] = x
    heads = tuple(conv2d_forward(taps[name], net.heads[name].conv) for name in (HEAD_LO, HEAD_HI))
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
    for name, g in ((HEAD_LO, grad_lo), (HEAD_HI, grad_hi)):
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
        if layer.spec.activation == "leaky":
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
    net = init_network(spec, seed=0)
    expected = list(net.all_layers())
    if layer_count != len(expected):
        raise SpecMismatchError(
            f"{path}: {layer_count} layers in file, spec {spec.name} has {len(expected)}"
        )
    for lname, layer in expected:
        r.context = f"layer {lname}"
        kernel, stride, in_ch, out_ch = r.unpack("<HHHH")
        c = layer.conv
        if (kernel, stride, in_ch, out_ch) != (c.kernel, c.stride, c.in_ch, c.out_ch):
            raise SpecMismatchError(
                f"{path}: layer {lname} geometry "
                f"{(kernel, stride, in_ch, out_ch)} does not match spec "
                f"{(c.kernel, c.stride, c.in_ch, c.out_ch)}"
            )
        (wcount,) = r.unpack("<I")
        if wcount != c.weights.size:
            raise SpecMismatchError(
                f"{path}: layer {lname} has {wcount} weights, spec expects {c.weights.size}"
            )
        c.weights = r.floats(wcount).reshape(c.weights.shape)
        c.bias = r.floats(out_ch)
        (bn_flag,) = r.unpack("<B")
        if bn_flag != (layer.bn is not None):
            raise SpecMismatchError(f"{path}: layer {lname} batch norm flag mismatch")
        if bn_flag:
            vals = r.floats(4 * out_ch).reshape(4, out_ch)
            layer.bn.gamma, layer.bn.beta = vals[0], vals[1]
            layer.bn.mean, layer.bn.var = vals[2], vals[3]
        (mask_bytes,) = r.unpack("<I")
        packed_size = -(-c.weights.size // 8)
        if mask_bytes != packed_size:
            raise SpecMismatchError(
                f"{path}: layer {lname} mask has {mask_bytes} bytes, spec expects {packed_size}"
            )
        packed = np.frombuffer(r.take(mask_bytes), dtype=np.uint8)
        bits = np.unpackbits(packed, bitorder="little")[: c.weights.size]
        layer.mask = bits.astype(bool).reshape(c.weights.shape)
    r.context = "anchors"
    net.anchors = r.floats(2 * len(CLASS_NAMES)).reshape(len(CLASS_NAMES), 2)
    net.apply_masks()
    return net

