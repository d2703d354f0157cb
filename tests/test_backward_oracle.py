"""The training step's gradients against a frozen copy of the whole-batch
backward pass.

The frozen functions below are the conv, batch-norm and leaky-ReLU backward
passes as they were before convolutions ran in batch slices and before the
forward cache kept sign masks: one im2col matrix for the whole batch, the
input gradient of every layer (layer 1's included, then discarded) scattered
back with col2im, batch statistics recomputed from the cached conv output,
and the leaky ReLU's slope selected from the sign of a batch-norm output
that the oracle recomputes itself.

What the conv kernel still computes the same way is pinned bit for bit
against the float32 oracle: every conv's weight and bias gradient and the
stride-2 input gradient.  A stride-1 conv now takes its input gradient as a
forward correlation with the flipped kernel, which rounds differently from
col2im's sums; that gradient, and with it the whole network's, is checked
against the oracle run in float64, within a stated relative error.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import robodet.model
import robodet.tensor
from robodet.model import (
    HEAD_HI,
    HEAD_LO,
    build_robo,
    build_robo_bn,
    build_robo_hr,
    forward_with_cache,
    init_network,
)
from robodet.tensor import (
    BatchNormParams,
    ConvParams,
    batch_norm,
    batch_norm_backward,
    conv2d_backward,
    im2col,
    leaky_relu_backward,
)


def frozen_col2im(cols, x_shape, kernel, stride, padding):
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    x = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            x[
                :, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
            ] += cols[:, :, i, j]
    if padding:
        x = x[:, :, padding : padding + h, padding : padding + w]
    return x


def frozen_conv2d_backward(x, params, grad_out):
    n = x.shape[0]
    cols = im2col(x, params.kernel, params.stride, params.padding)
    g = grad_out.reshape(n, params.out_ch, -1)
    grad_bias = g.sum(axis=(0, 2))
    grad_w2 = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)
    grad_weights = grad_w2.reshape(params.weights.shape)
    w2 = params.weights.reshape(params.out_ch, -1)
    grad_cols = np.matmul(w2.T, g)
    grad_input = frozen_col2im(
        grad_cols, x.shape, params.kernel, params.stride, params.padding
    )
    return grad_input, grad_weights, grad_bias


def frozen_batch_norm_train(x, params):
    """Train-mode batch norm output, without touching the running stats."""
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    ivar = 1.0 / np.sqrt(var + params.eps)
    scale = (params.gamma * ivar)[:, None, None]
    shift = (params.beta - params.gamma * mu * ivar)[:, None, None]
    return x * scale + shift


def frozen_leaky_relu_backward(x, grad_out, slope=0.1):
    return grad_out * np.where(x >= 0, np.asarray(1, grad_out.dtype), slope)


def frozen_batch_norm_backward(x, params, grad_out):
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    ivar = 1.0 / np.sqrt(var + params.eps)
    xhat = (x - mu[:, None, None]) * ivar[:, None, None]
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    grad_gamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    gscale = (params.gamma * ivar)[:, None, None]
    count = x.shape[0] * x.shape[2] * x.shape[3]
    grad_x = (gscale / count) * (
        count * grad_out
        - grad_beta[:, None, None]
        - xhat * grad_gamma[:, None, None]
    )
    return grad_x, grad_gamma, grad_beta


def frozen_backward(net, cache, grad_lo, grad_hi, dtype=None):
    """The oracle's gradients.  With dtype, every array they are computed
    from is cast to it first, but the leaky ReLU's slope is still selected
    from the sign of the float32 batch-norm output, as in the training step,
    so that a sign that rounding alone decides cannot flip a slope."""
    cast = (lambda a: a) if dtype is None else (lambda a: np.asarray(a, dtype))
    conv_of = lambda conv: ConvParams(conv.stride, cast(conv.weights), cast(conv.bias))
    grads = {}
    tap_grads = {}
    for name, g in ((HEAD_LO, grad_lo), (HEAD_HI, grad_hi)):
        layer = net.heads[name]
        gx, gw, gb = frozen_conv2d_backward(cast(cache["taps"][name]), conv_of(layer.conv),
                                            cast(g))
        grads[f"{name}.w"] = gw
        grads[f"{name}.b"] = gb
        tap_grads[name] = gx
    g = None
    for i in range(len(net.layers), 0, -1):
        layer = net.layers[i - 1]
        entry = cache["layers"][i - 1]
        if layer.spec.tap:
            tg = tap_grads[layer.spec.tap]
            g = tg if g is None else g + tg
        z = entry["z"]
        if layer.spec.activation == "leaky":
            zn = z if layer.bn is None else frozen_batch_norm_train(z, layer.bn)
            g = frozen_leaky_relu_backward(zn, g)
        if layer.bn is not None:
            g, dgamma, dbeta = frozen_batch_norm_backward(cast(z), layer.bn, g)
            grads[f"l{i}.gamma"] = dgamma
            grads[f"l{i}.beta"] = dbeta
            g, dw, _ = frozen_conv2d_backward(cast(entry["x"]), conv_of(layer.conv), g)
        else:
            g, dw, db = frozen_conv2d_backward(cast(entry["x"]), conv_of(layer.conv), g)
            grads[f"l{i}.b"] = db
        grads[f"l{i}.w"] = dw
    return grads


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def patch_bytes(x, conv):
    """Bytes of one image's im2col patch matrix for conv on input x."""
    n, c, h, w = x.shape
    return c * conv.kernel**2 * (h // conv.stride) * (w // conv.stride) * x.itemsize


def train_step(spec, batch, seed=0):
    """(net, cache, grad_lo, grad_hi) of one train-mode forward on random
    images, with random head gradients."""
    net = init_network(spec, seed)
    rng = np.random.default_rng(seed)
    x = rng.random((batch, 3) + spec.input_hw, dtype=np.float32)
    (lo, hi), cache = forward_with_cache(net, x)
    grad_lo = rng.normal(0, 1, lo.shape).astype(np.float32)
    grad_hi = rng.normal(0, 1, hi.shape).astype(np.float32)
    return net, cache, grad_lo, grad_hi


SPECS = {"robo": build_robo(1), "robo_bn": build_robo_bn(1), "robo_hr": build_robo_hr(1)}


# Largest error of a gradient, relative to its largest magnitude, against
# the float64 oracle.  Measured: up to 4.1e-6 on the network gradients
# (robo_hr at batch 16), where the float32 oracle itself reads up to 3.9e-6,
# and up to 7.6e-7 on a single conv's stride-1 input gradient.
GRADIENT_REL_ERROR = 2e-5
KERNEL_REL_ERROR = 4e-6


def rel_error(got, want):
    assert got.dtype == np.float32 and got.shape == want.shape
    return np.abs(got - want).max() / np.abs(want).max()


def set_budget(monkeypatch, spec, budget):
    if budget == "uneven":
        # Room for two images of layer 1's patches per slice: slices of 2
        # then 1 at batch 3, and uneven slices on later layers at batch 16.
        x = np.zeros((1, 3) + spec.input_hw, np.float32)
        first = init_network(spec).layers[0].conv
        monkeypatch.setattr(robodet.tensor, "SLICE_BYTES", 2 * patch_bytes(x, first))


@pytest.mark.parametrize("batch, budget", [
    (1, "default"), (3, "default"), (3, "uneven"), (16, "default"), (16, "uneven"),
])
@pytest.mark.parametrize("model", sorted(SPECS))
def test_gradients_match_whole_batch_oracle(monkeypatch, model, batch, budget):
    spec = SPECS[model]
    set_budget(monkeypatch, spec, budget)
    net, cache, grad_lo, grad_hi = train_step(spec, batch)
    # The oracle runs first: robodet's backward consumes the cache.
    want = frozen_backward(net, cache, grad_lo, grad_hi, np.float64)
    got = robodet.model.backward(net, cache, grad_lo, grad_hi)
    assert got.keys() == want.keys()
    for name in want:
        assert rel_error(got[name], want[name]) <= GRADIENT_REL_ERROR, name


@pytest.mark.parametrize("batch, budget", [(3, "uneven"), (16, "default")])
@pytest.mark.parametrize("model", sorted(SPECS))
def test_conv_backward_matches_frozen_kernel(monkeypatch, model, batch, budget):
    # Every conv of the network on its cached input and a random grad_out:
    # weight and bias gradients, and a stride-2 input gradient, bit for bit;
    # a stride-1 input gradient against the float64 oracle.
    spec = SPECS[model]
    set_budget(monkeypatch, spec, budget)
    net, cache, _, _ = train_step(spec, batch)
    rng = np.random.default_rng(1)
    convs = [(layer.conv, entry["x"]) for layer, entry in zip(net.layers, cache["layers"])]
    convs += [(net.heads[name].conv, cache["taps"][name]) for name in (HEAD_LO, HEAD_HI)]
    for conv, x in convs:
        n, _, h, w = x.shape
        g = rng.normal(0, 1, (n, conv.out_ch, h // conv.stride, w // conv.stride))
        g = g.astype(np.float32)
        gx, gw, gb = conv2d_backward(x, conv, g)
        want_gx, want_gw, want_gb = frozen_conv2d_backward(x, conv, g)
        assert_bitwise_equal(gw, want_gw)
        assert_bitwise_equal(gb, want_gb)
        if conv.stride == 2:
            assert_bitwise_equal(gx, want_gx)
        else:
            conv64 = ConvParams(1, conv.weights.astype(np.float64), conv.bias)
            want64, _, _ = frozen_conv2d_backward(x.astype(np.float64), conv64,
                                                  g.astype(np.float64))
            assert rel_error(gx, want64) <= KERNEL_REL_ERROR


def test_uneven_budget_gives_uneven_slices(monkeypatch):
    spec = SPECS["robo"]
    x = np.zeros((3, 3) + spec.input_hw, np.float32)
    conv = init_network(spec).layers[0].conv
    monkeypatch.setattr(robodet.tensor, "SLICE_BYTES", 2 * patch_bytes(x, conv))
    assert robodet.tensor._slice_step(x, conv) == 2


@pytest.mark.parametrize("budget", [None, 1, 3 << 20])
def test_sliced_forward_equals_whole_batch_matmul(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(robodet.tensor, "SLICE_BYTES", budget)
    net, cache, _, _ = train_step(SPECS["robo"], 16)
    convs = [(layer.conv, entry["x"], entry["z"])
             for layer, entry in zip(net.layers, cache["layers"])]
    convs += [(net.heads[name].conv, cache["taps"][name], None) for name in (HEAD_LO, HEAD_HI)]
    for conv, x, z in convs:
        n, _, h, w = x.shape
        cols = im2col(x, conv.kernel, conv.stride, conv.padding)
        want = np.matmul(conv.weights.reshape(conv.out_ch, -1), cols)
        want += conv.bias[:, None]
        want = want.reshape(n, conv.out_ch, h // conv.stride, w // conv.stride)
        assert_bitwise_equal(robodet.tensor.conv2d_forward(x, conv), want)
        if z is not None:
            assert_bitwise_equal(z, want)


def test_layer1_input_gradient_is_never_computed(monkeypatch):
    net, cache, grad_lo, grad_hi = train_step(SPECS["robo"], 3)
    asked = {}
    backward = robodet.model.conv2d_backward

    def spy_backward(x, params, grad_out, **kwargs):
        out = backward(x, params, grad_out, **kwargs)
        asked[id(params)] = out[0] is not None
        return out

    monkeypatch.setattr(robodet.model, "conv2d_backward", spy_backward)
    robodet.model.backward(net, cache, grad_lo, grad_hi)
    names = {id(layer.conv): name for name, layer in net.all_layers()}
    assert {names[k]: v for k, v in asked.items()} == {
        name: name != "l1" for name in names.values()
    }


@pytest.mark.parametrize("model", sorted(SPECS))
def test_col2im_runs_only_for_stride2_convs(monkeypatch, model):
    # Layer 1 is stride 2, but its input gradient is never computed.
    net, cache, grad_lo, grad_hi = train_step(SPECS[model], 3)
    want = {(entry["x"].shape[1:], layer.conv.kernel)
            for i, (layer, entry) in enumerate(zip(net.layers, cache["layers"]))
            if layer.conv.stride == 2 and i > 0}
    assert want
    scattered = set()
    col2im = robodet.tensor.col2im

    def spy_col2im(cols, x_shape, kernel, stride, padding):
        assert stride == 2
        scattered.add((tuple(x_shape[1:]), kernel))
        return col2im(cols, x_shape, kernel, stride, padding)

    monkeypatch.setattr(robodet.tensor, "col2im", spy_col2im)
    robodet.model.backward(net, cache, grad_lo, grad_hi)
    assert scattered == want


@pytest.mark.parametrize("model", sorted(SPECS))
def test_backward_empties_the_cache(model):
    net, cache, grad_lo, grad_hi = train_step(SPECS[model], 1)
    layers, taps = cache["layers"], cache["taps"]
    robodet.model.backward(net, cache, grad_lo, grad_hi)
    assert cache["layers"] is layers and layers == []
    assert cache["taps"] is taps and taps == {}


def test_layer1_backward_runs_without_later_entries(monkeypatch):
    # Every array that the cache holds for layers 2 and up, and for the
    # heads, is freed before layer 1's conv backward starts.
    net, cache, grad_lo, grad_hi = train_step(SPECS["robo"], 2)
    later = [entry[key] for entry in cache["layers"][1:] for key in ("x", "z", "mask")]
    later += cache["taps"].values()
    refs = [weakref.ref(a) for a in later]
    del later
    alive = []
    backward = robodet.model.conv2d_backward

    def spy_backward(x, params, grad_out, **kwargs):
        if params is net.layers[0].conv:
            alive.append(sum(r() is not None for r in refs))
        return backward(x, params, grad_out, **kwargs)

    monkeypatch.setattr(robodet.model, "conv2d_backward", spy_backward)
    robodet.model.backward(net, cache, grad_lo, grad_hi)
    assert alive == [0]


def test_input_grad_false_keeps_weight_and_bias_gradients(rng):
    conv = ConvParams(2, rng.normal(0, 1, (4, 3, 3, 3)), rng.normal(0, 1, 4))
    x = rng.normal(0, 1, (5, 3, 8, 8))
    g = rng.normal(0, 1, (5, 4, 4, 4))
    gx, gw, gb = conv2d_backward(x, conv, g, input_grad=False)
    assert gx is None
    want = frozen_conv2d_backward(x, conv, g)
    assert_bitwise_equal(conv2d_backward(x, conv, g)[0], want[0])
    assert_bitwise_equal(gw, want[1])
    assert_bitwise_equal(gb, want[2])


# Bytes that one robo k=1, batch-16 train-mode forward leaves allocated: its
# cache, which holds each layer's input, conv output, batch statistics and
# 1-byte activation sign mask (the input batch is allocated before).
# Measured: 19.5 MB; with the 4-byte batch-norm output in place of the mask
# it was 26.0 MB.  The bound leaves a 7% margin.
FORWARD_CACHE_BOUND = 21_000_000

# Peak tracemalloc bytes of the backward of that step above its forward
# cache.  Measured: 2.63 MB.  Before the backward consumed the cache and
# summed the weight gradient image by image it was 13.1 MB; with the
# batch-norm backward's temporaries it was 15.3 MB, and the whole-batch
# backward, which also computed layer 1's input gradient, peaked at
# 58.0 MB.  The bound leaves a 30% margin over the measured peak.
BACKWARD_PEAK_BOUND = 3_420_000

# Peak tracemalloc bytes of one conv2d_backward call on that step's layer 11
# (3x3, 128 -> 128 channels on a 3x4 grid).  Measured: 3.00 MB, with the
# input gradient taken from grad_out's patches before the input's are built;
# 3.40 MB when col2im scattered it; with a per-image weight-gradient buffer
# summed at the end it was 11.7 MB.  The bound was set at 30% over 3.40 MB.
L11_CONV_BACKWARD_BOUND = 4_420_000

# The same for robo_bn k=1's layer 9 (3x3, 64 -> 128 channels on a 6x8
# grid, after a 1x1 bottleneck): grad_out has twice the input's channels,
# so its patches set the batch slice.  Measured: 2.58 MB; with slices sized
# by the input's patches alone, grad_out's reached twice SLICE_BYTES and the
# peak 3.91 MB.  The bound leaves a 30% margin over the measured peak.
BN_L9_CONV_BACKWARD_BOUND = 3_350_000


def robo_step_memory():
    """(bytes the forward cache holds, backward peak bytes above it) of one
    robo k=1, batch-16 training step."""
    net = init_network(SPECS["robo"])
    rng = np.random.default_rng(0)
    x = rng.random((16, 3) + net.spec.input_hw, dtype=np.float32)
    tracemalloc.start()
    try:
        (lo, hi), cache = forward_with_cache(net, x)
        grad_lo, grad_hi = np.ones_like(lo), np.ones_like(hi)
        cached, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        robodet.model.backward(net, cache, grad_lo, grad_hi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return cached, peak - cached


def test_forward_cache_stays_within_bound():
    cached, _ = robo_step_memory()
    assert cached <= FORWARD_CACHE_BOUND


def test_backward_memory_stays_within_bound():
    _, backward_peak = robo_step_memory()
    assert backward_peak <= BACKWARD_PEAK_BOUND


def conv_backward_peak(model, position):
    """Peak tracemalloc bytes of conv2d_backward on the given backbone layer
    of a batch-16 train step, with a random grad_out, and that layer's conv."""
    net = init_network(SPECS[model])
    rng = np.random.default_rng(0)
    x = rng.random((16, 3) + net.spec.input_hw, dtype=np.float32)
    _, cache = forward_with_cache(net, x)
    entry = cache["layers"][position - 1]
    g = rng.normal(0, 1, entry["z"].shape).astype(np.float32)
    conv = net.layers[position - 1].conv
    tracemalloc.start()
    try:
        conv2d_backward(entry["x"], conv, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, conv


def test_layer11_conv_backward_stays_within_bound():
    peak, conv = conv_backward_peak("robo", 11)
    assert (conv.kernel, conv.in_ch, conv.out_ch) == (3, 128, 128)
    assert peak <= L11_CONV_BACKWARD_BOUND


def test_widening_conv_backward_stays_within_bound():
    peak, conv = conv_backward_peak("robo_bn", 9)
    assert (conv.kernel, conv.stride, conv.in_ch, conv.out_ch) == (3, 1, 64, 128)
    assert peak <= BN_L9_CONV_BACKWARD_BOUND


# Slack for the per-channel vectors and numpy's cast buffers.
KERNEL_SLACK = 1 << 16


@pytest.mark.parametrize("kernel, buffers", [("leaky_relu", 1), ("batch_norm", 2)])
def test_backward_kernel_allocates_only_its_buffers(kernel, buffers):
    # Layer 1's batch-16 activation: the leaky ReLU backward writes into its
    # output alone, the batch-norm backward into its output and one buffer.
    rng = np.random.default_rng(0)
    z = rng.normal(0, 1, (16, 4, 96, 128)).astype(np.float32)
    g = rng.normal(0, 1, z.shape).astype(np.float32)
    bn = BatchNormParams.identity(4)
    _, stats = batch_norm(z, bn, "train")
    mask = z >= 0
    run = {
        "leaky_relu": lambda: leaky_relu_backward(mask, g),
        "batch_norm": lambda: batch_norm_backward(z, bn, g, stats),
    }[kernel]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buffers * z.nbytes + KERNEL_SLACK
