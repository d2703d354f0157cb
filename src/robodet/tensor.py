"""Dense NCHW tensor kernel: im2col convolution, leaky ReLU and batch
normalization, each with an analytic backward pass.

All operations are pure functions over numpy arrays, except ``batch_norm``
in train mode which updates the running statistics held by its parameter
object.  Arrays follow the caller's dtype; the network runs in float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


# Byte budget of one im2col patch matrix.  Convolutions run over batch
# slices whose patches fit it, so the patches of a training batch stay near
# cache size instead of spanning tens of megabytes.
SLICE_BYTES = 1 << 20


class ShapeError(ValueError):
    """An operand's shape does not match the layer parameters."""


@dataclass
class ConvParams:
    """Same-padded cross-correlation; weights laid out (out_ch, in_ch, k, k)."""

    kernel: int
    stride: int
    in_ch: int
    out_ch: int
    weights: np.ndarray
    bias: np.ndarray

    @property
    def padding(self) -> int:
        return self.kernel // 2


@dataclass
class BatchNormParams:
    """Per-channel affine normalization with running statistics."""

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def identity(cls, channels, dtype=np.float32):
        return cls(
            gamma=np.ones(channels, dtype=dtype),
            beta=np.zeros(channels, dtype=dtype),
            mean=np.zeros(channels, dtype=dtype),
            var=np.ones(channels, dtype=dtype),
        )

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


def _check_conv_input(x: np.ndarray, params: ConvParams) -> None:
    if x.ndim != 4:
        raise ShapeError(f"expected rank-4 NCHW input, got rank {x.ndim}")
    n, c, h, w = x.shape
    if c != params.in_ch:
        raise ShapeError(f"input channels {c} do not match conv in_ch {params.in_ch}")
    if h % params.stride or w % params.stride:
        raise ShapeError(
            f"spatial dims {h}x{w} not divisible by stride {params.stride}"
        )


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Lower NCHW input to a patch matrix of shape (n, c*k*k, out_h*out_w).

    The patches are one strided window view over the zero-padded input,
    reshaped once.  For an unpadded stride-1 input (a 1x1 conv) the reshape
    needs no copy, so the result may be a read-only view of ``x``; callers
    must not write into it.
    """
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if padding:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    else:
        x = np.ascontiguousarray(x)  # the view below indexes x's buffer
    sn, sc, sh, sw = x.strides
    # The view as_strided would build, at about a seventh of its call cost;
    # numpy checks that the strides stay inside x's buffer.
    windows = np.ndarray(
        (n, c, kernel, kernel, out_h, out_w),
        x.dtype,
        x,
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
    )
    windows.flags.writeable = False
    return windows.reshape(n, c * kernel * kernel, out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter-add a patch matrix back to NCHW; the adjoint of im2col."""
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


def _slice_step(x: np.ndarray, params: ConvParams) -> int:
    """Images per batch slice: as many as keep the slice's im2col patch
    matrix within SLICE_BYTES, and at least one."""
    n, c, h, w = x.shape
    k, s = params.kernel, params.stride
    return max(1, SLICE_BYTES // max(1, c * k * k * (h // s) * (w // s) * x.itemsize))


def conv2d_forward(x: np.ndarray, params: ConvParams) -> np.ndarray:
    """Cross-correlate x with the conv weights, one im2col matrix product
    per batch slice, into one output array."""
    _check_conv_input(x, params)
    n, _, h, w = x.shape
    k, s, p = params.kernel, params.stride, params.padding
    w2 = params.weights.reshape(params.out_ch, -1)
    out = np.empty((n, params.out_ch, (h // s) * (w // s)), np.result_type(w2, x))
    bias = params.bias[:, None]
    step = _slice_step(x, params)
    for i in range(0, n, step):
        o = out[i : i + step]
        np.matmul(w2, im2col(x[i : i + step], k, s, p), out=o)
        o += bias
    return out.reshape(n, params.out_ch, h // s, w // s)


def conv2d_backward(
    x: np.ndarray, params: ConvParams, grad_out: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of sum(grad_out * conv2d_forward(x)) w.r.t. x, weights, bias,
    batch slice by batch slice as in conv2d_forward.

    The weight gradient is built transposed, as (in_ch*k*k, out_ch): each
    image's ``cols @ g.T`` is added to it in image order, starting from
    zero, which is how numpy's axis-0 sum over a per-image stack adds; so
    it equals that sum bit for bit without holding the stack.  With
    input_grad=False the input gradient is not computed and None takes its
    place.
    """
    _check_conv_input(x, params)
    n, _, h, w = x.shape
    k, s, p = params.kernel, params.stride, params.padding
    if grad_out.shape != (n, params.out_ch, h // s, w // s):
        raise ShapeError(
            f"grad_out shape {grad_out.shape} does not match conv output "
            f"{(n, params.out_ch, h // s, w // s)}"
        )
    g = grad_out.reshape(n, params.out_ch, -1)
    grad_bias = g.sum(axis=(0, 2))
    w2 = params.weights.reshape(params.out_ch, -1)
    grad_w2t = np.zeros(w2.shape[::-1], np.result_type(g, x))
    term = np.empty_like(grad_w2t)
    grad_input = np.empty(x.shape, np.result_type(w2, g)) if input_grad else None
    step = _slice_step(x, params)
    for i in range(0, n, step):
        xs, gs = x[i : i + step], g[i : i + step]
        cols = im2col(xs, k, s, p)
        for cols_j, g_j in zip(cols, gs):
            np.matmul(cols_j, g_j.T, out=term)
            grad_w2t += term
        if input_grad:
            grad_input[i : i + step] = col2im(np.matmul(w2.T, gs), xs.shape, k, s, p)
    grad_weights = grad_w2t.T.reshape(params.weights.shape)
    return grad_input, grad_weights, grad_bias


def leaky_relu(x: np.ndarray, slope: float = 0.1) -> np.ndarray:
    """max(x, slope * x), for 0 < slope < 1.

    For such slopes this equals ``where(x >= 0, x, slope * x)`` bit for bit,
    signed zeros, subnormals, infinities and NaN included, but needs no
    select over the sign mask, which is slow on inputs of mixed sign.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky ReLU slope must lie in (0, 1), got {slope}")
    out = x * np.asarray(slope, dtype=x.dtype)
    return np.maximum(x, out, out=out)


def leaky_relu_backward(
    mask: np.ndarray, grad_out: np.ndarray, slope: float = 0.1
) -> np.ndarray:
    """grad_out times the leaky ReLU's slope at x, from mask = (x >= 0).

    The mask comes from the input and not the output: a negative subnormal
    x gives ``slope * x == -0``, whose output passes ``>= 0``.  The factor is
    ``mask * (1 - s) + s`` with s the slope in grad_out's dtype, exactly 1
    or s because round-to-nearest makes ``(1 - s) + s`` exactly 1 for every
    s in (0, 1); so the result equals ``grad_out * where(mask, 1, s)`` bit
    for bit, without the select.
    """
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky ReLU slope must lie in (0, 1), got {slope}")
    s = np.asarray(slope, dtype=grad_out.dtype)
    factor = np.multiply(mask, 1 - s, dtype=grad_out.dtype)
    factor += s
    factor *= grad_out
    return factor


def _check_bn_input(x: np.ndarray, params: BatchNormParams) -> None:
    if x.ndim != 4 or x.shape[1] != params.channels:
        raise ShapeError(
            f"batch norm expects NCHW input with {params.channels} channels, "
            f"got shape {tuple(x.shape)}"
        )


class BatchStats(NamedTuple):
    """Per-channel batch mean and 1/sqrt(var + eps) of a train-mode batch
    norm, kept for its backward pass."""

    mean: np.ndarray
    ivar: np.ndarray


def batch_norm(x: np.ndarray, params: BatchNormParams, mode: str = "infer"):
    """Normalize per channel.

    Infer mode uses the stored running statistics and returns the output.
    Train mode uses the batch statistics, updates the running estimates in
    place, and returns (output, BatchStats) for batch_norm_backward.
    """
    _check_bn_input(x, params)
    if mode == "train":
        mu = x.mean(axis=(0, 2, 3))
        # numpy's own x.var sequence, reusing the mean instead of taking it again.
        var = ((x - mu[:, None, None]) ** 2).mean(axis=(0, 2, 3))
        m = params.momentum
        params.mean += (m * (mu - params.mean)).astype(params.mean.dtype)
        params.var += (m * (var - params.var)).astype(params.var.dtype)
    elif mode == "infer":
        mu, var = params.mean, params.var
    else:
        raise ValueError(f"unknown batch norm mode {mode!r}")
    ivar = 1.0 / np.sqrt(var + params.eps)
    scale = (params.gamma * ivar)[:, None, None]
    shift = (params.beta - params.gamma * mu * ivar)[:, None, None]
    out = x * scale
    out += shift
    return (out, BatchStats(mu, ivar)) if mode == "train" else out


def batch_norm_backward(
    x: np.ndarray, params: BatchNormParams, grad_out: np.ndarray, stats: BatchStats
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of train-mode batch norm w.r.t. input, gamma, beta,
    differentiating through the batch statistics that the forward pass
    returned in stats."""
    _check_bn_input(x, params)
    mu, ivar = stats
    # The operations of the textbook expression
    #   xhat = (x - mu) * ivar
    #   grad_x = (gamma * ivar / count)
    #            * (count * grad_out - grad_beta - xhat * grad_gamma)
    # in the same order, so the same rounding, in two activation-sized buffers.
    xhat = x - mu[:, None, None]
    xhat *= ivar[:, None, None]
    grad_beta = grad_out.sum(axis=(0, 2, 3))
    grad_x = np.multiply(grad_out, xhat)
    grad_gamma = grad_x.sum(axis=(0, 2, 3))
    count = x.shape[0] * x.shape[2] * x.shape[3]
    np.multiply(grad_out, count, out=grad_x)
    grad_x -= grad_beta[:, None, None]
    xhat *= grad_gamma[:, None, None]
    grad_x -= xhat
    grad_x *= (params.gamma * ivar)[:, None, None] / count
    return grad_x, grad_gamma, grad_beta


def fold_batch_norm(conv: ConvParams, bn: BatchNormParams) -> ConvParams:
    """Fuse inference-mode batch norm into the preceding convolution.

    The returned conv satisfies forward(x) == batch_norm(conv(x), infer) for
    every x, up to float rounding.
    """
    if bn.channels != conv.out_ch:
        raise ShapeError(
            f"batch norm channels {bn.channels} do not match conv out_ch {conv.out_ch}"
        )
    scale = bn.gamma / np.sqrt(bn.var + bn.eps)
    weights = (conv.weights * scale[:, None, None, None]).astype(conv.weights.dtype)
    bias = (bn.beta + (conv.bias - bn.mean) * scale).astype(conv.bias.dtype)
    return ConvParams(conv.kernel, conv.stride, conv.in_ch, conv.out_ch, weights, bias)
