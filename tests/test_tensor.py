import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robodet import tensor
from robodet.model import build_robo
from robodet.tensor import (
    BatchNormParams,
    ConvParams,
    ShapeError,
    batch_norm,
    batch_norm_backward,
    conv2d_backward,
    conv2d_forward,
    fold_batch_norm,
    im2col,
    leaky_relu,
    leaky_relu_backward,
)

from conftest import finite_difference, grad_error, naive_conv2d


def random_conv(rng, kernel, stride, in_ch, out_ch, dtype=np.float64):
    w = rng.normal(0, 0.5, (out_ch, in_ch, kernel, kernel)).astype(dtype)
    b = rng.normal(0, 0.5, out_ch).astype(dtype)
    return ConvParams(stride, w, b)


def bn64(channels):
    """Identity batch norm parameters in float64."""
    return BatchNormParams(np.ones(channels), np.zeros(channels), np.zeros(channels),
                           np.ones(channels))


class TestConvForward:
    def test_1x1_scalar_scaling(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        p = ConvParams(1, np.full((1, 1, 1, 1), 2.0, np.float32), np.zeros(1, np.float32))
        out = conv2d_forward(x, p)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(out, 2.0)

    def test_first_downscale_shape(self, rng):
        x = rng.random((1, 3, 384, 512), dtype=np.float32)
        p = random_conv(rng, 3, 2, 3, 4, dtype=np.float32)
        assert conv2d_forward(x, p).shape == (1, 4, 192, 256)

    @pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (3, 2)])
    def test_matches_naive_oracle(self, rng, kernel, stride):
        x = rng.normal(0, 1, (1, 2, 6, 6)).astype(np.float32)
        p = random_conv(rng, kernel, stride, 2, 3, dtype=np.float32)
        got = conv2d_forward(x, p)
        want = naive_conv2d(x, p.weights, p.bias, stride, p.padding)
        assert np.abs(got - want).max() < 1e-5

    def test_identity_kernel_strided_is_subsampling(self):
        x = np.arange(64, dtype=np.float32).reshape(1, 1, 8, 8)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        p = ConvParams(2, w, np.zeros(1, np.float32))
        out = conv2d_forward(x, p)
        np.testing.assert_array_equal(out[0, 0], x[0, 0, ::2, ::2])

    def test_geometry_reads_the_weight_shape(self, rng):
        p = random_conv(rng, 3, 2, 5, 7)
        assert (p.kernel, p.stride, p.in_ch, p.out_ch, p.padding) == (3, 2, 5, 7, 1)
        p.weights = rng.normal(0, 1, (4, 6, 1, 1))
        assert (p.kernel, p.in_ch, p.out_ch, p.padding) == (1, 6, 4, 0)

    def test_channel_mismatch_raises(self, rng):
        p = random_conv(rng, 3, 1, 3, 4)
        with pytest.raises(ShapeError, match="channels"):
            conv2d_forward(np.zeros((1, 5, 8, 8)), p)

    def test_stride_divisibility_raises(self, rng):
        p = random_conv(rng, 3, 2, 1, 2)
        with pytest.raises(ShapeError, match="stride"):
            conv2d_forward(np.zeros((1, 1, 7, 8)), p)

    def test_im2col_patch_count(self, rng):
        x = rng.random((2, 3, 8, 8))
        cols = im2col(x, 3, 2, 1)
        assert cols.shape == (2, 27, 16)


class TestConvBackward:
    def test_zero_grad_out(self, rng):
        x = rng.normal(0, 1, (1, 2, 4, 4))
        p = random_conv(rng, 3, 1, 2, 2)
        gx, gw, gb = conv2d_backward(x, p, np.zeros((1, 2, 4, 4)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_1x1_linear_case(self, rng):
        x = rng.normal(0, 1, (1, 1, 3, 3))
        p = random_conv(rng, 1, 1, 1, 1)
        g = rng.normal(0, 1, (1, 1, 3, 3))
        _, gw, gb = conv2d_backward(x, p, g)
        assert gw[0, 0, 0, 0] == pytest.approx((x * g).sum())
        assert gb[0] == pytest.approx(g.sum())

    @pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (3, 2)])
    def test_matches_finite_differences(self, rng, kernel, stride):
        x = rng.normal(0, 1, (2, 2, 4, 4))
        p = random_conv(rng, kernel, stride, 2, 3)
        g = rng.normal(0, 1, conv2d_forward(x, p).shape)
        gx, gw, gb = conv2d_backward(x, p, g)

        fd_x = finite_difference(lambda v: (conv2d_forward(v, p) * g).sum(), x)
        assert grad_error(gx, fd_x) < 1e-4

        def loss_of_w(w):
            q = ConvParams(p.stride, w, p.bias)
            return (conv2d_forward(x, q) * g).sum()

        assert grad_error(gw, finite_difference(loss_of_w, p.weights)) < 1e-4

        def loss_of_b(b):
            q = ConvParams(p.stride, p.weights, b)
            return (conv2d_forward(x, q) * g).sum()

        assert grad_error(gb, finite_difference(loss_of_b, p.bias)) < 1e-4

    def test_grad_shape_mismatch_raises(self, rng):
        x = rng.normal(0, 1, (1, 2, 4, 4))
        p = random_conv(rng, 3, 1, 2, 2)
        with pytest.raises(ShapeError, match="grad_out"):
            conv2d_backward(x, p, np.zeros((1, 2, 5, 4)))


def im2col_reference(x, kernel, stride, padding):
    """Frozen copy of the earlier im2col: np.pad plus one slice copy per tap."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, i, j] = x[
                :, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
            ]
    return cols.reshape(n, c * kernel * kernel, out_h * out_w)


def leaky_relu_reference(x, slope=0.1):
    """Frozen copy of the earlier select-based leaky ReLU."""
    return np.where(x >= 0, x, x * np.asarray(slope, dtype=x.dtype))


def leaky_relu_backward_reference(x, grad_out, slope=0.1):
    """Frozen copy of the earlier select-based leaky ReLU backward."""
    return grad_out * np.where(x >= 0, np.asarray(1, grad_out.dtype), slope)


def special_values(dtype):
    """±0, ±smallest subnormal, ±max, ±inf, NaN and ±1 in dtype."""
    tiny = np.finfo(dtype).smallest_subnormal
    big = np.finfo(dtype).max
    return np.array([0.0, -0.0, tiny, -tiny, big, -big, np.inf, -np.inf, np.nan, 1.0, -1.0],
                    dtype=dtype)


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestIm2colOracle:
    @given(
        n=st.sampled_from([1, 3]),
        c=st.integers(1, 4),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        kernel=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2]),
        dtype=st.sampled_from([np.float32, np.float64]),
        layout=st.sampled_from(["contiguous", "flipped", "fortran"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_slice_loop(self, n, c, h, w, kernel, stride, dtype, layout, seed):
        x = np.random.default_rng(seed).normal(0, 1, (n, c, h * stride, w * stride))
        x = x.astype(dtype)
        if layout == "flipped":  # negative strides: a non-contiguous view
            x = x[:, ::-1, :, ::-1]
        elif layout == "fortran":
            x = np.asfortranarray(x)
        padding = kernel // 2
        assert_bitwise_equal(im2col(x, kernel, stride, padding),
                             im2col_reference(x, kernel, stride, padding))

    def test_1x1_result_is_read_only_view(self, rng):
        x = rng.normal(0, 1, (2, 3, 4, 4))
        cols = im2col(x, 1, 1, 0)
        assert np.shares_memory(cols, x)
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 0, 0] = 1.0


class TestLeakyRelu:
    def test_basic_values(self):
        out = leaky_relu(np.array([1.0, -1.0], dtype=np.float32))
        np.testing.assert_allclose(out, [1.0, -0.1], rtol=1e-6)

    def test_non_negative_identity(self, rng):
        x = rng.random((2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(leaky_relu(x), x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_special_values_match_select_oracle(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, np.finfo(dtype).max, -np.finfo(dtype).max,
                      np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0], dtype=dtype)
        assert_bitwise_equal(leaky_relu(x), leaky_relu_reference(x))
        assert np.signbit(leaky_relu(x)[1])  # -0 stays -0

    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        slope=st.floats(1e-3, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_select_oracle(self, dtype, slope, seed):
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):  # float32 overflow to ±inf is a wanted input
            x = (rng.normal(0, 1, 200) * 10.0 ** rng.integers(-46, 40, 200)).astype(dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "LEAKY_SLOPE", slope)
            assert_bitwise_equal(leaky_relu(x), leaky_relu_reference(x, slope))

    def test_returns_a_new_array_and_leaves_input_unchanged(self, rng):
        x = rng.normal(0, 1, (2, 3, 4, 4)).astype(np.float32)
        before = x.copy()
        out = leaky_relu(x)
        assert out is not x and not np.shares_memory(out, x)
        assert out.dtype == x.dtype and out.shape == x.shape
        assert_bitwise_equal(x, before)
        assert_bitwise_equal(out, leaky_relu_reference(before))

    def test_backward_matches_fd_away_from_zero(self, rng):
        x = rng.normal(0, 1, (2, 2, 4, 4))
        x[np.abs(x) < 1e-2] = 0.5  # kink exclusion
        g = rng.normal(0, 1, x.shape)
        gx = leaky_relu_backward(x >= 0, g)
        fd = finite_difference(lambda v: (leaky_relu(v) * g).sum(), x)
        assert grad_error(gx, fd) < 1e-4


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_special_values_match_select_oracle(self, dtype):
        # Every special input against every special gradient.
        x, g = np.meshgrid(special_values(dtype), special_values(dtype))
        assert_bitwise_equal(leaky_relu_backward(x >= 0, g),
                             leaky_relu_backward_reference(x, g))

    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        slope=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_backward_matches_select_oracle(self, dtype, slope, seed):
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):  # float32 overflow to ±inf is a wanted input
            x, g = (rng.normal(0, 1, (2, 200)) * 10.0 ** rng.integers(-330, 310, (2, 200))
                    ).astype(dtype)
        g[:11] = special_values(dtype)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "LEAKY_SLOPE", slope)
            with np.errstate(invalid="ignore"):  # inf times a slope that rounds to 0
                assert_bitwise_equal(leaky_relu_backward(x >= 0, g),
                                     leaky_relu_backward_reference(x, g, slope))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_subnormals_have_non_negative_output(self, dtype):
        # Why the forward cache keeps the sign mask of the input and not the
        # output: slope * x underflows to -0 on the smallest negative
        # subnormals, so the output's sign test passes where the input's fails.
        x = -np.arange(1, 8, dtype=dtype) * np.finfo(dtype).smallest_subnormal
        out = leaky_relu(x)
        assert list(out >= 0) == [True] * 4 + [False] * 3
        g = np.ones_like(x)
        assert_bitwise_equal(leaky_relu_backward(x >= 0, g), np.full_like(x, 0.1))
        assert np.all(leaky_relu_backward(out >= 0, g)[:4] == 1)


class TestBatchNorm:
    def test_standardized_input_passthrough(self, rng):
        x = rng.normal(0, 1, (4, 3, 8, 8))
        x -= x.mean(axis=(0, 2, 3), keepdims=True)
        x /= x.std(axis=(0, 2, 3), keepdims=True)
        p = bn64(3)
        out, _ = batch_norm(x, p, "train")
        assert np.abs(out - x).max() < 1e-4  # only the eps effect remains

    def test_zero_gamma_gives_beta(self, rng):
        x = rng.normal(0, 1, (2, 3, 4, 4))
        p = bn64(3)
        p.gamma[:] = 0.0
        p.beta[:] = np.array([1.0, 2.0, 3.0])
        out, _ = batch_norm(x, p, "train")
        for c in range(3):
            np.testing.assert_allclose(out[:, c], p.beta[c])

    def test_train_updates_running_stats(self, rng):
        x = rng.normal(3.0, 2.0, (4, 2, 8, 8))
        p = bn64(2)
        batch_norm(x, p, "train")
        expected_mean = 0.1 * x.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(p.mean, expected_mean, rtol=1e-6)

    def test_infer_uses_running_stats(self, rng):
        x = rng.normal(0, 1, (1, 2, 4, 4))
        p = bn64(2)
        p.mean[:] = [1.0, -1.0]
        p.var[:] = [4.0, 0.25]
        out = batch_norm(x, p, "infer")
        want = (x - p.mean[:, None, None]) / np.sqrt(p.var + p.eps)[:, None, None]
        np.testing.assert_allclose(out, want, rtol=1e-6)

    @pytest.mark.parametrize("mode", ["train"])
    def test_backward_matches_fd(self, rng, mode):
        x = rng.normal(0, 1, (2, 2, 4, 4))
        p = bn64(2)
        p.gamma[:] = rng.uniform(0.5, 1.5, 2)
        p.beta[:] = rng.normal(0, 1, 2)
        p.mean[:] = rng.normal(0, 1, 2)
        p.var[:] = rng.uniform(0.5, 2.0, 2)
        g = rng.normal(0, 1, x.shape)
        _, stats = batch_norm(x, copy.deepcopy(p), mode)
        gx, ggamma, gbeta = batch_norm_backward(x, p, g, stats)

        def run(v, gamma=None, beta=None):
            q = BatchNormParams(
                gamma if gamma is not None else p.gamma.copy(),
                beta if beta is not None else p.beta.copy(),
                p.mean.copy(), p.var.copy(),
            )
            return (batch_norm(v, q, mode)[0] * g).sum()

        assert grad_error(gx, finite_difference(run, x)) < 1e-3
        assert grad_error(
            ggamma, finite_difference(lambda v: run(x, gamma=v), p.gamma)
        ) < 1e-3
        assert grad_error(
            gbeta, finite_difference(lambda v: run(x, beta=v), p.beta)
        ) < 1e-3

    @pytest.mark.parametrize("i", range(1, len(build_robo(1).layers) + 1), ids=lambda i: f"l{i}")
    def test_train_statistics_equal_numpy_var_bitwise(self, rng, i):
        # Batch 16 at robo k=1: the shapes every training step normalizes.
        spec = build_robo(1)
        layer = spec.layers[i - 1]
        h, w = spec.input_hw
        for ls in spec.layers[:i]:
            h, w = h // ls.stride, w // ls.stride
        shape = (16, layer.out_ch, h, w)
        x = (rng.normal(0, 1, shape) * rng.uniform(0.1, 3, shape[1])[:, None, None]
             + rng.normal(0, 2, shape[1])[:, None, None]).astype(np.float32)
        p = BatchNormParams.identity(layer.out_ch)
        _, stats = batch_norm(x, p, "train")
        var = x.var(axis=(0, 2, 3))
        want = BatchNormParams.identity(layer.out_ch)
        want.var += (want.momentum * (var - want.var)).astype(np.float32)
        assert p.var.tobytes() == want.var.tobytes()
        assert stats.ivar.tobytes() == (1.0 / np.sqrt(var + p.eps)).tobytes()

    def test_channel_mismatch_raises(self):
        p = BatchNormParams.identity(3)
        with pytest.raises(ShapeError):
            batch_norm(np.zeros((1, 2, 4, 4), np.float32), p, "infer")


class TestFoldBatchNorm:
    def test_identity_bn_keeps_weights(self, rng):
        conv = random_conv(rng, 3, 1, 2, 3)
        bn = bn64(3)
        folded = fold_batch_norm(conv, bn)
        np.testing.assert_allclose(folded.weights, conv.weights, rtol=1e-5)

    def test_folded_equals_conv_then_bn(self, rng):
        conv = random_conv(rng, 3, 2, 3, 4, dtype=np.float32)
        bn = BatchNormParams.identity(4)
        bn.gamma[:] = rng.uniform(0.5, 1.5, 4).astype(np.float32)
        bn.beta[:] = rng.normal(0, 1, 4).astype(np.float32)
        bn.mean[:] = rng.normal(0, 1, 4).astype(np.float32)
        bn.var[:] = rng.uniform(0.5, 2.0, 4).astype(np.float32)
        x = rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32)
        want = batch_norm(conv2d_forward(x, conv), bn, "infer")
        got = conv2d_forward(x, fold_batch_norm(conv, bn))
        assert np.abs(got - want).max() < 1e-4

    def test_zero_weight_conv_bias(self, rng):
        conv = ConvParams(1, np.zeros((3, 2, 3, 3)), np.zeros(3))
        bn = bn64(3)
        bn.gamma[:] = [1.0, 2.0, 0.5]
        bn.mean[:] = [0.5, -1.0, 2.0]
        bn.var[:] = [1.0, 4.0, 0.25]
        folded = fold_batch_norm(conv, bn)
        want = bn.beta - bn.gamma * bn.mean / np.sqrt(bn.var + bn.eps)
        np.testing.assert_allclose(folded.bias, want, rtol=1e-6)
        assert not folded.weights.any()
