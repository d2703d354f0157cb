import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Scratch directory shared by the examples of a hypothesis fuzz test."""
    return tmp_path_factory.mktemp("fuzz")


def flip_bytes(raw: bytes, flips) -> bytes:
    """raw with each (position, value) of flips written over it."""
    out = bytearray(raw)
    for pos, value in flips:
        out[pos] = value
    return bytes(out)


def naive_conv2d(x, weights, bias, stride, padding):
    """Six-loop reference convolution (float64), independent of im2col."""
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n, c, h, w = x.shape
    out_ch, in_ch, k, _ = weights.shape
    assert c == in_ch
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    out = np.zeros((n, out_ch, oh, ow))
    for b in range(n):
        for o in range(out_ch):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(in_ch):
                        for ki in range(k):
                            for kj in range(k):
                                acc += (
                                    xp[b, ci, i * stride + ki, j * stride + kj]
                                    * weights[o, ci, ki, kj]
                                )
                    out[b, o, i, j] = acc + bias[o]
    return out


def grad_error(analytic, numeric):
    """Max abs deviation relative to the largest gradient magnitude."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def finite_difference(f, x, delta=1e-3):
    """Central finite-difference gradient of scalar f at array x (float64)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + delta
        hi = f(x)
        flat[i] = orig - delta
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * delta)
    return grad
