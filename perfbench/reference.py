"""Output checks: an independent float64 forward pass, and outputs recorded
from robodet at the commit that defined the benchmark.

Run ``python3 perfbench/reference.py`` from the repository root to record
``reference.npz`` again; do so only when a change is meant to alter what
the detector outputs.
"""

from __future__ import annotations

import bootstrap  # noqa: F401  (pins BLAS threads before numpy loads)

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from robodet.model import HEAD_HI, HEAD_LO

# Head outputs may differ from the reference by this much, relative to the
# largest reference magnitude of the head.
MAX_REL_ERR = 1e-5
# The recorded mAPs are compared with this absolute tolerance.
MAP_TOL = 1e-9
# Inputs of the recorded reference: the workload set-up at this seed.
REF_SEED = 0
REF_FRAMES = 2


def _conv64(x, conv):
    k, s, pad = conv.kernel, conv.stride, conv.kernel // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    w = conv.weights.astype(np.float64)
    out = np.einsum("nchwij,ocij->nohw", win, w, optimize=True)
    return out + conv.bias.astype(np.float64)[:, None, None]


def forward64(net, x):
    """Inference-mode head outputs computed in float64 by direct
    convolution, sharing no code with robodet's forward pass."""
    h = x.astype(np.float64)
    taps = {}
    for layer in net.layers:
        h = _conv64(h, layer.conv)
        bn = layer.bn
        if bn is not None:
            scale = bn.gamma.astype(np.float64) / np.sqrt(bn.var.astype(np.float64) + bn.eps)
            h = (h - bn.mean.astype(np.float64)[:, None, None]) * scale[:, None, None]
            h = h + bn.beta.astype(np.float64)[:, None, None]
        if layer.spec.activation == "leaky":
            h = np.where(h >= 0, h, 0.1 * h)
        if layer.spec.tap:
            taps[layer.spec.tap] = h
    return tuple(_conv64(taps[name], net.heads[name].conv) for name in (HEAD_LO, HEAD_HI))


def rel_err(out, ref) -> float:
    return float(np.abs(out - ref).max() / np.abs(ref).max())


def heads_match(heads, ref_heads) -> bool:
    return all(
        o.shape == r.shape and rel_err(o, r) <= MAX_REL_ERR
        for o, r in zip(heads, ref_heads)
    )


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    import workloads

    root = Path(__file__).resolve().parent
    arrays = {}
    with tempfile.TemporaryDirectory(dir=root.parent) as tmp:
        ctx = workloads.setup_detect(Path(tmp) / "detect", REF_SEED)
        for i in range(REF_FRAMES):
            lo, hi, _ = workloads.detect_frame(ctx, i)
            arrays[f"detect_lo_{i}"], arrays[f"detect_hi_{i}"] = lo, hi
        ctx = workloads.setup(Path(tmp) / "eval", REF_SEED)
        arrays["eval_map"] = np.array(workloads.eval_pass(ctx), dtype=np.float64)
    np.savez(root / "reference.npz", **arrays)
    print(f"wrote {root / 'reference.npz'}", file=sys.stderr)
