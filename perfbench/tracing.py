"""Span tracing from outside the program.

The tracer replaces module attributes that robodet looks up at call time
(``robodet.model.conv2d_forward``, ``robodet.train.augment``, ...) with
wrappers that record one span per call: name, layer, start, end and the
index of the enclosing span.  Spans stay in memory; ``write`` dumps them
when the run ends.  A layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from time import perf_counter_ns

import robodet.data
import robodet.detect
import robodet.evaluate
import robodet.model
import robodet.tensor
import robodet.train
from robodet.perf import count_macs

# The per-conv, batch norm and activation spans must explain at least this
# share of the forward pass; the rest is the forward's own Python loop and
# the tracing cost.
FORWARD_COVER_MIN = 0.9

# (module, attribute, span name) of the wrapped functions whose spans carry
# no layer and no counts.
_PLAIN = (
    (robodet.data, "read_ppm", "data.read"),
    (robodet.data, "rgb_to_yuv", "data.yuv"),
    (robodet.train, "train_loop", "train.loop"),
    (robodet.train, "augment", "train.augment"),
    (robodet.train, "batch_detection_loss", "train.loss"),
    (robodet.train, "adam_step", "train.adam"),
    (robodet.train, "forward_with_cache", "model.train_forward"),
    (robodet.train, "backward", "model.backward"),
    (robodet.model, "forward", "model.forward"),
    (robodet.model, "batch_norm", "tensor.bn"),
    (robodet.model, "batch_norm_backward", "tensor.bn_bwd"),
    (robodet.model, "leaky_relu", "tensor.act"),
    (robodet.model, "leaky_relu_backward", "tensor.act_bwd"),
    (robodet.tensor, "im2col", "tensor.im2col"),
    (robodet.evaluate, "average_precision", "evaluate.ap"),
)


class _CollisionCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("target collision"):
            self.count += 1


class Tracer:
    """Records spans around robodet calls on ``net`` while installed."""

    def __init__(self, net):
        self.net = net
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent]
        self._stack: list[int] = []
        self._layer_of = {id(layer.conv): name for name, layer in net.all_layers()}
        self._patches: list = []
        self.macs: dict[str, set[int]] = defaultdict(set)
        self.counts: dict[str, int] = defaultdict(int)
        self._collisions = _CollisionCounter()

    def wrap(self, name, fn, layer_of_args=None, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            layer = layer_of_args(args) if layer_of_args else None
            rec = [name, layer, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _patch(self, module, attr, name, **kw):
        orig = getattr(module, attr)
        self._patches.append((module, attr, orig))
        setattr(module, attr, self.wrap(name, orig, **kw))

    def install(self) -> None:
        for module, attr, name in _PLAIN:
            self._patch(module, attr, name)
        conv_layer = lambda args: self._layer_of[id(args[1])]
        self._patch(robodet.model, "conv2d_forward", "tensor.conv_fwd",
                    layer_of_args=conv_layer, after=self._count_macs)
        self._patch(robodet.model, "conv2d_backward", "tensor.conv_bwd",
                    layer_of_args=conv_layer)
        self._patch(robodet.detect, "decode_network_output", "detect.decode",
                    after=self._count_candidates)
        self._patch(robodet.detect, "postprocess", "detect.post",
                    after=self._count_kept)
        self._patch(robodet.evaluate, "match", "evaluate.match",
                    after=self._count_matches)
        logging.getLogger("robodet.train").addHandler(self._collisions)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()
        logging.getLogger("robodet.train").removeHandler(self._collisions)

    def _count_macs(self, args, out):
        x, p = args[0], args[1]
        per_image = (p.kernel * p.kernel * p.in_ch * p.out_ch
                     * (x.shape[2] // p.stride) * (x.shape[3] // p.stride))
        self.macs[self._layer_of[id(p)]].add(per_image)

    def _count_candidates(self, args, out):
        lo, hi = out
        self.counts["candidates"] += len(lo) + len(hi)

    def _count_kept(self, args, out):
        self.counts["offered"] += len(args[0]) + len(args[1])
        self.counts["kept"] += len(out)

    def _count_matches(self, args, out):
        dets, gts = args[0], args[1]
        self.counts["pairs"] += len(dets) * len(gts)
        self.counts["matched_dets"] += len(dets)
        self.counts["tp"] += int(out.sum())

    def write(self, path) -> None:
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")

    def layer_metrics(self, images: int) -> tuple[dict, list[str]]:
        """Per-layer metrics in ms per image plus counts, and the list of
        failed consistency checks."""
        dur = [end - start for _, _, start, end, _ in self.spans]
        child = [0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            if rec[4] >= 0:
                child[rec[4]] += dur[i]
        total = defaultdict(int)
        self_ns = defaultdict(int)
        im2col_fwd = defaultdict(int)
        for i, (name, layer, _, _, parent) in enumerate(self.spans):
            total[name, layer] += dur[i]
            self_ns[name, layer] += dur[i] - child[i]
            if name == "tensor.im2col" and parent >= 0:
                pname, player = self.spans[parent][:2]
                if pname == "tensor.conv_fwd":
                    im2col_fwd[player] += dur[i]

        ms = lambda ns: ns / 1e6 / images
        m = {
            "data.read_ms": ms(total["data.read", None]),
            "data.yuv_ms": ms(total["data.yuv", None]),
            "train.augment_ms": ms(total["train.augment", None]),
            "train.loss_ms": ms(total["train.loss", None]),
            "train.adam_ms": ms(total["train.adam", None]),
            "train.self_ms": ms(self_ns["train.loop", None]),
            "train.collisions": self._collisions.count / images,
            "model.forward_ms": ms(total["model.forward", None]),
            "model.train_forward_ms": ms(total["model.train_forward", None]),
            "model.backward_ms": ms(self_ns["model.backward", None]),
        }
        net = self.net
        report = count_macs(net.spec, net.mask_dict())
        dense = {l.name: l.macs for l in report.layers}
        m["model.mac_density"] = report.total_effective / report.total_macs
        problems = []
        fwd_sum = 0
        for name, _ in net.all_layers():
            fwd = total["tensor.conv_fwd", name]
            fwd_sum += fwd
            m[f"tensor.conv_fwd_ms.{name}"] = ms(fwd)
            m[f"tensor.im2col_ms.{name}"] = ms(im2col_fwd[name])
            m[f"tensor.conv_bwd_ms.{name}"] = ms(total["tensor.conv_bwd", name])
            m[f"tensor.gmac_s.{name}"] = dense[name] * images / fwd if fwd else 0.0
            if self.macs[name] != {dense[name]}:
                problems.append(
                    f"MACs of {name}: traced {sorted(self.macs[name])}, "
                    f"count_macs {dense[name]}"
                )
        for short, name in (("bn", "tensor.bn"), ("bn_bwd", "tensor.bn_bwd"),
                            ("act", "tensor.act"), ("act_bwd", "tensor.act_bwd")):
            m[f"tensor.{short}_ms"] = ms(total[name, None])
        c = self.counts
        m["detect.decode_ms"] = ms(total["detect.decode", None])
        m["detect.post_ms"] = ms(total["detect.post", None])
        m["detect.candidates"] = c["candidates"] / images
        m["detect.keep_ratio"] = c["kept"] / c["offered"] if c["offered"] else 0.0
        m["evaluate.match_ms"] = ms(total["evaluate.match", None])
        m["evaluate.ap_ms"] = ms(total["evaluate.ap", None])
        m["evaluate.pairs"] = c["pairs"] / images
        m["evaluate.tp_ratio"] = c["tp"] / c["matched_dets"] if c["matched_dets"] else 0.0
        for name, layer in net.all_layers():
            m[f"model.sparsity.{name}"] = 1.0 - float(layer.mask.mean())

        forward = total["model.forward", None] + total["model.train_forward", None]
        covered = fwd_sum + total["tensor.bn", None] + total["tensor.act", None]
        m["trace.forward_cover"] = covered / forward
        if not FORWARD_COVER_MIN <= m["trace.forward_cover"] <= 1.0:
            problems.append(
                f"per-layer forward spans cover {m['trace.forward_cover']:.3f} of "
                f"the forward time, outside [{FORWARD_COVER_MIN}, 1]"
            )
        return m, problems
