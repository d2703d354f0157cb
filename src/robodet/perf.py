"""Analytic multiply-accumulate and parameter counting, sparsity-aware
accounting and model comparison tables.

MACs are the unit throughout; batch norm and activation costs are excluded
(well under 1% for these shapes) and bias adds are not counted.  Wall-clock
timing lives in ``perfbench/run.py``, which pins BLAS to one thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HEADS, ModelSpec, build_robo, build_robo_bn, build_robo_hr, head_layer_spec

REPORT_FOOTER = "MAC = one multiply-accumulate; batch norm and activation costs excluded."


@dataclass(frozen=True)
class LayerOps:
    name: str
    macs: int
    params: int
    nonzero: float  # fraction of unmasked weights

    @property
    def effective_macs(self) -> float:
        return self.macs * self.nonzero


@dataclass
class OpReport:
    model: str
    layers: list[LayerOps]

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def total_effective(self) -> float:
        return sum(l.effective_macs for l in self.layers)

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)


def _mask_fraction(masks, name: str) -> float:
    if masks is None:
        return 1.0
    mask = masks.get(name)
    return 1.0 if mask is None else float(np.asarray(mask).mean())


def count_macs(spec: ModelSpec, masks=None) -> OpReport:
    """Per-layer MACs = k^2 * in_ch * out_ch * out_h * out_w, scaled by the
    layer's nonzero weight fraction when masks are given.  Head convolutions
    are included."""
    layers = []
    h, w = spec.input_hw
    for i, layer in enumerate(spec.layers, start=1):
        h //= layer.stride
        w //= layer.stride
        name = f"l{i}"
        macs = layer.kernel**2 * layer.in_ch * layer.out_ch * h * w
        params = layer.kernel**2 * layer.in_ch * layer.out_ch  # no bias: BN follows
        layers.append(LayerOps(name, macs, params, _mask_fraction(masks, name)))
    for head in HEADS:
        ls = head_layer_spec(spec, head)
        gh, gw = spec.head_grid(head)
        macs = ls.in_ch * ls.out_ch * gh * gw
        params = ls.in_ch * ls.out_ch + ls.out_ch
        layers.append(LayerOps(head.name, macs, params, _mask_fraction(masks, head.name)))
    return OpReport(spec.name, layers)


# Tiny YOLOv3 at 416x416, vendored as a static op-count reference.  Only the
# convolutions appear (pooling/upsampling contribute no MACs); each row is
# (name, kernel, in_ch, out_ch, out_h, out_w).
TINY_YOLO_REF_LAYERS = (
    ("conv1", 3, 3, 16, 416, 416),
    ("conv2", 3, 16, 32, 208, 208),
    ("conv3", 3, 32, 64, 104, 104),
    ("conv4", 3, 64, 128, 52, 52),
    ("conv5", 3, 128, 256, 26, 26),
    ("conv6", 3, 256, 512, 13, 13),
    ("conv7", 3, 512, 1024, 13, 13),
    ("conv8", 1, 1024, 256, 13, 13),
    ("conv9", 3, 256, 512, 13, 13),
    ("conv10_det", 1, 512, 255, 13, 13),
    ("conv11", 1, 256, 128, 13, 13),
    ("conv12", 3, 384, 256, 26, 26),
    ("conv13_det", 1, 256, 255, 26, 26),
)


def count_tiny_yolo_ref() -> OpReport:
    layers = [
        LayerOps(name, k * k * ci * co * h * w, k * k * ci * co + co, 1.0)
        for name, k, ci, co, h, w in TINY_YOLO_REF_LAYERS
    ]
    return OpReport("tiny_yolo_ref", layers)


def format_comparison(reports) -> str:
    """Totals of each report, then the first model's MAC ratio over each other."""
    width = max(len(r.model) for r in reports) + 2
    lines = [f"{'model':<{width}}{'MACs':>14}{'effective':>14}{'params':>10}"]
    for r in reports:
        lines.append(
            f"{r.model:<{width}}{r.total_macs:>14,}"
            f"{round(r.total_effective):>14,}{r.total_params:>10,}"
        )
    base = reports[0]
    for r in reports[1:]:
        lines.append(
            f"{base.model}/{r.model} MAC ratio: "
            f"{base.total_macs / r.total_macs:.2f}x "
            f"(effective {base.total_effective / max(r.total_effective, 1):.2f}x)"
        )
    lines.append(REPORT_FOOTER)
    return "\n".join(lines)


def preset_comparison() -> list[OpReport]:
    """Tiny YOLOv3 reference against the three ROBO variants, unpruned."""
    return [
        count_tiny_yolo_ref(),
        count_macs(build_robo(2)),
        count_macs(build_robo_bn(2)),
        count_macs(build_robo_hr()),
    ]


def format_op_report(report: OpReport, csv: bool = False) -> str:
    if csv:
        lines = ["layer,macs,effective_macs,params,nonzero_fraction"]
        for l in report.layers:
            lines.append(
                f"{l.name},{l.macs},{round(l.effective_macs)},{l.params},{l.nonzero:.4f}"
            )
        lines.append(
            f"total,{report.total_macs},{round(report.total_effective)},{report.total_params},"
        )
        return "\n".join(lines) + "\n"
    lines = [f"model: {report.model}"]
    lines.append(f"{'layer':<12}{'MACs':>14}{'effective':>14}{'params':>10}{'nonzero':>9}")
    for l in report.layers:
        lines.append(
            f"{l.name:<12}{l.macs:>14,}{round(l.effective_macs):>14,}"
            f"{l.params:>10,}{l.nonzero:>9.2f}"
        )
    lines.append(
        f"{'total':<12}{report.total_macs:>14,}{round(report.total_effective):>14,}"
        f"{report.total_params:>10,}"
    )
    lines.append(REPORT_FOOTER)
    return "\n".join(lines)
