"""Single `robodet` executable covering the whole pipeline:

    gen-data  anchors  train  transfer  prune  detect  eval  ops

Exit codes: 0 success, 1 flag/validation error (a bad flag or bad input
content: any ValueError), 2 runtime failure (a missing or unusable file or a
failed run: OSError or RuntimeError).  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import detect as detect_mod
from . import evaluate as eval_mod
from . import model as model_mod
from . import perf as perf_mod
from . import train as train_mod

OVERLAY_COLORS = {
    0: (255, 165, 0),  # ball: orange
    1: (0, 255, 255),  # crossing: cyan
    2: (255, 255, 0),  # goalpost: yellow
    3: (255, 0, 255),  # robot: magenta
}

# 3x5 bitmap glyphs for confidence labels.
_GLYPHS = {
    "0": ("111", "101", "101", "101", "111"),
    "1": ("010", "110", "010", "010", "111"),
    "2": ("111", "001", "111", "100", "111"),
    "3": ("111", "001", "111", "001", "111"),
    "4": ("101", "101", "111", "001", "001"),
    "5": ("111", "100", "111", "001", "111"),
    "6": ("111", "100", "111", "101", "111"),
    "7": ("111", "001", "010", "010", "010"),
    "8": ("111", "101", "111", "101", "111"),
    "9": ("111", "101", "111", "001", "111"),
    ".": ("000", "000", "000", "000", "010"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def box_pixel_rect(box, width: int, height: int):
    """Half-open pixel rectangle of a normalized box, clipped to the image.

    Returns inclusive (x0, y0, x1, y1) corner coordinates.
    """
    x0 = int(round((box.cx - box.w / 2) * width))
    x1 = int(round((box.cx + box.w / 2) * width)) - 1
    y0 = int(round((box.cy - box.h / 2) * height))
    y1 = int(round((box.cy + box.h / 2) * height)) - 1
    x0, x1 = max(x0, 0), min(x1, width - 1)
    y0, y1 = max(y0, 0), min(y1, height - 1)
    return x0, y0, x1, y1


def _draw_label(image, text: str, x: int, y: int, color):
    h, w = image.shape[:2]
    cursor = x
    for ch in text:
        glyph = _GLYPHS.get(ch)
        if glyph is None:
            cursor += 4
            continue
        for row, bits in enumerate(glyph):
            for col, bit in enumerate(bits):
                if bit == "1" and 0 <= y + row < h and 0 <= cursor + col < w:
                    image[y + row, cursor + col] = color
        cursor += 4


def render_overlay(image: np.ndarray, detections, out_path) -> None:
    """Write a copy of the image with class-colored boxes and confidence
    labels; boxes are clipped to the image."""
    canvas = image.copy()
    h, w = canvas.shape[:2]
    for det in detections:
        color = OVERLAY_COLORS[det.class_id]
        x0, y0, x1, y1 = box_pixel_rect(det.box, w, h)
        if x1 < x0 or y1 < y0:
            continue
        canvas[y0, x0 : x1 + 1] = color
        canvas[y1, x0 : x1 + 1] = color
        canvas[y0 : y1 + 1, x0] = color
        canvas[y0 : y1 + 1, x1] = color
        label = f"{det.confidence:.2f}"
        _draw_label(canvas, label, x0 + 1, max(y0 - 6, 0), color)
    data_mod.write_ppm(out_path, canvas)


def _train_config(args) -> tuple[train_mod.TrainConfig, train_mod.LossWeights]:
    """TrainConfig and LossWeights from --config (or the defaults), each flag
    on top of the field of its name; a flag the command lacks or leaves unset
    keeps the file's value.  An error in the file names the file."""
    if args.config:
        text = "".join(data_mod._read_lines(args.config))
        cfg, lw = train_mod.parse_config(text, args.config)
    else:
        cfg, lw = train_mod.TrainConfig(), train_mod.LossWeights()
    given = {k: v for k, v in vars(args).items() if v is not None}
    cfg, lw = (replace(obj, **{f.name: given[f.name] for f in fields(obj) if f.name in given})
               for obj in (cfg, lw))
    return cfg, lw


def _check_image_size(spec: model_mod.ModelSpec, source, size) -> None:
    """Exit 1 unless a (width, height) image size is spec's input size."""
    h, w = spec.input_hw
    if size != (w, h):
        raise ValueError(f"{source}: image size {size[0]}x{size[1]} does not match the "
                         f"{spec.name} k={spec.k} input {w}x{h}")


def _load_index(path, spec: model_mod.ModelSpec):
    """The dataset index at path (None for no path), checked against spec's
    input size before any sample loads."""
    if not path:
        return None
    index = data_mod.load_index(path)
    _check_image_size(spec, path, index.image_size)
    return index


def _check_out(path) -> None:
    """Fail (exit 2) before any work when the output weight file cannot be
    created: path is a directory or its parent directory does not exist."""
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not out.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "parent directory does not exist", path)


def _dataset_anchors(index: data_mod.DatasetIndex) -> np.ndarray:
    """compute_anchors over a dataset; a class that has no box there raises
    ValueError naming the dataset directory."""
    try:
        return detect_mod.compute_anchors(data_mod.load_all_annotations(index))
    except ValueError as exc:
        raise ValueError(f"{index.root}: {exc}") from exc


def _resolve_anchors(args, index) -> np.ndarray:
    if getattr(args, "anchors", None):
        return data_mod.load_anchors(args.anchors)
    return _dataset_anchors(index)


def _add_train_flags(p, require_model=True):
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--val", help="validation dataset directory")
    p.add_argument("--out", required=True, help="output weight file")
    p.add_argument("--config", help="key=value training config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr-max", dest="lr_max", type=float)
    p.add_argument("--lr-min", dest="lr_min", type=float)
    p.add_argument("--l1", type=float, help="L1 regularization weight")
    p.add_argument("--anchors", help="anchors file (default: computed from --data)")
    p.add_argument("--log", help="append per-epoch metrics CSV here")
    p.add_argument("--seed", type=int, default=None)
    if require_model:
        p.add_argument("--model", default="robo", choices=sorted(model_mod._BUILDERS))
        p.add_argument("--k", type=_positive_int, default=1, help="resolution multiplier")


def cmd_gen_data(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    index = data_mod.generate_toy_dataset(args.n, args.style, args.seed, args.out)
    print(f"wrote {len(index)} images to {index.root}")
    return 0


def cmd_anchors(args) -> int:
    index = data_mod.load_index(args.data)
    anchors = _dataset_anchors(index)
    out = args.out or str(Path(args.data) / "anchors.txt")
    data_mod.save_anchors(out, anchors)
    for name, (aw, ah) in zip(model_mod.CLASS_NAMES, anchors):
        print(f"{name}: {aw:.4f} x {ah:.4f}")
    print(f"anchors written to {out}")
    return 0


def cmd_train(args) -> int:
    cfg, lw = _train_config(args)
    spec = model_mod.build_spec(args.model, args.k)
    _check_out(args.out)
    index = _load_index(args.data, spec)
    val_index = _load_index(args.val, spec)
    net = model_mod.init_network(spec, cfg.seed)
    net.anchors = _resolve_anchors(args, index)
    metrics = train_mod.train_loop(net, index, cfg, lw, val_index=val_index,
                                   log_path=args.log)
    model_mod.save_weights(net, args.out)
    print(f"trained {spec.name} for {len(metrics)} epochs, "
          f"final loss {metrics[-1]['loss']:.4f}; weights -> {args.out}")
    return 0


def cmd_transfer(args) -> int:
    cfg, lw = _train_config(args)
    if cfg.transfer_layers is None:
        raise ValueError("--transfer-layers is required (0 = all layers at reduced rate)")
    _check_out(args.out)
    net = model_mod.load_weights(args.weights)
    train_mod.check_transfer_layers(net, cfg.transfer_layers)
    index = _load_index(args.data, net.spec)
    val_index = _load_index(args.val, net.spec)
    train_mod.transfer_finetune(net, index, cfg, lw, val_index=val_index,
                                log_path=args.log)
    model_mod.save_weights(net, args.out)
    print(f"transfer-finetuned first {cfg.transfer_layers} layers; weights -> {args.out}")
    return 0


def cmd_prune(args) -> int:
    if not 0.0 < args.theta < 1.0:
        raise ValueError(f"--theta must lie in (0, 1), got {args.theta}")
    if args.finetune and not args.data:
        raise ValueError("--finetune requires --data")
    cfg, lw = _train_config(args)
    _check_out(args.out)
    net = model_mod.load_weights(args.weights)
    if args.finetune:
        index = _load_index(args.data, net.spec)
        val_index = _load_index(args.val, net.spec)
    print(train_mod.prune(net, args.theta))
    if args.finetune:
        train_mod.finetune_pruned(net, index, cfg, lw, val_index=val_index)
    model_mod.save_weights(net, args.out)
    print(f"pruned weights -> {args.out}")
    return 0


def _positive_int(text: str) -> int:
    """argparse type for counts and multipliers: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _check_conf(conf: float) -> None:
    if not 0.0 <= conf <= 1.0:
        raise ValueError(f"--conf must lie in [0, 1], got {conf}")


def cmd_detect(args) -> int:
    _check_conf(args.conf)
    if args.nms is not None and not 0.0 < args.nms <= 1.0:
        raise ValueError(f"--nms must lie in (0, 1], got {args.nms}")
    net = model_mod.load_weights(args.weights)
    for image_path in args.images:
        _check_image_size(net.spec, image_path, data_mod.ppm_size(image_path))
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for image_path in args.images:
        image = data_mod.read_ppm(image_path)
        x = data_mod.rgb_to_yuv(image)[None]
        raw_lo, raw_hi = model_mod.forward(net, x)
        lo, hi = detect_mod.decode_network_output(raw_lo, raw_hi, net.spec, net.anchors)
        dets = detect_mod.postprocess(lo, hi, conf_threshold=args.conf, nms_iou=args.nms)
        dump = detect_mod.format_detections(dets)
        stem = Path(image_path).stem
        if out_dir:
            (out_dir / f"{stem}.txt").write_text(dump)
            render_overlay(image, dets, out_dir / f"{stem}_overlay.ppm")
        else:
            sys.stdout.write(f"# {image_path}\n{dump}")
    if out_dir:
        print(f"detections written to {out_dir}")
    return 0


def cmd_eval(args) -> int:
    _check_conf(args.conf)
    index = data_mod.load_index(args.data)
    nets = [model_mod.load_weights(path) for path in args.weights]
    for net in nets:
        _check_image_size(net.spec, args.data, index.image_size)
    rows = [(Path(path).stem, eval_mod.evaluate(net, index, conf_threshold=args.conf))
            for path, net in zip(args.weights, nets)]
    labels = [r.criterion.label for r in rows[0][1]]
    name_w = max(len(name) for name, _ in rows) + 2
    print(f"{'model':<{name_w}}" + "".join(f"{l:>12}" for l in labels))
    for name, reports in rows:
        print(f"{name:<{name_w}}" + "".join(f"{r.map:>12.4f}" for r in reports))
    if args.out:
        eval_mod.write_report_csv(args.out, rows)
        print(f"report -> {args.out}")
    if args.per_class:
        eval_mod.write_per_class_csv(args.per_class, rows)
        print(f"per-class report -> {args.per_class}")
    return 0


def cmd_ops(args) -> int:
    if args.weights:
        net = model_mod.load_weights(args.weights)
        spec = net.spec
        if args.model not in (None, spec.name) or args.k not in (None, spec.k):
            raise ValueError(f"{args.weights} holds {spec.name} at k={spec.k}; "
                             "--model and --k must match it or be left out")
        report = perf_mod.count_macs(spec, net.mask_dict())
    elif args.model == "tiny_yolo_ref":
        report = perf_mod.count_tiny_yolo_ref()
    else:
        report = perf_mod.count_macs(model_mod.build_spec(args.model or "robo", args.k))
    print(perf_mod.format_op_report(report))
    if args.csv:
        Path(args.csv).write_text(perf_mod.format_op_report(report, csv=True))
        print(f"csv -> {args.csv}")
    if args.compare:
        print()
        print(perf_mod.format_comparison(perf_mod.preset_comparison()))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="robodet", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a deterministic toy dataset")
    p.add_argument("--n", type=_positive_int, required=True, help="number of images")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--style", default="A", choices=sorted(data_mod.STYLES))
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("anchors", help="compute per-class anchors from a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="anchors file (default <data>/anchors.txt)")
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("train", help="train a model from scratch")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("transfer", help="fine-tune the first k layers on new data")
    _add_train_flags(p, require_model=False)
    p.add_argument("--weights", required=True, help="pretrained weight file")
    p.add_argument("--transfer-layers", dest="transfer_layers", type=int)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("prune", help="magnitude-prune weights, optionally fine-tune")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--finetune", action="store_true")
    p.add_argument("--finetune-epochs", dest="finetune_epochs", type=int)
    p.add_argument("--data")
    p.add_argument("--val")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("detect", help="run detection on images")
    p.add_argument("--weights", required=True)
    p.add_argument("--images", nargs="+", required=True)
    p.add_argument("--conf", type=float, default=detect_mod.DEFAULT_CONF_THRESHOLD)
    p.add_argument("--nms", type=float, default=None,
                   help="per-class NMS IoU threshold (off unless given)")
    p.add_argument("--out-dir", dest="out_dir", help="write dumps + overlays here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="mAP sweep over IoU and center-distance criteria")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", nargs="+", required=True)
    p.add_argument("--conf", type=float, default=eval_mod.EVAL_CONF_THRESHOLD)
    p.add_argument("--out", help="write the sweep as CSV")
    p.add_argument("--per-class", dest="per_class", help="write per-class CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ops", help="analytic MAC counts")
    p.add_argument("--model", choices=sorted(model_mod._BUILDERS) + ["tiny_yolo_ref"],
                   help="model to count (default: the --weights file's, else robo)")
    p.add_argument("--k", type=_positive_int,
                   help="resolution multiplier (default: the --weights file's, else the "
                        "model's: 2, or 1 for robo_hr)")
    p.add_argument("--weights", help="count this net, with its prune masks")
    p.add_argument("--csv", help="also write the table as CSV")
    p.add_argument("--compare", action="store_true",
                   help="print the preset model comparison")
    p.set_defaults(func=cmd_ops)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
