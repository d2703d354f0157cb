"""Inspect what the calibration net actually predicts on the toy val set."""

import numpy as np

from robodet.data import load_index, load_sample, rgb_to_yuv
from robodet.detect import decode_network_output, postprocess
from robodet.evaluate import MatchCriterion, evaluate
from robodet.model import CLASS_NAMES, forward, load_weights

net = load_weights("/tmp/cal/c6_baseline.rbw")
val = load_index("/tmp/cal/val_a")

crit = MatchCriterion("center_distance", 16.0, val.image_size)
reports = evaluate(net, val, criteria=[crit])
r = reports[0]
print("mAP@dist16:", r.map)
for c in range(4):
    print(f"  {CLASS_NAMES[c]:9s} AP={r.ap[c]:.3f} tp/fp/fn={r.counts[c]}")

# confidence stats per class over a few images
for i in range(3):
    image, anns = load_sample(val, i)
    x = rgb_to_yuv(image)[None]
    lo, hi = decode_network_output(*forward(net, x), net.spec, net.anchors)
    dets = sorted(postprocess(lo, hi, conf_threshold=0.0), key=lambda d: -d.confidence)
    print(f"--- image {i}: gt={[(CLASS_NAMES[a.class_id], round(a.box.cx,2), round(a.box.cy,2)) for a in anns]}")
    for d in dets[:6]:
        print(f"    {CLASS_NAMES[d.class_id]:9s} conf={d.confidence:.3f} "
              f"cx={d.box.cx:.2f} cy={d.box.cy:.2f} w={d.box.w:.2f} h={d.box.h:.2f}")
conf_by_class = {c: [] for c in range(4)}
for i in range(len(val)):
    image, anns = load_sample(val, i)
    x = rgb_to_yuv(image)[None]
    lo, hi = decode_network_output(*forward(net, x), net.spec, net.anchors)
    for d in [*lo, *hi]:
        conf_by_class[d.class_id].append(d.confidence)
for c in range(4):
    v = np.array(conf_by_class[c])
    print(f"{CLASS_NAMES[c]:9s} conf: max={v.max():.3f} p99={np.percentile(v,99):.3f} "
          f"median={np.median(v):.4f}")
