import pytest

from robodet.model import HEADS, build_robo, build_robo_bn, build_robo_hr, init_network
from robodet.perf import (
    count_macs,
    count_tiny_yolo_ref,
    format_comparison,
    format_op_report,
    preset_comparison,
)
from robodet.train import prune

# Hand-checked fixture: per-layer MACs of ROBO at k=2 (k^2*ci*co*h_out*w_out).
ROBO_K2_LAYER_MACS = [
    5_308_416,   # l1  3x3 s2 3->4    @192x256
    3_538_944,   # l2  3x3 s2 4->8    @96x128
    3_538_944,   # l3  3x3 s2 8->16   @48x64
    7_077_888,   # l4  3x3 s1 16->16  @48x64
    3_538_944,   # l5  3x3 s2 16->32  @24x32
    7_077_888,   # l6  3x3 s1 32->32  @24x32
    3_538_944,   # l7  3x3 s2 32->64  @12x16
    7_077_888,   # l8  3x3 s1 64->64  @12x16
    7_077_888,   # l9  3x3 s1 64->64  @12x16
    3_538_944,   # l10 3x3 s2 64->128 @6x8
    7_077_888,   # l11 3x3 s1 128->128@6x8
    1_572_864,   # l12 1x1 128->256   @6x8
    3_145_728,   # l13 1x1 256->256   @6x8
    3_145_728,   # l14 1x1 256->256   @6x8
    3_145_728,   # l15 1x1 256->256   @6x8
    122_880,     # head_lo 1x1 256->10 @6x8
    122_880,     # head_hi 1x1 64->10  @12x16
]

# Hand-checked: per-layer parameters of ROBO (any k): k^2*ci*co weights, no
# bias under batch norm; the heads are 1x1 convs with bias.
ROBO_LAYER_PARAMS = [
    108, 288, 1_152, 2_304, 4_608, 9_216, 18_432,   # l1-l7
    36_864, 36_864, 73_728, 147_456,                # l8-l11 (3x3)
    32_768, 65_536, 65_536, 65_536,                 # l12-l15 (1x1)
    256 * 10 + 10,                                  # head_lo 256->10
    64 * 10 + 10,                                   # head_hi 64->10
]

# Hand-checked: Tiny YOLOv3 conv MACs at 416x416 (sum of the 13 conv rows).
TINY_YOLO_MACS = 2_782_480_896


class TestCountMacs:
    def test_robo_k2_layer1_closed_form(self):
        report = count_macs(build_robo(2))
        assert report.layers[0].macs == 9 * 3 * 4 * 192 * 256 == 5_308_416

    def test_robo_k2_full_fixture(self):
        report = count_macs(build_robo(2))
        assert [l.macs for l in report.layers] == ROBO_K2_LAYER_MACS
        assert report.total_macs == sum(ROBO_K2_LAYER_MACS)

    def test_all_pass_mask_effective_equals_total(self):
        net = init_network(build_robo(1), seed=0)
        report = count_macs(net.spec, net.mask_dict())
        assert report.total_effective == report.total_macs

    def test_half_masked_layer_halves_effective(self):
        spec = build_robo(1)
        net = init_network(spec, seed=0)
        layer = net.layers[3]
        flat = layer.mask.reshape(-1)
        flat[: flat.size // 2] = False
        report = count_macs(net.spec, net.mask_dict())
        entry = report.layers[3]
        assert entry.nonzero == pytest.approx(0.5)
        assert entry.effective_macs == pytest.approx(entry.macs / 2)

    def test_pruning_never_increases_effective(self):
        net = init_network(build_robo(1), seed=0)
        before = count_macs(net.spec, net.mask_dict()).total_effective
        prune(net, 0.05)
        after = count_macs(net.spec, net.mask_dict()).total_effective
        assert after <= before

    def test_params_match_model_counts(self):
        assert [l.params for l in count_macs(build_robo(2)).layers] == ROBO_LAYER_PARAMS
        # Closed form: k^2*ci*co weights per backbone conv, whose bias batch
        # norm replaces; a head is a 1x1 conv with bias, 5 outputs per owned
        # class.
        for spec in (build_robo_bn(2), build_robo_hr()):
            want = [l.kernel**2 * l.in_ch * l.out_ch for l in spec.layers]
            want += [(spec.layers[spec.head_source(h) - 1].out_ch + 1) * 5 * len(h.classes_owned)
                     for h in HEADS]
            assert [l.params for l in count_macs(spec).layers] == want, spec.name


class TestTinyYoloRef:
    def test_hand_checked_total(self):
        assert count_tiny_yolo_ref().total_macs == TINY_YOLO_MACS

    def test_ratio_to_robo_k2(self):
        ratio = TINY_YOLO_MACS / count_macs(build_robo(2)).total_macs
        assert ratio >= 10


class TestCompare:
    def test_format_mentions_units(self):
        text = format_comparison(preset_comparison())
        assert "MAC" in text
        assert "tiny_yolo_ref" in text


def test_op_report_formats():
    report = count_macs(build_robo(2))
    text = format_op_report(report)
    assert "l1" in text and "head_lo" in text and "MAC" in text
    csv_text = format_op_report(report, csv=True)
    assert csv_text.splitlines()[0] == "layer,macs,effective_macs,params,nonzero_fraction"
    assert str(report.total_macs) in csv_text
