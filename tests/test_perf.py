import pytest

from robodet.model import build_robo, init_network
from robodet.perf import (
    benchmark,
    compare,
    count_macs,
    count_tiny_yolo_ref,
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
        from robodet.model import count_head_params, count_params

        spec = build_robo(2)
        report = count_macs(spec)
        assert report.total_params == count_params(spec) + count_head_params(spec)


class TestTinyYoloRef:
    def test_hand_checked_total(self):
        assert count_tiny_yolo_ref().total_macs == TINY_YOLO_MACS

    def test_ratio_to_robo_k2(self):
        ratio = TINY_YOLO_MACS / count_macs(build_robo(2)).total_macs
        assert ratio >= 10


class TestCompare:
    def test_self_ratio_is_one(self):
        a = count_macs(build_robo(2))
        b = count_macs(build_robo(2))
        b = type(b)("robo2", b.layers)
        table = compare([a, b])
        assert table.ratio("robo", "robo2") == pytest.approx(1.0)

    def test_ratios_transitive(self):
        table = preset_comparison()
        r_ab = table.ratio("tiny_yolo_ref", "robo")
        r_bc = table.ratio("robo", "robo_hr")
        r_ac = table.ratio("tiny_yolo_ref", "robo_hr")
        assert r_ac == pytest.approx(r_ab * r_bc, rel=1e-9)

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            compare([count_macs(build_robo(1))])

    def test_format_mentions_units(self):
        text = preset_comparison().format()
        assert "MAC" in text
        assert "tiny_yolo_ref" in text


class TestBenchmark:
    def test_records_exactly_n_runs(self, monkeypatch):
        net = init_network(build_robo(1), seed=0)
        calls = []
        import robodet.perf as perf_mod

        real_forward = perf_mod.forward

        def counting_forward(*args, **kwargs):
            calls.append(1)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(perf_mod, "forward", counting_forward)
        mean_ms, std_ms, pinned = benchmark(net, repeats=3)
        assert len(calls) == 4  # warmup + 3 timed
        assert mean_ms > 0 and std_ms >= 0
        assert isinstance(pinned, bool)

    def test_larger_input_slower(self):
        small = init_network(build_robo(1), seed=0)
        big = init_network(build_robo(2), seed=0)
        # Best of three interleaved calls per net: a load spike on a shared
        # host inflates single means, but seldom all three of one net.
        t_small, t_big = [], []
        for _ in range(3):
            t_small.append(benchmark(small, repeats=5).mean_ms)
            t_big.append(benchmark(big, repeats=5).mean_ms)
        assert min(t_big) > min(t_small)

    def test_repeats_validated(self):
        net = init_network(build_robo(1), seed=0)
        with pytest.raises(ValueError):
            benchmark(net, repeats=2)


def test_op_report_formats():
    report = count_macs(build_robo(2))
    text = format_op_report(report)
    assert "l1" in text and "head_lo" in text and "MAC" in text
    csv_text = format_op_report(report, csv=True)
    assert csv_text.splitlines()[0] == "layer,macs,effective_macs,params,nonzero_fraction"
    assert str(report.total_macs) in csv_text
