import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robodet import model
from robodet.model import (
    HEAD_HI,
    HEAD_LO,
    WEIGHT_MAGIC,
    WEIGHT_VERSION,
    BadMagicError,
    SpecMismatchError,
    TruncatedFileError,
    VersionError,
    WeightFormatError,
    build_robo,
    build_robo_bn,
    build_robo_hr,
    count_bn_params,
    count_head_params,
    count_params,
    forward,
    init_network,
    load_weights,
    save_weights,
)
from robodet.tensor import ShapeError

from conftest import flip_bytes


class TestBuilders:
    def test_robo_k2_grids(self):
        spec = build_robo(2)
        assert spec.input_hw == (384, 512)
        assert spec.head_grid(spec.head(HEAD_LO)) == (6, 8)
        assert spec.head_grid(spec.head(HEAD_HI)) == (12, 16)
        assert spec.total_stride == 64

    def test_robo_k1_grid(self):
        spec = build_robo(1)
        assert spec.input_hw == (192, 256)
        assert spec.head_grid(spec.head(HEAD_LO)) == (3, 4)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_head_grids_scale_with_k(self, k):
        spec = build_robo(k)
        assert spec.head_grid(spec.head(HEAD_LO)) == (3 * k, 4 * k)
        assert spec.head_grid(spec.head(HEAD_HI)) == (6 * k, 8 * k)

    def test_robo_backbone_structure(self):
        spec = build_robo(2)
        assert len(spec.layers) == 15
        strided = [l.index for l in spec.layers if l.stride == 2]
        assert len(strided) == 6
        assert strided[:3] == [1, 2, 3]
        assert max(l.out_ch for l in spec.layers) == 256

    def test_channel_growth_at_stride(self):
        for spec in (build_robo(2), build_robo_bn(2), build_robo_hr()):
            for layer in spec.layers:
                if layer.stride == 2:
                    assert layer.out_ch > layer.in_ch

    def test_heads_partition_classes(self):
        spec = build_robo(1)
        owned = sorted(c for h in spec.heads for c in h.classes_owned)
        assert owned == [0, 1, 2, 3]
        assert sum(h.channels for h in spec.heads) == 20

    def test_robo_hr_structure(self):
        spec = build_robo_hr()
        assert spec.total_stride == 32
        assert spec.input_hw == (192, 256)
        assert len(spec.layers) == 14
        assert spec.layers[0].in_ch == 3
        assert spec.head_grid(spec.head(HEAD_LO)) == (6, 8)
        assert spec.head_grid(spec.head(HEAD_HI)) == (12, 16)

    def test_robo_bn_bottlenecks(self):
        spec = build_robo_bn(2)
        assert spec.total_stride == 64
        for prev, cur in zip(spec.layers, spec.layers[1:]):
            # wherever a 1x1 bottleneck precedes a 3x3, it halves the width
            if prev.kernel == 1 and cur.kernel == 3:
                assert cur.in_ch * 2 == prev.in_ch

    def test_unknown_model_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            model.build_spec("yolo9000")


class TestParamCounts:
    def test_prefix_1548(self):
        assert count_params(build_robo(2), 3) == 1548

    def test_upto_zero(self):
        assert count_params(build_robo(2), 0) == 0

    @pytest.mark.parametrize(
        "upto,target", [(3, 1_500), (5, 8_500), (7, 36_000), (9, 110_000)]
    )
    def test_prefix_counts_near_published(self, upto, target):
        got = count_params(build_robo(2), upto)
        assert abs(got - target) / target < 0.10

    def test_total_near_published(self):
        spec = build_robo(2)
        total = count_params(spec) + count_head_params(spec)
        assert abs(total - 555_000) / 555_000 < 0.05

    def test_robo_bn_total(self):
        spec = build_robo_bn(2)
        total = count_params(spec) + count_head_params(spec)
        assert 1_350_000 <= total <= 1_820_000

    def test_counts_independent_of_k(self):
        assert count_params(build_robo(1)) == count_params(build_robo(4))

    def test_bn_params_reported_separately(self):
        spec = build_robo(1)
        assert count_bn_params(spec) == sum(2 * l.out_ch for l in spec.layers)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_params(build_robo(1), 99)


class TestInitNetwork:
    def test_same_seed_bit_identical(self):
        a = init_network(build_robo(1), seed=7)
        b = init_network(build_robo(1), seed=7)
        for (_, la), (_, lb) in zip(a.all_layers(), b.all_layers()):
            np.testing.assert_array_equal(la.conv.weights, lb.conv.weights)

    def test_different_seeds_differ(self):
        a = init_network(build_robo(1), seed=7)
        b = init_network(build_robo(1), seed=8)
        assert not np.array_equal(a.layers[0].conv.weights, b.layers[0].conv.weights)

    def test_layer1_weight_std_band(self):
        net = init_network(build_robo(1), seed=0)
        target = np.sqrt(2.0 / (9 * 3))
        std = net.layers[0].conv.weights.std()
        assert 0.2 * target < std < 5 * target

    def test_masks_all_pass_and_bn_identity(self):
        net = init_network(build_robo(1), seed=0)
        assert all(layer.mask.all() for _, layer in net.all_layers())
        assert np.all(net.layers[0].bn.gamma == 1.0)
        assert np.all(net.layers[0].bn.beta == 0.0)
        assert net.heads[HEAD_LO].bn is None


class TestForward:
    def test_robo_k2_output_shapes(self):
        net = init_network(build_robo(2), seed=0)
        x = np.zeros((1, 3, 384, 512), dtype=np.float32)
        raw_lo, raw_hi = forward(net, x)
        assert raw_lo.shape == (1, 10, 6, 8)
        assert raw_hi.shape == (1, 10, 12, 16)

    def test_zero_weights_zero_output(self):
        net = init_network(build_robo(1), seed=0)
        for _, layer in net.all_layers():
            layer.conv.weights[:] = 0.0
            layer.conv.bias[:] = 0.0
        x = np.random.default_rng(0).random((1, 3, 192, 256), dtype=np.float32)
        raw_lo, raw_hi = forward(net, x)
        assert not raw_lo.any() and not raw_hi.any()

    def test_infer_deterministic(self, rng):
        net = init_network(build_robo(1), seed=0)
        x = rng.random((1, 3, 192, 256), dtype=np.float32)
        a = forward(net, x, mode="infer")
        b = forward(net, x, mode="infer")
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_input_shape_error(self):
        net = init_network(build_robo(1), seed=0)
        with pytest.raises(ShapeError, match="input shape"):
            forward(net, np.zeros((1, 3, 96, 128), dtype=np.float32))

    def test_mask_enforcement(self, rng):
        net = init_network(build_robo(1), seed=3)
        x = rng.random((1, 3, 192, 256), dtype=np.float32)
        layer = net.layers[5]
        layer.mask[0, 0, 0, 0] = False
        layer.apply_mask()
        before = forward(net, x)
        layer.conv.weights[0, 0, 0, 0] = 50.0  # corrupt a pruned weight
        net.apply_masks()  # zeroing it back must restore the old output
        after = forward(net, x)
        np.testing.assert_array_equal(before[0], after[0])
        np.testing.assert_array_equal(before[1], after[1])

    def test_batch_forward(self, rng):
        net = init_network(build_robo(1), seed=0)
        x = rng.random((3, 3, 192, 256), dtype=np.float32)
        raw_lo, _ = forward(net, x)
        assert raw_lo.shape == (3, 10, 3, 4)
        one, _ = forward(net, x[1:2])
        np.testing.assert_allclose(raw_lo[1:2], one, atol=1e-5)


@pytest.fixture(scope="module")
def weight_blob(tmp_path_factory):
    net = init_network(build_robo(1), seed=0)
    net.layers[0].mask[0] = False
    path = tmp_path_factory.mktemp("blob") / "net.rbw"
    save_weights(net, path)
    return path.read_bytes()


class TestWeightFile:
    def test_round_trip_bitwise(self, tmp_path, rng):
        net = init_network(build_robo(1), seed=11)
        net.anchors = rng.random((4, 2)).astype(np.float32)
        net.layers[2].mask[0, 0] = False
        net.layers[2].apply_mask()
        net.layers[0].bn.mean[:] = rng.normal(0, 1, 4).astype(np.float32)
        path = tmp_path / "net.rbw"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.spec == net.spec
        for (_, la), (_, lb) in zip(net.all_layers(), loaded.all_layers()):
            np.testing.assert_array_equal(la.conv.weights, lb.conv.weights)
            np.testing.assert_array_equal(la.conv.bias, lb.conv.bias)
            np.testing.assert_array_equal(la.mask, lb.mask)
            if la.bn is not None:
                np.testing.assert_array_equal(la.bn.gamma, lb.bn.gamma)
                np.testing.assert_array_equal(la.bn.mean, lb.bn.mean)
                np.testing.assert_array_equal(la.bn.var, lb.bn.var)
        np.testing.assert_array_equal(net.anchors, loaded.anchors)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rbw"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            load_weights(path)

    def test_version_mismatch(self, tmp_path):
        net = init_network(build_robo(1), seed=0)
        path = tmp_path / "net.rbw"
        save_weights(net, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_weights(path)

    def test_truncation_names_layer(self, tmp_path):
        net = init_network(build_robo(1), seed=0)
        path = tmp_path / "net.rbw"
        save_weights(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError, match="layer l"):
            load_weights(path)

    def test_spec_mismatch(self, tmp_path):
        net = init_network(build_robo(1), seed=0)
        path = tmp_path / "net.rbw"
        save_weights(net, path)
        blob = bytearray(path.read_bytes())
        # first layer record starts after magic+version+name+k+count;
        # corrupt its kernel field
        offset = 4 + 2 + 2 + len("robo") + 2 + 2
        blob[offset] = 5
        path.write_bytes(bytes(blob))
        with pytest.raises(SpecMismatchError):
            load_weights(path)

    @pytest.mark.parametrize("name, k", [
        (b"\xff\xfe\x00\x01", 1), (b"r;bo", 1), (b"", 1), (b"robo", 0), (b"robo_bn", 0),
    ], ids=["undecodable", "unknown", "empty", "robo-k0", "robo_bn-k0"])
    def test_unknown_spec_is_spec_mismatch(self, tmp_path, name, k):
        path = tmp_path / "net.rbw"
        header = WEIGHT_MAGIC + struct.pack("<HH", WEIGHT_VERSION, len(name)) + name
        path.write_bytes(header + struct.pack("<HH", k, 17) + bytes(64))
        with pytest.raises(SpecMismatchError) as info:
            load_weights(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_short_mask_is_spec_mismatch(self, tmp_path):
        net = init_network(build_robo(1), seed=0)
        path = tmp_path / "net.rbw"
        save_weights(net, path)
        blob = bytearray(path.read_bytes())
        # l1's mask length field follows its geometry, weights, bias and BN.
        c, out_ch = net.layers[0].conv, net.layers[0].conv.out_ch
        offset = 4 + 2 + 2 + len("robo") + 2 + 2 + 8 + 4 + 4 * (c.weights.size + out_ch)
        offset += 1 + 16 * out_ch
        assert struct.unpack_from("<I", blob, offset)[0] == -(-c.weights.size // 8)
        struct.pack_into("<I", blob, offset, 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(SpecMismatchError, match="layer l1 mask"):
            load_weights(path)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzz_raises_only_weight_format_error(self, weight_blob, fuzz_dir, data):
        header_end = 64  # flips here hit the name, k, counts and l1's record
        raw = data.draw(st.one_of(
            st.integers(0, len(weight_blob) - 1).map(lambda n: weight_blob[:n]),
            st.lists(st.tuples(st.integers(0, header_end), st.integers(0, 255)),
                     min_size=1, max_size=3).map(lambda flips: flip_bytes(weight_blob, flips)),
            st.lists(st.tuples(st.integers(0, len(weight_blob) - 1), st.integers(0, 255)),
                     min_size=1, max_size=3).map(lambda flips: flip_bytes(weight_blob, flips)),
        ))
        path = fuzz_dir / "f.rbw"
        path.write_bytes(raw)
        try:
            load_weights(path)
        except WeightFormatError as exc:
            assert str(exc).startswith(f"{path}: ")

    def test_load_reapplies_masks(self, tmp_path):
        net = init_network(build_robo(1), seed=0)
        net.layers[0].mask[:] = False
        path = tmp_path / "net.rbw"
        save_weights(net, path)  # weights saved unmasked on purpose
        loaded = load_weights(path)
        assert not loaded.layers[0].conv.weights.any()

