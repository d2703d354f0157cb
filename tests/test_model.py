import copy
import hashlib
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
    forward,
    forward_with_cache,
    init_network,
    load_weights,
    save_weights,
)
from robodet.perf import count_macs
from robodet.tensor import ShapeError, batch_norm, conv2d_forward, leaky_relu

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
        strided = [i for i, l in enumerate(spec.layers, start=1) if l.stride == 2]
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

    def test_build_spec_default_k(self):
        assert model.build_spec("robo") == build_robo(2)
        assert model.build_spec("robo_bn") == build_robo_bn(2)
        assert model.build_spec("robo_hr") == model.build_spec("robo_hr", 1) == build_robo_hr()

    @pytest.mark.parametrize("k", [2, 3])
    def test_robo_hr_rejects_other_k(self, k):
        with pytest.raises(ValueError, match=f"robo_hr .*k must be 1, got {k}"):
            model.build_spec("robo_hr", k)

    # Input size, then (source layer, grid) of head_lo and head_hi, as the
    # builders gave them when each head stored its source layer.
    @pytest.mark.parametrize("name, k, input_hw, lo, hi", [
        ("robo", 1, (192, 256), (15, (3, 4)), (9, (6, 8))),
        ("robo", 2, (384, 512), (15, (6, 8)), (9, (12, 16))),
        ("robo_bn", 1, (192, 256), (19, (3, 4)), (11, (6, 8))),
        ("robo_bn", 2, (384, 512), (19, (6, 8)), (11, (12, 16))),
        ("robo_hr", 1, (192, 256), (14, (6, 8)), (8, (12, 16))),
    ])
    def test_input_size_head_sources_and_grids(self, name, k, input_hw, lo, hi):
        spec = model.build_spec(name, k)
        assert spec.input_hw == input_hw
        for head_name, (source, grid) in ((HEAD_LO, lo), (HEAD_HI, hi)):
            head = spec.head(head_name)
            assert spec.head_source(head) == source
            assert spec.layers[source - 1].tap == head_name
            assert spec.head_grid(head) == grid


def _layer_params(spec):
    """Parameters of each backbone layer in order, then of each head."""
    return [l.params for l in count_macs(spec).layers]


class TestParamCounts:
    def test_prefix_1548(self):
        assert sum(_layer_params(build_robo(2))[:3]) == 1548

    def test_upto_zero(self):
        # The empty prefix counts nothing, and every layer adds parameters.
        params = _layer_params(build_robo(2))
        assert sum(params[:0]) == 0 and min(params) > 0

    @pytest.mark.parametrize(
        "upto,target", [(3, 1_500), (5, 8_500), (7, 36_000), (9, 110_000)]
    )
    def test_prefix_counts_near_published(self, upto, target):
        got = sum(_layer_params(build_robo(2))[:upto])
        assert abs(got - target) / target < 0.10

    def test_total_near_published(self):
        total = sum(_layer_params(build_robo(2)))
        assert abs(total - 555_000) / 555_000 < 0.05

    def test_robo_bn_total(self):
        total = sum(_layer_params(build_robo_bn(2)))
        assert 1_350_000 <= total <= 1_820_000

    def test_counts_independent_of_k(self):
        assert _layer_params(build_robo(1)) == _layer_params(build_robo(4))

    def test_out_of_range(self):
        # Backbone layers come first and in order, so a prefix of at most
        # len(spec.layers) entries never reaches into the heads.
        spec = build_robo(1)
        names = [l.name for l in count_macs(spec).layers]
        assert names == [f"l{i}" for i in range(1, len(spec.layers) + 1)] + [HEAD_LO, HEAD_HI]


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
        a = forward(net, x)
        b = forward(net, x)
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


def frozen_layer_forward(layer, x, cache=None):
    z = conv2d_forward(x, layer.conv)
    stats = None
    if layer.bn is None:
        zn = z
    elif cache is None:
        zn = batch_norm(z, layer.bn, "infer")
        del z
    else:
        zn, stats = batch_norm(z, layer.bn, "train")
    leaky = layer.spec.activation == "leaky"
    a = leaky_relu(zn) if leaky else zn
    if cache is not None:
        cache.append({"x": x, "z": z, "mask": zn >= 0 if leaky else None,
                      "stats": stats})
    return a


def frozen_forward(net, x, keep_cache):
    """The forward pass as it was when one helper served both modes, with a
    cache argument choosing between them; the input check is left out."""
    cache = [] if keep_cache else None
    taps = {}
    h = x
    for layer in net.layers:
        h = frozen_layer_forward(layer, h, cache)
        if layer.spec.tap:
            taps[layer.spec.tap] = h
    raws = {}
    head_cache = {}
    for name in (HEAD_LO, HEAD_HI):
        raws[name] = conv2d_forward(taps[name], net.heads[name].conv)
        head_cache[name] = taps[name]
    full_cache = {"layers": cache, "taps": head_cache} if keep_cache else None
    return (raws[HEAD_LO], raws[HEAD_HI]), full_cache


def assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def trained_looking_net(spec, seed=0):
    """A network with non-identity BN parameters and statistics, nonzero
    head biases, and layer 3 pruned to half its weights."""
    net = init_network(spec, seed)
    rng = np.random.default_rng(seed + 1)
    for layer in net.layers:
        c = layer.bn.channels
        layer.bn.gamma[:] = rng.uniform(0.5, 1.5, c)
        layer.bn.beta[:] = rng.normal(0, 0.5, c)
        layer.bn.mean[:] = rng.normal(0, 0.5, c)
        layer.bn.var[:] = rng.uniform(0.5, 2.0, c)
    for layer in net.heads.values():
        layer.conv.bias[:] = rng.normal(0, 0.5, layer.conv.out_ch)
    pruned = net.layers[2]
    pruned.mask[:] = rng.random(pruned.mask.shape) < 0.5
    net.apply_masks()
    return net


FROZEN_CASES = [
    ("robo", 1, 1), ("robo", 1, 4), ("robo_bn", 1, 1), ("robo_bn", 1, 4),
    ("robo_hr", 1, 1), ("robo_hr", 1, 4), ("robo", 2, 1),
]


@pytest.mark.parametrize("name, k, batch", FROZEN_CASES)
class TestForwardMatchesFrozen:
    """Both forward modes stay bit for bit equal to the single-helper
    forward they replaced."""

    @staticmethod
    def inputs(name, k, batch):
        net = trained_looking_net(model.build_spec(name, k))
        x = np.random.default_rng(2).random((batch, 3) + net.spec.input_hw,
                                            dtype=np.float32)
        return net, x

    def test_infer_heads(self, name, k, batch):
        net, x = self.inputs(name, k, batch)
        want, _ = frozen_forward(net, x, keep_cache=False)
        got = forward(net, x)
        assert len(got) == 2
        for g, w in zip(got, want):
            assert_bitwise_equal(g, w)

    def test_train_heads_cache_and_running_stats(self, name, k, batch):
        net, x = self.inputs(name, k, batch)
        frozen_net = copy.deepcopy(net)
        want, want_cache = frozen_forward(frozen_net, x, keep_cache=True)
        got, got_cache = forward_with_cache(net, x)
        for g, w in zip(got, want):
            assert_bitwise_equal(g, w)
        assert got_cache.keys() == {"layers", "taps"}
        assert got_cache["taps"].keys() == want_cache["taps"].keys()
        for tap, w in want_cache["taps"].items():
            assert_bitwise_equal(got_cache["taps"][tap], w)
        assert len(got_cache["layers"]) == len(want_cache["layers"]) == len(net.layers)
        for g, w in zip(got_cache["layers"], want_cache["layers"]):
            assert g.keys() == w.keys() == {"x", "z", "mask", "stats"}
            for key in ("x", "z", "mask"):
                assert_bitwise_equal(g[key], w[key])
            for gs, ws in zip(g["stats"], w["stats"], strict=True):
                assert_bitwise_equal(gs, ws)
        for g, w in zip(net.layers, frozen_net.layers):
            assert_bitwise_equal(g.bn.mean, w.bn.mean)
            assert_bitwise_equal(g.bn.var, w.bn.var)


@pytest.fixture(scope="module")
def weight_blob(tmp_path_factory):
    net = init_network(build_robo(1), seed=0)
    net.layers[0].mask[0] = False
    path = tmp_path_factory.mktemp("blob") / "net.rbw"
    save_weights(net, path)
    return path.read_bytes()


class TestWeightFile:
    @pytest.mark.parametrize("build", [build_robo, build_robo_bn, build_robo_hr],
                             ids=["robo", "robo_bn", "robo_hr"])
    def test_round_trip_bitwise(self, tmp_path, rng, build):
        net = init_network(build(1), seed=11)
        net.anchors = rng.random((4, 2)).astype(np.float32)
        net.layers[2].mask[0, 0] = False
        net.layers[2].apply_mask()
        for _, layer in net.all_layers():
            layer.conv.bias[:] = rng.normal(0, 1, layer.conv.out_ch)
            if layer.bn is not None:
                for row in (layer.bn.gamma, layer.bn.beta, layer.bn.mean):
                    row[:] = rng.normal(0, 1, layer.bn.channels)
                layer.bn.var[:] = rng.random(layer.bn.channels)
        path = tmp_path / "net.rbw"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.spec == net.spec
        for (na, la), (nb, lb) in zip(net.all_layers(), loaded.all_layers()):
            assert na == nb and la.spec == lb.spec and la.conv.stride == lb.conv.stride
            np.testing.assert_array_equal(la.conv.weights, lb.conv.weights)
            np.testing.assert_array_equal(la.conv.bias, lb.conv.bias)
            np.testing.assert_array_equal(la.mask, lb.mask)
            assert (la.bn is None) == (lb.bn is None)
            if la.bn is not None:
                np.testing.assert_array_equal(la.bn.gamma, lb.bn.gamma)
                np.testing.assert_array_equal(la.bn.beta, lb.bn.beta)
                np.testing.assert_array_equal(la.bn.mean, lb.bn.mean)
                np.testing.assert_array_equal(la.bn.var, lb.bn.var)
        np.testing.assert_array_equal(net.anchors, loaded.anchors)

    def test_load_builds_no_random_network(self, tmp_path, monkeypatch):
        path = tmp_path / "net.rbw"
        save_weights(init_network(build_robo(1), seed=0), path)

        def refuse(*args, **kwargs):
            raise AssertionError("load_weights must not draw random weights")

        monkeypatch.setattr(model, "init_network", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert load_weights(path).spec == build_robo(1)

    @pytest.mark.parametrize("where, array, value", [
        ("layer l1", lambda net: net.layers[0].bn.var, -1.0),
        ("layer l5", lambda net: net.layers[4].conv.weights, np.nan),
        ("layer head_hi", lambda net: net.heads[HEAD_HI].conv.bias, np.inf),
        ("anchors", lambda net: net.anchors, -0.5),
    ], ids=["negative-var", "nan-weight", "inf-head-bias", "negative-anchor"])
    def test_values_that_give_nan_heads_are_rejected(self, tmp_path, where, array, value):
        net = init_network(build_robo(1), seed=0)
        array(net).flat[0] = value
        path = tmp_path / "net.rbw"
        save_weights(net, path)
        with pytest.raises(WeightFormatError) as info:
            load_weights(path)
        assert str(info.value).startswith(f"{path}: {where} ")

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

    def test_file_bytes_are_pinned(self, tmp_path):
        # Every stored value of a robo k=1 net set from np.arange, no RNG; the
        # digest was recorded when the format was defined, so a change to it
        # needs a new WEIGHT_VERSION.
        net = init_network(build_robo(1), seed=0)
        for _, layer in net.all_layers():
            c = layer.conv
            c.weights[...] = (np.arange(c.weights.size) % 251 - 125).reshape(c.weights.shape) / 128
            c.bias[...] = np.arange(c.bias.size) / 64
            layer.mask[...] = (np.arange(layer.mask.size) % 3 != 0).reshape(layer.mask.shape)
            if layer.bn is not None:
                n = layer.bn.channels
                layer.bn.gamma[...] = 1 + np.arange(n) / 32
                layer.bn.beta[...] = np.arange(n) / 16 - 1
                layer.bn.mean[...] = np.arange(n) / 8
                layer.bn.var[...] = 0.5 + np.arange(n) / 4
        net.anchors[...] = np.arange(8).reshape(4, 2) / 16 + 0.0625
        path = tmp_path / "net.rbw"
        save_weights(net, path)
        blob = path.read_bytes()
        assert WEIGHT_VERSION == 1
        assert len(blob) == 2356851
        assert hashlib.sha256(blob).hexdigest() == (
            "156a7d8ff9e6ad8af1b1b9adfcb7ffd861534bcf8ab38a74afd2d9c0f5250c35")

    def test_load_reapplies_masks(self, tmp_path):
        net = init_network(build_robo(1), seed=0)
        net.layers[0].mask[:] = False
        path = tmp_path / "net.rbw"
        save_weights(net, path)  # weights saved unmasked on purpose
        loaded = load_weights(path)
        assert not loaded.layers[0].conv.weights.any()

