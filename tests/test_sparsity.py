import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from devolve import nn, sparsity
from devolve.nn import Batch, Dense, Network
from devolve.sparsity import (CandidateSet, SparsityMask, apply_mask, merge,
                              prunable_indices, random_mask)
from helpers import LAYOUT_KINDS, layout_net, layout_positions


def two_layer_net(seed=0):
    return nn.build_network({"input_shape": [4], "layers": [
        {"kind": "dense", "units": 5},
        {"kind": "relu"},
        {"kind": "dense", "units": 2},
    ]}, seed)


class TestApplyMask:
    def test_empty_mask_no_change(self):
        net = two_layer_net()
        out = apply_mask(net, SparsityMask.empty(net))
        for a, b in zip(net.layers[0].param_tensors(),
                        out.layers[0].param_tensors()):
            np.testing.assert_array_equal(a, b)

    def test_full_mask_all_zero(self):
        net = two_layer_net()
        mask = SparsityMask.empty(net)
        for i in mask.bits:
            mask.bits[i][:] = True
        out = apply_mask(net, mask)
        assert sparsity.sparsity(mask) == 1.0
        for i in (0, 2):
            for t in out.layers[i].param_tensors():
                np.testing.assert_array_equal(t, 0.0)

    def test_k_of_n_sparsity(self):
        net = two_layer_net()
        mask = merge(SparsityMask.empty(net), CandidateSet(0, [0, 7, 13]))
        assert sparsity.sparsity(mask, 0) == pytest.approx(3 / 25)

    def test_original_untouched(self):
        net = two_layer_net()
        w_before = net.layers[0].weights.copy()
        mask = merge(SparsityMask.empty(net), CandidateSet(0, [1]))
        apply_mask(net, mask)
        np.testing.assert_array_equal(net.layers[0].weights, w_before)

    def test_idempotent(self):
        net = two_layer_net()
        mask = merge(SparsityMask.empty(net), CandidateSet(0, [2, 3]))
        once = apply_mask(net, mask)
        twice = apply_mask(once, mask)
        for a, b in zip(once.layers[0].param_tensors(),
                        twice.layers[0].param_tensors()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_zeroes_exactly_the_flat_positions(self, kind):
        net = layout_net(kind)
        positions = layout_positions(net.layers[0])
        out = apply_mask(net, merge(SparsityMask.empty(net), CandidateSet(0, positions)))
        kernel, bias = (t.copy() for t in net.layers[0].param_tensors())
        for k in positions:
            if k < kernel.size:
                kernel.reshape(-1)[k] = 0.0
            else:
                bias[k - kernel.size] = 0.0
        got_kernel, got_bias = out.layers[0].param_tensors()
        assert got_kernel.tobytes() == kernel.tobytes()
        assert got_bias.tobytes() == bias.tobytes()

    def test_layout_mismatch(self):
        mask = SparsityMask.empty(two_layer_net())
        other = Network([Dense(np.zeros((3, 3)), np.zeros(3))], (3,))
        with pytest.raises(ValueError, match="does not match"):
            apply_mask(other, mask)


class TestMerge:
    def test_fresh_merge(self):
        net = two_layer_net()
        mask = merge(SparsityMask.empty(net), CandidateSet(0, [3, 7]))
        assert mask.zeroed(0) == 2

    def test_already_zeroed_shrinks_effective_step(self):
        net = two_layer_net()
        mask = merge(SparsityMask.empty(net), CandidateSet(0, [3]))
        mask = merge(mask, CandidateSet(0, [3, 7]))
        assert mask.zeroed(0) == 2  # index 3 was already gone

    def test_merge_empty_is_identity(self):
        net = two_layer_net()
        mask = merge(SparsityMask.empty(net), CandidateSet(0, [1, 2]))
        out = merge(mask, CandidateSet(0, np.empty(0, dtype=np.int64)))
        np.testing.assert_array_equal(out.layer_bits(0), mask.layer_bits(0))

    def test_out_of_bounds(self):
        net = two_layer_net()
        with pytest.raises(ValueError, match="bounds"):
            merge(SparsityMask.empty(net), CandidateSet(0, [999]))

    def test_returns_new_mask(self):
        net = two_layer_net()
        mask = SparsityMask.empty(net)
        out = merge(mask, CandidateSet(0, [0]))
        assert mask.zeroed() == 0 and out.zeroed() == 1


@given(st.lists(st.integers(0, 24), max_size=12),
       st.lists(st.integers(0, 24), max_size=12))
def test_merge_is_monotone_union(first, second):
    net = two_layer_net()
    m0 = SparsityMask.empty(net)
    m1 = merge(m0, CandidateSet(0, np.unique(first).astype(np.int64)))
    m2 = merge(m1, CandidateSet(0, np.unique(second).astype(np.int64)))
    # bits only flip False -> True
    assert (m2.layer_bits(0) >= m1.layer_bits(0)).all()
    assert m2.zeroed(0) == len(set(first) | set(second))


@given(st.integers(0, 2 ** 30))
def test_network_sparsity_is_weighted_mean(seed):
    net = two_layer_net()
    mask = random_mask(net, np.random.default_rng(seed).uniform(0, 1), seed)
    per_layer = [sparsity.sparsity(mask, i) * mask.total(i)
                 for i in (0, 2)]
    expected = sum(per_layer) / mask.total()
    assert sparsity.sparsity(mask) == pytest.approx(expected, abs=1e-12)


class TestSparsityMetric:
    def test_fresh_zero(self):
        assert sparsity.sparsity(SparsityMask.empty(two_layer_net())) == 0.0

    def test_900_of_1000(self):
        net = nn.build_network({"input_shape": [40], "layers": [
            {"kind": "dense", "units": 24}]}, 0)  # 40*24+24 = 984 params
        mask = SparsityMask.empty(net)
        mask.bits[0][:900] = True
        assert sparsity.sparsity(mask, 0) == pytest.approx(900 / 984)


class TestPrunable:
    def test_biases_excluded_by_default(self):
        net = two_layer_net()
        idx = prunable_indices(net, 0)
        assert idx.size == 20  # 4*5 weights, biases excluded
        assert idx.max() == 19

    def test_biases_included(self):
        net = two_layer_net()
        assert prunable_indices(net, 0, include_biases=True).size == 25

    def test_no_params_layer(self):
        net = two_layer_net()
        with pytest.raises(ValueError):
            prunable_indices(net, 1)


class TestMaskedRetraining:
    def test_masked_positions_exactly_zero_after_steps(self, rng):
        net = two_layer_net(seed=5)
        mask = merge(SparsityMask.empty(net), CandidateSet(0, [0, 6, 11, 19]))
        mask = merge(mask, CandidateSet(2, [1, 5]))
        student = apply_mask(net, mask)
        batch = Batch(rng.normal(size=(8, 4)), rng.normal(size=(8, 2)))
        for _ in range(5):
            grads = nn.backward(student, batch, "mse")
            student = apply_mask(nn.sgd_step(student, grads, 0.1), mask)
        assert (student.layers[0].weights.reshape(-1)[[0, 6, 11, 19]] == 0.0).all()
        assert (student.layers[2].weights.reshape(-1)[[1, 5]] == 0.0).all()


class TestMaskFiles:
    def test_roundtrip(self, tmp_path):
        net = two_layer_net()
        mask = random_mask(net, 0.37, seed=21)
        path = tmp_path / "m.devm"
        sparsity.save_mask(mask, str(path))
        back = sparsity.load_mask(str(path))
        assert back.splits == mask.splits
        for i in mask.bits:
            np.testing.assert_array_equal(back.bits[i], mask.bits[i])

    def test_a_serialization_error_leaves_no_file(self, tmp_path):
        # the DEVM layer index is a u16
        mask = SparsityMask({70_000: np.zeros(3, dtype=bool)}, {70_000: (3,)})
        path = tmp_path / "m.devm"
        with pytest.raises(struct.error):
            sparsity.save_mask(mask, str(path))
        assert not path.exists()

    def test_crc_detects_flip(self, tmp_path):
        net = two_layer_net()
        data = bytearray(sparsity.serialize_mask(random_mask(net, 0.5, seed=1)))
        data[10] ^= 0x04
        with pytest.raises(ValueError, match="CRC"):
            sparsity.deserialize_mask(bytes(data))

    def test_exact_counts(self):
        net = two_layer_net()
        mask = sparsity.mask_with_counts(net, {0: 7, 2: 3}, seed=2)
        assert mask.zeroed(0) == 7 and mask.zeroed(2) == 3


class TestRandomMaskPins:
    """sha256 of the layer-ordered mask bits at fixed seeds: the draws feed
    the random baselines, so their bits must not move."""

    NET = {"input_shape": [6, 6, 2], "layers": [
        {"kind": "conv2d", "filters": 3, "kernel": 3, "stride": 1, "padding": "same"},
        {"kind": "relu"}, {"kind": "flatten"}, {"kind": "dense", "units": 4}]}

    @staticmethod
    def digest(mask):
        return hashlib.sha256(b"".join(mask.bits[i].tobytes()
                                       for i in sorted(mask.bits))).hexdigest()

    @pytest.mark.parametrize("draw, digest", [
        (lambda net: random_mask(net, 0.37, seed=21),
         "7f44420e5aa1f65ab0227711b4123634423861b298960b8095438fdd15b14952"),
        (lambda net: random_mask(net, 0.8, seed=3, include_biases=False),
         "02f1fccd92c12a91e40a063b3b0df31ce3e343970aea4b5346b8c8c6936bb1ab"),
        (lambda net: sparsity.mask_with_counts(net, {3: 50, 0: 17}, seed=2),
         "f14c0aad5a5dcafc7a5df042bf9c53135ca37b87bd3f06733602489869efc7d7"),
        (lambda net: sparsity.mask_with_counts(net, {0: 40}, seed=5,
                                               include_biases=False),
         "5319614e0f699711c7fc5312c5d4e74e1e189b0224e876ff3bbdb5ad2e4b8505"),
    ])
    def test_bits_pinned(self, draw, digest):
        assert self.digest(draw(nn.build_network(self.NET, 0))) == digest
