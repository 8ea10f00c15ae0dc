import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from devolve import nn, sparsity
from devolve.packing import (HuffmanTable, PackedFormatError, PackedLayer,
                             PackedModel, compression_report, decode_layer,
                             decode_mask, encode_layer, encode_mask, huffman_build,
                             huffman_decode, huffman_encode, mask_runs, pack_model,
                             unpack_model)
from devolve.quantize import QuantizationSpec, quantize_network
from devolve.sparsity import SparsityMask

from helpers import LAYOUT_KINDS, layout_net, layout_positions
from oracles import (HuffmanOracleError, huffman_decode_bitwise,
                     huffman_encode_bitwise)


def random_table(rng):
    """A Huffman-built table, sometimes with codes lengthened (incomplete)."""
    n_sym = int(rng.integers(1, 17))
    counts = rng.integers(0, 60, size=n_sym)
    counts[rng.integers(0, n_sym)] += 1
    table = huffman_build(dict(enumerate(counts.tolist())), n_symbols=n_sym)
    grow = rng.integers(0, 4, size=n_sym) * (rng.random(n_sym) < 0.3)
    return HuffmanTable(table.lengths + grow * (table.lengths > 0))


def fibonacci_table(n_symbols):
    counts = [1, 1]
    while len(counts) < n_symbols:
        counts.append(counts[-1] + counts[-2])
    return huffman_build(dict(enumerate(counts)))


def decode_outcome(decode, *args):
    """(symbols, None) or (None, (kind, bit)) of a decoder's failure."""
    try:
        return [int(s) for s in decode(*args)], None
    except (PackedFormatError, HuffmanOracleError) as e:
        found = re.search(r"(truncated|invalid Huffman code) at bit (\d+)", str(e))
        assert found, str(e)
        return None, (found[1], int(found[2]))


def assert_matches_oracle(table, payload, bit_length, count):
    """The decoder and the oracle return the same symbols or fail alike;
    returns the outcome."""
    ours = decode_outcome(huffman_decode, payload, bit_length, table, count)
    assert ours == decode_outcome(lambda *a: huffman_decode_bitwise(*a)[0],
                                  table.lengths, payload, bit_length, count)
    return ours


def assert_roundtrip(table, symbols):
    payload, bit_length = huffman_encode(symbols, table)
    assert (payload, bit_length) == huffman_encode_bitwise(table.lengths, symbols)
    out = huffman_decode(payload, bit_length, table, symbols.size)
    np.testing.assert_array_equal(out, symbols)
    assert_matches_oracle(table, payload, bit_length, symbols.size)


class TestHuffmanPayloads:
    """The whole-payload codec against the bit-by-bit oracle."""

    @given(st.integers(0, 10 ** 6))
    def test_agrees_with_oracle(self, seed):
        rng = np.random.default_rng(seed)
        table = random_table(rng)
        used = np.flatnonzero(table.lengths)
        assert_roundtrip(table, rng.choice(used, size=int(rng.integers(0, 300))))

    @given(st.integers(0, 10 ** 6))
    def test_failures_match_oracle(self, seed):
        # random bytes under incomplete tables hold invalid codes; short bit
        # lengths and large counts truncate
        rng = np.random.default_rng(seed)
        table = random_table(rng)
        payload = rng.integers(0, 256, size=int(rng.integers(0, 12)), dtype=np.uint8).tobytes()
        bit_length = int(rng.integers(0, 8 * len(payload) + 1))
        assert_matches_oracle(table, payload, bit_length, int(rng.integers(0, 40)))

    def test_truncation_detected(self):
        table = huffman_build({0: 5, 1: 3, 2: 1, 3: 1})
        symbols = np.array([3, 0, 2, 1, 1, 0, 3])
        payload, bit_length = huffman_encode(symbols, table)
        for cut in range(bit_length):
            _, failure = assert_matches_oracle(table, payload, cut, symbols.size)
            assert failure[0] == "truncated"

    @pytest.mark.parametrize("bit_length", [5, 8])
    def test_invalid_code_detected(self, bit_length):
        table = HuffmanTable(np.array([1, 2, 0, 0], dtype=np.uint8))  # "11" is no code
        with pytest.raises(PackedFormatError, match="invalid Huffman code at bit 3"):
            huffman_decode(bytes([0b01011000]), bit_length, table, 3)

    def test_no_codes(self):
        table = HuffmanTable(np.zeros(4, dtype=np.uint8))
        assert huffman_decode(b"", 0, table, 0).size == 0
        assert huffman_encode(np.zeros(0, dtype=np.uint32), table) == (b"", 0)
        with pytest.raises(PackedFormatError, match="invalid Huffman code at bit 0"):
            huffman_decode(b"\x00", 8, table, 1)

    @pytest.mark.parametrize("lengths", [
        fibonacci_table(64).lengths,  # one code of each length up to 63 bits
        np.array(list(range(1, 65)) + [64]),  # complete, with 64-bit codes
    ])
    def test_long_codes_roundtrip(self, lengths):
        table = HuffmanTable(lengths)
        assert table.max_length >= 40
        longest = np.flatnonzero(table.lengths == table.max_length)
        assert_roundtrip(table, np.concatenate([longest, np.flatnonzero(table.lengths),
                                                longest[::-1]]))

    @pytest.mark.parametrize("lengths", [[1, 65, 0, 0], [2, 2, 2, 66], [65, 0, 0, 0],
                                         [1, 2, 3, 200]])
    def test_codes_longer_than_64_bits_rejected(self, lengths):
        packed = pack_model(quantized_fixture(bits=2))
        packed.layers[0].code_lengths = np.array(lengths, dtype=np.uint8)
        with pytest.raises(PackedFormatError, match="too large"):
            unpack_model(PackedModel.from_bytes(packed.to_bytes()))


class TestHuffman:
    def test_two_equal_symbols(self):
        t = huffman_build({0: 1, 1: 1})
        assert t.lengths[0] == 1 and t.lengths[1] == 1

    def test_single_symbol_one_bit(self):
        t = huffman_build({3: 10}, n_symbols=4)
        assert t.lengths[3] == 1
        assert (t.lengths[[0, 1, 2]] == 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            huffman_build({})

    def test_skewed_lengths(self):
        t = huffman_build({0: 100, 1: 1, 2: 1})
        assert t.lengths[0] == 1
        assert t.lengths[1] == 2 and t.lengths[2] == 2

    def test_kraft_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            freqs = {s: int(c) for s, c in
                     enumerate(rng.integers(1, 1000, size=16))}
            t = huffman_build(freqs)
            used = t.lengths[t.lengths > 0].astype(float)
            assert np.sum(2.0 ** -used) <= 1.0 + 1e-12

    def test_entropy_bound_random_distributions(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n_sym = int(rng.integers(2, 17))
            counts = rng.integers(1, 500, size=n_sym)
            freqs = {s: int(c) for s, c in enumerate(counts)}
            t = huffman_build(freqs)
            total = counts.sum()
            p = counts / total
            entropy = -np.sum(p * np.log2(p))
            avg = t.average_length(freqs)
            assert entropy - 1e-12 <= avg < entropy + 1.0

    @given(st.integers(0, 5000))
    def test_roundtrip_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        n_sym = int(rng.integers(1, 17))
        symbols = rng.integers(0, n_sym, size=int(rng.integers(1, 300))).astype(np.uint32)
        freqs = {int(s): int(c) for s, c in zip(*np.unique(symbols,
                                                           return_counts=True))}
        table = huffman_build(freqs, n_symbols=n_sym)
        payload, bit_length = huffman_encode(symbols, table)
        out = huffman_decode(payload, bit_length, table, symbols.size)
        np.testing.assert_array_equal(out, symbols)

    def test_canonical_deterministic(self):
        freqs = {0: 5, 1: 5, 2: 3, 3: 3, 4: 1}
        a = huffman_build(freqs)
        b = huffman_build(dict(reversed(list(freqs.items()))))
        np.testing.assert_array_equal(a.lengths, b.lengths)
        np.testing.assert_array_equal(a.codes, b.codes)


class TestMaskEncoding:
    def test_all_zero_layer_prefers_rle(self):
        bits = np.ones(4096, dtype=bool)
        tag, payload = encode_mask(bits)
        assert tag == 1  # run-length
        assert len(payload) < 4096 // 8
        np.testing.assert_array_equal(decode_mask(tag, payload, 4096), bits)

    def test_dense_random_prefers_bitmap(self):
        rng = np.random.default_rng(0)
        bits = rng.random(4096) < 0.5
        tag, payload = encode_mask(bits)
        assert tag == 0
        np.testing.assert_array_equal(decode_mask(tag, payload, 4096), bits)

    def test_runs_alternate_starting_with_zero_run(self):
        bits = np.array([False, False, True, True, True, False])
        # first run counts zeroed (True) positions, so it starts empty
        assert mask_runs(bits) == [0, 2, 3, 1]

    @given(st.integers(0, 5000))
    def test_roundtrip_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 600))
        bits = rng.random(n) < rng.uniform(0, 1)
        tag, payload = encode_mask(bits)
        np.testing.assert_array_equal(decode_mask(tag, payload, n), bits)

    def test_bad_tag(self):
        with pytest.raises(PackedFormatError):
            decode_mask(7, b"", 4)

    def test_tie_goes_to_bitmap(self):
        # 8 all-zero positions: bitmap is 1 byte, run-length [8] is 1 byte
        bits = np.ones(8, dtype=bool)
        tag, payload = encode_mask(bits)
        assert tag == 0 and len(payload) == 1

    def test_chosen_encoding_is_never_larger(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 500))
            bits = rng.random(n) < rng.uniform(0, 1)
            tag, payload = encode_mask(bits)
            bitmap_len = -(-n // 8)
            assert len(payload) <= bitmap_len
            if tag == 1:
                assert len(payload) < bitmap_len


class TestLayerCodec:
    def _roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 400))
        bits = rng.random(n) < rng.uniform(0, 0.97)
        if bits.all():
            bits[rng.integers(0, n)] = False
        n_levels = 2 ** int(rng.integers(1, 5))
        codes = rng.integers(0, n_levels, size=int((~bits).sum())).astype(np.uint32)
        freqs = {int(s): int(c) for s, c in zip(*np.unique(codes,
                                                           return_counts=True))}
        table = huffman_build(freqs, n_symbols=n_levels)
        levels = np.linspace(-1, 1, n_levels)
        spec = QuantizationSpec("uniform_affine", int(math.log2(n_levels)),
                                "nearest", levels)
        tag, mask_payload, payload, bit_len = encode_layer(bits, codes, table)
        back_bits, flat, back_codes = decode_layer(
            tag, mask_payload, payload, bit_len, n, table, spec)
        np.testing.assert_array_equal(back_bits, bits)
        np.testing.assert_array_equal(back_codes, codes)
        np.testing.assert_array_equal(flat[bits], 0.0)
        np.testing.assert_array_equal(flat[~bits], levels[codes])

    @pytest.mark.parametrize("seed", range(25))
    def test_roundtrip_seeded(self, seed):
        self._roundtrip(seed)

    def test_thousand_layer_fuzz(self):
        for seed in range(1000):
            self._roundtrip(10_000 + seed)

    def test_code_count_mismatch(self):
        table = huffman_build({0: 1}, n_symbols=2)
        with pytest.raises(ValueError, match="codes"):
            encode_layer(np.array([False, False]), np.array([0], dtype=np.uint32),
                         table)


def quantized_fixture(seed=0, fraction=0.6, bits=4):
    net = nn.build_network({"input_shape": [12], "layers": [
        {"kind": "dense", "units": 16},
        {"kind": "leaky_relu", "slope": 0.1},
        {"kind": "dense", "units": 4},
        {"kind": "softmax"},
    ]}, seed)
    mask = sparsity.random_mask(net, fraction, seed=seed + 5,
                                include_biases=False)
    student = sparsity.apply_mask(net, mask)
    model, _ = quantize_network(student, mask, bits=bits)
    return model


class TestContainer:
    def test_roundtrip_bit_exact(self):
        model = quantized_fixture()
        packed = pack_model(model)
        data = packed.to_bytes()
        back = PackedModel.from_bytes(data)
        assert back.to_bytes() == data

    def test_unpack_restores_masks_and_weights(self):
        model = quantized_fixture(seed=3)
        packed = pack_model(model)
        net, mask = unpack_model(PackedModel.from_bytes(packed.to_bytes()))
        for i in mask.bits:
            np.testing.assert_array_equal(mask.bits[i],
                                          model.mask.layer_bits(i))
            flat = np.concatenate([t.reshape(-1)
                                   for t in net.layers[i].param_tensors()])
            orig = np.concatenate([t.reshape(-1) for t in
                                   model.network.layers[i].param_tensors()])
            # values pass through an f32 level table
            np.testing.assert_allclose(flat, orig.astype(np.float32), rtol=1e-6)
        x = np.random.default_rng(0).normal(size=(3, 12))
        out = nn.forward(net, x)
        assert out.shape == (3, 4)

    @pytest.mark.parametrize("kind", LAYOUT_KINDS)
    def test_unpack_zeroes_exactly_the_flat_positions(self, kind):
        net = layout_net(kind)
        positions = layout_positions(net.layers[0])
        mask = sparsity.merge(SparsityMask.empty(net), sparsity.CandidateSet(0, positions))
        model, _ = quantize_network(sparsity.apply_mask(net, mask), mask, bits=4)
        back, back_mask = unpack_model(PackedModel.from_bytes(pack_model(model).to_bytes()))
        np.testing.assert_array_equal(back_mask.layer_bits(0), mask.layer_bits(0))
        kernel, bias = back.layers[0].param_tensors()
        assert kernel.shape == net.layers[0].param_tensors()[0].shape
        zero = np.flatnonzero(np.concatenate([kernel.reshape(-1) == 0, bias == 0]))
        assert zero.tolist() == positions

    def test_crc_detects_every_probed_bit_flip(self):
        model = quantized_fixture(seed=1)
        data = bytearray(pack_model(model).to_bytes())
        rng = np.random.default_rng(2)
        for _ in range(40):
            pos = int(rng.integers(0, len(data)))
            bit = 1 << int(rng.integers(0, 8))
            data[pos] ^= bit
            with pytest.raises(PackedFormatError, match="CRC"):
                PackedModel.from_bytes(bytes(data))
            data[pos] ^= bit

    def test_truncated_file(self):
        data = pack_model(quantized_fixture()).to_bytes()
        with pytest.raises(PackedFormatError):
            PackedModel.from_bytes(data[:10])

    def test_roundtrip_many_seeds(self):
        for seed in range(20):
            packed = pack_model(quantized_fixture(seed=seed,
                                                  fraction=0.2 + 0.03 * seed))
            data = packed.to_bytes()
            assert PackedModel.from_bytes(data).to_bytes() == data

    def test_fully_pruned_layer_empty_payload(self):
        net = nn.build_network({"input_shape": [4], "layers": [
            {"kind": "dense", "units": 3},
            {"kind": "relu"},
            {"kind": "dense", "units": 2}]}, 1)
        mask = SparsityMask.empty(net)
        mask.bits[0][:] = True  # layer 0 entirely pruned
        student = sparsity.apply_mask(net, mask)
        model, _ = quantize_network(student, mask, bits=4)
        packed = pack_model(model)
        dead = packed.layers[0]
        assert dead.payload_bit_length == 0 and dead.payload == b""
        assert dead.mask_tag == 1  # run-length wins for a solid run
        back, back_mask = unpack_model(PackedModel.from_bytes(packed.to_bytes()))
        assert back_mask.layer_bits(0).all()
        np.testing.assert_array_equal(back.layers[0].weights, 0.0)

    def test_degenerate_constant_layer(self):
        net = nn.Network([nn.Dense(np.full((3, 3), 0.25), np.full(3, 0.25))],
                         (3,))
        mask = SparsityMask.empty(net)
        model, _ = quantize_network(net, mask, bits=4)
        packed = pack_model(model)
        back, _ = unpack_model(PackedModel.from_bytes(packed.to_bytes()))
        np.testing.assert_allclose(back.layers[0].weights, 0.25, rtol=1e-7)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("weights", [
        np.linspace(0.5, 0.5 + 1e-6, 50),  # 256 distinct f64 levels, fewer in f32
        np.linspace(-1e39, 1e39, 50)])  # past the largest f32
    def test_table_that_float32_cannot_hold_is_refused(self, weights):
        net = nn.Network([nn.Dense(weights.reshape(5, 10), np.zeros(10))], (5,))
        mask = SparsityMask.empty(net)
        mask.bits[0][50:] = True  # biases pruned
        model, _ = quantize_network(net, mask, scheme="uniform_affine", bits=8)
        with pytest.raises(ValueError, match="layer 0: .* float32"):
            pack_model(model)

    # sha256 of the quantized model, the level tables and the container of
    # the net below; how a table is built may change, its bytes may not
    PINNED = {
        ("uniform_scale", 4, "nearest"):
            "68bcf01b88749b9e9ff1eb121971c8b957fef34419173cabc862a9e16a2aafde",
        ("uniform_scale", 4, "stochastic"):
            "c0a571f124f1798f57fa56d7b7136a4e7bffb8c048b9ecec5176e131736f1410",
        ("uniform_affine", 8, "nearest"):
            "4905d68f6a1bbaeaec0a91a9bb86a0ea0e28ae61fb68dcfc116767a0f91d6420",
        ("uniform_affine", 8, "stochastic"):
            "8a6ea4586923c84feb85f2e519c23b372ff6535ea1e27d74cab2d4fae4f748c4",
        ("optimal_density", 4, "nearest"):
            "8468baca5d4d680e7b4e4126f2147a8bc41507205bd530d8f8479eb3b7d5c0ba",
        ("optimal_density", 4, "stochastic"):
            "07beffdd25a12534044e71b42b7ddea5a4cdd70ce15975f4581006cf32e436c3",
    }

    @pytest.mark.parametrize("scheme,bits,rounding", PINNED)
    def test_artifact_bytes_are_pinned(self, scheme, bits, rounding):
        net = nn.build_network({"input_shape": [6], "layers": [
            {"kind": "dense", "units": 24}, {"kind": "relu"},
            {"kind": "dense", "units": 5}, {"kind": "relu"},
            {"kind": "dense", "units": 3}]}, 11)
        layers = list(net.layers)
        layers[4] = nn.Dense(np.full((5, 3), 0.25), np.full(3, 0.25))  # constant
        net = nn.Network(layers, net.input_shape)
        mask = sparsity.random_mask(net, 0.5, seed=12, include_biases=False)
        mask.bits[2][:] = True  # fully pruned
        model, _ = quantize_network(sparsity.apply_mask(net, mask), mask, scheme=scheme,
                                    bits=bits, rounding=rounding, seed=13)
        digest = hashlib.sha256(nn.serialize_network(model.network))
        for lq in model.layers:
            digest.update(bytes([lq.spec.bits]) + lq.spec.levels.tobytes())
        digest.update(pack_model(model).to_bytes())
        assert digest.hexdigest() == self.PINNED[scheme, bits, rounding]


class TestCompressionReport:
    def test_identity_32bit_ratio_one(self):
        net = nn.build_network({"input_shape": [10], "layers": [
            {"kind": "dense", "units": 10}]}, 0)
        n = net.parameter_count()
        pl = PackedLayer("dense", {}, [(10, 10), (10,)],
                         mask_payload=bytes(-(-n // 8)),
                         lut_bits=0, lut_levels=np.zeros(1, dtype="<f4"),
                         code_lengths=np.array([1], dtype=np.uint8),
                         payload=bytes(4 * n), payload_bit_length=32 * n)
        report = compression_report(net, PackedModel((10,), [pl]))
        assert report.payload_only_ratio == pytest.approx(1.0)

    def test_bit_accounting_matches_payloads(self):
        model = quantized_fixture(seed=2, fraction=0.9)
        packed = pack_model(model)
        report = compression_report(model.network, packed)
        assert report.payload_bits == sum(pl.payload_bit_length
                                          for pl in packed.layers)
        assert report.total_bits == len(packed.to_bytes()) * 8
        assert report.total_ratio < report.payload_only_ratio
