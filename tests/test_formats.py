"""Seeded fuzzing and canonical-form checks for the binary decoders: DEVN
models, DEVM masks, DEVP containers and IDX inputs.

Each decoder must reject a malformed file with its own error class, and any
file it accepts must re-encode to exactly the same bytes."""

import errno
import gzip
import os
import struct
import zlib

import numpy as np
import pytest

from devolve import binio, datasets, nn, sparsity
from devolve.datasets import IdxFormatError
from devolve.nn import ModelFormatError
from devolve.packing import (MASK_BITMAP, MASK_RUNLENGTH, HuffmanTable,
                             PackedFormatError, PackedModel, decode_mask,
                             encode_layer, huffman_decode, pack_model,
                             unpack_model)
from devolve.quantize import quantize_network
from devolve.sparsity import MaskFormatError

ARCH = {"input_shape": [6, 6, 1], "layers": [
    {"kind": "conv2d", "filters": 2, "kernel": 3},
    {"kind": "relu"},
    {"kind": "max_pool", "pool": 2},
    {"kind": "flatten"},
    {"kind": "dense", "units": 4},
    {"kind": "leaky_relu", "slope": 0.1},
    {"kind": "dense", "units": 2},
    {"kind": "softmax"},
]}
# conv: 20 params, bitmap mask; dense 18x4: 2 survivors, run-length mask;
# dense 4x2: fully pruned, run-length mask and no code table
ZEROED = {0: 6, 4: 74, 6: 10}
N_MUTANTS = 600
U32_VALUES = [0, 1, 2, 0xFF, 0xFFFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]


@pytest.fixture(scope="module")
def net():
    return nn.build_network(ARCH, seed=1)


@pytest.fixture(scope="module")
def mask(net):
    return sparsity.mask_with_counts(net, ZEROED, seed=3)


@pytest.fixture(scope="module")
def container(net, mask):
    model, _ = quantize_network(sparsity.apply_mask(net, mask), mask, bits=2)
    return pack_model(model).to_bytes()


@pytest.fixture(scope="module")
def images():
    return datasets.serialize_idx(np.random.default_rng(0).random((3, 4, 5)))


def roundtrip_devn(data):
    return nn.serialize_network(nn.deserialize_network(data))


def roundtrip_devm(data):
    return sparsity.serialize_mask(sparsity.deserialize_mask(data))


def roundtrip_devp(data):
    """Decode fully, then re-encode every mask and code payload from the
    decoded bits and codes (tables and levels are stored as they are)."""
    packed = PackedModel.from_bytes(data)
    _, mask = unpack_model(packed)
    for i, pl in enumerate(packed.layers):
        if pl.shapes:
            bits = mask.bits[i]
            table = HuffmanTable(pl.code_lengths)
            codes = huffman_decode(pl.payload, pl.payload_bit_length, table,
                                   int((~bits).sum()))
            pl.mask_tag, pl.mask_payload, pl.payload, pl.payload_bit_length = \
                encode_layer(bits, codes, table)
    return packed.to_bytes()


def roundtrip_idx(data):
    return datasets.serialize_idx(datasets.parse_idx(data))


def mutants(data, crc, endian, seed):
    """Bit flips, byte sets, truncations and u32 overwrites in equal shares;
    with `crc` the trailer is re-sealed so the mutation reaches the parser."""
    rng = np.random.default_rng(seed)
    body = data[:-4] if crc else data
    for k in range(N_MUTANTS):
        m = bytearray(body)
        pos = int(rng.integers(len(m)))
        if k % 4 == 0:
            m[pos] ^= 1 << int(rng.integers(8))
        elif k % 4 == 1:
            m[pos] = int(rng.integers(256))
        elif k % 4 == 2:
            del m[pos:]
        else:
            pos = min(pos, len(m) - 4)
            m[pos:pos + 4] = struct.pack(endian + "I", int(rng.choice(U32_VALUES)))
        yield bytes(m) + (struct.pack("<I", zlib.crc32(m)) if crc else b"")


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
@pytest.mark.parametrize("fmt,crc,endian,error,roundtrip", [
    ("devn", True, "<", ModelFormatError, roundtrip_devn),
    ("devm", True, "<", MaskFormatError, roundtrip_devm),
    ("devp", True, "<", PackedFormatError, roundtrip_devp),
    ("idx", False, ">", IdxFormatError, roundtrip_idx),
])
def test_fuzz_rejects_with_own_error_or_reencodes_exactly(
        fmt, crc, endian, error, roundtrip, net, mask, container, images):
    data = {"devn": nn.serialize_network(net), "devm": sparsity.serialize_mask(mask),
            "devp": container, "idx": images}[fmt]
    assert roundtrip(data) == data
    rejected = 0
    for m in mutants(data, crc, endian, seed=len(fmt)):
        try:
            out = roundtrip(m)
        except Exception as e:  # noqa: BLE001 -- the type is what is checked
            assert type(e) is error, f"{type(e).__name__}: {e}"
            rejected += 1
        else:
            assert out == m
    assert rejected >= N_MUTANTS // 4  # at least every truncation


# --- DEVM --------------------------------------------------------------------

def devm_file(records, trailer=b""):
    """Hand-built DEVM bytes; records are (layer, bit count, splits, bitmap)."""
    out = b"DEVM" + struct.pack("<HH", 1, len(records))
    for layer, size, splits, bitmap in records:
        out += struct.pack(f"<HQB{len(splits)}Q", layer, size, len(splits), *splits)
        out += bitmap
    out += trailer
    return out + struct.pack("<I", zlib.crc32(out))


class TestMaskCanonical:
    @pytest.mark.parametrize("records,trailer,match", [
        ([(0, 10, (8, 3), b"\xff\xc0")], b"", "sum"),
        ([(0, 10, (8,), b"\xff\xc0")], b"", "sum"),
        ([(2, 8, (8,), b"\x00"), (0, 8, (8,), b"\x00")], b"", "out of order"),
        ([(0, 8, (8,), b"\x00"), (0, 8, (8,), b"\x00")], b"", "out of order"),
        ([(0, 10, (8, 2), b"\xff\xc1")], b"", "padding"),
        ([(0, 10, (8, 2), b"\xff\xc0")], b"\x00", "stray"),
        ([(0, 10, (8, 2), b"\xff")], b"", "truncated"),
    ])
    def test_rejected(self, records, trailer, match):
        with pytest.raises(MaskFormatError, match=match):
            sparsity.deserialize_mask(devm_file(records, trailer))

    def test_truncated_record_with_resealed_crc(self, mask):
        body = sparsity.serialize_mask(mask)[:12]
        with pytest.raises(MaskFormatError, match="truncated.*offset 8"):
            sparsity.deserialize_mask(body + struct.pack("<I", zlib.crc32(body)))


# --- DEVP --------------------------------------------------------------------

def corrupt(container, layer, **fields):
    packed = PackedModel.from_bytes(container)
    for name, value in fields.items():
        setattr(packed.layers[layer], name, value)
    return packed.to_bytes()


class TestContainerTyped:
    def test_lut_bits_255_is_truncated(self, container):
        with pytest.raises(PackedFormatError, match="truncated"):
            PackedModel.from_bytes(corrupt(container, 0, lut_bits=255))

    def test_bitmap_padding_bits(self, container):
        pl = PackedModel.from_bytes(container).layers[0]
        assert pl.mask_tag == MASK_BITMAP and pl.size % 8
        data = corrupt(container, 0, mask_payload=pl.mask_payload[:-1]
                       + bytes([pl.mask_payload[-1] | 1]))
        with pytest.raises(PackedFormatError, match="padding"):
            unpack_model(PackedModel.from_bytes(data))

    def test_code_payload_padding_bits(self, container):
        layers = PackedModel.from_bytes(container).layers
        layer, pl = next((i, pl) for i, pl in enumerate(layers) if pl.payload_bit_length % 8)
        data = corrupt(container, layer, payload=pl.payload[:-1] + bytes([pl.payload[-1] | 1]))
        with pytest.raises(PackedFormatError, match="padding"):
            unpack_model(PackedModel.from_bytes(data))

    def test_fully_pruned_layer_with_payload(self, container):
        assert not PackedModel.from_bytes(container).layers[6].code_lengths.any()
        data = corrupt(container, 6, payload=b"\x00", payload_bit_length=8)
        with pytest.raises(PackedFormatError, match="unread"):
            unpack_model(PackedModel.from_bytes(data))

    @pytest.mark.parametrize("fields,match", [
        ({"code_lengths": np.ones(4, dtype=np.uint8)}, "Kraft"),
        ({"code_lengths": np.array([1, 65, 0, 0], dtype=np.uint8)}, "too large"),
        ({"lut_levels": np.zeros(4, dtype="<f4")}, "increasing"),
        ({"shapes": [(2,), (3, 3, 1, 2)]}, "conv2d expects"),
    ])
    def test_building_failures_are_typed(self, container, fields, match):
        data = corrupt(container, 0, **fields)
        with pytest.raises(PackedFormatError, match=match):
            unpack_model(PackedModel.from_bytes(data))

    @pytest.mark.parametrize("payload,match", [
        (bytes([3, 0, 2]), "empty"),
        (bytes([0x85, 0x00]), "overlong"),
    ])
    def test_noncanonical_runs(self, payload, match):
        with pytest.raises(PackedFormatError, match=match):
            decode_mask(MASK_RUNLENGTH, payload, 5)

    @pytest.mark.parametrize("tag,payload,size", [
        (MASK_RUNLENGTH, bytes([1] * 16), 16),  # the bitmap b"\xaa\xaa" is shorter
        (MASK_RUNLENGTH, bytes([8]), 8),  # a tie goes to the bitmap
        (MASK_BITMAP, b"\xff" * 512, 4096),  # run-length [4096] is 2 bytes
    ])
    def test_noncanonical_encoding_choice(self, tag, payload, size):
        with pytest.raises(PackedFormatError, match="not the one encode_mask picks"):
            decode_mask(tag, payload, size)

    @pytest.mark.parametrize("flag", [2, 255])
    def test_conv_padding_flag(self, container, flag):
        # magic, version, input shape [6,6,1], layer count, conv2d's tag and stride
        at = 4 + 2 + 1 + 4 * 3 + 2 + 2
        assert container[at - 2:at + 1] == b"\x02\x01\x01"  # tag 2, stride 1, "same"
        body = container[:at] + bytes([flag]) + container[at + 1:-4]
        with pytest.raises(PackedFormatError, match="padding flag"):
            PackedModel.from_bytes(body + struct.pack("<I", zlib.crc32(body)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_level(self, container, bad):
        levels = PackedModel.from_bytes(container).layers[0].lut_levels.copy()
        levels[1] = bad
        with pytest.raises(PackedFormatError, match="finite"):
            unpack_model(PackedModel.from_bytes(corrupt(container, 0, lut_levels=levels)))


# --- DEVN --------------------------------------------------------------------

def devn_file(layers, trailer=b"", input_shape=(3,), version=1):
    """Hand-built DEVN bytes; layers are (tag, hyper bytes, tensors). Version 2
    ends in the CRC32 of everything before it, version 1 has no trailer."""
    def shape(s):
        return struct.pack(f"<B{len(s)}I", len(s), *s)
    out = b"DEVN" + struct.pack("<H", version) + shape(input_shape)
    out += struct.pack("<H", len(layers))
    for tag, hyper, tensors in layers:
        out += struct.pack("<B", tag) + hyper + struct.pack("<B", len(tensors))
        for t in tensors:
            out += shape(t.shape) + np.asarray(t, dtype="<f8").tobytes()
    out += trailer
    return out + (struct.pack("<I", zlib.crc32(out)) if version == 2 else b"")


DENSE = (1, b"", [np.ones((3, 2)), np.zeros(2)])
# ARCH's layers as (tag, hyper bytes): conv2d stride 1 "same", relu, max_pool
# 2/2, flatten, dense, leaky_relu 0.1, dense, softmax
ARCH_TAGS = [(2, b"\x01\x01"), (4, b""), (6, b"\x02\x02"), (5, b""), (1, b""),
             (3, struct.pack("<d", 0.1)), (1, b""), (7, b"")]


def arch_devn_file(net, version):
    layers = [(tag, hyper, layer.param_tensors())
              for (tag, hyper), layer in zip(ARCH_TAGS, net.layers, strict=True)]
    return devn_file(layers, input_shape=(6, 6, 1), version=version)


class TestModelTyped:
    @pytest.mark.parametrize("layers,trailer,match", [
        ([DENSE], b"\x00", "stray"),
        ([(1, b"", [np.zeros(2), np.ones((3, 2))])], b"", "dense expects"),
        ([(1, b"", [])], b"", "parameter tensors"),
        ([DENSE, (4, b"", [np.zeros(1)])], b"", "parameter tensors"),
        ([DENSE, (9, b"", [])], b"", "tag 9.*offset 93"),
        ([(1, b"", [np.array([[1.0, 1.0], [np.nan, 1.0], [1.0, 1.0]]), np.zeros(2)])],
         b"", "non-finite.*offset 24"),
    ])
    def test_rejected(self, layers, trailer, match):
        with pytest.raises(ModelFormatError, match=match):
            nn.deserialize_network(devn_file(layers, trailer))

    def test_conv_padding_flag(self):
        conv = (2, b"\x01\x02", [np.ones((3, 3, 1, 2)), np.zeros(2)])
        with pytest.raises(ModelFormatError, match="padding flag"):
            nn.deserialize_network(devn_file([conv], input_shape=(4, 4, 1)))

    def test_truncated_header(self):
        with pytest.raises(ModelFormatError, match="truncated.*offset 4"):
            nn.deserialize_network(b"DEVN\x01")

    def test_version_2_crc_mismatch(self, net):
        data = bytearray(nn.serialize_network(net))
        data[20] ^= 1
        with pytest.raises(ModelFormatError, match="CRC mismatch"):
            nn.deserialize_network(bytes(data))


# --- encoders against layouts written out above, apart from devolve.binio ---

class TestEncodedLayouts:
    def test_devn(self, net):
        assert nn.serialize_network(net) == arch_devn_file(net, version=2)

    def test_devn_version_1_loads_and_reencodes_as_version_2(self, net):
        v1 = arch_devn_file(net, version=1)
        v2 = nn.serialize_network(nn.deserialize_network(v1))
        assert v2 == arch_devn_file(net, version=2)
        assert v2[:4] + b"\x01\x00" + v2[6:-4] == v1

    def test_devm(self, mask):
        records = [(layer, bits.size, mask.splits[layer], np.packbits(bits).tobytes())
                   for layer, bits in sorted(mask.bits.items())]
        assert sparsity.serialize_mask(mask) == devm_file(records)

    def test_idx(self, images):
        pixels = np.random.default_rng(0).random((3, 4, 5))  # as in `images`
        assert images == (struct.pack(">IIII", 0x803, 3, 4, 5)
                          + np.round(pixels * 255.0).astype(np.uint8).tobytes())
        labels = np.arange(7) % 3
        assert datasets.serialize_idx(labels) == (struct.pack(">II", 0x801, 7)
                                                  + bytes([0, 1, 2, 0, 1, 2, 0]))


# --- IDX ---------------------------------------------------------------------

class TestIdxTyped:
    @pytest.mark.parametrize("wrap", [
        lambda raw: gzip.compress(raw)[:-6],
        lambda raw: b"\x1f\x8b" + b"\x00" * 20,
        lambda raw: gzip.compress(raw)[:12] + b"\xff" * 20,
    ])
    def test_corrupt_gzip(self, tmp_path, images, wrap):
        path = tmp_path / "x.idx.gz"
        path.write_bytes(wrap(images))
        with pytest.raises(IdxFormatError, match="gzip"):
            datasets.load_idx(str(path))

    def test_bad_magic_is_typed(self):
        with pytest.raises(IdxFormatError, match="magic.*offset 0"):
            datasets.parse_idx(struct.pack(">II", 0x00000802, 1) + b"\x00")


class TestWriteFile:
    """Every output goes through `binio.write_file`: whole or not at all."""

    def test_bytes_and_mode_are_those_of_open(self, tmp_path):
        with open(tmp_path / "by-open", "wb") as f:
            f.write(b"DEVN\x00")
        binio.write_file(tmp_path / "by-helper", b"DEVN\x00")
        a, b = (os.stat(tmp_path / name) for name in ("by-open", "by-helper"))
        assert (tmp_path / "by-helper").read_bytes() == b"DEVN\x00"
        assert a.st_mode == b.st_mode
        binio.write_file(str(tmp_path / "by-helper"), b"new")
        assert (tmp_path / "by-helper").read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["by-helper", "by-open"]

    def test_a_write_that_fails_midway_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.devn"
        path.write_bytes(b"old bytes")

        class FullDisk:  # writes half of the data, then runs out of space
            def __init__(self, name, mode):
                self.f = open(name, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                self.f.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(binio, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            binio.write_file(path, b"new bytes, longer than the old")
        assert path.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["model.devn"]

    def test_a_failed_replace_leaves_no_temporary_file(self, tmp_path):
        (tmp_path / "out").mkdir()  # a directory: the file cannot replace it
        with pytest.raises(OSError):
            binio.write_file(tmp_path / "out", b"data")
        assert os.listdir(tmp_path) == ["out"] and not os.listdir(tmp_path / "out")
