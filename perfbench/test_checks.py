"""Each output check must reject a deliberately wrong artifact.

    python3 -m pytest perfbench/test_checks.py -q

Every test first shows the check passing on a correct artifact, then feeds it
one fault and expects CheckError.
"""

import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from devolve import nn, packing, quantize, sparsity  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402

ARCH = {"input_shape": [20], "layers": [
    {"kind": "dense", "units": 16}, {"kind": "leaky_relu", "slope": 0.1},
    {"kind": "dense", "units": 4}, {"kind": "softmax"}]}


def reseal(data: bytes) -> bytes:
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))


@pytest.fixture(scope="module")
def packed():
    net = nn.build_network(ARCH, 3)
    mask = sparsity.random_mask(net, 0.6, seed=4, include_biases=False)
    student = sparsity.apply_mask(net, mask)
    model, _ = quantize.quantize_network(student, mask, scheme="optimal_density",
                                         bits=4, rounding="nearest", seed=5)
    data = packing.pack_model(model).to_bytes()
    restored, restored_mask = packing.unpack_model(packing.PackedModel.from_bytes(data))
    return {"student": student, "mask": mask, "model": model, "data": data,
            "restored": restored, "restored_mask": restored_mask}


def layer0_offsets(data: bytes) -> dict:
    """Byte offsets inside layer 0 of a container of ARCH (bitmap mask)."""
    off = 4 + 2 + 1 + 4 + 2            # magic, version, input shape [20], layer count
    off += 1 + 1 + (1 + 8) + (1 + 4)   # kind, tensor count, two shapes
    tag, mask_len = struct.unpack_from("<BI", data, off)
    mask_at = off + 5
    lut_at = mask_at + mask_len + 1
    (bits_at_lut,) = struct.unpack_from("<B", data, mask_at + mask_len)
    n = 2 ** bits_at_lut
    payload_at = lut_at + 5 * n + 8
    return {"mask_tag": tag, "mask": mask_at, "lut": lut_at, "levels": n,
            "payload": payload_at}


def test_crc_rejects_a_flipped_byte(packed):
    checks.check_crc(packed["data"])
    bad = bytearray(packed["data"])
    bad[len(bad) // 2] ^= 0x10
    with pytest.raises(CheckError):
        checks.check_crc(bytes(bad))


def test_resealed_payload_flip_is_caught(packed):
    checks.check_survivors(checks.parse_container(packed["data"]), packed["model"].network)
    at = layer0_offsets(packed["data"])["payload"]
    bad = bytearray(packed["data"])
    bad[at] ^= 0xFF
    with pytest.raises(CheckError):
        parsed = checks.parse_container(reseal(bytes(bad)))
        checks.check_survivors(parsed, packed["model"].network)


def test_equally_spaced_table_in_the_container_is_caught(packed):
    at = layer0_offsets(packed["data"])
    levels = packed["model"].layers[0].spec.levels
    uniform = np.linspace(levels[0], levels[-1], levels.size).astype("<f4").tobytes()
    bad = bytearray(packed["data"])
    bad[at["lut"]:at["lut"] + 4 * at["levels"]] = uniform
    parsed = checks.parse_container(reseal(bytes(bad)))
    with pytest.raises(CheckError):
        checks.check_survivors(parsed, packed["model"].network)


def test_cleared_mask_bit_is_caught(packed):
    parsed = checks.parse_container(packed["data"])
    checks.check_masks(parsed, packed["mask"].bits, packed["restored"],
                       packed["restored_mask"].bits)
    written = {i: b.copy() for i, b in packed["mask"].bits.items()}
    written[0][np.flatnonzero(written[0])[0]] = False
    with pytest.raises(CheckError):
        checks.check_masks(parsed, written, packed["restored"], packed["restored_mask"].bits)


def test_cleared_mask_bit_in_the_container_is_caught(packed):
    at = layer0_offsets(packed["data"])
    assert at["mask_tag"] == 0
    bits = packed["mask"].bits[0]
    first = int(np.flatnonzero(bits)[0])
    bad = bytearray(packed["data"])
    bad[at["mask"] + first // 8] &= ~(0x80 >> (first % 8)) & 0xFF
    with pytest.raises(CheckError):
        parsed = checks.parse_container(reseal(bytes(bad)))
        checks.check_masks(parsed, packed["mask"].bits, packed["restored"],
                           packed["restored_mask"].bits)


def test_nonzero_pruned_weight_is_caught(packed):
    parsed = checks.parse_container(packed["data"])
    layer = packed["restored"].layers[0]
    weights = layer.weights.copy().reshape(-1)
    weights[np.flatnonzero(packed["mask"].bits[0][:weights.size])[0]] = 1e-30
    net = packed["restored"].replace_layer(
        0, layer.with_params([weights.reshape(layer.weights.shape), layer.bias]))
    with pytest.raises(CheckError):
        checks.check_masks(parsed, packed["mask"].bits, net, packed["restored_mask"].bits)


def test_unreached_sparsity_is_caught(packed):
    parsed = checks.parse_container(packed["data"])
    reached = packed["mask"].bits[0].mean()
    checks.check_sparsity(parsed, {0: reached})
    with pytest.raises(CheckError):
        checks.check_sparsity(parsed, {0: reached + 1e-3})


def test_payload_above_entropy_plus_one_is_caught(packed):
    parsed = checks.parse_container(packed["data"])
    checks.check_entropy(parsed)
    layer = checks.param_layers(parsed)[0]
    layer["payload_bits"] = int(layer["codes"].size * (checks.entropy_bits(layer["codes"]) + 1.01))
    with pytest.raises(CheckError):
        checks.check_entropy(parsed)


def test_bad_level_tables_are_caught(packed):
    lq = packed["model"].layers[0]
    survivors = checks.flat_params(packed["student"], 0)[~packed["mask"].bits[0]]
    checks.check_levels(lq.spec.levels, 4, survivors)
    checks.check_beats_uniform(lq.spec.levels, survivors)
    swapped = lq.spec.levels.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    shrunk = lq.spec.levels.copy()
    shrunk[-1] = np.nextafter(shrunk[-1], 0.0)
    for bad, bits in ((swapped, 4), (lq.spec.levels[:-1], 4), (shrunk, 4),
                      (lq.spec.levels, 3)):
        with pytest.raises(CheckError):
            checks.check_levels(bad, bits, survivors)
    crowded = np.concatenate((np.linspace(survivors.min(), survivors.max(), 8),
                              np.full(8, survivors.max())))
    crowded[8:] -= np.arange(8, 0, -1) * 1e-9
    with pytest.raises(CheckError):
        checks.check_beats_uniform(np.sort(crowded), survivors)


def test_biased_or_stray_stochastic_rounding_is_caught():
    rng = np.random.default_rng(0)
    levels = np.linspace(-1.0, 1.0, 16)
    w = rng.uniform(-1.0, 1.0, 20000)
    spec = quantize.QuantizationSpec("uniform_affine", 4, "stochastic", levels, seed=9)
    rounded = quantize.dequantize(quantize.quantize(w, None, spec), spec)
    checks.check_stochastic(w, rounded, levels)
    up = levels[np.clip(np.searchsorted(levels, w), 1, 15)]
    with pytest.raises(CheckError):
        checks.check_stochastic(w, up, levels)
    stray = rounded.copy()
    stray[0] = levels[(np.searchsorted(levels, w[0]) + 3) % 16]
    with pytest.raises(CheckError):
        checks.check_stochastic(w, stray, levels)


def test_forward_mismatch_is_caught(packed):
    x = np.random.default_rng(1).normal(size=(32, 20))
    net = packed["restored"]
    checks.check_forward(checks.reference_forward(net, x), nn.forward(net, x), "restored")
    off = nn.forward(net, x)
    off[5, 1] += 1e-6
    with pytest.raises(CheckError):
        checks.check_forward(checks.reference_forward(net, x), off, "restored")


def test_conv_reference_matches_and_catches_a_wrong_kernel():
    arch = {"input_shape": [6, 6, 1], "layers": [
        {"kind": "conv2d", "filters": 3, "kernel": 3}, {"kind": "relu"},
        {"kind": "max_pool", "pool": 2}, {"kind": "flatten"},
        {"kind": "dense", "units": 2}, {"kind": "softmax"}]}
    net = nn.build_network(arch, 2)
    x = np.random.default_rng(3).normal(size=(4, 6, 6, 1))
    checks.check_forward(checks.reference_forward(net, x), nn.forward(net, x), "conv")
    conv = net.layers[0]
    flipped = net.replace_layer(0, conv.with_params([conv.kernel[::-1].copy(), conv.bias]))
    with pytest.raises(CheckError):
        checks.check_forward(checks.reference_forward(flipped, x), nn.forward(net, x), "conv")


def test_accuracy_drop_and_changed_bytes_are_caught():
    checks.check_accuracy(0.985, 1.0)
    with pytest.raises(CheckError):
        checks.check_accuracy(0.975, 1.0)
    checks.check_same_hashes([{"a": "1"}, {"a": "1"}], "round")
    with pytest.raises(CheckError):
        checks.check_same_hashes([{"a": "1"}, {"a": "2"}], "round")
