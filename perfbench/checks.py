"""Output checks written apart from devolve.

The container is parsed here from the layout documented in the README and in
`packing`'s module docstring, with its own canonical Huffman decoder; the
forward pass, rounding errors, entropies and level-table properties are
computed here with plain numpy. Every check raises `CheckError` on failure.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np


class CheckError(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Container (DEVP) parser
# ---------------------------------------------------------------------------

_KINDS = {1: "dense", 2: "conv2d", 3: "leaky_relu", 4: "relu", 5: "flatten",
          6: "max_pool", 7: "softmax"}
_HYPER_BYTES = {"conv2d": 2, "leaky_relu": 8, "max_pool": 2}


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        require(self.off + n <= len(self.data),
                f"container truncated at byte {self.off} (wanted {n})")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def shape(self) -> tuple[int, ...]:
        (ndim,) = self.unpack("<B")
        return self.unpack(f"<{ndim}I") if ndim else ()


def check_crc(data: bytes):
    """The CRC32 trailer matches zlib.crc32 of everything before it."""
    require(len(data) >= 4, "container shorter than its CRC trailer")
    (stored,) = struct.unpack("<I", data[-4:])
    computed = zlib.crc32(data[:-4])
    require(stored == computed,
            f"CRC trailer {stored:#010x} != zlib.crc32 {computed:#010x}")


def _decode_mask(tag: int, payload: bytes, size: int) -> np.ndarray:
    if tag == 0:
        require(len(payload) == -(-size // 8), "bitmap mask has the wrong length")
        return np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:size].astype(bool)
    require(tag == 1, f"unknown mask tag {tag}")
    runs, value, shift = [], 0, 0
    for byte in payload:
        value |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            runs.append(value)
            value, shift = 0, 0
    require(shift == 0 and sum(runs) == size, "run-length mask does not cover the layer")
    pruned = np.arange(len(runs)) % 2 == 0  # runs alternate, zero-run first
    return np.repeat(pruned, runs)


def _huffman_decode(lengths: np.ndarray, payload: bytes, bit_length: int,
                    count: int) -> np.ndarray:
    """Canonical code: symbols sorted by (length, symbol) get consecutive
    code values, shifted left whenever the length grows."""
    table = {}
    code, prev = 0, 0
    for sym in sorted((s for s in range(lengths.size) if lengths[s]),
                      key=lambda s: (int(lengths[s]), s)):
        code <<= int(lengths[sym]) - prev
        prev = int(lengths[sym])
        table[(prev, code)] = sym
        code += 1
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))[:bit_length].tolist()
    out = np.empty(count, dtype=np.int64)
    pos, max_len = 0, int(lengths.max(initial=0))
    for i in range(count):
        code, length = 0, 0
        while True:
            require(pos < bit_length and length < max_len,
                    f"undecodable Huffman payload at bit {pos}")
            code = (code << 1) | bits[pos]
            pos += 1
            length += 1
            sym = table.get((length, code))
            if sym is not None:
                out[i] = sym
                break
    require(pos == bit_length, f"{bit_length - pos} payload bits left after {count} codes")
    return out


def parse_container(data: bytes) -> dict:
    """Decode a DEVP container into per-layer masks, level tables, codes and
    weights (float64 of the float32 levels; pruned positions 0.0)."""
    check_crc(data)
    r = _Reader(data[:-4])
    require(r.take(4) == b"DEVP", "bad container magic")
    (version,) = r.unpack("<H")
    require(version == 1, f"unexpected container version {version}")
    r.shape()  # input shape
    (n_layers,) = r.unpack("<H")
    layers = []
    for index in range(n_layers):
        (tag,) = r.unpack("<B")
        require(tag in _KINDS, f"unknown layer tag {tag}")
        kind = _KINDS[tag]
        r.take(_HYPER_BYTES.get(kind, 0))
        (n_tensors,) = r.unpack("<B")
        shapes = [r.shape() for _ in range(n_tensors)]
        layer = {"index": index, "kind": kind, "shapes": shapes}
        if shapes:
            size = sum(int(np.prod(s)) for s in shapes)
            mask_tag, mask_len = r.unpack("<BI")
            mask_payload = r.take(mask_len)
            (lut_bits,) = r.unpack("<B")
            n_levels = 2 ** lut_bits
            levels = np.frombuffer(r.take(4 * n_levels), dtype="<f4").astype(np.float64)
            lengths = np.frombuffer(r.take(n_levels), dtype=np.uint8)
            (bit_length,) = r.unpack("<Q")
            payload = r.take(-(-bit_length // 8))
            mask = _decode_mask(mask_tag, mask_payload, size)
            survivors = int((~mask).sum())
            if lengths.max(initial=0) == 0:
                require(survivors == 0 and bit_length == 0,
                        f"layer {index} has survivors but no code table")
                codes = np.empty(0, dtype=np.int64)
            else:
                used = lengths[lengths > 0].astype(np.float64)
                require(np.sum(2.0 ** -used) <= 1.0 + 1e-12,
                        f"layer {index} code lengths break the Kraft inequality")
                codes = _huffman_decode(lengths, payload, bit_length, survivors)
            weights = np.zeros(size)
            weights[~mask] = levels[codes]
            layer.update(mask=mask, mask_bytes=len(mask_payload), levels=levels,
                         payload_bits=bit_length, codes=codes, weights=weights, size=size)
        layers.append(layer)
    require(r.off == len(r.data), f"{len(r.data) - r.off} stray bytes before the CRC")
    return {"layers": layers, "bytes": len(data)}


def param_layers(parsed: dict) -> list[dict]:
    return [layer for layer in parsed["layers"] if layer["shapes"]]


# ---------------------------------------------------------------------------
# Reference forward pass
# ---------------------------------------------------------------------------

def _conv_loops(x, kernel, bias, stride, padding):
    n, h, w, _ = x.shape
    kh, kw, _, cout = kernel.shape
    if padding == "same":
        oh, ow = -(-h // stride), -(-w // stride)
        ph = max((oh - 1) * stride + kh - h, 0)
        pw = max((ow - 1) * stride + kw - w, 0)
        x = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    else:
        oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    y = np.empty((n, oh, ow, cout))
    for i in range(oh):
        for j in range(ow):
            acc = np.array(bias, dtype=np.float64)
            for a in range(kh):
                for b in range(kw):
                    acc = acc + x[:, i * stride + a, j * stride + b, :] @ kernel[a, b]
            y[:, i, j, :] = acc
    return y


def _pool_loops(x, pool, stride):
    n, h, w, c = x.shape
    oh, ow = (h - pool) // stride + 1, (w - pool) // stride + 1
    y = np.empty((n, oh, ow, c))
    for i in range(oh):
        for j in range(ow):
            y[:, i, j, :] = x[:, i * stride:i * stride + pool,
                              j * stride:j * stride + pool, :].max(axis=(1, 2))
    return y


def reference_forward(net, x: np.ndarray) -> np.ndarray:
    """Forward pass from the layers' tensors and hyperparameters; convolution
    and pooling are direct loops over output positions."""
    x = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        kind = layer.kind
        if kind == "dense":
            x = x @ layer.weights + layer.bias
        elif kind == "conv2d":
            x = _conv_loops(x, layer.kernel, layer.bias, layer.stride, layer.padding)
        elif kind == "relu":
            x = np.maximum(x, 0.0)
        elif kind == "leaky_relu":
            x = np.where(x > 0, x, layer.slope * x)
        elif kind == "max_pool":
            x = _pool_loops(x, layer.pool, layer.stride)
        elif kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        elif kind == "softmax":
            e = np.exp(x - x.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True)
        else:
            raise CheckError(f"reference forward has no layer kind {kind!r}")
    return x


def check_forward(reference: np.ndarray, program: np.ndarray, what: str):
    require(reference.shape == program.shape,
            f"{what}: forward shapes {reference.shape} != {program.shape}")
    worst = float(np.abs(reference - program).max())
    require(np.allclose(reference, program, rtol=1e-9, atol=1e-12),
            f"{what}: nn.forward differs from the reference by {worst:.3e}")


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------

def flat_params(net, index: int) -> np.ndarray:
    return np.concatenate([t.reshape(-1) for t in net.layers[index].param_tensors()])


def check_masks(parsed: dict, written: dict, restored_net, restored_mask: dict):
    """The container's masks, the program's restored mask and the written
    mask agree bit for bit; pruned positions of the restored weights are 0.0
    and the restored weights equal the container's decoded weights."""
    for layer in param_layers(parsed):
        i = layer["index"]
        require(np.array_equal(layer["mask"], np.asarray(written[i], dtype=bool)),
                f"layer {i}: container mask differs from the written mask")
        require(np.array_equal(layer["mask"], np.asarray(restored_mask[i], dtype=bool)),
                f"layer {i}: restored mask differs from the written mask")
        require(np.all(flat_params(restored_net, i)[layer["mask"]] == 0.0),
                f"layer {i}: a pruned position is not exactly 0.0")
    check_weights(parsed, restored_net, "unpack_model")


def check_weights(parsed: dict, net, what: str):
    """A restored network holds exactly the container's decoded weights."""
    for layer in param_layers(parsed):
        require(np.array_equal(flat_params(net, layer["index"]), layer["weights"]),
                f"layer {layer['index']}: {what} weights differ from the decoded container")


def check_survivors(parsed: dict, quantized_net):
    """Each restored surviving weight is the float32 rounding of the
    quantized model's weight."""
    for layer in param_layers(parsed):
        i = layer["index"]
        keep = ~layer["mask"]
        want = flat_params(quantized_net, i)[keep].astype(np.float32).astype(np.float64)
        got = layer["weights"][keep]
        bad = int(np.count_nonzero(got != want))
        require(bad == 0, f"layer {i}: {bad} surviving weights are not the "
                          "float32 rounding of the quantized weights")


def check_sparsity(parsed: dict, targets: dict[int, float]):
    by_index = {layer["index"]: layer for layer in param_layers(parsed)}
    for i, target in targets.items():
        mask = by_index[i]["mask"]
        reached = mask.sum() / mask.size
        require(reached >= target, f"layer {i}: sparsity {reached:.6f} below target {target}")


def entropy_bits(codes: np.ndarray) -> float:
    _, counts = np.unique(codes, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log2(p)).sum())


def check_entropy(parsed: dict):
    """Payload bits per code lie within [H, H+1] of the codes' empirical
    entropy H, layer by layer."""
    for layer in param_layers(parsed):
        n = layer["codes"].size
        if n == 0:
            continue
        h = entropy_bits(layer["codes"])
        per_code = layer["payload_bits"] / n
        require(h - 1e-9 <= per_code <= h + 1.0 + 1e-9,
                f"layer {layer['index']}: {per_code:.4f} payload bits per code "
                f"outside [H, H+1] with H={h:.4f}")


def check_levels(levels: np.ndarray, bits: int, survivors: np.ndarray):
    """A density-optimal table is strictly increasing, has 2^bits entries and
    ends at the smallest and largest surviving weight."""
    levels = np.asarray(levels, dtype=np.float64)
    require(levels.size == 2 ** bits, f"{levels.size} levels for {bits} bits")
    require(bool(np.all(np.diff(levels) > 0)), "levels are not strictly increasing")
    require(levels[0] == survivors.min() and levels[-1] == survivors.max(),
            f"level endpoints [{levels[0]!r}, {levels[-1]!r}] are not the surviving "
            f"range [{survivors.min()!r}, {survivors.max()!r}]")


def nearest_mae(values: np.ndarray, levels: np.ndarray) -> float:
    """Mean distance to the nearest level (brute force over the table)."""
    out = np.empty(values.size)
    for lo in range(0, values.size, 4096):
        chunk = values[lo:lo + 4096]
        out[lo:lo + chunk.size] = np.abs(chunk[:, None] - levels[None, :]).min(axis=1)
    return float(out.mean())


def check_beats_uniform(levels: np.ndarray, survivors: np.ndarray):
    """On the surviving weights, the density-optimal table rounds no worse
    than an equally spaced table of the same size and range."""
    uniform = np.linspace(survivors.min(), survivors.max(), levels.size)
    mine, flat = nearest_mae(survivors, levels), nearest_mae(survivors, uniform)
    require(mine <= flat, f"{levels.size}-level table error {mine:.6e} exceeds "
                          f"equally spaced {flat:.6e}")


def check_stochastic(weights: np.ndarray, rounded: np.ndarray, levels: np.ndarray):
    """Stochastic rounding lands on a neighbouring level and its mean signed
    error is within 4 standard errors of zero, from p(1-p)*gap^2."""
    levels = np.asarray(levels, dtype=np.float64)
    w = np.clip(weights, levels[0], levels[-1])
    hi = np.clip(np.searchsorted(levels, w, side="left"), 1, levels.size - 1)
    lo_v, hi_v = levels[hi - 1], levels[hi]
    require(bool(np.all((rounded == lo_v) | (rounded == hi_v))),
            "a stochastically rounded weight is not a neighbouring level")
    gap = hi_v - lo_v
    p = (w - lo_v) / gap
    se = math.sqrt(float(np.sum(p * (1.0 - p) * gap * gap))) / w.size
    mean_err = float(np.mean(rounded - w))
    require(abs(mean_err) <= 4.0 * se + 1e-300,
            f"mean signed rounding error {mean_err:.3e} beyond 4 standard errors ({se:.3e})")


def check_accuracy(restored: float, teacher: float, points: float = 0.02):
    require(abs(restored - teacher) <= points + 1e-12,
            f"restored accuracy {restored:.4f} is more than {points * 100:.0f} points "
            f"from the teacher's {teacher:.4f}")


def check_same_hashes(rounds: list[dict], what: str):
    """Every repeat of the same operations wrote byte-identical artifacts."""
    for k, hashes in enumerate(rounds[1:], start=1):
        diff = sorted(name for name in hashes if hashes[name] != rounds[0].get(name))
        require(not diff, f"{what} {k} wrote different bytes than {what} 0: {diff}")
