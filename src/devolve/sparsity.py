"""Per-layer irrevocable sparsification masks.

A mask holds one flat bitset per parameter-carrying layer, indexed like
`nn.Layer.flat_params` (the layer's tensors end to end in declared order, each
row-major); candidate indices use the same layout. This module is the only one
that zeroes masked positions (`apply_mask`). Bits only ever flip False -> True;
merge returns a new mask, so masks behave as immutable values and are safe to
share across workers.

DEVM layout (little-endian; `deserialize_mask` raises `MaskFormatError`, a
`ValueError`, on anything but this canonical form):

    magic "DEVM" | version u16 | layer count u16
    per layer, by increasing index: layer index u16 | bit count u64 |
        tensor count u8 | tensor sizes u64... (summing to the bit count) |
        bitmap of ceil(bit count / 8) bytes, MSB first, padding bits zero
    crc32 u32 of everything before it
"""

from __future__ import annotations

from dataclasses import dataclass

import struct
import zlib

import numpy as np

from .binio import FormatError, Reader
from .nn import Network


@dataclass(frozen=True)
class CandidateSet:
    """A proposed set of layer-flat parameter indices to zero."""

    layer: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("candidate indices must be a flat array")
        if idx.size and (np.diff(np.sort(idx)).min(initial=1) == 0):
            raise ValueError("candidate indices must be unique")
        object.__setattr__(self, "indices", np.sort(idx))

    @property
    def size(self) -> int:
        return int(self.indices.size)


class SparsityMask:
    """Maps layer index -> flat boolean array (True = parameter pruned)."""

    def __init__(self, bits: dict[int, np.ndarray], splits: dict[int, tuple[int, ...]]):
        self.bits = bits
        self.splits = splits

    @classmethod
    def empty(cls, net: Network) -> "SparsityMask":
        bits = {}
        splits = {}
        for i in net.param_layer_indices():
            sizes = tuple(t.size for t in net.layers[i].param_tensors())
            bits[i] = np.zeros(sum(sizes), dtype=bool)
            splits[i] = sizes
        return cls(bits, splits)

    def copy(self) -> "SparsityMask":
        return SparsityMask({i: b.copy() for i, b in self.bits.items()},
                            dict(self.splits))

    def layer_bits(self, layer: int) -> np.ndarray:
        return self.bits[layer]

    def zeroed(self, layer: int | None = None) -> int:
        if layer is not None:
            return int(self.bits[layer].sum())
        return int(sum(b.sum() for b in self.bits.values()))

    def total(self, layer: int | None = None) -> int:
        if layer is not None:
            return int(self.bits[layer].size)
        return int(sum(b.size for b in self.bits.values()))

    def check_compatible(self, net: Network):
        for i, sizes in self.splits.items():
            actual = tuple(t.size for t in net.layers[i].param_tensors())
            if actual != sizes:
                raise ValueError(
                    f"mask layout {sizes} does not match layer {i} tensors {actual}"
                )


def sparsity(mask: SparsityMask, scope: int | str = "network") -> float:
    """Fraction of zeroed parameters; scope is a layer index or 'network'."""
    layer = None if scope == "network" else int(scope)
    total = mask.total(layer)
    if total == 0:
        return 0.0
    return mask.zeroed(layer) / total


def merge(mask: SparsityMask, cand: CandidateSet) -> SparsityMask:
    """Union of zeroed sets; already-zeroed indices are no-ops."""
    if cand.layer not in mask.bits:
        raise ValueError(f"layer {cand.layer} has no parameters to mask")
    n = mask.bits[cand.layer].size
    if cand.size and (cand.indices[0] < 0 or cand.indices[-1] >= n):
        raise ValueError(
            f"candidate index out of bounds for layer {cand.layer} (size {n})"
        )
    out = mask.copy()
    out.bits[cand.layer][cand.indices] = True
    return out


def apply_mask(net: Network, mask: SparsityMask) -> Network:
    """Set masked positions to exactly 0.0; all other values unchanged."""
    mask.check_compatible(net)
    layers = list(net.layers)
    for i, bits in mask.bits.items():
        if bits.any():
            flat = layers[i].flat_params()
            flat[bits] = 0.0
            layers[i] = layers[i].with_flat_params(flat)
    return Network(layers, net.input_shape)


def prunable_indices(net: Network, layer: int,
                     include_biases: bool = False) -> np.ndarray:
    """Layer-flat indices eligible for pruning (biases excluded by default).
    A layer declares its weights first and its bias last."""
    tensors = net.layers[layer].param_tensors()
    if not tensors:
        raise ValueError(f"layer {layer} has no parameters")
    size = sum(t.size for t in tensors) if include_biases else tensors[0].size
    return np.arange(size, dtype=np.int64)


def random_mask(net: Network, fraction: float, seed: int,
                include_biases: bool = True) -> SparsityMask:
    """Single-shot random mask zeroing round(fraction * n) positions per layer."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    mask = SparsityMask.empty(net)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    for i in net.param_layer_indices():
        pool = prunable_indices(net, i, include_biases)
        k = round(fraction * mask.total(i))
        if k > pool.size:
            raise ValueError(
                f"layer {i}: cannot zero {k} of {pool.size} prunable positions"
            )
        chosen = rng.choice(pool, size=k, replace=False)
        mask.bits[i][chosen] = True
    return mask


def mask_with_counts(net: Network, counts: dict[int, int], seed: int,
                     include_biases: bool = True) -> SparsityMask:
    """Random mask with an exact zero count per layer (baseline comparisons)."""
    mask = SparsityMask.empty(net)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC0DE]))
    for i, k in counts.items():
        pool = prunable_indices(net, i, include_biases)
        if k > pool.size:
            raise ValueError(
                f"layer {i}: cannot zero {k} of {pool.size} prunable positions"
            )
        chosen = rng.choice(pool, size=int(k), replace=False)
        mask.bits[i][chosen] = True
    return mask


# --- mask file sidecar (bitmaps per layer) ---------------------------------

_MASK_MAGIC = b"DEVM"


class MaskFormatError(FormatError):
    """Corrupt, truncated or non-canonical DEVM mask file."""


def serialize_mask(mask: SparsityMask) -> bytes:
    out = bytearray()
    out += _MASK_MAGIC
    out += struct.pack("<H", 1)
    out += struct.pack("<H", len(mask.bits))
    for layer in sorted(mask.bits):
        bits = mask.bits[layer]
        sizes = mask.splits[layer]
        out += struct.pack("<HQ", layer, bits.size)
        out += struct.pack("<B", len(sizes))
        for s in sizes:
            out += struct.pack("<Q", s)
        out += np.packbits(bits).tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def deserialize_mask(data: bytes) -> SparsityMask:
    r = Reader(data, MaskFormatError, crc=True)
    r.header(_MASK_MAGIC, 1)
    (n_layers,) = r.unpack("<H")
    bits = {}
    splits = {}
    for _ in range(n_layers):
        layer, size, n_sizes = r.unpack("<HQB")
        if layer <= next(reversed(bits), -1):  # indices strictly increase
            raise r.fail(f"layer {layer} out of order")
        splits[layer] = r.unpack(f"<{n_sizes}Q")
        if sum(splits[layer]) != size:
            raise r.fail(f"layer {layer} splits {splits[layer]} do not sum to {size}")
        bits[layer] = r.bits(size)
    r.end()
    return SparsityMask(bits, splits)


def save_mask(mask: SparsityMask, path: str):
    with open(path, "wb") as f:
        f.write(serialize_mask(mask))


def load_mask(path: str) -> SparsityMask:
    with open(path, "rb") as f:
        return deserialize_mask(f.read())
