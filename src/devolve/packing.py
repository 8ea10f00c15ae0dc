"""Lossless packing of a sparsified, quantized model.

Layout ("DEVP", all multi-byte integers little-endian, layers byte-aligned):

    magic "DEVP" | version u16 | input shape (ndim u8 + dims u32...) | layer count u16
    per layer:
        kind u8 | hyperparameters (as in the model format) |
        tensor count u8 | per tensor: ndim u8 + dims u32...
        if the layer has parameters:
            mask tag u8 (0 bitmap, 1 run-length) | mask byte length u32 | mask bytes
            LUT: bits u8 | 2^bits levels f32
            Huffman table: 2^bits code lengths u8 (0 = unused symbol)
            payload bit length u64 | payload bytes
    crc32 u32 of everything before it

The mask encoder picks whichever of raw bitmap / varint run-length is smaller
(bitmap on ties), and the decoder accepts only that choice. Huffman tables are
canonical: code lengths fully determine the codes (Moffat & Turpin 1997).

Payloads are coded a whole array at a time. The encoder places each code at
the cumulative sum of the lengths before it, scatters one bit plane per code
bit and packs the bits. The decoder takes the L-bit window (L the longest
code) at every bit position; one search of the per-length canonical limits
gives each window's code length, the rank within that length its symbol, and
pointer doubling over "next code start" picks the chain of starts from bit 0.
The decoders raise `PackedFormatError` (a `ValueError`) on corrupt input.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn
from .binio import FormatError, Reader, Writer, guard
from .nn import Network
from .quantize import QuantizationSpec, QuantizedModel, dequantize
from .sparsity import SparsityMask

PACK_MAGIC = b"DEVP"
PACK_VERSION = 1

MASK_BITMAP = 0
MASK_RUNLENGTH = 1


class PackedFormatError(FormatError):
    """Corrupt or truncated packed container."""


# ---------------------------------------------------------------------------
# Canonical Huffman
# ---------------------------------------------------------------------------

@dataclass
class HuffmanTable:
    """Canonical prefix code over integer symbols; lengths[s] == 0 means the
    symbol never occurs (a fully pruned layer's table has no symbols).

    Symbols in (length, symbol) order take consecutive code values, shifted
    left wherever the length grows. Per code length l (index l - 1) the table
    keeps `counts`, `offsets` into `order`, `first`, the first l-bit code, and
    `limits`, the first `max_length`-bit window whose code is longer than l."""

    lengths: np.ndarray

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)
        self.max_length = top = int(self.lengths.max(initial=0))
        if top > 64:
            raise ValueError(f"code length {top} is too large for 64-bit codes")
        counts = np.bincount(self.lengths, minlength=top + 1)[1:]
        kraft = sum(int(c) << (top - l) for l, c in enumerate(counts.tolist(), 1))
        if kraft > 1 << top:
            raise ValueError(f"code lengths violate the Kraft inequality ({kraft / 2 ** top})")
        shifts = (top - np.arange(1, top + 1)).astype(np.uint64)
        # windows whose code is at most l bits long; the last sum may wrap at 64 bits
        below = np.cumsum(counts.astype(np.uint64) << shifts)
        self.limits = below[:-1]
        self.first = np.concatenate((np.zeros(min(top, 1), np.uint64), self.limits)) >> shifts
        self.counts = counts.astype(np.uint64)
        self.offsets = np.cumsum(counts) - counts
        self.order = np.argsort(self.lengths, kind="stable")[self.lengths.size - int(counts.sum()):]
        index = self.lengths[self.order].astype(np.intp) - 1
        self.codes = np.zeros(self.lengths.size, dtype=np.uint64)
        self.codes[self.order] = self.first[index] + (
            np.arange(self.order.size) - self.offsets[index]).astype(np.uint64)

    def average_length(self, frequencies: dict[int, int]) -> float:
        total = sum(frequencies.values())
        return sum(int(self.lengths[s]) * c for s, c in frequencies.items()) / total


def huffman_build(frequencies: dict[int, int], n_symbols: Optional[int] = None) -> HuffmanTable:
    """Optimal prefix code in canonical form. A single-symbol alphabet gets a
    1-bit code so the payload stays decodable."""
    freqs = {int(s): int(c) for s, c in frequencies.items() if c > 0}
    if not freqs:
        raise ValueError("no symbols with nonzero count")
    size = n_symbols if n_symbols is not None else max(freqs) + 1
    lengths = np.zeros(size, dtype=np.uint8)
    if len(freqs) == 1:
        lengths[next(iter(freqs))] = 1
        return HuffmanTable(lengths)
    # heap entries: (count, serial, symbols) -- serial keeps ties deterministic
    heap = [(c, i, [s]) for i, (s, c) in enumerate(sorted(freqs.items()))]
    heapq.heapify(heap)
    serial = len(heap)
    depth = {s: 0 for s in freqs}
    while len(heap) > 1:
        c1, _, s1 = heapq.heappop(heap)
        c2, _, s2 = heapq.heappop(heap)
        for s in s1 + s2:
            depth[s] += 1
        heapq.heappush(heap, (c1 + c2, serial, s1 + s2))
        serial += 1
    for s, d in depth.items():
        lengths[s] = d
    return HuffmanTable(lengths)


def huffman_encode(symbols: np.ndarray, table: HuffmanTable) -> tuple[bytes, int]:
    """(payload, bit length) of the symbols' codes, MSB-first."""
    symbols = np.asarray(symbols, dtype=np.intp)
    lengths = table.lengths[symbols].astype(np.intp)
    if not lengths.all():
        raise ValueError(f"symbol {symbols[lengths.argmin()]} is not in the code table")
    ends = np.cumsum(lengths)
    codes = table.codes[symbols]
    bits = np.zeros(int(lengths.sum()), dtype=np.uint8)
    for j in range(table.max_length):  # bit j of every code, counted from its end
        bits[ends[(codes >> j) & 1 == 1] - 1 - j] = 1
    return np.packbits(bits).tobytes(), bits.size


def huffman_decode(payload: bytes, bit_length: int, table: HuffmanTable,
                   count: int) -> np.ndarray:
    """The first `count` symbols of an MSB-first canonical code payload."""
    if count == 0:
        return np.zeros(0, dtype=np.uint32)
    top = table.max_length
    if top == 0:
        raise PackedFormatError("invalid Huffman code at bit 0: the table has no codes")
    n = min(bit_length, 8 * len(payload))
    # the next `top` bits at every bit position (zeros past the payload),
    # from the 64 bits at each byte offset and the byte after them
    nbytes = n // 8 + 1
    buf = np.zeros(nbytes + 8, dtype=np.uint8)
    buf[:min(len(payload), nbytes)] = np.frombuffer(payload, np.uint8)[:nbytes]
    words = np.lib.stride_tricks.sliding_window_view(buf, 8)[:nbytes].copy().view(">u8")
    shifts = np.arange(8, dtype=np.uint64)
    windows = (words.astype(np.uint64) << shifts) | (buf[8:, None].astype(np.uint64) >> 8 - shifts)
    windows = windows.reshape(-1) >> np.uint64(64 - top)
    lengths = np.searchsorted(table.limits, windows, side="right") + 1
    # code starts: follow each position's next start by pointer doubling; a
    # chain at n stays there, and count > n codes cannot fit in n bits
    after = np.minimum(np.arange(windows.size) + lengths, n)
    starts, want = np.zeros(1, dtype=np.intp), min(count, n + 1)
    while starts.size < want:
        starts = np.concatenate((starts, after[starts]))
        after = after[after]
    starts = starts[:want]
    lengths = lengths[starts]
    rank = (windows[starts] >> (top - lengths).astype(np.uint64)) - table.first[lengths - 1]
    bad = (starts + lengths > n) | (rank >= table.counts[lengths - 1])
    if bad.any():
        k = int(bad.argmax())
        what = "truncated" if starts[k] + lengths[k] > n else "invalid Huffman code"
        raise PackedFormatError(f"{what} at bit {starts[k]} (code {k} of {count})")
    return table.order[table.offsets[lengths - 1] + rank.astype(np.intp)].astype(np.uint32)


# ---------------------------------------------------------------------------
# Mask encodings
# ---------------------------------------------------------------------------

def _runlength(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask runs (see `mask_runs`) and the byte count of each run's LEB128."""
    edges = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    runs = np.diff(edges, prepend=0, append=bits.size)
    if not bits[:1].all():
        runs = np.concatenate(([0], runs))
    sizes = np.ones(runs.size, dtype=np.intp)
    rest = runs >> 7
    while rest.any():
        sizes += rest > 0
        rest >>= 7
    return runs, sizes


def mask_runs(bits: np.ndarray) -> list[int]:
    """Run lengths alternating zero-run / survivor-run, starting with a
    zero-run (possibly empty)."""
    return _runlength(np.asarray(bits, dtype=bool))[0].tolist()


def encode_mask(bits: np.ndarray) -> tuple[int, bytes]:
    """Smaller of raw bitmap and run-length varints (bitmap on ties)."""
    bits = np.asarray(bits, dtype=bool)
    runs, sizes = _runlength(bits)
    if sizes.sum() >= -(-bits.size // 8):
        return MASK_BITMAP, np.packbits(bits).tobytes()
    starts = np.cumsum(sizes) - sizes
    rle = np.zeros(int(sizes.sum()), dtype=np.uint8)
    for k in range(int(sizes.max())):  # the k-th 7-bit group of every run
        live = sizes > k
        rle[starts[live] + k] = runs[live] >> 7 * k & 0x7F | 0x80 * (sizes[live] > k + 1)
    return MASK_RUNLENGTH, rle.tobytes()


def decode_mask(tag: int, payload: bytes, size: int) -> np.ndarray:
    r = Reader(payload, PackedFormatError)
    if tag == MASK_BITMAP:
        bits = r.bits(size)
    elif tag == MASK_RUNLENGTH:
        runs = []
        total = 0
        while total < size:
            run = r.varint()
            # only the leading zero-run may be empty
            if total + run > size or (run == 0 and runs):
                raise r.fail(f"mask run of {run} bits is empty or overruns "
                             f"layer size {size}")
            runs.append(run)
            total += run
        bits = np.repeat(np.arange(len(runs)) % 2 == 0, runs)
    else:
        raise PackedFormatError(f"unknown mask encoding tag {tag}")
    r.end()
    if (tag == MASK_RUNLENGTH) != (_runlength(bits)[1].sum() < -(-size // 8)):
        raise PackedFormatError(f"mask encoding tag {tag} is not the one encode_mask "
                                f"picks (run-length only when shorter than the bitmap)")
    return bits


# ---------------------------------------------------------------------------
# Layer encode / decode
# ---------------------------------------------------------------------------

def encode_layer(mask_bits: np.ndarray, codes: np.ndarray, table: HuffmanTable):
    """(mask_tag, mask_payload, code_payload, payload_bit_length)."""
    surviving = int((~np.asarray(mask_bits, dtype=bool)).sum())
    if codes.size != surviving:
        raise ValueError(
            f"{codes.size} codes for {surviving} surviving weights"
        )
    tag, mask_payload = encode_mask(mask_bits)
    return (tag, mask_payload) + huffman_encode(codes, table)


def decode_layer(mask_tag: int, mask_payload: bytes, code_payload: bytes,
                 bit_length: int, size: int, table: HuffmanTable,
                 spec: QuantizationSpec):
    """(mask bits, dequantized flat weights with masked zeros)."""
    bits = decode_mask(mask_tag, mask_payload, size)
    surviving = int((~bits).sum())
    codes = huffman_decode(code_payload, bit_length, table, surviving)
    used = int(table.lengths[codes].sum(dtype=np.int64))
    if used != bit_length:
        raise PackedFormatError(
            f"{bit_length - used} unread bits after {surviving} codes"
        )
    if bit_length % 8 and code_payload[-1] & (0xFF >> bit_length % 8):
        raise PackedFormatError("nonzero padding bits after the code payload")
    flat = np.zeros(size)
    flat[~bits] = dequantize(codes, spec)
    return bits, flat, codes


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------

@dataclass
class PackedLayer:
    kind: str
    hyper: dict
    shapes: list[tuple[int, ...]]
    mask_tag: int = 0
    mask_payload: bytes = b""
    lut_bits: int = 0
    lut_levels: Optional[np.ndarray] = None  # f32
    code_lengths: Optional[np.ndarray] = None
    payload: bytes = b""
    payload_bit_length: int = 0

    @property
    def size(self) -> int:
        return sum(math.prod(s) for s in self.shapes)


@dataclass
class PackedModel:
    input_shape: tuple[int, ...]
    layers: list[PackedLayer]

    def to_bytes(self) -> bytes:
        w = Writer()
        w.pack("<4sH", PACK_MAGIC, PACK_VERSION)
        w.shape(self.input_shape)
        w.pack("<H", len(self.layers))
        for pl in self.layers:
            nn._write_kind(w, pl.kind, pl.hyper)
            w.pack("<B", len(pl.shapes))
            for shape in pl.shapes:
                w.shape(shape)
            if pl.shapes:
                n = len(pl.mask_payload)
                w.pack(f"<BI{n}s", pl.mask_tag, n, pl.mask_payload)
                w.pack("<B", pl.lut_bits)
                w.array(pl.lut_levels, "<f4")
                w.array(pl.code_lengths, np.uint8)
                w.pack(f"<Q{len(pl.payload)}s", pl.payload_bit_length, pl.payload)
        return w.finish(crc=True)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedModel":
        r = Reader(data, PackedFormatError, crc=True)
        r.header(PACK_MAGIC, PACK_VERSION)
        input_shape = r.shape()
        (n_layers,) = r.unpack("<H")
        layers = []
        for _ in range(n_layers):
            pl = PackedLayer(*nn._read_kind(r), [])
            pl.shapes = [r.shape() for _ in range(r.unpack("<B")[0])]
            if pl.shapes:
                pl.mask_tag, mask_len = r.unpack("<BI")
                pl.mask_payload = bytes(r.take(mask_len))
                (pl.lut_bits,) = r.unpack("<B")
                pl.lut_levels = r.array("<f4", 2 ** pl.lut_bits)
                pl.code_lengths = r.array(np.uint8, 2 ** pl.lut_bits)
                (pl.payload_bit_length,) = r.unpack("<Q")
                pl.payload = bytes(r.take(-(-pl.payload_bit_length // 8)))
            layers.append(pl)
        r.end()
        return cls(input_shape, layers)


def pack_model(qmodel: QuantizedModel) -> PackedModel:
    """Assemble the container from a quantized model (per-layer Huffman)."""
    net = qmodel.network
    mask = qmodel.mask
    by_layer = {lq.layer: lq for lq in qmodel.layers}
    layers = []
    for i, layer in enumerate(net.layers):
        shapes = [t.shape for t in layer.param_tensors()]
        pl = PackedLayer(layer.kind, layer.hyper(), shapes)
        if shapes:
            lq = by_layer[i]
            levels = lq.spec.levels.astype("<f4")
            if not (np.isfinite(levels).all() and (np.diff(levels) > 0).all()):
                raise ValueError(f"layer {i}: the level table is not finite and strictly "
                                 f"increasing in float32, so unpack_model would reject it")
            freqs = {int(s): int(c) for s, c in
                     zip(*np.unique(lq.codes, return_counts=True))}
            # a fully pruned layer has no codes: an all-zero table, an empty payload
            table = (huffman_build(freqs, n_symbols=levels.size) if freqs
                     else HuffmanTable(np.zeros(levels.size, dtype=np.uint8)))
            pl.mask_tag, pl.mask_payload, pl.payload, pl.payload_bit_length = (
                encode_layer(mask.layer_bits(i), lq.codes, table))
            pl.lut_bits = lq.spec.bits
            pl.lut_levels = levels
            pl.code_lengths = table.lengths
        layers.append(pl)
    return PackedModel(net.input_shape, layers)


def unpack_model(packed: PackedModel) -> tuple[Network, SparsityMask]:
    """Rebuild a runnable network (weights from the f32 level tables) and its
    mask from the container."""
    layers = []
    mask_bits = {}
    mask_splits = {}
    with guard(PackedFormatError):
        for i, pl in enumerate(packed.layers):
            tensors = []
            if pl.shapes:
                spec = QuantizationSpec("uniform_affine", pl.lut_bits, "nearest",
                                        pl.lut_levels.astype(np.float64))
                bits, flat, _ = decode_layer(
                    pl.mask_tag, pl.mask_payload, pl.payload, pl.payload_bit_length,
                    pl.size, HuffmanTable(pl.code_lengths), spec)
                tensors = nn.unflatten(flat, pl.shapes)
                mask_bits[i] = bits
                mask_splits[i] = tuple(math.prod(shape) for shape in pl.shapes)
            layers.append(nn._layer_from_parts(pl.kind, pl.hyper, tensors))
        net = Network(layers, packed.input_shape)
    return net, SparsityMask(mask_bits, mask_splits)


# ---------------------------------------------------------------------------
# Compression accounting
# ---------------------------------------------------------------------------

@dataclass
class CompressionReport:
    param_count: int
    payload_bits: int
    total_bits: int
    payload_only_ratio: float
    total_ratio: float

    def lines(self) -> list[str]:
        return [
            f"parameters            {self.param_count}",
            f"code payload bits     {self.payload_bits}",
            f"packed size bits      {self.total_bits}",
            f"payload-only ratio    {self.payload_only_ratio:.2f}x",
            f"total ratio           {self.total_ratio:.2f}x",
        ]


def compression_report(original: Network, packed: PackedModel) -> CompressionReport:
    """Ratios against a 32-bit dense baseline: payload-only counts just the
    Huffman code bits; total counts the whole container (masks, tables,
    headers, CRC)."""
    n = original.parameter_count()
    payload_bits = sum(pl.payload_bit_length for pl in packed.layers)
    total_bits = len(packed.to_bytes()) * 8
    return CompressionReport(
        param_count=n,
        payload_bits=payload_bits,
        total_bits=total_bits,
        payload_only_ratio=32.0 * n / payload_bits if payload_bits else float("inf"),
        total_ratio=32.0 * n / total_bits,
    )
