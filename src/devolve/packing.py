"""Lossless packing of a sparsified, quantized model.

Layout ("DEVP", all multi-byte integers little-endian, layers byte-aligned):

    magic "DEVP" | version u16 | layer count u16
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
(bitmap on ties). Huffman tables are canonical: code lengths fully determine
the codes, so the decoder rebuilds them without a tree. The decoders raise
`PackedFormatError` (a `ValueError`) on corrupt input.
"""

from __future__ import annotations

import heapq
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn
from .binio import FormatError, Reader, guard
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
# Bit-level IO (MSB-first within each byte)
# ---------------------------------------------------------------------------

class BitWriter:
    def __init__(self):
        self.buffer = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int):
        self._acc = (self._acc << nbits) | (value & ((1 << nbits) - 1))
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self.buffer.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    @property
    def bit_length(self) -> int:
        return len(self.buffer) * 8 + self._nbits

    def getvalue(self) -> bytes:
        out = bytearray(self.buffer)
        if self._nbits:
            out.append((self._acc << (8 - self._nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    def __init__(self, data: bytes, bit_length: Optional[int] = None):
        self.data = data
        self.pos = 0
        self.limit = len(data) * 8 if bit_length is None else bit_length

    def read(self, nbits: int) -> int:
        if self.pos + nbits > self.limit:
            raise PackedFormatError(
                f"bitstream truncated at bit {self.pos} (wanted {nbits} more)"
            )
        out = 0
        for _ in range(nbits):
            byte = self.data[self.pos >> 3]
            out = (out << 1) | ((byte >> (7 - (self.pos & 7))) & 1)
            self.pos += 1
        return out


# ---------------------------------------------------------------------------
# Canonical Huffman
# ---------------------------------------------------------------------------

@dataclass
class HuffmanTable:
    """Canonical prefix code over integer symbols; lengths[s] == 0 means the
    symbol never occurs (a fully pruned layer's table has no symbols)."""

    lengths: np.ndarray

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)
        used = self.lengths[self.lengths > 0]
        kraft = float(np.sum(2.0 ** -used.astype(np.float64)))
        if kraft > 1.0 + 1e-12:
            raise ValueError(f"code lengths violate the Kraft inequality ({kraft})")
        self.codes = _canonical_codes(self.lengths)

    def encode_symbols(self, symbols: np.ndarray, writer: BitWriter):
        codes = self.codes
        lengths = self.lengths
        for s in symbols:
            length = lengths[s]
            if length == 0:
                raise ValueError(f"symbol {s} is not in the code table")
            writer.write(codes[s], int(length))

    def average_length(self, frequencies: dict[int, int]) -> float:
        total = sum(frequencies.values())
        return sum(int(self.lengths[s]) * c for s, c in frequencies.items()) / total


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Codes assigned in (length, symbol) order, numerically increasing."""
    order = sorted(s for s in range(lengths.size) if lengths[s] > 0)
    order.sort(key=lambda s: (lengths[s], s))
    codes = np.zeros(lengths.size, dtype=np.uint64)
    code = 0
    prev_len = 0
    for s in order:
        code <<= int(lengths[s]) - prev_len
        codes[s] = code
        code += 1
        prev_len = int(lengths[s])
    return codes


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


def huffman_decode(reader: BitReader, table: HuffmanTable, count: int) -> np.ndarray:
    """Canonical decode of `count` symbols."""
    lengths = table.lengths
    max_len = int(lengths.max())
    # first code value and first symbol index per length
    by_length: dict[int, list[int]] = {}
    for s in range(lengths.size):
        if lengths[s] > 0:
            by_length.setdefault(int(lengths[s]), []).append(s)
    for syms in by_length.values():
        syms.sort()
    first_code = {}
    code = 0
    prev = 0
    for ln in sorted(by_length):
        code <<= ln - prev
        first_code[ln] = code
        code += len(by_length[ln])
        prev = ln
    out = np.empty(count, dtype=np.uint32)
    for i in range(count):
        code = 0
        ln = 0
        while True:
            code = (code << 1) | reader.read(1)
            ln += 1
            if ln in first_code and 0 <= code - first_code[ln] < len(by_length[ln]):
                out[i] = by_length[ln][code - first_code[ln]]
                break
            if ln > max_len:
                raise PackedFormatError(
                    f"invalid Huffman code at bit {reader.pos}"
                )
    return out


# ---------------------------------------------------------------------------
# Mask encodings
# ---------------------------------------------------------------------------

def _varint_encode(out: bytearray, value: int):
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def mask_runs(bits: np.ndarray) -> list[int]:
    """Run lengths alternating zero-run / survivor-run, starting with a
    zero-run (possibly empty)."""
    runs = []
    current = True  # zeroed
    count = 0
    for b in np.asarray(bits, dtype=bool):
        if b == current:
            count += 1
        else:
            runs.append(count)
            current = b
            count = 1
    runs.append(count)
    return runs


def encode_mask(bits: np.ndarray) -> tuple[int, bytes]:
    """Smaller of raw bitmap and run-length varints (bitmap on ties)."""
    bits = np.asarray(bits, dtype=bool)
    bitmap = np.packbits(bits).tobytes()
    rle = bytearray()
    for run in mask_runs(bits):
        _varint_encode(rle, run)
    if len(rle) < len(bitmap):
        return MASK_RUNLENGTH, bytes(rle)
    return MASK_BITMAP, bitmap


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
    writer = BitWriter()
    table.encode_symbols(codes, writer)
    return tag, mask_payload, writer.getvalue(), writer.bit_length


def decode_layer(mask_tag: int, mask_payload: bytes, code_payload: bytes,
                 bit_length: int, size: int, table: HuffmanTable,
                 spec: QuantizationSpec):
    """(mask bits, dequantized flat weights with masked zeros)."""
    bits = decode_mask(mask_tag, mask_payload, size)
    surviving = int((~bits).sum())
    reader = BitReader(code_payload, bit_length)
    codes = huffman_decode(reader, table, surviving)
    if reader.pos != bit_length:
        raise PackedFormatError(
            f"{bit_length - reader.pos} unread bits after {surviving} codes"
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
        out = bytearray()
        out += PACK_MAGIC
        out += struct.pack("<H", PACK_VERSION)
        nn._write_shape(out, self.input_shape)
        out += struct.pack("<H", len(self.layers))
        for pl in self.layers:
            out += struct.pack("<B", nn._KIND_TAGS[pl.kind])
            nn._write_hyper(out, pl.kind, pl.hyper)
            out += struct.pack("<B", len(pl.shapes))
            for shape in pl.shapes:
                nn._write_shape(out, shape)
            if pl.shapes:
                out += struct.pack("<BI", pl.mask_tag, len(pl.mask_payload))
                out += pl.mask_payload
                out += struct.pack("<B", pl.lut_bits)
                out += np.ascontiguousarray(pl.lut_levels, dtype="<f4").tobytes()
                out += np.ascontiguousarray(pl.code_lengths, dtype=np.uint8).tobytes()
                out += struct.pack("<Q", pl.payload_bit_length)
                out += pl.payload
        out += struct.pack("<I", zlib.crc32(bytes(out)))
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedModel":
        r = Reader(data, PackedFormatError, crc=True)
        r.header(PACK_MAGIC, PACK_VERSION)
        input_shape = nn._read_shape(r)
        (n_layers,) = r.unpack("<H")
        layers = []
        for _ in range(n_layers):
            pl = PackedLayer(*nn._read_kind(r), [])
            pl.shapes = [nn._read_shape(r) for _ in range(r.unpack("<B")[0])]
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
            n_levels = lq.spec.levels.size
            lut_bits = lq.spec.bits if not lq.spec.degenerate else 0
            if n_levels != 2 ** lut_bits:
                raise ValueError(
                    f"layer {i}: {n_levels} levels cannot pack into "
                    f"{lut_bits}-bit codes"
                )
            if lq.codes.size == 0:  # fully pruned layer: empty payload
                tag, mask_payload = encode_mask(mask.layer_bits(i))
                table_lengths = np.zeros(n_levels, dtype=np.uint8)
                payload, bit_len = b"", 0
            else:
                freqs = {int(s): int(c) for s, c in
                         zip(*np.unique(lq.codes, return_counts=True))}
                table = huffman_build(freqs, n_symbols=n_levels)
                tag, mask_payload, payload, bit_len = encode_layer(
                    mask.layer_bits(i), lq.codes, table)
                table_lengths = table.lengths
            pl.mask_tag = tag
            pl.mask_payload = mask_payload
            pl.lut_bits = lut_bits
            pl.lut_levels = lq.spec.levels.astype("<f4")
            pl.code_lengths = table_lengths
            pl.payload = payload
            pl.payload_bit_length = bit_len
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
            if not pl.shapes:
                layers.append(nn._layer_from_parts(pl.kind, pl.hyper, []))
                continue
            spec = QuantizationSpec(
                "uniform_affine", max(pl.lut_bits, 1), "nearest",
                pl.lut_levels.astype(np.float64),
                degenerate=pl.lut_levels.size == 1,
            )
            bits, flat, _ = decode_layer(
                pl.mask_tag, pl.mask_payload, pl.payload, pl.payload_bit_length,
                pl.size, HuffmanTable(pl.code_lengths), spec)
            sizes = [math.prod(shape) for shape in pl.shapes]
            tensors = [t.reshape(shape) for t, shape in
                       zip(np.split(flat, np.cumsum(sizes)[:-1]), pl.shapes)]
            layers.append(nn._layer_from_parts(pl.kind, pl.hyper, tensors))
            mask_bits[i] = bits
            mask_splits[i] = tuple(sizes)
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
