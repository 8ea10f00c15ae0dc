"""One bounded reader for the binary formats (DEVN, DEVM, DEVP, IDX). Every
read is checked against the buffer's end before anything is allocated, and a
failed read raises the caller's `FormatError` subclass with its byte offset."""

from __future__ import annotations

import struct
import zlib
from contextlib import contextmanager

import numpy as np


class FormatError(ValueError):
    """Malformed or truncated binary input."""


class Reader:
    """Cursor over bytes. With `crc=True` the last four bytes must be the
    little-endian CRC32 of the rest; they are checked first and not read."""

    def __init__(self, data, error: type[FormatError], crc: bool = False):
        view = memoryview(data).cast("B")
        self.error = error
        if crc:
            stored = int.from_bytes(view[-4:], "little")
            computed = zlib.crc32(view[:-4])
            if len(view) < 4 or stored != computed:
                raise error(f"CRC mismatch: stored {stored:#010x}, computed {computed:#010x}")
            view = view[:-4]
        self.view = view
        self.pos = self.mark = 0  # mark: start of the last field read

    @property
    def left(self) -> int:
        return len(self.view) - self.pos

    def fail(self, message: str) -> FormatError:
        return self.error(f"{message} at offset {self.mark}")

    def take(self, n: int) -> memoryview:
        self.mark = self.pos
        if not 0 <= n <= self.left:
            raise self.fail(f"truncated: {n} bytes wanted, {self.left} left")
        self.pos += n
        return self.view[self.mark:self.pos]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        return np.frombuffer(self.take(count * np.dtype(dtype).itemsize), dtype).copy()

    def bits(self, n: int) -> np.ndarray:
        """n booleans packed MSB-first; the padding bits must be zero."""
        unpacked = np.unpackbits(self.array(np.uint8, -(-n // 8)))
        if unpacked[n:].any():
            raise self.fail("nonzero padding bits in bitmap")
        return unpacked[:n].astype(bool)

    def varint(self) -> int:
        """Unsigned LEB128 in its shortest form."""
        start, value, shift, byte = self.pos, 0, 0, 0x80
        while byte & 0x80:
            (byte,) = self.take(1)
            value |= (byte & 0x7F) << shift
            shift += 7
        self.mark = start
        if byte == 0 and shift > 7:
            raise self.fail("overlong varint")
        return value

    def header(self, magic: bytes, version: int):
        found = bytes(self.take(len(magic)))
        if found != magic:
            raise self.fail(f"bad magic {found!r}, expected {magic!r}")
        (found,) = self.unpack("<H")
        if found != version:
            raise self.fail(f"unsupported {magic.decode()} format version {found}")

    def end(self):
        self.mark = self.pos
        if self.left:
            raise self.fail(f"{self.left} stray bytes")


@contextmanager
def guard(error: type[FormatError]):
    """Re-raise failures of building objects from decoded fields as `error`."""
    try:
        yield
    except error:
        raise
    except (ValueError, OverflowError, IndexError) as e:
        raise error(str(e)) from e
