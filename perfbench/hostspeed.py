"""Host-speed probe: a fixed piece of work, timed between the benchmark's
operations, that says how fast the host runs at that moment.

The virtual machine this benchmark was tuned on ran the same code 2-3x apart
at different times, in states that flip every few seconds or last for hours,
so a whole 30 s run can fall in one state. No statistic over a run's
own operations removes that. The probe's work is the benchmark's own code and
never calls devolve, so a change to the program does not move it. A timed
operation is reported in reference seconds: its wall time divided by the mean
slowdown, against REFERENCE, of the probes taken before and after it.

The probe has one part for each kind of work the program does: a pure-Python
bit-reading loop with dict lookups and numpy element stores (as in the
Huffman decoder), numpy element-wise, cumulative and sorting passes over
mid-sized vectors (as in the level solver and the masks), and small
single-thread GEMMs (as in the dense and conv kernels). The slowdown is the
geometric mean of the parts' ratios against their reference times, over the
parts that match the operation: all three for a set-up or a compress pass,
the Python part alone for a restore, whose time is the Huffman decoder's.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# seconds per pass of each part: the median on the 2-vCPU virtual machine of
# the README's baseline in its fast state (Intel Xeon, Python 3.11.7,
# numpy 2.4.6 on OpenBLAS pinned to one thread)
REFERENCE = {"python": 0.00090, "numpy": 0.00097, "gemm": 0.00097}

_rng = np.random.default_rng(np.random.SeedSequence([0x5EED, 0xCA1]))
_BYTES = bytes(_rng.integers(0, 256, size=64, dtype=np.uint8))
_TABLE = {i: (i * 7919) % 257 for i in range(0, 64, 3)}
_VEC = _rng.normal(size=16384)
_A = _rng.normal(size=(128, 784))
_B = _rng.normal(size=(784, 32))


class _Bits:
    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def read(self) -> int:
        bit = (self.data[self.pos >> 3] >> (7 - (self.pos & 7))) & 1
        self.pos += 1
        return bit


def _python():
    out = np.zeros(32, dtype=np.uint32)
    for _ in range(10):
        bits = _Bits(_BYTES)
        for i in range(out.size):
            code = 0
            for _ in range(16):
                code = (code << 1) | bits.read()
                if code & 63 in _TABLE:
                    out[i] = _TABLE[code & 63]
    return int(out.sum())


def _numpy():
    v = _VEC
    for _ in range(6):
        w = np.where(v > 0.1, v * 1.5, v - 0.25)
        w = np.cumsum(np.abs(w))
        v = np.sort(w - w.mean())[::-1] / (w[-1] + 1.0)
    return float(v[0])


def _gemm():
    out = 0.0
    for _ in range(10):
        out += float((_A @ _B).sum())
    return out


PARTS = {"python": _python, "numpy": _numpy, "gemm": _gemm}


def part_times(passes: int, parts=tuple(PARTS)) -> dict[str, float]:
    """Median time of each part over `passes` interleaved passes, so that a
    single interruption does not move the probe."""
    times = {name: [] for name in parts}
    for _ in range(passes):
        for name in parts:
            start = time.perf_counter()
            PARTS[name]()
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(t) for name, t in times.items()}


def slowdown(times: dict[str, float], parts=tuple(PARTS)) -> float:
    """Geometric mean of the named parts' ratios against REFERENCE."""
    return math.exp(sum(math.log(times[k] / REFERENCE[k]) for k in parts) / len(parts))


class SpeedLog:
    """Probes taken between operations. `timed` runs one operation between
    two probes and returns its result, its wall time and its time in
    reference seconds; back-to-back operations share the probe between them,
    and `untimed` runs work after which a fresh probe is taken."""

    def __init__(self):
        self.probes: list[dict[str, float]] = []
        self.last = None

    def probe(self, passes: int, parts) -> dict[str, float]:
        self.probes.append({"at": time.perf_counter(), **part_times(passes, parts)})
        return self.probes[-1]

    def timed(self, fn, passes: int = 3, parts=tuple(PARTS)):
        """`parts` are the probe parts that are measured, `passes` times
        each, and whose slowdown corrects the operation."""
        before = self.last
        if before is None or any(k not in before for k in parts):
            before = self.probe(passes, parts)
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.last = self.probe(passes, parts)
        scale = (slowdown(before, parts) + slowdown(self.last, parts)) / 2
        return result, wall, wall / scale

    def untimed(self, fn):
        self.last = None
        return fn()
