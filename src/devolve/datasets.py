"""Dataset ingestion and deterministic synthetic data.

Parses IDX-format image/label files (the MNIST family, optionally gzipped)
and generates seeded synthetic classification sets so every test and pipeline
run works offline. The IDX readers raise `IdxFormatError` (a `ValueError`).
"""

from __future__ import annotations

import gzip
import math
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .binio import FormatError, Reader, Writer

IDX_LABEL_MAGIC = 0x00000801
IDX_IMAGE_MAGIC = 0x00000803


class IdxFormatError(FormatError):
    """Corrupt or truncated IDX file (or its gzip wrapper)."""


@dataclass
class ProbeSet:
    inputs: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.shape[0] < 1:
            raise ValueError("probe set must contain at least one sample")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape[0] != self.inputs.shape[0]:
                raise ValueError("label count does not match input count")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def parse_idx(data: bytes) -> np.ndarray:
    """Parse IDX bytes: images -> [n, rows, cols] floats in [0,1], labels -> [n]."""
    r = Reader(data, IdxFormatError)
    (magic,) = r.unpack(">I")
    ndim = {IDX_LABEL_MAGIC: 1, IDX_IMAGE_MAGIC: 3}.get(magic)
    if ndim is None:
        raise r.fail(f"bad IDX magic 0x{magic:08x}")
    dims = r.unpack(f">{ndim}I")
    count = math.prod(dims)
    if r.left != count:
        raise r.fail(f"IDX payload length {r.left} does not match "
                     f"dims {dims} (expected {count} bytes)")
    payload = r.array(np.uint8, count)
    if magic == IDX_LABEL_MAGIC:
        return payload.astype(np.int64)
    return payload.reshape(dims).astype(np.float64) / 255.0


def serialize_idx(array: np.ndarray) -> bytes:
    """Inverse of parse_idx: labels from int arrays in 0..255, images from
    finite floats in [0,1]. Values a byte cannot hold raise ValueError."""
    array = np.asarray(array)
    w = Writer()
    if array.ndim == 1:
        if array.dtype.kind not in "iu":
            raise ValueError(f"IDX labels must be integers, got {array.dtype}")
        if array.size and not (array.min() >= 0 and array.max() <= 255):
            raise ValueError("IDX labels must lie in 0..255")
        w.pack(">II", IDX_LABEL_MAGIC, array.shape[0])
        w.array(array, np.uint8)
    elif array.ndim == 3:
        if not ((array >= 0) & (array <= 1)).all():  # NaN fails both
            raise ValueError("IDX pixels must be finite and lie in [0, 1]")
        w.pack(">IIII", IDX_IMAGE_MAGIC, *array.shape)
        w.array(np.round(array * 255.0), np.uint8)
    else:
        raise ValueError(f"cannot serialize rank-{array.ndim} array as IDX")
    return w.finish()


def load_idx(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, gzip.BadGzipFile, zlib.error) as e:
            raise IdxFormatError(f"corrupt gzip wrapper in {path}: {e}") from e
    return parse_idx(data)


def load_idx_dataset(images_path: str, labels_path: str) -> ProbeSet:
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    return ProbeSet(images, labels)


def _balanced_labels(n: int, classes: int) -> np.ndarray:
    counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    return np.repeat(np.arange(classes), counts)


def check_synthetic(kind: str, n: int, classes: int, feature_dim: int,
                    separation: float):
    """Raises ValueError unless synthetic_dataset can build these arguments."""
    if kind not in ("blobs", "rings"):
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if classes < 1:
        raise ValueError(f"classes must be >= 1, got {classes}")
    if n < classes:
        raise ValueError(f"n must be at least classes, one sample per class "
                         f"({n} < {classes})")
    if feature_dim < (2 if kind == "rings" else 1):
        raise ValueError(f"feature_dim {feature_dim} is too small for {kind}")
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")


def synthetic_dataset(kind: str, n: int, classes: int, seed: int,
                      feature_dim: int = 2, separation: float = 5.0) -> ProbeSet:
    """Deterministic synthetic classification data.

    blobs: one Gaussian cluster per class; expected pairwise center distance is
    `separation` noise units, so a small MLP separates them without being
    trivially perfect. rings: concentric rings in the first two features,
    requiring a nonlinear boundary.
    """
    check_synthetic(kind, n, classes, feature_dim, separation)
    kind_tag = int.from_bytes(kind.encode()[:4].ljust(4, b"\0"), "big")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), kind_tag]))
    labels = _balanced_labels(n, classes)
    if kind == "blobs":
        scale = separation / np.sqrt(2.0 * feature_dim)
        centers = rng.normal(size=(classes, feature_dim)) * scale
        inputs = centers[labels] + rng.normal(size=(n, feature_dim))
    else:  # rings
        radii = 1.0 + 2.0 * np.arange(classes)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        r = radii[labels] + rng.normal(scale=0.25, size=n)
        inputs = np.zeros((n, feature_dim))
        inputs[:, 0] = r * np.cos(theta)
        inputs[:, 1] = r * np.sin(theta)
        if feature_dim > 2:
            inputs[:, 2:] = rng.normal(scale=0.1, size=(n, feature_dim - 2))
    perm = rng.permutation(n)
    return ProbeSet(inputs[perm], labels[perm])


def subset(dataset: ProbeSet, k: int, seed: int) -> ProbeSet:
    """Uniform sample of k items without replacement, deterministic per seed."""
    if k < 1:
        raise ValueError(f"subset size must be >= 1, got {k}")
    if k > dataset.size:
        raise ValueError(f"subset size {k} exceeds dataset size {dataset.size}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5B5E7]))
    idx = rng.choice(dataset.size, size=k, replace=False)
    labels = dataset.labels[idx] if dataset.labels is not None else None
    return ProbeSet(dataset.inputs[idx], labels)
