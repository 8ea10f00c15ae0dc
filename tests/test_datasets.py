import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from devolve import datasets
from devolve.datasets import ProbeSet, parse_idx, serialize_idx, subset
from helpers import cross_entropy


class TestIdxParsing:
    def test_image_example(self):
        data = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes([0, 255, 0, 255])
        out = parse_idx(data)
        np.testing.assert_array_equal(out, [[[0.0, 1.0], [0.0, 1.0]]])

    def test_label_example(self):
        data = struct.pack(">II", 0x00000801, 3) + bytes([7, 2, 1])
        np.testing.assert_array_equal(parse_idx(data), [7, 2, 1])

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic.*offset 0"):
            parse_idx(struct.pack(">II", 0xDEADBEEF, 1))

    def test_truncated_payload(self):
        data = struct.pack(">II", 0x00000801, 10) + bytes([1, 2])
        with pytest.raises(ValueError, match="payload"):
            parse_idx(data)

    @pytest.mark.parametrize("cut", [1, 3, 7, 11])
    def test_truncation_fuzz(self, cut):
        data = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(range(8))
        with pytest.raises(ValueError):
            parse_idx(data[:cut])

    @given(st.integers(0, 10_000))
    def test_roundtrip_images(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        t = raw.astype(np.float64) / 255.0
        np.testing.assert_array_equal(parse_idx(serialize_idx(t)), t)

    @given(st.integers(0, 10_000))
    def test_roundtrip_labels(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, size=7)
        np.testing.assert_array_equal(parse_idx(serialize_idx(labels)), labels)

    @pytest.mark.parametrize("labels", [
        [3, 300, -1], [256], [-1], np.array([1.0, 2.0]), np.array([True, False])])
    def test_unbyteable_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels"):
            serialize_idx(np.asarray(labels))

    @pytest.mark.parametrize("bad", [1.7, -0.2, 1.0000001, -1e-300, np.nan, np.inf, -np.inf])
    def test_unbyteable_pixels_rejected(self, bad):
        pixels = np.full((2, 3, 3), 0.5)
        pixels[1, 2, 0] = bad
        with pytest.raises(ValueError, match="pixels"):
            serialize_idx(pixels)

    def test_byte_bounds_serialize(self):
        labels = np.array([0, 255], dtype=np.int64)
        np.testing.assert_array_equal(parse_idx(serialize_idx(labels)), labels)
        pixels = np.array([0.0, -0.0, 1.0]).reshape(1, 1, 3)
        np.testing.assert_array_equal(parse_idx(serialize_idx(pixels)), [[[0.0, 0.0, 1.0]]])

    def test_gzip_accepted(self, tmp_path):
        data = struct.pack(">II", 0x00000801, 2) + bytes([4, 9])
        path = tmp_path / "labels.idx.gz"
        path.write_bytes(gzip.compress(data))
        np.testing.assert_array_equal(datasets.load_idx(str(path)), [4, 9])


class TestSynthetic:
    def test_deterministic(self):
        a = datasets.synthetic_dataset("blobs", 64, 4, seed=5)
        b = datasets.synthetic_dataset("blobs", 64, 4, seed=5)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seeds_differ(self):
        a = datasets.synthetic_dataset("blobs", 64, 4, seed=5)
        b = datasets.synthetic_dataset("blobs", 64, 4, seed=6)
        assert a.inputs.tobytes() != b.inputs.tobytes()

    @pytest.mark.parametrize("kind", ["blobs", "rings"])
    def test_balanced_classes(self, kind):
        ds = datasets.synthetic_dataset(kind, 103, 5, seed=1)
        counts = np.bincount(ds.labels, minlength=5)
        assert counts.max() - counts.min() <= 1

    def test_needs_one_per_class(self):
        with pytest.raises(ValueError):
            datasets.synthetic_dataset("blobs", 3, 5, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            datasets.synthetic_dataset("spirals", 10, 2, seed=0)

    @pytest.mark.parametrize("key", ["n", "classes", "feature_dim"])
    @pytest.mark.parametrize("count", [2 ** 63, 10 ** 400], ids=["2**63", "10**400"])
    def test_counts_above_int64_are_refused(self, key, count):
        args = {"n": 60, "classes": 3, "feature_dim": 4, key: count}
        with pytest.raises(ValueError, match=f"{key} must be at most 2\\*\\*63 - 1"):
            datasets.synthetic_dataset("blobs", seed=0, **args)

    def test_balanced_labels_match_the_loop(self):
        for n in range(1, 25):
            for classes in range(1, n + 1):
                counts = [n // classes + (1 if c < n % classes else 0)
                          for c in range(classes)]
                want = [c for c in range(classes) for _ in range(counts[c])]
                assert datasets._balanced_labels(n, classes).tolist() == want

    def test_labels_too_many_for_memory_fail_at_once(self):
        # 2**62 classes fit int64, so only the label counts' allocation fails
        with pytest.raises((ValueError, MemoryError)):
            datasets.synthetic_dataset("blobs", 2 ** 62, 2 ** 62, seed=0)

    def test_rings_need_nonlinearity(self):
        # a linear probe cannot separate concentric rings
        from devolve import nn
        ds = datasets.synthetic_dataset("rings", 400, 2, seed=9)
        linear = nn.build_network({"input_shape": [2], "layers": [
            {"kind": "dense", "units": 2}, {"kind": "softmax"}]}, 0)
        for _ in range(80):
            _, grads = nn.value_and_grads(linear, ds.inputs, cross_entropy(ds.labels))
            linear = nn.sgd_step(linear, grads, 0.3)
        assert nn.accuracy(linear, ds) < 0.75


class TestSubset:
    def test_full_size_is_permutation(self):
        ds = datasets.synthetic_dataset("blobs", 32, 2, seed=0)
        sub = subset(ds, 32, seed=3)
        assert sorted(sub.inputs.sum(axis=1)) == pytest.approx(
            sorted(ds.inputs.sum(axis=1)))

    def test_zero_errors(self):
        ds = datasets.synthetic_dataset("blobs", 8, 2, seed=0)
        with pytest.raises(ValueError):
            subset(ds, 0, seed=1)

    def test_too_large_errors(self):
        ds = datasets.synthetic_dataset("blobs", 8, 2, seed=0)
        with pytest.raises(ValueError):
            subset(ds, 9, seed=1)

    def test_seeds_differ(self):
        ds = datasets.synthetic_dataset("blobs", 512, 2, seed=0)
        a = subset(ds, 64, seed=1)
        b = subset(ds, 64, seed=2)
        assert a.inputs.tobytes() != b.inputs.tobytes()

    def test_deterministic(self):
        ds = datasets.synthetic_dataset("blobs", 128, 2, seed=0)
        assert (subset(ds, 16, seed=4).inputs.tobytes()
                == subset(ds, 16, seed=4).inputs.tobytes())


class TestProbeSet:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            ProbeSet(np.zeros((0, 3)))

    def test_label_count_validation(self):
        with pytest.raises(ValueError):
            ProbeSet(np.zeros((3, 2)), np.array([1]))
