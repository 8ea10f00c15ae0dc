"""Shared test helpers: reference densities, a small trained teacher,
one-layer nets for the layer-flat parameter layout, and a walk over the
command line's config table."""

import numpy as np

from devolve import cli, datasets, nn
from devolve.quantize import Density

BLOBS_ARCH = {"input_shape": [784], "layers": [
    {"kind": "dense", "units": 32},
    {"kind": "leaky_relu", "slope": 0.1},
    {"kind": "dense", "units": 10},
    {"kind": "softmax"},
]}


def tent_density(bins=16):
    """Triangular density on [0,1], peak at 0.5."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    heights = np.where(centers <= 0.5, 4.0 * centers, 4.0 * (1.0 - centers))
    masses = heights * np.diff(edges)
    return Density(edges, masses / masses.sum())


def bimodal_density(depth=0.02, bins=32):
    """Two bumps at +-0.5 on [-1,1]; smaller depth = deeper valley."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    heights = (np.exp(-((centers + 0.5) ** 2) / depth)
               + np.exp(-((centers - 0.5) ** 2) / depth))
    masses = heights * np.diff(edges)
    return Density(edges, masses / masses.sum())


def sampled_density(seed, bins=64, n=4000):
    """Seeded histogram density of a Gaussian mixture (generic test shape)."""
    rng = np.random.default_rng(seed)
    parts = [rng.normal(-1.0, 0.6, size=n // 2), rng.normal(0.8, 0.9, size=n // 2)]
    return Density.from_samples(np.concatenate(parts), bins=bins)


def train_blobs_teacher(seed=1, data_seed=7, n=2048, epochs=8, lr=0.2):
    """784-d blobs problem and a small dense teacher trained on it."""
    ds = datasets.synthetic_dataset("blobs", n, 10, seed=data_seed, feature_dim=784)
    net = nn.build_network(BLOBS_ARCH, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7EA1]))
    for _ in range(epochs):
        order = rng.permutation(ds.size)
        for lo in range(0, ds.size, 64):
            idx = order[lo:lo + 64]
            batch = nn.Batch(ds.inputs[idx], ds.labels[idx])
            grads = nn.backward(net, batch, "cross_entropy")
            net = nn.sgd_step(net, grads, lr)
    return net, ds


LAYOUT_KINDS = ("dense", "conv2d")


def layout_net(kind, seed=0):
    """One-layer dense or conv2d net whose parameters are all nonzero."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return nn.Network([nn.Dense(rng.uniform(0.5, 1.5, (3, 4)),
                                    rng.uniform(0.5, 1.5, 4))], (3,))
    return nn.Network([nn.Conv2D(rng.uniform(0.5, 1.5, (2, 3, 2, 4)),
                                 rng.uniform(0.5, 1.5, 4))], (4, 5, 2))


def layout_positions(layer):
    """Flat indices at both ends of the kernel and of the bias, and one inside."""
    k = layer.param_tensors()[0].size
    return [0, 5, k - 1, k, k + 3]


def config_keys(table=cli._SCHEMA, prefix=""):
    """(dotted path, Key) for every entry of the config table, depth first.
    A plain section comes as a Key with default {}, the items of a list as
    `<path>[]` and the entries of a per-layer section as `<path>.<layer>`."""
    for name, key in table.items():
        key = key if isinstance(key, cli.Key) else cli.Key(key, {})
        path = prefix + name
        yield path, key
        for kind in key.kind if isinstance(key.kind, tuple) else (key.kind,):
            if isinstance(kind, dict):
                yield from config_keys(kind, path + ".")
            elif isinstance(kind, list):
                yield from config_keys({"[]": kind[0]}, path)
