"""Minimal deterministic float64 network engine.

Supports dense and small convolutional classifiers: forward pass, exact
analytic gradients, plain SGD, and a versioned binary serialization format
("DEVN"). Everything is seeded and bit-reproducible. Evaluation never modifies
a network; `sgd_step` updates the parameter arrays of the network it is given.
`forward(net, x, start)` runs the layers from `start` on, `x` being that
layer's input, and its errors name layers by their index in `net`: this is
how a suffix of a network is run, with no sub-network built.

Gradients have one entry point, `value_and_grads(net, x, loss)`: training
passes `cross_entropy_loss`, retraining `evolution.divergence_grad`. `Batch`
and `backward` wrap it for cross-entropy only, and are kept only until
`perfbench/workloads.py`, which calls them, calls `value_and_grads`.

This module owns the layer-flat parameter layout: `Layer.flat_params` lays a
layer's parameter tensors end to end in declared order, each row-major, and
`Layer.with_flat_params` / `unflatten` invert it. DEVM mask bitsets, candidate
indices, quantizer codes and DEVP payloads all index that layout.

DEVN layout (little-endian; `deserialize_network` raises `ModelFormatError`,
a `ValueError`, on malformed input, non-finite values or trailing bytes):

    magic "DEVN" | version u16 | input ndim u8 + dims u32... | layer count u16
    per layer: kind tag u8 | hyperparameters (the kind's `HYPER`, in order;
        a u8 index for a tuple of choices) | tensor count u8 |
        per tensor: ndim u8 + dims u32... + f64 values
    crc32 u32 of everything before it

Version 2 is written. Version 1, the same without the CRC trailer, still loads.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .binio import FormatError, Reader, Writer, guard, write_file

MAGIC = b"DEVN"
FORMAT_VERSION = 2

# Rows of the im2col matrix built at a time (one row per output pixel). A
# Conv2D builds its patch matrix over batch slices of at most this many rows,
# so its peak memory is bounded by the input and output arrays rather than by
# kh*kw copies of the input. A 1x1 stride-1 conv's rows are its input's pixels,
# so it builds nothing (`evolution.patch_form` turns a conv into one).
IM2COL_ROWS = 4096


class ShapeError(ValueError):
    """Raised when tensor shapes do not compose through the network."""


class ModelFormatError(FormatError):
    """Corrupt or truncated DEVN model file."""


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

class Layer:
    """Base layer. Subclasses implement apply/grads as pure functions.

    `apply` returns (output, ctx); `grads(ctx, grad_out)` returns
    (grad_input, [grad per parameter tensor]). The ctx is local to the call so
    the same layer object can be evaluated concurrently.

    A layer with parameters also takes `need_input=True`; with False its
    `grads` skips the input gradient and returns None in its place.
    `value_and_grads` calls no layer in front of the first parameter layer
    and asks that layer for no input gradient, so a parameterless layer is
    only ever asked for one.

    Each kind is declared once, in its class: `tag` (its u8 on the wire),
    `HYPER` (its hyperparameters in wire order: a struct code, or choices a u8
    indexes), `n_tensors` (taken first by the constructor) and `build`.
    """

    kind, tag = "base", 0
    HYPER: dict[str, str | tuple[str, ...]] = {}
    n_tensors = 0

    def __init__(self):
        """No hyperparameters: a stray keyword raises a TypeError naming it."""

    @classmethod
    def build(cls, shape: tuple[int, ...], rng: np.random.Generator, **entry) -> "Layer":
        """The layer an architecture entry (less "kind") makes on `shape` inputs."""
        return cls(**entry)

    def hyper(self) -> dict:
        return {name: getattr(self, name) for name in self.HYPER}

    def param_tensors(self) -> list[np.ndarray]:
        return []

    def with_params(self, tensors: Sequence[np.ndarray]) -> "Layer":
        return _layer_from_parts(self.kind, self.hyper(), tensors)

    def flat_params(self) -> np.ndarray:
        """A fresh 1-D copy of the parameters in the layer-flat layout."""
        tensors = self.param_tensors()
        if not tensors:
            return np.empty(0)
        return np.concatenate([t.reshape(-1) for t in tensors])

    def with_flat_params(self, flat: np.ndarray) -> "Layer":
        """The same kind of layer on views of `flat` (see `flat_params`)."""
        return self.with_params(unflatten(flat, [t.shape for t in self.param_tensors()]))

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        raise NotImplementedError

    def apply(self, x: np.ndarray):
        raise NotImplementedError

    def grads(self, ctx, grad_out: np.ndarray):
        raise NotImplementedError

    def apply_owned(self, x: np.ndarray) -> np.ndarray:
        """`apply`'s output for a caller that keeps no ctx and owns `x`, which
        the layer may overwrite with the output."""
        return self.apply(x)[0]


def _count(name: str, value, code: str = "") -> int:
    """`value` if it is an integer >= 1 (a bool, a float or a string is not)
    that fits the unsigned struct `code` it is stored as, if one is given."""
    top = 2 ** (8 * struct.calcsize("<" + code)) - 1 if code else math.inf
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 1 <= value <= top):
        bound = f"in [1, {top}]" if code else ">= 1"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def unflatten(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Row-major views of consecutive slices of `flat`, one per shape."""
    flat = np.asarray(flat)
    sizes = [math.prod(shape) for shape in shapes]
    if flat.shape != (sum(sizes),):
        raise ShapeError(f"flat parameters of shape {flat.shape} do not fill "
                         f"tensors of shapes {list(shapes)}")
    ends = np.cumsum(sizes)
    return [flat[end - size:end].reshape(shape)
            for size, end, shape in zip(sizes, ends, shapes)]


class Dense(Layer):
    kind, tag = "dense", 1
    n_tensors = 2

    @classmethod
    def build(cls, shape, rng, units):
        if len(shape) != 1:
            raise ShapeError(f"dense needs flat input, got shape {shape} (insert a flatten layer)")
        units = _count("units", units)
        return cls(glorot_uniform(rng, (shape[0], units), shape[0], units), np.zeros(units))

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.ndim != 2 or bias.shape != (weights.shape[1],):
            raise ShapeError(
                f"dense expects weights [in,out] and bias [out], "
                f"got {weights.shape} and {bias.shape}"
            )
        self.weights = weights
        self.bias = bias

    def param_tensors(self):
        return [self.weights, self.bias]

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.weights.shape[0]:
            raise ShapeError(
                f"dense layer expects flat input of width {self.weights.shape[0]}, "
                f"got shape {in_shape}"
            )
        return (self.weights.shape[1],)

    def apply(self, x):
        return x @ self.weights + self.bias, x

    def grads(self, ctx, grad_out, need_input=True):
        x = ctx
        gw = x.T @ grad_out
        gb = grad_out.sum(axis=0)
        return (grad_out @ self.weights.T if need_input else None), [gw, gb]


def _batch_slices(n: int, rows_per_item: int) -> list[tuple[int, int]]:
    """[lo, hi) batch ranges of at most IM2COL_ROWS rows (one item at least)."""
    step = max(1, IM2COL_ROWS // rows_per_item)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


class Conv2D(Layer):
    """2-D convolution, NHWC layout, kernel [kh, kw, cin, cout]."""

    kind, tag = "conv2d", 2
    HYPER = {"stride": "B", "padding": ("valid", "same")}
    n_tensors = 2

    @classmethod
    def build(cls, shape, rng, filters, kernel=3, **hyper):
        if len(shape) != 3:
            raise ShapeError(f"conv2d needs [h,w,c] input, got shape {shape}")
        k, f, cin = _count("kernel", kernel), _count("filters", filters), shape[2]
        return cls(glorot_uniform(rng, (k, k, cin, f), k * k * cin, k * k * f),
                   np.zeros(f), **hyper)

    def __init__(self, kernel: np.ndarray, bias: np.ndarray, stride: int = 1,
                 padding: str = "same"):
        kernel = np.asarray(kernel, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if kernel.ndim != 4 or bias.shape != (kernel.shape[3],):
            raise ShapeError(
                f"conv2d expects kernel [kh,kw,cin,cout] and bias [cout], "
                f"got {kernel.shape} and {bias.shape}"
            )
        if padding not in self.HYPER["padding"]:
            raise ValueError(f"unknown padding {padding!r}")
        self.kernel = kernel
        self.bias = bias
        self.stride = _count("stride", stride, self.HYPER["stride"])
        self.padding = padding

    def param_tensors(self):
        return [self.kernel, self.bias]

    def _geometry(self, h, w):
        kh, kw = self.kernel.shape[:2]
        s = self.stride
        if self.padding == "same":
            oh = -(-h // s)
            ow = -(-w // s)
            ph = max((oh - 1) * s + kh - h, 0)
            pw = max((ow - 1) * s + kw - w, 0)
        else:
            if h < kh or w < kw:
                raise ShapeError(f"conv2d input {h}x{w} smaller than kernel {kh}x{kw}")
            oh = (h - kh) // s + 1
            ow = (w - kw) // s + 1
            ph = pw = 0
        return oh, ow, ph, pw

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[2] != self.kernel.shape[2]:
            raise ShapeError(
                f"conv2d expects input [h,w,{self.kernel.shape[2]}], got shape {in_shape}"
            )
        oh, ow, _, _ = self._geometry(in_shape[0], in_shape[1])
        return (oh, ow, self.kernel.shape[3])

    @staticmethod
    def _pad(x, ph, pw):
        """`x` itself when there is nothing to pad."""
        if ph == pw == 0:
            return x
        return np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))

    def _cols(self, xp, oh, ow):
        """im2col of padded input: one row per output pixel, item by item,
        its patch in (kh, kw, cin) order. A 1x1 stride-1 kernel's rows are
        the input's pixels, a view of a contiguous `xp`."""
        kh, kw, cin = self.kernel.shape[:3]
        s = self.stride
        if kh == kw == s == 1:
            return xp.reshape(-1, cin)
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        win = win[:, :s * (oh - 1) + 1:s, :s * (ow - 1) + 1:s]
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * cin)

    def im2col(self, x):
        """The whole patch matrix of `x`, one row per output pixel."""
        oh, ow, ph, pw = self._geometry(x.shape[1], x.shape[2])
        return self._cols(self._pad(x, ph, pw), oh, ow)

    def _rows(self, ctx):
        """(first row, end row, rows of the patch matrix) per batch slice."""
        xp, (n, _, _), (oh, ow, _, _) = ctx
        for lo, hi in _batch_slices(n, oh * ow):
            yield lo * oh * ow, hi * oh * ow, self._cols(xp[lo:hi], oh, ow)

    def apply(self, x):
        n, h, w, _ = x.shape
        oh, ow, ph, pw = geometry = self._geometry(h, w)
        cout = self.kernel.shape[3]
        k = self.kernel.reshape(-1, cout)
        ctx = (self._pad(x, ph, pw), (n, h, w), geometry)
        y = np.empty((n * oh * ow, cout))
        for lo, hi, rows in self._rows(ctx):
            np.matmul(rows, k, out=y[lo:hi])
        y += self.bias
        return y.reshape(n, oh, ow, cout), ctx

    def grads(self, ctx, grad_out, need_input=True):
        cout = self.kernel.shape[3]
        g = grad_out.reshape(-1, cout)
        gk = np.zeros((self.kernel.size // cout, cout))
        for lo, hi, rows in self._rows(ctx):
            gk += rows.T @ g[lo:hi]
        gb = grad_out.sum(axis=(0, 1, 2))
        gx = self._input_grad(g, ctx) if need_input else None
        return gx, [gk.reshape(self.kernel.shape), gb]

    def _input_grad(self, g, ctx):
        """The gradient of the unpadded input: each output pixel's patch
        gradient (g @ kernel^T) scattered back over its kh*kw taps."""
        _, (n, h, w), (oh, ow, ph, pw) = ctx
        kh, kw, cin, cout = self.kernel.shape
        s = self.stride
        k = self.kernel.reshape(-1, cout)
        gxp = np.zeros((n, h + ph, w + pw, cin))
        for lo, hi in _batch_slices(n, oh * ow):
            gcols = (g[lo * oh * ow:hi * oh * ow] @ k.T).reshape(hi - lo, oh, ow, kh, kw, cin)
            for i in range(kh):
                for j in range(kw):
                    gxp[lo:hi, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s, :] += (
                        gcols[:, :, :, i, j, :])
        return gxp[:, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w, :]


class ReLU(Layer):
    kind, tag = "relu", 4

    def out_shape(self, in_shape):
        return in_shape

    def apply(self, x):
        y = np.maximum(x, 0.0)
        y += 0.0  # numpy leaves the sign of max(-0.0, 0.0) open; make it +0.0
        return y, y

    def apply_owned(self, x):
        np.maximum(x, 0.0, out=x)
        x += 0.0
        return x

    def grads(self, ctx, grad_out):
        """grad_out where the output is positive, +0.0 elsewhere. This is
        np.where(ctx > 0, grad_out, 0.0) at a third of its cost, apart from
        two cases: a grad_out of exactly -0.0 at a positive output comes back
        as +0.0, and a non-finite grad_out at a zero output as NaN."""
        # y > 0 is x > 0 for the finite x the forward admits
        g = grad_out * (ctx > 0)
        g += 0.0  # -0.0 from a negative gradient times False becomes +0.0
        return g, []


class LeakyReLU(Layer):
    kind, tag = "leaky_relu", 3
    HYPER = {"slope": "d"}

    def __init__(self, slope: float = 0.1):
        if not 0.0 < slope < 1.0:
            raise ValueError(f"leaky slope must be in (0,1), got {slope}")
        self.slope = float(slope)

    def out_shape(self, in_shape):
        return in_shape

    def apply(self, x):
        y = np.maximum(x, self.slope * x)  # slope < 1: x above 0, slope*x below
        return y, y

    def grads(self, ctx, grad_out):
        return np.where(ctx > 0, grad_out, self.slope * grad_out), []


class Flatten(Layer):
    kind, tag = "flatten", 5

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def apply(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def grads(self, ctx, grad_out):
        return grad_out.reshape(ctx), []


class MaxPool2D(Layer):
    kind, tag = "max_pool", 6
    HYPER = {"pool": "B", "stride": "B"}

    def __init__(self, pool: int = 2, stride: Optional[int] = None):
        self.pool = _count("pool", pool, self.HYPER["pool"])
        self.stride = self.pool if stride is None else _count("stride", stride,
                                                              self.HYPER["stride"])

    def _geometry(self, h, w):
        p, s = self.pool, self.stride
        if h < p or w < p:
            raise ShapeError(f"max_pool input {h}x{w} smaller than window {p}x{p}")
        return (h - p) // s + 1, (w - p) // s + 1

    def out_shape(self, in_shape):
        if len(in_shape) != 3:
            raise ShapeError(f"max_pool expects input [h,w,c], got shape {in_shape}")
        oh, ow = self._geometry(in_shape[0], in_shape[1])
        return (oh, ow, in_shape[2])

    def _taps(self, oh, ow):
        """Indices of the p*p window taps (strided views), in i*p + j order."""
        p, s = self.pool, self.stride
        for i in range(p):
            for j in range(p):
                yield (slice(None), slice(i, i + s * (oh - 1) + 1, s),
                       slice(j, j + s * (ow - 1) + 1, s))

    def apply(self, x):
        oh, ow = self._geometry(x.shape[1], x.shape[2])
        taps = self._taps(oh, ow)
        y = x[next(taps)].copy()
        for tap in taps:
            np.maximum(y, x[tap], out=y)
        return y, (x, y)

    def grads(self, ctx, grad_out):
        x, y = ctx
        gx = np.zeros(x.shape)
        left = grad_out.copy()
        for tap in self._taps(y.shape[1], y.shape[2]):
            # the first maximal tap in i*p + j order takes the gradient
            took = (x[tap] == y) * left
            view = gx[tap]
            view += took  # in place; gx[tap] += would copy the view back
            left -= took
        return gx, []


class Softmax(Layer):
    kind, tag = "softmax", 7

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ShapeError(f"softmax expects flat input, got shape {in_shape}")
        return in_shape

    def apply(self, x):
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        y = e / e.sum(axis=-1, keepdims=True)
        return y, y

    def grads(self, ctx, grad_out):
        y = ctx
        dot = (grad_out * y).sum(axis=-1, keepdims=True)
        return y * (grad_out - dot), []


LAYER_KINDS = {cls.kind: cls for cls in
               (Dense, Conv2D, ReLU, LeakyReLU, Flatten, MaxPool2D, Softmax)}
_BY_TAG = {cls.tag: cls for cls in LAYER_KINDS.values()}


# ---------------------------------------------------------------------------
# Network and batches
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """Inputs and their class labels, for `backward`."""

    inputs: np.ndarray
    targets: np.ndarray


@dataclass
class Network:
    layers: list[Layer]
    input_shape: tuple[int, ...]

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        # validate that layer shapes compose: shapes[i] is layer i's input
        # shape, and shapes[-1] the output shape
        self.shapes = [self.input_shape]
        for i, layer in enumerate(self.layers):
            try:
                self.shapes.append(layer.out_shape(self.shapes[-1]))
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({layer.kind}): {e}") from None
        self.output_shape = self.shapes[-1]

    def param_tensors(self) -> list[np.ndarray]:
        """Every parameter tensor, layer by layer (the order of gradients)."""
        return [t for layer in self.layers for t in layer.param_tensors()]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.param_tensors())

    def layer_param_count(self, layer_idx: int) -> int:
        return sum(t.size for t in self.layers[layer_idx].param_tensors())

    def param_layer_indices(self) -> list[int]:
        return [i for i, l in enumerate(self.layers) if l.param_tensors()]

    def copy(self) -> "Network":
        return Network([l.with_flat_params(l.flat_params()) for l in self.layers],
                       self.input_shape)

    def replace_layer(self, layer_idx: int, layer: Layer) -> "Network":
        """Shallow copy with one layer swapped; other tensors are shared."""
        layers = list(self.layers)
        layers[layer_idx] = layer
        return Network(layers, self.input_shape)


def _forward_with_ctx(net: Network, inputs: np.ndarray, keep: bool = True, start: int = 0):
    """(outputs, one ctx per layer run) of the layers from `start` on, with
    `inputs` the input of layer `start`. With keep=False no ctx is kept, and a
    layer may overwrite its input unless that shares memory with `inputs`, so
    a ReLU after a conv holds one batch-sized array, not two. Two at once grew
    the heap past glibc's trim threshold on every trial of a conv layer, and
    each trial faulted about 3 MiB back in."""
    if not 0 <= start <= len(net.layers):
        raise ValueError(f"start {start} is outside [0, {len(net.layers)}]")
    first = x = np.asarray(inputs, dtype=np.float64)
    if x.shape[1:] != net.shapes[start]:
        where = f"layer {start} input" if start else "network input"
        raise ShapeError(f"batch shape {x.shape[1:]} does not match {where} "
                         f"shape {net.shapes[start]}")
    ctxs = []
    for i, layer in enumerate(net.layers[start:], start):
        try:
            if keep:
                x, ctx = layer.apply(x)
                ctxs.append(ctx)
            elif np.may_share_memory(x, first):
                x = layer.apply(x)[0]
            else:
                x = layer.apply_owned(x)
        except ShapeError as e:
            raise ShapeError(f"layer {i} ({layer.kind}): {e}") from None
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite values produced by layer {i} ({layer.kind})")
    return x, ctxs


def forward(net: Network, inputs: np.ndarray, start: int = 0) -> np.ndarray:
    """Run the layers from `start` on a stack of inputs to layer `start` (by
    default the whole network on its inputs); `inputs` is never modified.
    Errors name layers by their index in `net`."""
    return _forward_with_ctx(net, inputs, keep=False, start=start)[0]


def value_and_grads(net: Network, inputs: np.ndarray, loss):
    """(value, one gradient per parameter tensor) of `loss(outputs)`, which
    returns (value, d value / d outputs). The backward pass stops at the
    first parameter layer, which computes no input gradient: no caller reads
    the gradient of the inputs."""
    out, ctxs = _forward_with_ctx(net, inputs)
    value, g = loss(out)
    grads: list[list[np.ndarray]] = [[] for _ in net.layers]
    first = min(net.param_layer_indices(), default=len(net.layers))
    for i in range(len(net.layers) - 1, first, -1):
        g, grads[i] = net.layers[i].grads(ctxs[i], g)
    if first < len(net.layers):
        _, grads[first] = net.layers[first].grads(ctxs[first], g, need_input=False)
    return value, [t for pg in grads for t in pg]


def cross_entropy_loss(outputs: np.ndarray, labels: np.ndarray):
    """Negative log likelihood of integer labels; outputs must be probabilities
    (network ends with a softmax layer). Returns (value, d/d_outputs)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != outputs.shape[0]:
        raise ShapeError("cross_entropy expects one integer label per sample")
    n = outputs.shape[0]
    p = np.maximum(outputs[np.arange(n), labels], 1e-300)
    grad = np.zeros_like(outputs)
    grad[np.arange(n), labels] = -1.0 / (n * p)
    return float(-np.mean(np.log(p))), grad


def backward(net: Network, batch: Batch, loss_kind: str) -> list[np.ndarray]:
    """Cross-entropy gradients of `batch` by `value_and_grads`; other kinds raise."""
    if loss_kind != "cross_entropy":
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    return value_and_grads(net, batch.inputs, lambda o: cross_entropy_loss(o, batch.targets))[1]


def sgd_step(net: Network, grads: Sequence[np.ndarray], lr: float) -> Network:
    """w <- w - lr*g in place on `net`'s parameter arrays; returns `net`.

    The caller must own those arrays: `Network.copy` gives fresh ones, while
    `replace_layer`, `with_params` and `sparsity.apply_mask` share them. A
    non-finite result is not checked here; the next forward pass raises."""
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    tensors = net.param_tensors()
    if [g.shape for g in grads] != [t.shape for t in tensors]:
        raise ShapeError(f"gradient shapes {[g.shape for g in grads]} do not match "
                         f"parameter shapes {[t.shape for t in tensors]}")
    for t, g in zip(tensors, grads):
        t -= lr * g
    return net


def accuracy(net: Network, dataset) -> float:
    """Fraction of argmax-correct predictions on a `ProbeSet` (ties to the lowest class)."""
    if dataset.labels is None:
        raise ValueError("accuracy requires a dataset with labels")
    preds = forward(net, dataset.inputs).argmax(axis=1)
    return float(np.mean(preds == dataset.labels))


# ---------------------------------------------------------------------------
# Construction from an architecture description
# ---------------------------------------------------------------------------

def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def build_network(arch: dict, seed: int) -> Network:
    """Build a seeded network from a JSON-able architecture description.

    {"input_shape": [784], "layers": [{"kind": "dense", "units": 128},
    {"kind": "leaky_relu", "slope": 0.1}, ...]}
    Each entry's other keys go to its kind's `build`; an error names the layer.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(_count(f"input_shape[{i}]", d) for i, d in enumerate(arch["input_shape"]))
    if not arch["layers"]:
        raise ValueError("layers is empty")
    layers: list[Layer] = []
    for i, entry in enumerate(arch["layers"]):
        kind, entry = entry["kind"], {k: v for k, v in entry.items() if k != "kind"}
        if kind not in LAYER_KINDS:
            raise ValueError(f"layer {i}: unknown layer kind {kind!r}")
        try:
            layers.append(LAYER_KINDS[kind].build(shape, rng, **entry))
            shape = layers[-1].out_shape(shape)
        except (TypeError, ValueError) as e:
            raise type(e)(f"layer {i} ({kind}): {e}") from None
    return Network(layers, arch["input_shape"])


def load_architecture(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Binary serialization (DEVN)
# ---------------------------------------------------------------------------

def _write_kind(w: Writer, kind: str, hyper: dict):
    """A layer's kind tag and hyperparameters (`_read_kind`)."""
    cls = LAYER_KINDS[kind]
    w.pack("<B", cls.tag)
    for name, code in cls.HYPER.items():
        if isinstance(code, tuple):
            w.pack("<B", code.index(hyper[name]))
        else:
            w.pack("<" + code, hyper[name])


def _read_kind(r: Reader) -> tuple[str, dict]:
    """A layer's kind tag and hyperparameters."""
    (tag,) = r.unpack("<B")
    cls = _BY_TAG.get(tag)
    if cls is None:
        raise r.fail(f"unknown layer tag {tag}")
    hyper = {}
    for name, code in cls.HYPER.items():
        if isinstance(code, tuple):
            (index,) = r.unpack("<B")
            if index >= len(code):
                raise r.fail(f"{cls.kind} {name} flag {index} is not below {len(code)}")
            hyper[name] = code[index]
        else:
            (hyper[name],) = r.unpack("<" + code)
    return cls.kind, hyper


def serialize_network(net: Network) -> bytes:
    w = Writer()
    w.pack("<4sH", MAGIC, FORMAT_VERSION)
    w.shape(net.input_shape)
    w.pack("<H", len(net.layers))
    for layer in net.layers:
        _write_kind(w, layer.kind, layer.hyper())
        tensors = layer.param_tensors()
        w.pack("<B", len(tensors))
        for t in tensors:
            w.shape(t.shape)
            w.array(t, "<f8")
    return w.finish(crc=True)


def _layer_from_parts(kind: str, hyper: dict, tensors: Sequence[np.ndarray]) -> Layer:
    cls = LAYER_KINDS[kind]
    if len(tensors) != cls.n_tensors:
        raise ShapeError(f"{kind} takes {cls.n_tensors} parameter tensors, got {len(tensors)}")
    return cls(*tensors, **hyper)


def deserialize_network(data: bytes) -> Network:
    version = 2 if bytes(data[4:6]) == b"\x02\x00" else 1  # version 1: no CRC
    r = Reader(data, ModelFormatError, crc=version == 2)
    r.header(MAGIC, version)
    input_shape = r.shape()
    (n_layers,) = r.unpack("<H")
    layers = []
    with guard(ModelFormatError):
        for _ in range(n_layers):
            kind, hyper = _read_kind(r)
            tensors = []
            for _ in range(r.unpack("<B")[0]):
                shape = r.shape()
                tensors.append(r.array("<f8", math.prod(shape)).reshape(shape))
                if not np.isfinite(tensors[-1]).all():
                    raise r.fail("non-finite parameter value")
            layers.append(_layer_from_parts(kind, hyper, tensors))
        r.end()
        return Network(layers, input_shape)


def save_network(net: Network, path: str):
    write_file(path, serialize_network(net))


def load_network(path: str) -> Network:
    with open(path, "rb") as f:
        return deserialize_network(f.read())
