"""Minimal deterministic float64 network engine.

Supports dense and small convolutional classifiers: forward pass, exact
analytic gradients, plain SGD, and a versioned binary serialization format
("DEVN"). Everything is seeded and bit-reproducible. Evaluation never modifies
a network; `sgd_step` updates the parameter arrays of the network it is given.

This module owns the layer-flat parameter layout: `Layer.flat_params` lays a
layer's parameter tensors end to end in declared order, each row-major, and
`Layer.with_flat_params` / `unflatten` invert it. DEVM mask bitsets, candidate
indices, quantizer codes and DEVP payloads all index that layout.

DEVN layout (little-endian, no checksum; `deserialize_network` raises
`ModelFormatError`, a `ValueError`, on malformed input, non-finite values or
trailing bytes):

    magic "DEVN" | version u16 | input ndim u8 + dims u32... | layer count u16
    per layer: kind u8 | hyperparameters (conv2d: stride u8, same flag u8;
        leaky_relu: slope f64; max_pool: pool u8, stride u8) | tensor count u8 |
        per tensor: ndim u8 + dims u32... + f64 values
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .binio import FormatError, Reader, guard

MAGIC = b"DEVN"
FORMAT_VERSION = 1

LOSS_KINDS = ("mse", "cross_entropy")

# Rows of the im2col matrix built at a time (one row per output pixel). A
# Conv2D builds its patch matrix over batch slices of at most this many rows,
# so its peak memory is bounded by the input and output arrays rather than by
# kh*kw copies of the input.
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
    """

    kind = "base"

    def param_tensors(self) -> list[np.ndarray]:
        return []

    def with_params(self, tensors: Sequence[np.ndarray]) -> "Layer":
        if tensors:
            raise ValueError(f"{self.kind} takes no parameters")
        return self

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

    def hyper(self) -> dict:
        return {}


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
    kind = "dense"

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

    def with_params(self, tensors):
        w, b = tensors
        return Dense(w, b)

    def out_shape(self, in_shape):
        if len(in_shape) != 1 or in_shape[0] != self.weights.shape[0]:
            raise ShapeError(
                f"dense layer expects flat input of width {self.weights.shape[0]}, "
                f"got shape {in_shape}"
            )
        return (self.weights.shape[1],)

    def apply(self, x):
        return x @ self.weights + self.bias, x

    def grads(self, ctx, grad_out):
        x = ctx
        gw = x.T @ grad_out
        gb = grad_out.sum(axis=0)
        return grad_out @ self.weights.T, [gw, gb]


def _batch_slices(n: int, rows_per_item: int) -> list[tuple[int, int]]:
    """[lo, hi) batch ranges of at most IM2COL_ROWS rows (one item at least)."""
    step = max(1, IM2COL_ROWS // rows_per_item)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


class Conv2D(Layer):
    """2-D convolution, NHWC layout, kernel [kh, kw, cin, cout]."""

    kind = "conv2d"

    def __init__(self, kernel: np.ndarray, bias: np.ndarray, stride: int = 1,
                 padding: str = "same"):
        kernel = np.asarray(kernel, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if kernel.ndim != 4 or bias.shape != (kernel.shape[3],):
            raise ShapeError(
                f"conv2d expects kernel [kh,kw,cin,cout] and bias [cout], "
                f"got {kernel.shape} and {bias.shape}"
            )
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        self.kernel = kernel
        self.bias = bias
        self.stride = int(stride)
        self.padding = padding

    def param_tensors(self):
        return [self.kernel, self.bias]

    def with_params(self, tensors):
        k, b = tensors
        return Conv2D(k, b, self.stride, self.padding)

    def hyper(self):
        return {"stride": self.stride, "padding": self.padding}

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

    def _cols(self, xp, oh, ow):
        """im2col: one row per output pixel, its patch in (kh, kw, cin) order."""
        kh, kw, cin = self.kernel.shape[:3]
        s = self.stride
        win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        win = win[:, :s * (oh - 1) + 1:s, :s * (ow - 1) + 1:s]
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * cin)

    def apply(self, x):
        n, h, w, _ = x.shape
        cout = self.kernel.shape[3]
        oh, ow, ph, pw = self._geometry(h, w)
        xp = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
        k = self.kernel.reshape(-1, cout)
        y = np.empty((n * oh * ow, cout))
        for lo, hi in _batch_slices(n, oh * ow):
            np.matmul(self._cols(xp[lo:hi], oh, ow), k, out=y[lo * oh * ow:hi * oh * ow])
        y += self.bias
        return y.reshape(n, oh, ow, cout), (xp, (n, h, w), (oh, ow, ph, pw))

    def grads(self, ctx, grad_out):
        xp, (n, h, w), (oh, ow, ph, pw) = ctx
        kh, kw, cin, cout = self.kernel.shape
        s = self.stride
        k = self.kernel.reshape(-1, cout)
        g = grad_out.reshape(-1, cout)
        gk = np.zeros_like(k)
        gxp = np.zeros_like(xp)
        for lo, hi in _batch_slices(n, oh * ow):
            gs = g[lo * oh * ow:hi * oh * ow]
            gk += self._cols(xp[lo:hi], oh, ow).T @ gs
            gcols = (gs @ k.T).reshape(hi - lo, oh, ow, kh, kw, cin)
            for i in range(kh):
                for j in range(kw):
                    gxp[lo:hi, i:i + s * (oh - 1) + 1:s, j:j + s * (ow - 1) + 1:s, :] += (
                        gcols[:, :, :, i, j, :])
        gb = grad_out.sum(axis=(0, 1, 2))
        gx = gxp[:, ph // 2:ph // 2 + h, pw // 2:pw // 2 + w, :]
        return gx, [gk.reshape(self.kernel.shape), gb]


class ReLU(Layer):
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def apply(self, x):
        mask = x > 0
        return np.where(mask, x, 0.0), mask

    def grads(self, ctx, grad_out):
        return np.where(ctx, grad_out, 0.0), []


class LeakyReLU(Layer):
    kind = "leaky_relu"

    def __init__(self, slope: float = 0.1):
        if not 0.0 < slope < 1.0:
            raise ValueError(f"leaky slope must be in (0,1), got {slope}")
        self.slope = float(slope)

    def hyper(self):
        return {"slope": self.slope}

    def out_shape(self, in_shape):
        return in_shape

    def apply(self, x):
        mask = x > 0
        return np.where(mask, x, self.slope * x), mask

    def grads(self, ctx, grad_out):
        return np.where(ctx, grad_out, self.slope * grad_out), []


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def apply(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def grads(self, ctx, grad_out):
        return grad_out.reshape(ctx), []


class MaxPool2D(Layer):
    kind = "max_pool"

    def __init__(self, pool: int = 2, stride: Optional[int] = None):
        if pool < 1:
            raise ValueError("pool size must be >= 1")
        self.pool = int(pool)
        self.stride = int(stride) if stride is not None else int(pool)
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    def hyper(self):
        return {"pool": self.pool, "stride": self.stride}

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
    kind = "softmax"

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
_KIND_TAGS = {"dense": 1, "conv2d": 2, "leaky_relu": 3, "relu": 4,
              "flatten": 5, "max_pool": 6, "softmax": 7}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


# ---------------------------------------------------------------------------
# Network and batches
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """A stack of inputs with optional targets (class indices or reference
    outputs)."""

    inputs: np.ndarray
    targets: Optional[np.ndarray] = None

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        if self.targets is not None:
            self.targets = np.asarray(self.targets)
            if self.targets.shape[0] != self.inputs.shape[0]:
                raise ValueError(
                    f"target count {self.targets.shape[0]} does not match "
                    f"batch size {self.inputs.shape[0]}"
                )

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class Network:
    layers: list[Layer]
    input_shape: tuple[int, ...]

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        # validate that layer shapes compose
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({layer.kind}): {e}") from None
        self.output_shape = shape

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


def _forward_with_ctx(net: Network, inputs: np.ndarray):
    x = np.asarray(inputs, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ShapeError(
            f"batch shape {x.shape[1:]} does not match network input "
            f"shape {net.input_shape}"
        )
    ctxs = []
    for i, layer in enumerate(net.layers):
        try:
            x, ctx = layer.apply(x)
        except ShapeError as e:
            raise ShapeError(f"layer {i} ({layer.kind}): {e}") from None
        if not np.isfinite(x).all():
            raise FloatingPointError(f"non-finite values produced by layer {i} ({layer.kind})")
        ctxs.append(ctx)
    return x, ctxs


def forward(net: Network, inputs: np.ndarray) -> np.ndarray:
    """Run the network on a stack of inputs."""
    return _forward_with_ctx(net, inputs)[0]


def value_and_grads(net: Network, inputs: np.ndarray, loss):
    """(value, one gradient per parameter tensor) of `loss(outputs)`, which
    returns (value, d value / d outputs)."""
    out, ctxs = _forward_with_ctx(net, inputs)
    value, g = loss(out)
    grads: list[list[np.ndarray]] = [[] for _ in net.layers]
    for i in range(len(net.layers) - 1, -1, -1):
        g, grads[i] = net.layers[i].grads(ctxs[i], g)
    return value, [t for pg in grads for t in pg]


def mse_loss(outputs: np.ndarray, targets: np.ndarray):
    """Mean over batch and output elements; returns (value, d/d_outputs)."""
    targets = np.asarray(targets, dtype=np.float64)
    if outputs.shape != targets.shape:
        raise ShapeError(
            f"mse targets shape {targets.shape} != outputs shape {outputs.shape}"
        )
    diff = outputs - targets
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


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


def loss_and_grads(net: Network, batch: Batch, loss_kind: str):
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    if batch.targets is None:
        raise ValueError(f"{loss_kind} loss requires batch targets")
    loss = mse_loss if loss_kind == "mse" else cross_entropy_loss
    return value_and_grads(net, batch.inputs, lambda out: loss(out, batch.targets))


def backward(net: Network, batch: Batch, loss_kind: str) -> list[np.ndarray]:
    """Gradients of the batch loss, one array per parameter tensor."""
    return loss_and_grads(net, batch, loss_kind)[1]


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
    """Fraction of argmax-correct predictions (ties to the lowest class)."""
    inputs = getattr(dataset, "inputs", None)
    labels = getattr(dataset, "labels", None)
    if labels is None:
        labels = getattr(dataset, "targets", None)
    if inputs is None or labels is None:
        raise ValueError("accuracy requires a dataset with inputs and labels")
    if len(inputs) == 0:
        raise ValueError("accuracy on an empty dataset")
    preds = forward(net, np.asarray(inputs)).argmax(axis=1)
    return float(np.mean(preds == np.asarray(labels)))


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
    """
    rng = np.random.default_rng(seed)
    shape = tuple(int(d) for d in arch["input_shape"])
    layers: list[Layer] = []
    for desc in arch["layers"]:
        kind = desc["kind"]
        if kind == "dense":
            if len(shape) != 1:
                raise ShapeError(
                    f"dense layer needs flat input, got shape {shape} "
                    "(insert a flatten layer)"
                )
            units = int(desc["units"])
            w = glorot_uniform(rng, (shape[0], units), shape[0], units)
            layer = Dense(w, np.zeros(units))
        elif kind == "conv2d":
            if len(shape) != 3:
                raise ShapeError(f"conv2d needs [h,w,c] input, got shape {shape}")
            k = int(desc.get("kernel", 3))
            f = int(desc["filters"])
            cin = shape[2]
            kern = glorot_uniform(rng, (k, k, cin, f), k * k * cin, k * k * f)
            layer = Conv2D(kern, np.zeros(f), int(desc.get("stride", 1)),
                           desc.get("padding", "same"))
        elif kind == "leaky_relu":
            layer = LeakyReLU(float(desc.get("slope", 0.1)))
        elif kind == "relu":
            layer = ReLU()
        elif kind == "flatten":
            layer = Flatten()
        elif kind == "max_pool":
            layer = MaxPool2D(int(desc.get("pool", 2)), desc.get("stride"))
        elif kind == "softmax":
            layer = Softmax()
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
        shape = layer.out_shape(shape)
        layers.append(layer)
    return Network(layers, arch["input_shape"])


def load_architecture(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Binary serialization (DEVN)
# ---------------------------------------------------------------------------

def _write_shape(out: bytearray, shape):
    out += struct.pack("<B", len(shape))
    for d in shape:
        out += struct.pack("<I", d)


def _read_shape(r: Reader) -> tuple[int, ...]:
    (ndim,) = r.unpack("<B")
    return r.unpack(f"<{ndim}I")


def _write_hyper(out: bytearray, kind: str, hyper: dict):
    if kind == "conv2d":
        out += struct.pack("<BB", hyper["stride"],
                           1 if hyper["padding"] == "same" else 0)
    elif kind == "leaky_relu":
        out += struct.pack("<d", hyper["slope"])
    elif kind == "max_pool":
        out += struct.pack("<BB", hyper["pool"], hyper["stride"])


def _read_kind(r: Reader) -> tuple[str, dict]:
    """A layer's kind tag and hyperparameters."""
    (tag,) = r.unpack("<B")
    kind = _TAG_KINDS.get(tag)
    if kind is None:
        raise r.fail(f"unknown layer tag {tag}")
    if kind == "conv2d":
        stride, same = r.unpack("<BB")
        if same > 1:
            raise r.fail(f"conv2d padding flag {same} is neither 0 nor 1")
        return kind, {"stride": stride, "padding": "same" if same else "valid"}
    if kind == "leaky_relu":
        return kind, {"slope": r.unpack("<d")[0]}
    if kind == "max_pool":
        pool, stride = r.unpack("<BB")
        return kind, {"pool": pool, "stride": stride}
    return kind, {}


def serialize_network(net: Network) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<H", FORMAT_VERSION)
    _write_shape(out, net.input_shape)
    out += struct.pack("<H", len(net.layers))
    for layer in net.layers:
        out += struct.pack("<B", _KIND_TAGS[layer.kind])
        _write_hyper(out, layer.kind, layer.hyper())
        tensors = layer.param_tensors()
        out += struct.pack("<B", len(tensors))
        for t in tensors:
            _write_shape(out, t.shape)
            out += np.ascontiguousarray(t, dtype="<f8").tobytes()
    return bytes(out)


def _layer_from_parts(kind: str, hyper: dict, tensors: list[np.ndarray]) -> Layer:
    n_params = 2 if kind in ("dense", "conv2d") else 0
    if len(tensors) != n_params:
        raise ShapeError(f"{kind} takes {n_params} parameter tensors, got {len(tensors)}")
    return LAYER_KINDS[kind](*tensors, **hyper)


def deserialize_network(data: bytes) -> Network:
    r = Reader(data, ModelFormatError)
    r.header(MAGIC, FORMAT_VERSION)
    input_shape = _read_shape(r)
    (n_layers,) = r.unpack("<H")
    layers = []
    with guard(ModelFormatError):
        for _ in range(n_layers):
            kind, hyper = _read_kind(r)
            tensors = []
            for _ in range(r.unpack("<B")[0]):
                shape = _read_shape(r)
                tensors.append(r.array("<f8", math.prod(shape)).reshape(shape))
                if not np.isfinite(tensors[-1]).all():
                    raise r.fail("non-finite parameter value")
            layers.append(_layer_from_parts(kind, hyper, tensors))
        r.end()
        return Network(layers, input_shape)


def save_network(net: Network, path: str):
    with open(path, "wb") as f:
        f.write(serialize_network(net))


def load_network(path: str) -> Network:
    with open(path, "rb") as f:
        return deserialize_network(f.read())
