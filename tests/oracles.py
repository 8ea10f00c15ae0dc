"""Independent oracles the tests check production code against.

Nothing here may call the code path it validates: gradients come from central
finite differences, convolution and pooling from direct loops over output
pixels, a density's floor-crossing nodes from a loop over its segments,
quantizer optima come from exhaustive grid search or a grid dynamic program
with closed-form integrals over the piecewise-linear density, the rounding
error integral from a Simpson rule that evaluates its integrand separately at
each panel's three points, and canonical Huffman payloads are walked one bit
at a time.
"""

import numpy as np

from devolve import nn


# ---------------------------------------------------------------------------
# Finite-difference gradients
# ---------------------------------------------------------------------------

def numerical_gradients(net, x, loss, h=1e-5):
    """Central-difference gradient of `loss(outputs)[0]` on `x` for every
    parameter tensor; only forward passes, no backward pass, are run."""
    return central_differences(net, lambda: loss(nn.forward(net, x))[0], h)


def central_differences(net, loss, h=1e-5):
    """Central-difference gradient of `loss()`, a scalar that reads `net`, for
    every parameter tensor (mutates tensors in place temporarily)."""
    grads = []
    for i, layer in enumerate(net.layers):
        for t in layer.param_tensors():
            g = np.zeros_like(t)
            flat = t.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                fp = loss()
                flat[j] = orig - h
                fm = loss()
                flat[j] = orig
                g.reshape(-1)[j] = (fp - fm) / (2.0 * h)
            grads.append(g)
    return grads


def assert_gradients_close(analytic, numeric, rtol=1e-4, atol=1e-8):
    assert len(analytic) == len(numeric)
    for a, n in zip(analytic, numeric):
        denom = np.abs(a) + np.abs(n)
        bad = np.abs(a - n) > rtol * denom + atol
        assert not bad.any(), (
            f"gradient mismatch: analytic {a[bad][:4]} vs numeric {n[bad][:4]}"
        )


# ---------------------------------------------------------------------------
# Direct-loop convolution and max pooling (NHWC)
# ---------------------------------------------------------------------------

def conv2d_direct(x, kernel, bias, stride, padding):
    """Convolution by a loop over output pixels and kernel taps. "same" pads
    ceil(h/stride) outputs' worth of zeros, the odd one at the bottom/right."""
    n, h, w, _ = x.shape
    kh, kw, _, cout = kernel.shape
    if padding == "same":
        oh, ow = -(-h // stride), -(-w // stride)
        top = max((oh - 1) * stride + kh - h, 0) // 2
        left = max((ow - 1) * stride + kw - w, 0) // 2
    else:
        oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
        top = left = 0
    y = np.zeros((n, oh, ow, cout))
    for r in range(oh):
        for c in range(ow):
            acc = np.tile(bias, (n, 1))
            for i in range(kh):
                for j in range(kw):
                    row, col = r * stride + i - top, c * stride + j - left
                    if 0 <= row < h and 0 <= col < w:
                        acc += x[:, row, col, :] @ kernel[i, j]
            y[:, r, c, :] = acc
    return y


def max_pool_direct(x, pool, stride, grad_out):
    """Max pooling by a loop over windows. Returns the pooled values and the
    input gradient, which sends each output's gradient to the first maximal
    element of its window in row-major order."""
    n, h, w, ch = x.shape
    oh, ow = (h - pool) // stride + 1, (w - pool) // stride + 1
    y = np.zeros((n, oh, ow, ch))
    gx = np.zeros(x.shape)
    for b in range(n):
        for r in range(oh):
            for c in range(ow):
                for k in range(ch):
                    window = x[b, r * stride:r * stride + pool,
                               c * stride:c * stride + pool, k]
                    i, j = divmod(int(np.argmax(window)), pool)
                    y[b, r, c, k] = window[i, j]
                    gx[b, r * stride + i, c * stride + j, k] += grad_out[b, r, c, k]
    return y, gx


# ---------------------------------------------------------------------------
# Piecewise-linear density: nodes and exact integrals
# ---------------------------------------------------------------------------

def density_nodes_loop(density):
    """(nodes, heights) of a Density's piecewise-linear form, built one
    segment at a time: bin centres plus the support's ends, with a node
    inserted wherever a segment crosses the floor strictly inside it."""
    edges, f = density.edges, density.floor
    heights = density.masses / np.diff(edges)
    xs = np.concatenate(([float(edges[0])], (edges[:-1] + edges[1:]) / 2.0,
                         [float(edges[-1])]))
    hs = np.concatenate(([heights[0]], heights, [heights[-1]]))
    nodes = [xs[0]]
    vals = [max(hs[0], f)]
    for a, b, ha, hb in zip(xs[:-1], xs[1:], hs[:-1], hs[1:]):
        if (ha - f) * (hb - f) < 0:
            cross = a + (f - ha) * (b - a) / (hb - ha)
            if a < cross < b:
                nodes.append(cross)
                vals.append(f)
        nodes.append(b)
        vals.append(max(hb, f))
    return np.asarray(nodes), np.asarray(vals)


class ExactDensityIntegrals:
    """Closed-form cumulative integrals of p and w*p for a Density, exact per
    linear piece; used by the brute-force quantizer oracle."""

    def __init__(self, density):
        self.nodes = density._nodes
        self.heights = density._node_heights
        widths = np.diff(self.nodes)
        self.slopes = np.diff(self.heights) / widths
        f0_seg = widths * (self.heights[:-1] + self.heights[1:]) / 2.0
        self.f0_cum = np.concatenate(([0.0], np.cumsum(f0_seg)))
        n0, n1 = self.nodes[:-1], self.nodes[1:]
        h0, s = self.heights[:-1], self.slopes
        f1_seg = (h0 * (n1 ** 2 - n0 ** 2) / 2.0
                  + s * ((n1 ** 3 - n0 ** 3) / 3.0 - n0 * (n1 ** 2 - n0 ** 2) / 2.0))
        self.f1_cum = np.concatenate(([0.0], np.cumsum(f1_seg)))

    def _piece(self, t):
        t = np.clip(t, self.nodes[0], self.nodes[-1])
        j = np.clip(np.searchsorted(self.nodes, t, side="right") - 1,
                    0, self.nodes.size - 2)
        return t, j

    def f0(self, t):
        """Integral of p from the support start to t."""
        t, j = self._piece(t)
        n0, h0, s = self.nodes[j], self.heights[j], self.slopes[j]
        d = t - n0
        return self.f0_cum[j] + h0 * d + s * d * d / 2.0

    def f1(self, t):
        """Integral of w*p(w) from the support start to t."""
        t, j = self._piece(t)
        n0, h0, s = self.nodes[j], self.heights[j], self.slopes[j]
        return (self.f1_cum[j] + h0 * (t ** 2 - n0 ** 2) / 2.0
                + s * ((t ** 3 - n0 ** 3) / 3.0 - n0 * (t ** 2 - n0 ** 2) / 2.0))

    def gap_cost(self, a, b):
        """Integral of |w - nearest of {a, b}| * p(w) over [a, b]."""
        m = (np.asarray(a) + np.asarray(b)) / 2.0
        left = (self.f1(m) - self.f1(a)) - a * (self.f0(m) - self.f0(a))
        right = b * (self.f0(b) - self.f0(m)) - (self.f1(b) - self.f1(m))
        return left + right

    def total_error(self, levels):
        levels = np.asarray(levels, dtype=np.float64)
        return float(np.sum(self.gap_cost(levels[:-1], levels[1:])))


def simpson_error(levels, density):
    """Expected |w - nearest level| under the density, by 12 Simpson panels per
    interval between consecutive knots (density breakpoints, levels and
    rounding boundaries), with the integrand evaluated separately at the left,
    middle and right points of every panel."""
    levels = np.asarray(levels, dtype=np.float64)
    lo, hi = density.support
    mids = (levels[:-1] + levels[1:]) / 2.0
    knots = np.concatenate((density.breakpoints(), levels, mids))
    knots = np.unique(np.clip(knots, lo, hi))
    starts, widths = knots[:-1], np.diff(knots)
    m = 12
    t = np.arange(m + 1) / m
    pts = starts[:, None] + widths[:, None] * t[None, :]

    def f(w):
        idx = np.searchsorted(mids, w, side="left")
        dist = np.abs(w - levels[idx])
        return dist * density.pdf_array(w)

    left, right = pts[:, :-1], pts[:, 1:]
    mid = (left + right) / 2.0
    seg = (right - left) / 6.0 * (f(left) + 4.0 * f(mid) + f(right))
    return float(seg.sum())


def brute_force_two_bit(density, pitch=1e-3):
    """Exhaustive grid minimization of the rounding-error integral for four
    levels with pinned endpoints; returns the best (l1, l2) pair."""
    lo, hi = density.support
    ex = ExactDensityIntegrals(density)
    grid = np.arange(lo + pitch, hi - pitch / 2.0, pitch)
    g = grid.size
    best_err = np.inf
    best = None
    # chunk over l1 to bound memory; all costs vectorized
    cost_to_hi = ex.gap_cost(grid, np.full(g, hi))
    for i in range(g - 1):
        l1 = grid[i]
        l2s = grid[i + 1:]
        err = (ex.gap_cost(np.full(l2s.size, lo), np.full(l2s.size, l1))
               + ex.gap_cost(np.full(l2s.size, l1), l2s)
               + cost_to_hi[i + 1:])
        j = int(np.argmin(err))
        if err[j] < best_err:
            best_err = float(err[j])
            best = (float(l1), float(l2s[j]))
    return best, best_err


def brute_force_three_levels(density, pitch=1e-3):
    """1-D exhaustive minimization for three levels (one interior)."""
    lo, hi = density.support
    ex = ExactDensityIntegrals(density)
    grid = np.arange(lo + pitch, hi - pitch / 2.0, pitch)
    err = (ex.gap_cost(np.full(grid.size, lo), grid)
           + ex.gap_cost(grid, np.full(grid.size, hi)))
    j = int(np.argmin(err))
    return float(grid[j]), float(err[j])


def grid_dp_error(density, n_levels, points=1024):
    """Least rounding-error integral over tables of n_levels levels on a
    uniform grid of `points` points spanning the support, endpoints pinned:
    a min-plus dynamic program over exact gap costs. Grid tables are feasible,
    so the unrestricted optimum is never above this value."""
    lo, hi = density.support
    ex = ExactDensityIntegrals(density)
    grid = np.linspace(lo, hi, points)
    a, b = grid[:, None], grid[None, :]
    cost = np.where(b > a, ex.gap_cost(a, b), np.inf)
    reach = cost[0]  # least error reaching each grid point with one gap
    for _ in range(n_levels - 2):
        reach = np.min(reach[:, None] + cost, axis=0)
    return float(reach[-1])


# ---------------------------------------------------------------------------
# Bit-by-bit canonical Huffman coding
# ---------------------------------------------------------------------------

class HuffmanOracleError(ValueError):
    """`kind` is "truncated" or "invalid Huffman code"; `bit` is where the
    failing code starts."""

    def __init__(self, kind, bit):
        super().__init__(f"{kind} at bit {bit}")
        self.kind, self.bit = kind, bit


def canonical_code_map(lengths):
    """{symbol: (length, code)}: symbols in (length, symbol) order take
    consecutive codes, shifted left wherever the length grows."""
    lengths = [int(x) for x in lengths]
    out, code, prev = {}, 0, 0
    for sym in sorted((s for s, n in enumerate(lengths) if n), key=lambda s: (lengths[s], s)):
        code <<= lengths[sym] - prev
        prev = lengths[sym]
        out[sym] = (prev, code)
        code += 1
    return out


def huffman_encode_bitwise(lengths, symbols):
    """(payload bytes, bit length), one bit appended at a time, MSB-first."""
    codes = canonical_code_map(lengths)
    bits = []
    for sym in symbols:
        length, code = codes[int(sym)]
        bits += [(code >> (length - 1 - i)) & 1 for i in range(length)]
    out = bytearray(-(-len(bits) // 8))
    for i, bit in enumerate(bits):
        out[i // 8] |= bit << (7 - i % 8)
    return bytes(out), len(bits)


def huffman_decode_bitwise(lengths, payload, bit_length, count):
    """(symbols, bits read) of the first `count` codes, reading one bit at a
    time; a code that runs past `bit_length` is truncated, and `max(lengths)`
    bits that match no code are an invalid code."""
    table = {v: s for s, v in canonical_code_map(lengths).items()}
    max_len = max((int(x) for x in lengths), default=0)
    n = min(bit_length, 8 * len(payload))
    symbols, pos = [], 0
    for _ in range(count):
        start, code, length = pos, 0, 0
        while (length, code) not in table:
            if length == max_len:
                raise HuffmanOracleError("invalid Huffman code", start)
            if pos == n:
                raise HuffmanOracleError("truncated", start)
            code = (code << 1) | (payload[pos // 8] >> (7 - pos % 8)) & 1
            pos += 1
            length += 1
        symbols.append(table[(length, code)])
    return symbols, pos
