"""Scalar quantization of surviving parameters.

Three level-placement schemes map weights to b-bit codes, b in BIT_RANGES:

* uniform_scale: levels i*delta for signed codes i, zero exactly representable,
  only a scale factor needs storing; out-of-range weights clip.
* uniform_affine: 2^bits equally spaced levels pinned to the weight min/max;
  min and scale need storing, nothing clips.
* optimal_density: levels placed to minimize the expected absolute rounding
  error under the weight density, so spacing tightens where weights are dense
  and stretches across sparse regions. At each interior level the optimum
  balances the probability mass of the two adjacent half-regions. The solver
  has two steps. A dynamic program over cut points finds the best table on a
  fixed grid of cells = max(768, 3n) cells at equal quantiles of
  sqrt(density), which lands in the basin of the global optimum. Its gap cost
  is Monge, so each level's argmins over the dense cost matrix (O(cells^2)
  memory) come from a monotone search in O(cells^1.5) time rather than a full
  O(cells^2) scan. A Levenberg-Marquardt-damped Newton polish on the balance
  system then settles the levels off the grid. It evaluates only trial tables
  that can change its outcome: one bytewise equal to the current table (its
  damped step underflowed) is rejected unevaluated, and the balance is
  computed only when the error is within the 1e-13 acceptance band. The
  polish hands back the residual of the table it keeps, and that is the value
  the convergence gate reads.

Rounding is nearest (ties to the lower level) or stochastic (round up with
probability proportional to the distance from the lower level; unbiased in
expectation). Dequantization is a lookup into the level table, so zeros never
occupy a code: pruned positions live in the sparsity mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import nn
from .nn import Network
from .sparsity import SparsityMask
from .evolution import DivergenceSpec, divergence

# inclusive; uniform_scale needs a sign bit, the solver is measured to 10 bits
BIT_RANGES = {"uniform_scale": (2, 16), "uniform_affine": (1, 16), "optimal_density": (1, 10)}
SCHEMES = tuple(BIT_RANGES)
ROUNDINGS = ("nearest", "stochastic")

DENSITY_FLOOR_RATIO = 1e-6  # of the peak height; keeps level spacing finite


class LevelSolverError(RuntimeError):
    """Optimal level placement failed to converge; carries the best residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class Density:
    """Histogram-backed weight density: linear interpolation of bin heights
    between bin centres (flat out to the support's ends), floored at a small
    fraction of the peak so spacing stays finite across empty regions. Where
    a segment crosses the floor strictly inside it, a node is inserted at the
    crossing, so p is exactly linear between nodes (the solver and the
    integrator rely on this). Bin masses are normalized to total 1."""

    edges: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.float64)
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if self.edges.ndim != 1 or self.masses.shape != (self.edges.size - 1,):
            raise ValueError("need bins+1 edges and bins masses")
        if (np.diff(self.edges) <= 0).any():
            raise ValueError("bin edges must be strictly increasing")
        if (self.masses < 0).any():
            raise ValueError("bin masses must be nonnegative")
        total = float(self.masses.sum())
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"bin masses must sum to 1, got {total}")
        widths = np.diff(self.edges)
        self._centers = (self.edges[:-1] + self.edges[1:]) / 2.0
        self._heights = self.masses / widths
        self.floor = DENSITY_FLOOR_RATIO * float(self._heights.max())
        if self.floor <= 0:
            raise ValueError("density has no mass")
        self._flatten()

    def _flatten(self):
        """The nodes, with the floor crossings inserted, and their heights."""
        f = self.floor
        xs = np.concatenate(([self.edges[0]], self._centers, [self.edges[-1]]))
        hs = np.concatenate(([self._heights[0]], self._heights, [self._heights[-1]]))
        a, b, ha, hb = xs[:-1], xs[1:], hs[:-1], hs[1:]
        j = np.flatnonzero((ha - f) * (hb - f) < 0)  # segments crossing the floor
        cross = a[j] + (f - ha[j]) * (b[j] - a[j]) / (hb[j] - ha[j])
        inside = (a[j] < cross) & (cross < b[j])
        self._nodes = np.insert(xs, j[inside] + 1, cross[inside])
        self._node_heights = np.insert(np.maximum(hs, f), j[inside] + 1, f)
        seg = np.diff(self._nodes) * (self._node_heights[:-1] + self._node_heights[1:]) / 2.0
        self._cum = np.concatenate(([0.0], np.cumsum(seg)))

    @classmethod
    def from_samples(cls, values: np.ndarray, bins: int = 256) -> "Density":
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            raise ValueError("cannot build a density from no samples")
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            raise ValueError("degenerate support: all samples equal")
        counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
        return cls(edges, counts / values.size)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    def pdf_array(self, w: np.ndarray) -> np.ndarray:
        """Density at each point of w; clamped outside the support."""
        return np.interp(w, self._nodes, self._node_heights)

    def breakpoints(self) -> np.ndarray:
        """Points where the density changes slope (floor clamps included)."""
        return self._nodes

    def mass_to(self, w) -> np.ndarray:
        """Exact integral of the (piecewise-linear) density from the support
        start to w; vectorized."""
        nodes = self._nodes
        heights = self._node_heights
        w = np.clip(np.asarray(w, dtype=np.float64), nodes[0], nodes[-1])
        j = np.clip(np.searchsorted(nodes, w, side="right") - 1, 0, nodes.size - 2)
        return self._cum[j] + (w - nodes[j]) * (heights[j] + self.pdf_array(w)) / 2.0


def uniform_density(lo: float, hi: float, bins: int = 16) -> Density:
    edges = np.linspace(lo, hi, bins + 1)
    return Density(edges, np.full(bins, 1.0 / bins))


# ---------------------------------------------------------------------------
# Level placement
# ---------------------------------------------------------------------------

def check_bits(scheme: str, bits: int):
    """Raises ValueError unless `scheme` is known and builds `bits`-bit tables."""
    if scheme not in BIT_RANGES:
        raise ValueError(f"unknown scheme {scheme!r}")
    lo, hi = BIT_RANGES[scheme]
    if not lo <= bits <= hi:
        raise ValueError(f"{scheme} takes bits >= {lo} and <= {hi}, got {bits}")


def uniform_levels(w_min: float, w_max: float, bits: int, scheme: str) -> np.ndarray:
    """Equally spaced level tables; see the module docstring for the two
    variants. An empty range (w_min == w_max) yields a one-level, 0-bit
    table."""
    check_bits(scheme, bits)
    if w_min > w_max:
        raise ValueError(f"w_min {w_min} > w_max {w_max}")
    if w_min == w_max:
        return np.array([w_min])
    if scheme == "uniform_affine":
        return np.linspace(w_min, w_max, 2 ** bits)
    if scheme == "uniform_scale":
        half = 2 ** (bits - 1)
        delta = max(abs(w_min), abs(w_max)) / (half - 1)
        return np.arange(-half, half, dtype=np.float64) * delta
    raise ValueError(f"unknown uniform scheme {scheme!r}")


def mass_balance(levels: np.ndarray, density: Density) -> np.ndarray:
    """Per interior level: mass of [left midpoint, level] minus mass of
    [level, right midpoint]. Zero everywhere exactly when the level set is a
    stationary point of the rounding-error integral."""
    levels = np.asarray(levels, dtype=np.float64)
    to_mid = density.mass_to((levels[:-1] + levels[1:]) / 2.0)
    to_level = density.mass_to(levels[1:-1])
    return (to_level - to_mid[:-1]) - (to_mid[1:] - to_level)


# Worst accepted half-mass imbalance, as a fraction of the mean region mass.
# The polish normally ends near machine precision, histograms included; the
# gate only catches a polish that stalled.
BALANCE_TOL_RATIO = 1e-4

# Cells in the dynamic-programming seed's grid (at least three per level).
SEED_GRID_CELLS = 768

# Most trial tables one polish evaluates. Converging polishes need a few
# hundred at most. On some small surviving sets two tables an ulp apart each
# keep a step to the other; the polish ends when that underflows the damping
# to 0.0, or, where rejected steps hold the damping up, at this cap.
POLISH_MAX_EVALS = 1000


def _sqrt_quantiles(density: Density, n_points: int) -> np.ndarray:
    """Points at equal quantiles of sqrt(density), the asymptotically optimal
    level density for absolute error; endpoints pinned to the support."""
    nodes = density._nodes
    heights = np.sqrt(density._node_heights)
    seg = np.diff(nodes) * (heights[:-1] + heights[1:]) / 2.0
    cdf = np.concatenate(([0.0], np.cumsum(seg)))
    cdf /= cdf[-1]
    points = np.interp(np.linspace(0.0, 1.0, n_points), cdf, nodes)
    lo, hi = density.support
    points[0], points[-1] = lo, hi
    # nudge any coincident points apart
    for i in range(1, points.size):
        if points[i] <= points[i - 1]:
            points[i] = points[i - 1] + 1e-9 * (hi - lo)
    return points


def _dp_seed(density: Density, n_levels: int) -> np.ndarray:
    """Globally optimal table over a fixed grid: a min-plus shortest path of
    n-1 gaps from the first grid point to the last (optimal 1-D quantization
    by dynamic programming; Wu 1991, Wang & Song 2011). Each grid cell's mass
    is lumped at its centre, and a gap costs the rounding error of the cells
    it spans, so the seed lies in the basin of the global optimum.

    The gap cost is Monge, so a level's best predecessor moves right as its
    grid point does (Aggarwal et al. 1987). Each level takes exact argmins
    over full rows at every isqrt(cells)-th point of its feasible band, and
    every other point searches only the window between its two neighbouring
    samples' argmins: O(cells^1.5) per level instead of O(cells^2), over one
    dense (cells+1)^2 cost matrix. A sample's row is scanned only over the
    columns where the previous level is reachable. Ties keep np.argmin's first
    index."""
    cells = max(SEED_GRID_CELLS, 3 * n_levels)
    grid = _sqrt_quantiles(density, cells + 1)
    centres = (grid[:-1] + grid[1:]) / 2.0
    mass = np.diff(density.mass_to(grid))
    cum_m = np.concatenate(([0.0], np.cumsum(mass)))
    cum_mc = np.concatenate(([0.0], np.cumsum(mass * centres)))
    # cost[j, i]: cells i..s-1 round down to grid[i], cells s..j-1 up to
    # grid[j]; row j holds every predecessor i of grid point j, and i >= j
    # costs inf. Built in blocks of `step` rows to keep the temporaries small;
    # a block's rows end before `end`, so only its columns i < end-1 can be
    # finite.
    step = math.isqrt(cells)
    cost = np.full((cells + 1, cells + 1), np.inf)
    for top in range(0, cells + 1, step):
        end = min(top + step, cells + 1)
        j = np.arange(top, end)[:, None]
        i = np.arange(end - 1)
        s = np.searchsorted(centres, (grid[i] + grid[j]) / 2.0, side="right")
        m_s, mc_s = cum_m.take(s), cum_mc.take(s)
        cost[top:end, :end - 1] = np.where(
            j > i, (mc_s - cum_mc[i]) - grid[i] * (m_s - cum_m[i])
            + grid[j] * (cum_m[j] - m_s) - (cum_mc[j] - mc_s), np.inf)
    reach = cost[:, 0].copy()  # least error reaching each grid point with one gap
    back = np.empty((n_levels - 2, cells + 1), dtype=np.intp)
    # Iteration k places level k+2 (level 0 is grid point 0). With n-3-k
    # levels still to follow, it lies in k+2 .. cells-(n-3-k), which the band
    # k+1 .. k+band covers. Samples sit at every step-th offset of the band
    # and at its end; every other point lies between two samples.
    band = cells - n_levels + 3
    picks = np.unique(np.r_[0:band:step, band - 1])
    rest = np.setdiff1d(np.arange(band), picks, assume_unique=True)
    gap = np.searchsorted(picks, rest)
    rows = np.arange(picks.size)
    flat_cost = cost.ravel()
    for k in range(n_levels - 2):
        p, r = picks + k + 1, rest + k + 1
        # a sample row's total can be finite only on columns k+1 .. k+band-1
        # (reach is inf below them, the row's cost from the row's own point
        # on), so rows scan only there; a row with no finite entry keeps
        # argmin 0, as a full scan gives
        total = cost[p, k + 1:k + band] + reach[k + 1:k + band]
        arg = np.argmin(total, axis=1)
        found = total[rows, arg]
        arg += k + 1
        back[k, p] = np.where(found < np.inf, arg, 0)
        nxt = np.full(cells + 1, np.inf)
        nxt[p] = found
        # first argmin between the two samples' argmins, taken in either
        # order: under ties the first-index argmin need not be monotone
        left = np.minimum(arg[gap - 1], arg[gap])
        width = np.maximum(arg[gap - 1], arg[gap]) - left + 1
        starts = np.cumsum(width) - width
        pred = np.arange(starts[-1] + width[-1]) - np.repeat(starts - left, width)
        vals = flat_cost.take(np.repeat(r * (cells + 1), width) + pred) + reach.take(pred)
        best = np.minimum.reduceat(vals, starts)
        hit = np.where(vals == np.repeat(best, width), pred, cells + 1)
        back[k, r] = np.minimum.reduceat(hit, starts)
        nxt[r] = best
        reach = nxt
    path = [cells]
    for k in range(n_levels - 3, -1, -1):
        path.append(back[k, path[-1]])
    return grid[[0] + path[::-1]]


def _thomas(off: np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system with diagonal diag and
    off-diagonal off by one forward and one backward sweep."""
    off = [0.0] + off.tolist() + [0.0]  # row k holds off[k], diag[k], off[k+1]
    c, d = [], []
    c_prev = d_prev = 0.0
    for k, (b, r) in enumerate(zip(diag.tolist(), rhs.tolist())):
        pivot = b - off[k] * c_prev
        c_prev = off[k + 1] / pivot
        d_prev = (r - off[k] * d_prev) / pivot
        c.append(c_prev)
        d.append(d_prev)
    for k in range(len(d) - 2, -1, -1):
        d[k] -= c[k] * d[k + 1]
    return np.array(d)


def _polish(levels: np.ndarray, density: Density) -> tuple[np.ndarray, float]:
    """Levenberg-Marquardt-damped Newton on mass_balance, which is the
    gradient of the error integral; its tridiagonal Jacobian is the Hessian,
    indefinite near density valleys, hence the damping. A step is kept when
    it lowers the error, or holds it within 1e-13 relative while shrinking
    max|F| (near the optimum the error is flat to rounding and only the
    residual still resolves the last digits). Returns the table and its
    max|F|.

    Every increasing trial table counts toward POLISH_MAX_EVALS, but only
    what can change the outcome is evaluated: a trial bytewise equal to the
    current table (the damped step underflowed) is rejected unevaluated, and
    mass_balance runs only when the error lies within the 1e-13 band."""
    x = levels.copy()
    F = mass_balance(x, density)
    res = float(np.abs(F).max())
    err = quantization_error(x, density)
    damping, evals = 1e-3, 0
    while res > 1e-16 and 0.0 < damping <= 1e6 and evals < POLISH_MAX_EVALS:
        p_mid = density.pdf_array((x[:-1] + x[1:]) / 2.0)
        diag = 2.0 * density.pdf_array(x[1:-1]) - (p_mid[:-1] + p_mid[1:]) / 2.0
        off = -p_mid[1:-1] / 2.0
        scale = float(np.abs(diag).max())
        while damping <= 1e6 and evals < POLISH_MAX_EVALS:
            trial = x.copy()
            try:
                trial[1:-1] += _thomas(off, diag + damping * scale, -F)
            except ZeroDivisionError:  # singular damped Jacobian: damp harder
                trial[1:-1] = np.nan
            if (np.diff(trial) > 0).all():
                evals += 1
                if trial.tobytes() != x.tobytes():
                    t_err = quantization_error(trial, density)
                    if t_err <= err * (1.0 + 1e-13):
                        t_F = mass_balance(trial, density)
                        t_res = float(np.abs(t_F).max())
                        if t_err < err or t_res < res:
                            x, F, res, err = trial, t_F, t_res, t_err
                            damping /= 10.0
                            break
            damping *= 10.0
    return x, res


def solve_levels(density: Density, n_levels: int) -> np.ndarray:
    """n strictly increasing levels from w_min to w_max minimizing the
    expected absolute rounding error: at every interior level the adjacent
    half-region masses balance. A grid dynamic program picks the basin of the
    global optimum and a damped Newton polish settles the balance; a table
    whose residual misses BALANCE_TOL_RATIO raises LevelSolverError."""
    if n_levels < 2:
        raise ValueError("need at least 2 levels")
    lo, hi = density.support
    if n_levels == 2:
        return np.array([lo, hi])
    levels, res = _polish(_dp_seed(density, n_levels), density)
    gate = BALANCE_TOL_RATIO / (n_levels - 1)
    if not res <= gate:
        raise LevelSolverError(
            f"half-mass balance did not converge (residual {res:.3e}, "
            f"tolerance {gate:.3e})", residual=res,
        )
    return levels


def optimal_levels(density: Density, bits: int) -> np.ndarray:
    """Error-minimizing table of 2^bits levels (endpoints pinned to the
    support)."""
    check_bits("optimal_density", bits)
    return solve_levels(density, 2 ** bits)


def placement_residual(levels: np.ndarray, density: Density):
    """Max difference between consecutive gap * density(gap midpoint)
    products, plus their mean. This is the first-order spacing heuristic
    (spacing inversely proportional to density); the exact optimality residual
    is mass_balance."""
    levels = np.asarray(levels, dtype=np.float64)
    gaps = np.diff(levels)
    mids = (levels[:-1] + levels[1:]) / 2.0
    prods = gaps * density.pdf_array(mids)
    c = float(prods.mean())
    if prods.size < 2:
        return 0.0, c
    return float(np.abs(np.diff(prods)).max()), c


# ---------------------------------------------------------------------------
# Error functional
# ---------------------------------------------------------------------------

def quantization_error(levels: np.ndarray, density: Density) -> float:
    """Expected |w - nearest level| under the density, integrated over the
    support. Piecewise-Simpson on a grid refined at every density breakpoint,
    level, and rounding boundary (12 subintervals each), which is exact for
    the piecewise-quadratic integrand."""
    levels = np.asarray(levels, dtype=np.float64)
    if levels.size < 2:
        raise ValueError("need at least 2 levels")
    if (np.diff(levels) <= 0).any():
        raise ValueError("levels must be strictly increasing")
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
    f_pts = f(pts)  # each panel end once; f is elementwise, so slices keep its bits
    seg = (right - left) / 6.0 * (f_pts[:, :-1] + 4.0 * f(mid) + f_pts[:, 1:])
    return float(seg.sum())


# ---------------------------------------------------------------------------
# Quantize / dequantize
# ---------------------------------------------------------------------------

@dataclass
class QuantizationSpec:
    scheme: str
    bits: int
    rounding: str
    levels: np.ndarray
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.rounding not in ROUNDINGS:
            raise ValueError(f"unknown rounding {self.rounding!r}")
        self.levels = np.asarray(self.levels, dtype=np.float64)
        if self.levels.ndim != 1 or self.levels.size < 1:
            raise ValueError("levels must be a nonempty 1-D array")
        if not np.isfinite(self.levels).all():
            raise ValueError("levels must be finite")
        if (np.diff(self.levels) <= 0).any():
            raise ValueError("levels must be strictly increasing")
        if self.levels.size != 2 ** self.bits:
            raise ValueError(
                f"{self.scheme} expects {2 ** self.bits} levels, "
                f"got {self.levels.size}"
            )


def build_spec(values: np.ndarray, scheme: str, bits: int,
               rounding: str = "nearest", seed: int = 0) -> QuantizationSpec:
    """Level table for a set of surviving weights: 2^bits levels, or one level
    (0 bits) when they are all equal, [0.0] when there are none."""
    check_bits(scheme, bits)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    w_min, w_max = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    if w_min == w_max:
        return QuantizationSpec(scheme, 0, rounding, np.array([w_min]), seed)
    if scheme == "optimal_density":
        levels = optimal_levels(Density.from_samples(values), bits)
    else:
        levels = uniform_levels(w_min, w_max, bits, scheme)
    return QuantizationSpec(scheme, bits, rounding, levels, seed)


def quantize(weights: np.ndarray, mask_bits: Optional[np.ndarray],
             spec: QuantizationSpec) -> np.ndarray:
    """Codes for the surviving weights, in flat-index order. Masked positions
    produce no code (their zeros live in the mask), so a fully masked layer
    gives none."""
    flat = np.asarray(weights, dtype=np.float64).reshape(-1)
    if mask_bits is not None:
        flat = flat[~np.asarray(mask_bits, dtype=bool)]
    levels = spec.levels
    if levels.size == 1:
        return np.zeros(flat.size, dtype=np.uint32)
    if spec.rounding == "nearest":
        mids = (levels[:-1] + levels[1:]) / 2.0
        codes = np.searchsorted(mids, flat, side="left")
    else:
        w = np.clip(flat, levels[0], levels[-1])
        hi = np.searchsorted(levels, w, side="left")
        hi = np.maximum(hi, 1)
        low = levels[hi - 1]
        high = levels[hi]
        p_up = (w - low) / (high - low)
        rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed), 0xD1CE]))
        codes = hi - 1 + (rng.random(w.size) < p_up)
    return codes.astype(np.uint32)


def dequantize(codes: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= spec.levels.size):
        raise ValueError(
            f"code out of range for a {spec.levels.size}-entry level table"
        )
    return spec.levels[codes]


# ---------------------------------------------------------------------------
# Whole-network quantization
# ---------------------------------------------------------------------------

@dataclass
class LayerQuantization:
    layer: int
    spec: QuantizationSpec
    codes: np.ndarray


@dataclass
class QuantizedModel:
    network: Network
    mask: SparsityMask
    layers: list[LayerQuantization]


def quantize_network(student: Network, mask: SparsityMask,
                     scheme: str = "uniform_affine", bits: int = 8,
                     rounding: str = "nearest", seed: int = 0,
                     per_layer: Optional[dict] = None,
                     dataset=None, teacher_outputs: Optional[np.ndarray] = None,
                     probe=None, div_spec: Optional[DivergenceSpec] = None):
    """Quantize every parameter layer with its own level table; returns the
    dequantized model plus a report of the accuracy/divergence deltas."""
    mask.check_compatible(student)
    per_layer = per_layer or {}
    quants: list[LayerQuantization] = []
    layers = list(student.layers)
    for i in student.param_layer_indices():
        overrides = per_layer.get(i, {})
        l_scheme = overrides.get("scheme", scheme)
        l_bits = int(overrides.get("bits", bits))
        l_rounding = overrides.get("rounding", rounding)
        flat, mask_bits = student.layers[i].flat_params(), mask.layer_bits(i)
        layer_seed = int(np.random.SeedSequence([int(seed), i]).generate_state(1)[0])
        try:
            spec = build_spec(flat[~mask_bits], l_scheme, l_bits, l_rounding, layer_seed)
        except ValueError as e:
            raise ValueError(f"layer {i}: {e}") from e
        codes = quantize(flat, mask_bits, spec)
        restored = np.zeros_like(flat)
        restored[~mask_bits] = dequantize(codes, spec)
        layers[i] = student.layers[i].with_flat_params(restored)
        quants.append(LayerQuantization(i, spec, codes))
    qnet = Network(layers, student.input_shape)
    model = QuantizedModel(qnet, mask, quants)

    report = {}
    if dataset is not None:
        report["accuracy_before"] = nn.accuracy(student, dataset)
        report["accuracy_after"] = nn.accuracy(qnet, dataset)
        report["accuracy_delta"] = report["accuracy_after"] - report["accuracy_before"]
    if teacher_outputs is not None and probe is not None:
        if div_spec is None:
            div_spec = DivergenceSpec.whole_output(teacher_outputs.shape[1])
        report["divergence_before"] = divergence(
            nn.forward(student, probe.inputs), teacher_outputs, div_spec)
        report["divergence_after"] = divergence(
            nn.forward(qnet, probe.inputs), teacher_outputs, div_spec)
    return model, report
