import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from devolve import nn, quantize as q, sparsity
from devolve.quantize import (Density, QuantizationSpec, build_spec,
                              dequantize, mass_balance, optimal_levels,
                              quantization_error, quantize, quantize_network,
                              solve_levels, uniform_density, uniform_levels)

from helpers import bimodal_density, sampled_density, tent_density
from oracles import (ExactDensityIntegrals, brute_force_three_levels,
                     brute_force_two_bit, density_nodes_loop, grid_dp_error)


class TestUniformLevels:
    def test_affine_two_bit(self):
        np.testing.assert_allclose(uniform_levels(-1, 1, 2, "uniform_affine"),
                                   [-1, -1 / 3, 1 / 3, 1], atol=1e-15)

    def test_affine_endpoints_exact(self):
        lv = uniform_levels(-0.73, 2.11, 5, "uniform_affine")
        assert lv[0] == -0.73 and lv[-1] == 2.11 and lv.size == 32

    def test_affine_one_bit(self):
        np.testing.assert_array_equal(uniform_levels(-3, 7, 1, "uniform_affine"),
                                      [-3, 7])

    def test_scale_two_bit(self):
        # delta = max(|w_min|,|w_max|)/(2^(b-1)-1) = 1; codes -2..1
        np.testing.assert_allclose(uniform_levels(-1, 1, 2, "uniform_scale"),
                                   [-2, -1, 0, 1], atol=1e-15)

    def test_scale_zero_exact(self):
        lv = uniform_levels(-0.9, 0.37, 4, "uniform_scale")
        assert 0.0 in lv
        assert lv.size == 16

    def test_scale_one_bit_rejected(self):
        with pytest.raises(ValueError, match="bits >= 2"):
            uniform_levels(-1, 1, 1, "uniform_scale")

    def test_degenerate_range(self):
        np.testing.assert_array_equal(uniform_levels(0.5, 0.5, 3,
                                                     "uniform_affine"), [0.5])


@pytest.mark.parametrize("scheme,bits", [
    (scheme, bits) for scheme, (lo, hi) in q.BIT_RANGES.items() for bits in (lo - 1, hi + 1)])
def test_width_outside_bit_range_is_refused_before_any_work(monkeypatch, scheme, bits):
    solves = []
    monkeypatch.setattr(q, "solve_levels", lambda *a: solves.append(a))
    refused = pytest.raises(ValueError, match=f"{scheme} takes bits >= ")
    # survivors spread, constant and none: every table's width is checked
    for values in (np.linspace(-1.0, 1.0, 50), np.full(5, 2.0), np.zeros(0)):
        with refused:
            build_spec(values, scheme, bits)
    with refused:
        if scheme == "optimal_density":
            optimal_levels(sampled_density(0), bits)
        else:
            uniform_levels(-1.0, 1.0, bits, scheme)
    assert solves == []


class TestDensity:
    def test_masses_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Density(np.array([0.0, 1.0]), np.array([0.5]))

    def test_floor_applies(self):
        edges = np.linspace(0, 1, 5)
        masses = np.array([0.5, 0.0, 0.0, 0.5])
        d = Density(edges, masses)
        np.testing.assert_allclose(d.pdf_array(np.array([0.5])), [d.floor])

    def test_from_samples_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            Density.from_samples(np.full(10, 3.3))

    def test_nodes_match_segment_loop_bitwise(self):
        # non-uniform bins, empty bins, runs of adjacent empty bins, and bins
        # within a few ulps of the floor on either side of it
        crossings = 0
        for seed in range(400):
            rng = np.random.default_rng(seed)
            bins = int(rng.integers(2, 90))
            widths = rng.uniform(0.01, 1.0, bins)
            edges = rng.normal() + np.concatenate(([0.0], np.cumsum(widths)))
            heights = rng.exponential(size=bins)
            heights[rng.random(bins) < 0.3] = 0.0
            start = int(rng.integers(bins))
            heights[start:start + int(rng.integers(1, 8))] = 0.0
            heights[int(rng.integers(bins))] = 1.0 + rng.exponential()
            near = rng.random(bins) < 0.25
            floor = q.DENSITY_FLOOR_RATIO * heights.max()
            heights[near] = floor * (1.0 + rng.integers(-4, 5, near.sum()) * 2.0 ** -52)
            masses = heights * np.diff(edges)
            samples = rng.normal(size=int(rng.integers(2, 400))) ** 3
            for d in (Density(edges, masses / masses.sum()),
                      Density.from_samples(samples, bins=bins)):
                nodes, vals = density_nodes_loop(d)
                assert d.breakpoints().tobytes() == nodes.tobytes()
                assert d._node_heights.tobytes() == vals.tobytes()
                crossings += nodes.size - bins - 2
        assert crossings > 1000

    def test_mass_functions_consistent(self):
        d = tent_density()
        assert d.mass_to(1.0) == pytest.approx(1.0, abs=1e-9)
        # the tent is symmetric about 0.5
        xs = np.array([0.1, 0.3, 0.47, 0.5])
        np.testing.assert_allclose(d.mass_to(xs) + d.mass_to(1.0 - xs), 1.0, atol=1e-12)


class TestOptimalLevels:
    def test_uniform_density_uniform_levels(self):
        d = uniform_density(-1.0, 1.0, bins=16)
        for bits in (1, 2, 3, 4, 8):
            lv = optimal_levels(d, bits)
            np.testing.assert_allclose(lv, np.linspace(-1, 1, 2 ** bits),
                                       atol=1e-9)

    def test_one_bit_endpoints(self):
        for d in (tent_density(), bimodal_density()):
            lo, hi = d.support
            np.testing.assert_array_equal(optimal_levels(d, 1), [lo, hi])

    def test_tent_matches_brute_force(self):
        d = tent_density()
        lv = optimal_levels(d, 2)
        (l1, l2), _ = brute_force_two_bit(d)
        assert abs(lv[1] - l1) <= 2e-3
        assert abs(lv[2] - l2) <= 2e-3

    def test_bimodal_matches_brute_force(self):
        d = bimodal_density(depth=0.02)
        lv = optimal_levels(d, 2)
        (l1, l2), _ = brute_force_two_bit(d)
        assert abs(lv[1] - l1) <= 2e-3
        assert abs(lv[2] - l2) <= 2e-3

    def test_three_levels_matches_brute_force(self):
        for d in (tent_density(), bimodal_density(depth=0.15)):
            lv = solve_levels(d, 3)
            l, _ = brute_force_three_levels(d)
            assert abs(lv[1] - l) <= 2e-3

    def test_beats_uniform_affine(self):
        for d in (tent_density(), bimodal_density(0.02), bimodal_density(0.15),
                  sampled_density(0)):
            lo, hi = d.support
            for bits in (2, 3, 4):
                e_opt = quantization_error(optimal_levels(d, bits), d)
                e_uni = quantization_error(
                    uniform_levels(lo, hi, bits, "uniform_affine"), d)
                assert e_opt < e_uni, (d, bits)

    def test_balance_residual_tiny(self):
        for d in (tent_density(), bimodal_density(0.02), sampled_density(1)):
            for bits in (2, 3, 4):
                lv = optimal_levels(d, bits)
                assert np.abs(mass_balance(lv, d)).max() <= 1e-4 / (2 ** bits - 1)

    def test_strictly_increasing(self):
        for bits in (2, 4, 8):
            lv = optimal_levels(sampled_density(2), bits)
            assert (np.diff(lv) > 0).all()

    @pytest.mark.slow
    def test_eight_bit_not_above_grid_dp_reference(self):
        for seed in range(5):
            d = sampled_density(seed)
            err = quantization_error(optimal_levels(d, 8), d)
            ref = grid_dp_error(d, 256)
            assert err <= ref, (seed, err, ref)

    def test_repeated_solve_bit_identical(self):
        d = sampled_density(4)
        np.testing.assert_array_equal(optimal_levels(d, 8), optimal_levels(d, 8))

    # (bits, n, seed) whose polish cycled between two tables an ulp apart
    @pytest.mark.parametrize("bits,n,seed", [
        (2, 3, 2), (2, 3, 7), (3, 3, 0), (3, 3, 6), (3, 5, 2), (3, 5, 4),
        (3, 5, 9), (4, 3, 7), (4, 14, 1), (4, 14, 5)])
    def test_polish_terminates_on_small_surviving_sets(self, monkeypatch, bits, n, seed):
        calls = []

        def counted(levels, density):
            calls.append(1)
            if len(calls) > 2000:
                raise RuntimeError("the polish did not terminate")
            return mass_balance(levels, density)
        monkeypatch.setattr("devolve.quantize.mass_balance", counted)
        values = np.random.default_rng([seed, n]).normal(size=n)
        spec = build_spec(values, "optimal_density", bits)  # raises past the gate
        assert spec.levels.size == 2 ** bits and (np.diff(spec.levels) > 0).all()


def dense_dp_seed(density, n_levels):
    """The grid DP seed by a full scan of the (cells+1)^2 cost matrix at every
    level: the reference for the solver's monotone argmin search."""
    cells = max(q.SEED_GRID_CELLS, 3 * n_levels)
    grid = q._sqrt_quantiles(density, cells + 1)
    centres = (grid[:-1] + grid[1:]) / 2.0
    mass = np.diff(density.mass_to(grid))
    cum_m = np.concatenate(([0.0], np.cumsum(mass)))
    cum_mc = np.concatenate(([0.0], np.cumsum(mass * centres)))
    cols = np.arange(cells + 1)
    i, j = cols[:, None], cols[None, :]
    s = np.searchsorted(centres, (grid[i] + grid[j]) / 2.0, side="right")
    cost = ((cum_mc[s] - cum_mc[i]) - grid[i] * (cum_m[s] - cum_m[i])
            + grid[j] * (cum_m[j] - cum_m[s]) - (cum_mc[j] - cum_mc[s]))
    cost[j <= i] = np.inf
    reach = cost[0]
    back = np.empty((n_levels - 2, cells + 1), dtype=np.intp)
    for k in range(n_levels - 2):
        total = reach[:, None] + cost
        back[k] = np.argmin(total, axis=0)
        reach = total[back[k], cols]
    path = [cells]
    for k in range(n_levels - 3, -1, -1):
        path.append(back[k, path[-1]])
    return grid[[0] + path[::-1]]


SEED_DENSITIES = {"tent": tent_density, "bimodal": bimodal_density,
                  "bimodal_deep": lambda: bimodal_density(0.005),
                  **{f"sampled_{s}": (lambda s=s: sampled_density(s)) for s in range(5)}}


class TestSeedSearch:
    """The monotone search must return the dense DP's seed bit for bit; the
    first-index argmin is not monotone under ties, so this pins it."""

    @pytest.mark.parametrize("name", sorted(SEED_DENSITIES))
    def test_equals_dense_dp_two_to_eight_bits(self, name):
        d = SEED_DENSITIES[name]()
        for bits in range(2, 9):
            np.testing.assert_array_equal(q._dp_seed(d, 2 ** bits),
                                          dense_dp_seed(d, 2 ** bits), err_msg=str(bits))

    @pytest.mark.slow
    def test_equals_dense_dp_nine_bits(self):
        d = sampled_density(0)
        np.testing.assert_array_equal(q._dp_seed(d, 512), dense_dp_seed(d, 512))


class TestQuantizationError:
    def test_two_levels_uniform_quarter(self):
        d = uniform_density(0.0, 1.0, bins=8)
        assert quantization_error(np.array([0.0, 1.0]), d) == pytest.approx(0.25)

    def test_closed_form_n_levels(self):
        d = uniform_density(0.0, 1.0, bins=8)
        for n in (3, 5, 9, 17):
            e = quantization_error(np.linspace(0, 1, n), d)
            assert e == pytest.approx(1.0 / (4.0 * (n - 1)), abs=1e-12)

    def test_doubling_levels_roughly_halves(self):
        d = uniform_density(0.0, 1.0, bins=8)
        e1 = quantization_error(np.linspace(0, 1, 8), d)
        e2 = quantization_error(np.linspace(0, 1, 16), d)
        # exact ratio is (n-1)/(2n-1) = 7/15 for level counts 8 -> 16
        assert e2 / e1 == pytest.approx(7.0 / 15.0, abs=1e-9)

    def test_dense_levels_near_zero_error(self):
        d = tent_density()
        e = quantization_error(np.linspace(0, 1, 4097), d)
        assert e < 1e-4

    def test_matches_exact_oracle_integrals(self, rng):
        d = sampled_density(3)
        lo, hi = d.support
        ex = ExactDensityIntegrals(d)
        for _ in range(10):
            interiors = np.sort(rng.uniform(lo, hi, size=6))
            levels = np.concatenate(([lo], interiors, [hi]))
            assert quantization_error(levels, d) == pytest.approx(
                ex.total_error(levels), rel=1e-10)


class TestQuantize:
    def _spec(self, levels, rounding="nearest", seed=0):
        bits = max(1, math.ceil(math.log2(len(levels))))
        return QuantizationSpec("uniform_affine", bits, rounding,
                                np.asarray(levels, dtype=np.float64), seed)

    def test_exact_level_maps_to_itself(self):
        spec = self._spec([0.0, 0.5, 1.0, 1.5])
        for rounding in ("nearest", "stochastic"):
            s = self._spec([0.0, 0.5, 1.0, 1.5], rounding)
            codes = quantize(np.array([0.5]), None, s)
            assert dequantize(codes, s)[0] == 0.5

    def test_nearest_tie_to_lower(self):
        spec = self._spec([0.0, 1.0])
        assert quantize(np.array([0.5]), None, spec)[0] == 0

    def test_nearest_clips(self):
        spec = self._spec([0.0, 1.0])
        codes = quantize(np.array([-5.0, 7.0]), None, spec)
        np.testing.assert_array_equal(codes, [0, 1])

    def test_stochastic_midpoint_half(self):
        spec = self._spec([0.5, 1.0], rounding="stochastic", seed=42)
        n = 20000
        codes = quantize(np.full(n, 0.75), None, spec)
        up = codes.mean()
        assert abs(up - 0.5) < 3.0 * 0.5 / math.sqrt(n)

    def test_stochastic_unbiased(self):
        w = 0.7
        spec = self._spec([0.5, 1.0], rounding="stochastic", seed=7)
        n = 100_000
        vals = dequantize(quantize(np.full(n, w), None, spec), spec)
        sigma = math.sqrt(0.4 * 0.6) * 0.5  # Bernoulli(0.4) scaled by gap
        assert abs(vals.mean() - w) <= 3.0 * sigma / math.sqrt(n)

    def test_mask_removes_positions(self):
        spec = self._spec([0.0, 1.0])
        codes = quantize(np.array([0.0, 1.0, 1.0]), np.array([False, True, False]),
                         spec)
        assert codes.size == 2

    def test_empty_survivors(self):
        spec = self._spec([0.0, 1.0])
        codes = quantize(np.array([1.0]), np.array([True]), spec)
        assert codes.dtype == np.uint32 and codes.size == 0

    def test_dequantize_range_check(self):
        spec = self._spec([0.0, 1.0])
        with pytest.raises(ValueError, match="range"):
            dequantize(np.array([2]), spec)

    def test_nearest_error_bounded_by_half_gap(self, rng):
        values = rng.uniform(-2, 2, size=500)
        spec = build_spec(values, "uniform_affine", 4)
        codes = quantize(values, None, spec)
        restored = dequantize(codes, spec)
        gaps = np.diff(spec.levels)
        assert np.abs(values - restored).max() <= gaps.max() / 2 + 1e-12

    @given(st.integers(0, 1000))
    def test_roundtrip_codes_exact(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=50)
        spec = build_spec(values, "uniform_affine", 3)
        codes = quantize(values, None, spec)
        again = quantize(dequantize(codes, spec), None, spec)
        np.testing.assert_array_equal(codes, again)


class TestBuildSpec:
    def test_degenerate_flag(self):
        spec = build_spec(np.full(5, 2.0), "uniform_affine", 4)
        assert spec.levels.size == 1 and spec.bits == 0

    def test_affine_levels_pin_min_max(self, rng):
        values = rng.normal(size=100)
        spec = build_spec(values, "uniform_affine", 5)
        assert spec.levels[0] == values.min()
        assert spec.levels[-1] == values.max()

    def test_optimal_scheme(self, rng):
        values = rng.normal(size=5000)
        spec = build_spec(values, "optimal_density", 4)
        assert spec.levels.size == 16
        assert (np.diff(spec.levels) > 0).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            QuantizationSpec("uniform_affine", 1, "nearest",
                             np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="expects"):
            QuantizationSpec("uniform_affine", 2, "nearest",
                             np.array([0.0, 1.0]))


class TestQuantizeNetwork:
    def _sparse_student(self, seed=0, fraction=0.5):
        net = nn.build_network({"input_shape": [6], "layers": [
            {"kind": "dense", "units": 8},
            {"kind": "relu"},
            {"kind": "dense", "units": 3},
            {"kind": "softmax"},
        ]}, seed)
        mask = sparsity.random_mask(net, fraction, seed=seed + 1,
                                    include_biases=False)
        return sparsity.apply_mask(net, mask), mask

    @pytest.mark.parametrize("scheme", ["uniform_affine", "optimal_density"])
    def test_unbuildable_table_names_its_layer(self, scheme):
        # two adjacent doubles: 256 levels cannot be strictly increasing between them
        net = nn.Network([nn.Dense(np.array([[1.0, np.nextafter(1.0, 2.0)]]),
                                   np.zeros(2))], (1,))
        mask = sparsity.SparsityMask.empty(net)
        mask.bits[0][2:] = True  # biases pruned
        with pytest.raises(ValueError, match="^layer 0: "):
            quantize_network(net, mask, scheme=scheme, bits=8)

    def test_per_layer_lut_count(self):
        student, mask = self._sparse_student()
        model, _ = quantize_network(student, mask, bits=4)
        assert len(model.layers) == 2  # one LUT per parameter layer

    def test_masked_zeros_survive(self):
        student, mask = self._sparse_student()
        model, _ = quantize_network(student, mask, bits=3)
        for i in mask.bits:
            flat = np.concatenate([t.reshape(-1) for t in
                                   model.network.layers[i].param_tensors()])
            assert (flat[mask.layer_bits(i)] == 0.0).all()

    def test_stochastic_deterministic_per_seed(self):
        student, mask = self._sparse_student()
        m1, _ = quantize_network(student, mask, bits=4, rounding="stochastic",
                                 seed=3)
        m2, _ = quantize_network(student, mask, bits=4, rounding="stochastic",
                                 seed=3)
        for a, b in zip(m1.layers, m2.layers):
            np.testing.assert_array_equal(a.codes, b.codes)

    def test_per_layer_overrides(self):
        student, mask = self._sparse_student()
        model, _ = quantize_network(student, mask, bits=3,
                                    per_layer={0: {"bits": 2}})
        assert model.layers[0].spec.bits == 2
        assert model.layers[1].spec.bits == 3


@pytest.mark.slow
def test_ninety_percent_sparse_four_bit_optimal_delta():
    # evolve a small dense classifier to 90% sparsity with retraining, then
    # density-optimal 4-bit tables must cost at most 2% absolute accuracy
    from devolve import datasets, evolution

    ds = datasets.synthetic_dataset("blobs", 1536, 10, seed=3, feature_dim=64,
                                    separation=10.0)
    net = nn.build_network({"input_shape": [64], "layers": [
        {"kind": "dense", "units": 32},
        {"kind": "leaky_relu", "slope": 0.1},
        {"kind": "dense", "units": 10},
        {"kind": "softmax"}]}, 2)
    rng = np.random.default_rng(4)
    for _ in range(12):
        order = rng.permutation(ds.size)
        for lo in range(0, ds.size, 64):
            idx = order[lo:lo + 64]
            batch = nn.Batch(ds.inputs[idx], ds.labels[idx])
            net = nn.sgd_step(net, nn.backward(net, batch, "cross_entropy"), 0.3)
    probe = datasets.subset(ds, 512, seed=6)
    cfg = evolution.EvolutionConfig(trials_per_cycle=40, step_fraction=0.05,
                                    target_sparsity=0.9, retrain_epochs=20,
                                    retrain_lr=1.0, master_seed=15, scope=[0])
    res = evolution.run(net, probe, cfg)
    model, report = quantize_network(res.student, res.mask,
                                     scheme="optimal_density", bits=4,
                                     rounding="nearest", seed=9, dataset=ds)
    assert abs(report["accuracy_delta"]) <= 0.02
