import hashlib
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
                     brute_force_two_bit, density_nodes_loop, grid_dp_error,
                     simpson_error)


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


# densities whose costs tie often: few distinct values, most bins empty
TIED_DENSITIES = {
    "half_integers": lambda rng: rng.integers(-5, 5, 2000) / 2.0,
    "zeros_and_outliers": lambda rng: np.r_[np.zeros(1000), rng.normal(size=3)],
    "cubed_exponentials": lambda rng: rng.exponential(size=2000) ** 3,
}


class TestSeedSearch:
    """The monotone search must return the dense DP's seed bit for bit; the
    first-index argmin is not monotone under ties, so this pins it."""

    @pytest.mark.parametrize("name", sorted(SEED_DENSITIES))
    def test_equals_dense_dp_two_to_eight_bits(self, name):
        d = SEED_DENSITIES[name]()
        for bits in range(2, 9):
            np.testing.assert_array_equal(q._dp_seed(d, 2 ** bits),
                                          dense_dp_seed(d, 2 ** bits), err_msg=str(bits))

    @pytest.mark.parametrize("name", [
        "cubed_exponentials", "half_integers",
        # A known fault, kept visible: totals that tie to within 1-3 ulps break
        # the Monge bound by rounding, so some rows' first argmin lies outside
        # their window. On this draw that changes the 7- and 8-bit seeds.
        pytest.param("zeros_and_outliers", marks=pytest.mark.xfail(
            strict=True, reason="rounding-level near-ties escape the windows"))])
    def test_equals_dense_dp_on_tied_costs(self, name):
        d = Density.from_samples(TIED_DENSITIES[name](np.random.default_rng(11)))
        for bits in (7, 8):
            np.testing.assert_array_equal(q._dp_seed(d, 2 ** bits),
                                          dense_dp_seed(d, 2 ** bits), err_msg=str(bits))

    @pytest.mark.slow
    def test_equals_dense_dp_nine_bits(self):
        d = sampled_density(0)
        np.testing.assert_array_equal(q._dp_seed(d, 512), dense_dp_seed(d, 512))


# sha256 of optimal_levels(d, bits).tobytes() for bits 1..8: the solver's
# speedups keep every table's bits
SEED_TABLE_SHA256 = {
    "bimodal": (
        "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5",
        "656b05942d6637dab35a8c8babc94475ac108e58fba0ccb64ff18c7067ac11d2",
        "b22d86d60a0d5708b77a724a317dd40e2a8b06085fb804c8db43b1271b955c20",
        "2615053cb245d4fa91d22eedcc4f7cf6f5456c81bd73f9535e6456de99b8b210",
        "614fa892c086622f1af9f2e9dfd897ee2b7e15a080092c87b23f9d94edf1c890",
        "9fd22a3be8f5a2fec076299ca9b806c99ecb67901f0ab89615bedb6bc64ee285",
        "e3ecf3c054c383c3478774072fca169a8d1768bc9d7812ff15747a88972f6290",
        "d952285fcbbd56714e228e909371abd692ac3adce945e51ef69e5ac3fc19cdcd",
    ),
    "bimodal_deep": (
        "723f1c3eac1d2c306857db9f4466b219af88d13fb056836892154fcd058c55d5",
        "d379641f8c7e2e359594dca924c77323fc0e99ae7a75d24549bd862959c336f7",
        "bc32869c548017cee8823ced6d7bbdfcba985eeb31ea2ea95d90e46759026fb2",
        "9fc84e1a3c874f019f8f4852ff616ed6e5377d9bc1043e286e174de884d2589b",
        "81633963808a04178af955f8b8bd6b545eedda9331e2ea8bf19f949082110f5b",
        "593a10b3f905196288f9380fb81c6d4a303947f6962b22bcafb3e127faa47b76",
        "d75b3251d288c64c4ea55f58ac52f592171bb4839be3a97c24e2e554dd553a3c",
        "4370503635fec2f8a8a92b9c7132ff66e23aa40f0749f854137448ea74ec74d6",
    ),
    "sampled_0": (
        "1d7d81a67288fff65a3f7ba6108f2180bf04667535052965cfb575e2ff071504",
        "882cce40208a3948c2d7cb05150371ed9abd7d29650cccd3c2afbf8fb8269da9",
        "03e5091cd73760dd98a8ba52875847f081132ffc4362724e22eb0527ff896920",
        "2ba297d11981618b082e52af92f34a5ca71fcfbb0669f09d32b0cbfcbd3dcf6a",
        "a9609ea28f64287da34b9db3fa142c863e41d604b34e5bcf59f134e51605206c",
        "5030ccff655acaed9135f2a9d965d7124fa79ec1252fcf47e762d55319b9ffd7",
        "8511bfff7cb31c0a7e7b2973a8621851488486bc9136541ec2bd86a15119df45",
        "e694380e63a1f41c268e7eac09345f4d99bd82e99d9953c49b2658b5830e26cd",
    ),
    "sampled_1": (
        "db5c136d57b3301ef9ccb71ffe2c96f8548e22fe243a814352c6dc3fc5b861a4",
        "bf5d667e7165c2e7af2fc5383075bd99b3aeeee3e990929a43db6bc943aeaee7",
        "125d4ed8f06209317c3c84e3f75ae66e6158c44192bca832186420186c2a9a73",
        "c883571116fa067441932e732e0153f127e4748811e9fe2ab675723230c97168",
        "2f5e6110a58a3b92f2cf16ea75bc5c401606e57b855005c41e6e2c3e8c4af6f1",
        "c74728e6ef270e2802461cd2b2c6a77592f2251042b9a785c68d0491880ae844",
        "a9cb830fa20609f568ecf04e9473ee3d8ebbd234690d8efad6cd2c0c614ba828",
        "3fe19c9f0eb013cd3f40fc7e5144a64fa8cc57994dd42549815c3e062ded5f0f",
    ),
    "sampled_2": (
        "3ac5f25ee1e14ee8d5bbead8b4f1a4c9704bc499f15563ec442ba25656924265",
        "9acb786158a110b8716b0c1630eb93c584a597e7193cc806f81bf7ca8d656a0f",
        "7820dc4144d453d38a6236f28c98e95b5e128bab6855fd4cd6ea614f6f843ea2",
        "a8b46f5c1dbd893f2652215fbea3d13cb163be1c087db8efc62848e62099a3a4",
        "ff063f5cfe6b696543cb9fab1272eed5bfd41132b7555edd4ea01fb05f8eae79",
        "9a02dda2db6db63d6ad9631dd36fc8d2332efe680016c4c8f1d4039f895b6971",
        "0f38ccd8ddd49feeb5763ac81c0489b91288fa5a88f0c316dbaa38386da53baf",
        "97f27171b9ff8f31c1d894cf3e80b5e320312b99d287ea71478e3d9f405a47c2",
    ),
    "sampled_3": (
        "c994145a4bb1ec22b08fc50e70ddf66b3c5590cb9dd2a3bdfe4c7ee9977ddb80",
        "a6b9bacf10d965348544ee3f2402a3b4194a1be4bfe393d0e600a2301a3aa998",
        "924308adf1da04d12fe4cde6c1038e156696c3c07d966e64358c2ebd0d7c2c19",
        "625fa4829dbfa55f4163b5af24e2ad0aa8e16f9f13adfcb54a4742c6b74ee04c",
        "08fd67d11e106512082c6d56ca252782ea27a0af0c6daa80a0c270ebf74c456c",
        "a9daa77b5a465e556d02daedb8a68ac3987068d3ef55d1967d6255c5edd44f4f",
        "9ab533fef2264e37d4f940615097e10afacc3a4c6dd79f287408554f5c03cda8",
        "ddc34d83a08caad84a3e5d9ffb7c430bc58083fe85f3fea3b1eadd9add7a20de",
    ),
    "sampled_4": (
        "ca4cc3c8fe6a09c8540e8daeb53f880c76488a418a3c49d9b872fbccc6939ea6",
        "22008588bfdf15d63b3cc3a3339294e491b026d4b68e045fe628f2b0b34b00fd",
        "73e37f67a915d2b63edb5460cc2e0b827bf6bae0b2f1784a8de10ad8d1cee940",
        "19434ab113a1131982d2494ae65d49ddd9ddd7fa9513e08d276382d6fc3b93b9",
        "5cb4b8e55dcf541abf6a7167a4db1c83484138b43defe94ea9f20e7efe5c1ae7",
        "08e251fca2c31e32d2f7280ba28f6c0cc47343eaed5a5fe9178a8aed1d978e9c",
        "bb44468cf051d99b39afe0413bd79cf5521bc84af9f9f2960b762c3234af5c0c",
        "71b0b6ef733373e8874941e73bc97ad42c01850508e53a1d8a23d89c1ea4b0c3",
    ),
    "tent": (
        "fc62429c3e69001d65972cdeb94fb9aa18a7d9c16bc449e1e474e7e41bb95a7d",
        "4bfa1de0465c2608576c6710c74d2b99b97c6da7decca2b2999fa32b88b72757",
        "2b30ddc30613a5ce4ea1b1813b88f7674af10a3a79f42a868df960034d89c788",
        "c129c7c6b6b6f50d4acc80411b2512634d718c8ccd31dcf92be47fa721a27ff1",
        "4a6f4e0227f42363209b2f8848d07540e7531fd5901ad4d5ea16ee93c6052d09",
        "ad44e18abd3a5b59c24f116193145a16dbeba9a5a23b13b1f449e8432a63f922",
        "4d595b43af24c02c68ec48608acab30073f876e5c08947eff228e45eac42d5ed",
        "c9af2b79d6f69ab56bbfd924a5ce39d45b329b544c2938c83159514ee804e2e5",
    ),
}


@pytest.mark.parametrize("name", sorted(SEED_DENSITIES))
def test_tables_keep_their_bits(name):
    d = SEED_DENSITIES[name]()
    digests = tuple(hashlib.sha256(optimal_levels(d, bits).tobytes()).hexdigest()
                    for bits in range(1, 9))
    assert digests == SEED_TABLE_SHA256[name]


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

    def test_bitwise_equal_to_simpson_oracle(self):
        names = sorted(SEED_DENSITIES)
        for case in range(200):
            d = SEED_DENSITIES[names[case % len(names)]]()
            lo, hi = d.support
            rng = np.random.default_rng(case)
            # levels inside the support, with or without its ends, or past them
            pad = (hi - lo) * rng.choice([0.0, 0.1])
            levels = np.unique(rng.uniform(lo - pad, hi + pad, int(rng.integers(2, 300))))
            if pad == 0.0 and case % 3:
                levels = np.unique(np.r_[lo, levels, hi])
            assert quantization_error(levels, d) == simpson_error(levels, d), case

    def test_bitwise_equal_to_simpson_oracle_at_breakpoints(self):
        for name in sorted(SEED_DENSITIES):
            d = SEED_DENSITIES[name]()
            nodes = d.breakpoints()
            # every node, every other node (rounding boundaries near the nodes
            # between), and a sparse subset with the support's ends
            for levels in (nodes, nodes[::2], nodes[::7], np.r_[nodes[:-1:5], nodes[-1]]):
                assert quantization_error(levels, d) == simpson_error(levels, d), name

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
