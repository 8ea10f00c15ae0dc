"""Acceptance suite: one test per stated criterion, in order, each printing a
pass/fail line (run with -s to see them live).

Criterion 3 pins the first-order midpoint-product spacing rule with a 1e-6
relative residual. The shipped placement minimizes the rounding-error
integral exactly (criterion 2 and the brute-force oracle demand that), and
the two conditions disagree beyond 1e-6 on any sloped density, so criterion 3
fails by design; the analysis lives in the decisions ledger.
"""

import math
import time

import numpy as np
import pytest

from devolve import datasets, evolution, nn, packing, quantize, sparsity
from devolve.evolution import DivergenceSpec, EvolutionConfig
from devolve.quantize import (dequantize, optimal_levels, placement_residual,
                              quantization_error, uniform_density,
                              uniform_levels)

from helpers import bimodal_density, cross_entropy, sampled_density, tent_density
from oracles import brute_force_two_bit

SEPARATION = 10.0

ARCH_32 = {"input_shape": [784], "layers": [
    {"kind": "dense", "units": 32},
    {"kind": "leaky_relu", "slope": 0.1},
    {"kind": "dense", "units": 10},
    {"kind": "softmax"},
]}
ARCH_128 = {"input_shape": [784], "layers": [
    {"kind": "dense", "units": 128},
    {"kind": "leaky_relu", "slope": 0.1},
    {"kind": "dense", "units": 10},
    {"kind": "softmax"},
]}


def report(num, desc, ok, detail=""):
    print(f"criterion {num} [{desc}]: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({desc}) failed: {detail}"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Shared data, teacher, and artifact paths for criteria 6-9."""
    pool = datasets.synthetic_dataset("blobs", 6144, 10, seed=7,
                                      feature_dim=784, separation=SEPARATION)
    train = datasets.ProbeSet(pool.inputs[:4096], pool.labels[:4096])
    heldout = datasets.ProbeSet(pool.inputs[4096:], pool.labels[4096:])
    teacher = nn.build_network(ARCH_32, 1)
    rng = np.random.default_rng(np.random.SeedSequence([99, 0x7EA1]))
    for _ in range(8):
        order = rng.permutation(train.size)
        for lo in range(0, train.size, 64):
            idx = order[lo:lo + 64]
            _, grads = nn.value_and_grads(
                teacher, train.inputs[idx], cross_entropy(train.labels[idx]))
            teacher = nn.sgd_step(teacher, grads, 0.2)
    return {
        "dir": tmp_path_factory.mktemp("acceptance"),
        "train": train,
        "heldout": heldout,
        "teacher": teacher,
        "artifacts": {},
    }


def test_criterion_1_combinatorics():
    t0 = time.monotonic()
    c = evolution.combinations_count(1000, 500)
    elapsed = time.monotonic() - t0
    s = str(c)
    report(1, "combinatorics",
           len(s) == 300 and s.startswith("270288") and elapsed < 1.0,
           f"{len(s)} digits, leading {s[:6]}, {elapsed:.3f}s")


def test_criterion_2_quantizer_optimality():
    t0 = time.monotonic()
    uni = uniform_density(-1.0, 1.0, bins=16)
    max_dev = 0.0
    for bits in (1, 2, 3, 4):
        dev = np.abs(optimal_levels(uni, bits)
                     - np.linspace(-1, 1, 2 ** bits)).max()
        max_dev = max(max_dev, float(dev))
    ok_uniform = max_dev <= 1e-9

    ok_match = True
    ok_better = True
    details = [f"uniform dev {max_dev:.1e}"]
    for name, dens in (("triangular", tent_density()),
                       ("bimodal", bimodal_density(depth=0.02))):
        levels = optimal_levels(dens, 2)
        (l1, l2), _ = brute_force_two_bit(dens, pitch=1e-3)
        miss = max(abs(levels[1] - l1), abs(levels[2] - l2))
        ok_match &= miss <= 2e-3
        lo, hi = dens.support
        e_opt = quantization_error(levels, dens)
        e_uni = quantization_error(uniform_levels(lo, hi, 2, "uniform_affine"),
                                   dens)
        ok_better &= e_opt < e_uni
        details.append(f"{name} miss {miss:.2e} err {e_opt:.4f}<{e_uni:.4f}")
    elapsed = time.monotonic() - t0
    details.append(f"{elapsed:.1f}s")
    report(2, "quantizer optimality",
           ok_uniform and ok_match and ok_better and elapsed < 10.0,
           "; ".join(details))


def test_criterion_3_spacing_rule_residual():
    worst = 0.0
    for seed in range(5):
        dens = sampled_density(seed)
        for bits in (2, 3, 4, 8):
            levels = optimal_levels(dens, bits)
            residual, c = placement_residual(levels, dens)
            worst = max(worst, residual / (1e-6 * c))
    report(3, "spacing-rule residual", worst <= 1.0,
           f"worst residual {worst:.2e}x the 1e-6*c tolerance "
           "(error-minimizing placement does not satisfy the first-order "
           "midpoint spacing rule; see decisions ledger)")


def test_criterion_4_stochastic_unbiasedness():
    rng = np.random.default_rng(2)
    n = 100_000
    worst = 0.0
    for case in range(20):
        lo = rng.uniform(-2.0, 1.0)
        hi = lo + rng.uniform(0.05, 2.0)
        w = rng.uniform(lo, hi)
        spec = quantize.QuantizationSpec(
            "uniform_affine", 1, "stochastic", np.array([lo, hi]), seed=1000 + case)
        vals = dequantize(quantize.quantize(np.full(n, w), None, spec), spec)
        p_up = (w - lo) / (hi - lo)
        sigma = (hi - lo) * math.sqrt(p_up * (1.0 - p_up))
        bound = 3.0 * sigma / math.sqrt(n) + 1e-12
        worst = max(worst, abs(vals.mean() - w) / bound)
    report(4, "stochastic rounding unbiasedness", worst <= 1.0,
           f"worst normalized deviation {worst:.2f} (<=1 means inside 3 sigma)")


def test_criterion_5_huffman_and_container():
    rng = np.random.default_rng(77)
    for layer in range(1000):
        n = int(rng.integers(8, 250))
        bits = int(rng.integers(1, 5))
        n_sym = 2 ** bits
        zero_frac = rng.uniform(0.0, 0.95)
        mask_bits = rng.random(n) < zero_frac
        if mask_bits.all():
            mask_bits[int(rng.integers(0, n))] = False
        survivors = int((~mask_bits).sum())
        codes = rng.integers(0, n_sym, size=survivors).astype(np.uint32)
        if np.unique(codes).size == 1 and n_sym > 1:
            codes[0] = (codes[0] + 1) % n_sym
        freqs = {int(s): int(c) for s, c in zip(*np.unique(codes,
                                                           return_counts=True))}
        table = packing.huffman_build(freqs, n_symbols=n_sym)
        tag, mask_payload, payload, bit_len = packing.encode_layer(
            mask_bits, codes, table)
        spec = quantize.QuantizationSpec(
            "uniform_affine", bits, "nearest", np.linspace(-1.0, 1.0, n_sym))
        back_bits, _, back_codes = packing.decode_layer(
            tag, mask_payload, payload, bit_len, n, table, spec)
        assert (back_bits == mask_bits).all() and (back_codes == codes).all(), \
            f"round-trip failed on fuzz layer {layer}"
        if len(freqs) >= 2:
            total = sum(freqs.values())
            p = np.array(list(freqs.values())) / total
            entropy = float(-(p * np.log2(p)).sum())
            avg = table.average_length(freqs)
            assert entropy - 1e-9 <= avg < entropy + 1.0, \
                f"entropy bound violated on layer {layer}: H={entropy} avg={avg}"

    # container round trip + CRC on a real quantized model
    net = nn.build_network(ARCH_32, 5)
    mask = sparsity.random_mask(net, 0.8, seed=3, include_biases=False)
    student = sparsity.apply_mask(net, mask)
    model, _ = quantize.quantize_network(student, mask, bits=4)
    data = packing.pack_model(model).to_bytes()
    assert packing.PackedModel.from_bytes(data).to_bytes() == data
    flip_rng = np.random.default_rng(9)
    detected = 0
    probes = 50
    corrupt = bytearray(data)
    for _ in range(probes):
        pos = int(flip_rng.integers(0, len(corrupt)))
        bit = 1 << int(flip_rng.integers(0, 8))
        corrupt[pos] ^= bit
        try:
            packing.PackedModel.from_bytes(bytes(corrupt))
        except packing.PackedFormatError:
            detected += 1
        corrupt[pos] ^= bit
    report(5, "entropy coding and container", detected == probes,
           f"1000 layer round-trips, entropy bound held, "
           f"{detected}/{probes} bit flips detected")


def test_criterion_6_dominance(world):
    t0 = time.monotonic()
    teacher = world["teacher"]
    probe = datasets.subset(world["train"], 1024, seed=11)
    cfg = EvolutionConfig(trials_per_cycle=120, step_fraction=0.05,
                          target_sparsity=0.8, retrain_epochs=0,
                          master_seed=123, scope=[0])
    result = evolution.run(teacher, probe, cfg)
    history_path = world["dir"] / "dominance_history.csv"
    evolution.write_history(result.history, str(history_path))
    world["artifacts"]["dominance"] = (cfg, probe, history_path)

    final = result.history[-1]
    gap = (final.mean - final.best_divergence) / final.std

    teacher_out = nn.forward(teacher, probe.inputs)
    spec = DivergenceSpec.whole_output(10)
    counts = {0: result.mask.zeroed(0)}
    baseline = []
    for s in range(20):
        m = sparsity.mask_with_counts(teacher, counts, seed=5000 + s,
                                      include_biases=False)
        masked = sparsity.apply_mask(teacher, m)
        baseline.append(evolution.divergence(nn.forward(masked, probe.inputs),
                                             teacher_out, spec))
    median = float(np.median(baseline))
    elapsed = time.monotonic() - t0
    report(6, "evolution dominance",
           gap >= 2.0 and result.final_divergence <= median and elapsed < 600,
           f"final-cycle gap {gap:.2f} sigma; divergence "
           f"{result.final_divergence:.4f} vs random median {median:.4f}; "
           f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_end_to_end(world):
    t0 = time.monotonic()
    teacher = world["teacher"]
    heldout = world["heldout"]
    acc_teacher = nn.accuracy(teacher, heldout)
    probe = datasets.subset(world["train"], 2048, seed=11)
    cfg = EvolutionConfig(trials_per_cycle=120, step_fraction=0.05,
                          target_sparsity=0.8, retrain_epochs=30,
                          retrain_lr=1.5, master_seed=99, scope=[0])
    result = evolution.run(teacher, probe, cfg)
    acc_student = nn.accuracy(result.student, heldout)

    model, rep = quantize.quantize_network(
        result.student, result.mask, scheme="uniform_affine", bits=8,
        rounding="stochastic", seed=5, dataset=heldout)
    acc_quant = rep["accuracy_after"]

    history_path = world["dir"] / "pipeline_history.csv"
    evolution.write_history(result.history, str(history_path))
    student_path = world["dir"] / "pipeline_student.devn"
    nn.save_network(result.student, str(student_path))
    world["artifacts"]["pipeline"] = (cfg, probe, history_path, student_path,
                                      model)
    elapsed = time.monotonic() - t0
    spars = sparsity.sparsity(result.mask, 0)
    report(7, "end-to-end pipeline",
           acc_teacher > 0.95
           and spars >= 0.8
           and abs(acc_teacher - acc_student) <= 0.02
           and abs(acc_quant - acc_student) <= 0.01
           and elapsed < 900,
           f"teacher {acc_teacher:.4f}, student {acc_student:.4f} at "
           f"{spars:.3f} sparsity, 8-bit stochastic {acc_quant:.4f}; "
           f"{elapsed:.0f}s")


def test_criterion_8_compression_accounting(world):
    net = nn.build_network(ARCH_128, 3)
    n = net.parameter_count()
    counts = {i: round(0.9 * net.layer_param_count(i))
              for i in net.param_layer_indices()}
    mask = sparsity.mask_with_counts(net, counts, seed=8, include_biases=True)
    student = sparsity.apply_mask(net, mask)
    model, _ = quantize.quantize_network(student, mask,
                                         scheme="optimal_density", bits=4,
                                         rounding="nearest", seed=4)
    packed = packing.pack_model(model)
    data = packed.to_bytes()
    packed_path = world["dir"] / "compression.devp"
    packed_path.write_bytes(data)
    world["artifacts"]["compression"] = (net, mask, packed_path)

    rep = packing.compression_report(net, packing.PackedModel.from_bytes(data))
    report(8, "compression accounting",
           n >= 100_000
           and abs(rep.payload_only_ratio - 80.0) <= 0.5
           and rep.total_ratio >= 20.0,
           f"{n} params, payload-only {rep.payload_only_ratio:.2f}x, "
           f"total {rep.total_ratio:.2f}x")


@pytest.mark.slow
def test_criterion_9_determinism(world):
    artifacts = world["artifacts"]
    for key in ("dominance", "pipeline", "compression"):
        if key not in artifacts:
            pytest.skip(f"criterion for {key} did not produce artifacts")
    teacher = world["teacher"]
    checks = []

    cfg, probe, history_path = artifacts["dominance"]
    rerun_cfg = EvolutionConfig(**{**cfg.__dict__, "workers": 3})
    rerun = evolution.run(teacher, probe, rerun_cfg)
    rerun_path = world["dir"] / "dominance_rerun.csv"
    evolution.write_history(rerun.history, str(rerun_path))
    checks.append(rerun_path.read_bytes() == history_path.read_bytes())

    cfg, probe, history_path, student_path, model = artifacts["pipeline"]
    rerun_cfg = EvolutionConfig(**{**cfg.__dict__, "workers": 3})
    rerun = evolution.run(teacher, probe, rerun_cfg)
    rerun_hist = world["dir"] / "pipeline_rerun.csv"
    evolution.write_history(rerun.history, str(rerun_hist))
    checks.append(rerun_hist.read_bytes() == history_path.read_bytes())
    checks.append(nn.serialize_network(rerun.student)
                  == student_path.read_bytes())
    rerun_model, _ = quantize.quantize_network(
        rerun.student, rerun.mask, scheme="uniform_affine", bits=8,
        rounding="stochastic", seed=5)
    for a, b in zip(model.layers, rerun_model.layers):
        checks.append(np.array_equal(a.codes, b.codes))

    net, mask, packed_path = artifacts["compression"]
    student = sparsity.apply_mask(net, mask)
    model2, _ = quantize.quantize_network(student, mask,
                                          scheme="optimal_density", bits=4,
                                          rounding="nearest", seed=4)
    checks.append(packing.pack_model(model2).to_bytes()
                  == packed_path.read_bytes())

    report(9, "determinism", all(checks),
           f"{sum(checks)}/{len(checks)} byte-identity checks "
           "(histories, student, codes, packed file; workers=3)")
