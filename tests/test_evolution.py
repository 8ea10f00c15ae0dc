import hashlib
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from devolve import datasets, evolution, nn, sparsity
from devolve.evolution import (DivergenceSpec, EvolutionConfig,
                               Head, combinations_count, divergence,
                               evaluate_candidate, evaluate_trials,
                               propose_candidates, read_history, retrain, run,
                               select_and_commit, weight_histogram,
                               write_history)
from devolve.sparsity import CandidateSet, SparsityMask, apply_mask, merge

from helpers import train_blobs_teacher
from oracles import assert_gradients_close, central_differences


def tiny_teacher(seed=0):
    return nn.build_network({"input_shape": [6], "layers": [
        {"kind": "dense", "units": 8},
        {"kind": "leaky_relu", "slope": 0.1},
        {"kind": "dense", "units": 3},
        {"kind": "softmax"},
    ]}, seed)


def tiny_probe(n=32, seed=1):
    return datasets.synthetic_dataset("blobs", n, 3, seed=seed, feature_dim=6)


def tiny_conv_teacher(seed=0):
    return nn.build_network({"input_shape": [6, 6, 1], "layers": [
        {"kind": "conv2d", "filters": 3, "kernel": 3},
        {"kind": "relu"},
        {"kind": "max_pool", "pool": 2},
        {"kind": "flatten"},
        {"kind": "dense", "units": 3},
        {"kind": "softmax"},
    ]}, seed)


def conv_probe(n=32, seed=1):
    data = datasets.synthetic_dataset("blobs", n, 3, seed=seed, feature_dim=36)
    return datasets.ProbeSet(data.inputs.reshape(-1, 6, 6, 1), data.labels)


def strided_conv_teacher(seed=0):
    return nn.build_network({"input_shape": [7, 7, 2], "layers": [
        {"kind": "conv2d", "filters": 3, "kernel": 3, "stride": 2, "padding": "valid"},
        {"kind": "relu"},
        {"kind": "flatten"},
        {"kind": "dense", "units": 3},
        {"kind": "softmax"},
    ]}, seed)


def strided_conv_probe(n=32, seed=1):
    data = datasets.synthetic_dataset("blobs", n, 3, seed=seed, feature_dim=98)
    return datasets.ProbeSet(data.inputs.reshape(-1, 7, 7, 2), data.labels)


# (teacher, probe, its dense layer) of a conv-first run whose probe's layer-0
# rows fill more than one im2col slice: 130 items of 36 output pixels, 460 of 9
CONV_RUNS = {
    "same-3x3": lambda: (tiny_conv_teacher(2), conv_probe(130), 4),
    "valid-stride-2": lambda: (strided_conv_teacher(2), strided_conv_probe(460), 3),
}


def wide_teacher(seed=0):
    """On a 256-item probe, layer 0 (64->72) and layer 2 (72->64) are dense
    layers whose trial GEMMs are above the stacking gate; layer 2 feeds a
    dense layer directly, and layer 3 (64->3) is below the gate."""
    return nn.build_network({"input_shape": [64], "layers": [
        {"kind": "dense", "units": 72},
        {"kind": "leaky_relu", "slope": 0.1},
        {"kind": "dense", "units": 64},
        {"kind": "dense", "units": 3},
        {"kind": "softmax"},
    ]}, seed)


def wide_probe(n=256, seed=1):
    return datasets.synthetic_dataset("blobs", n, 3, seed=seed, feature_dim=64)


def chunk_bytes(layer, rows, trials):
    """The STACK_CHUNK_BYTES that makes chunks of `trials` trials on `layer`."""
    n_in, n_out = layer.weights.shape
    return trials * 8 * n_out * (rows + n_in)


def wide_run(path, workers=1):
    """`run` on wide_teacher's layers 0 and 2, biases included, its history
    written to `path`. Returns its history CSV, mask and student bytes."""
    res = run(wide_teacher(2), wide_probe(), EvolutionConfig(
        trials_per_cycle=6, step_fraction=0.05, target_sparsity={0: 0.3, 2: 0.3},
        retrain_epochs=1, retrain_batch_size=64, retrain_lr=0.3, master_seed=7,
        scope=[0, 2], include_biases=True, workers=workers))
    assert res.status == "target_reached"
    assert {r.layer for r in res.history} == {0, 2}
    write_history(res.history, str(path))
    return (path.read_bytes(), sparsity.serialize_mask(res.mask),
            nn.serialize_network(res.student))


def count_calls(monkeypatch, module, name):
    """A list that grows by one on every call of module.name."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(1)
        return real(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def conv_run(name, path, workers=1):
    """`run` on one of CONV_RUNS (a retraining batch of 48 leaves a last batch
    of 34 or 28), its history written to `path`. Returns its history CSV,
    mask and student bytes."""
    net, probe, dense = CONV_RUNS[name]()
    assert probe.size * math.prod(net.layers[0].out_shape(net.input_shape)[:2]) > nn.IM2COL_ROWS
    res = run(net, probe, EvolutionConfig(
        trials_per_cycle=5, step_fraction=0.1, target_sparsity={0: 0.3, dense: 0.3},
        retrain_epochs=2, retrain_batch_size=48, retrain_lr=0.3, master_seed=7,
        scope=[0, dense], workers=workers))
    assert res.status == "target_reached"
    assert {r.layer for r in res.history} == {0, dense}
    assert all(math.isfinite(r.retrain_divergence) for r in res.history)
    write_history(res.history, str(path))
    return (path.read_bytes(), sparsity.serialize_mask(res.mask),
            nn.serialize_network(res.student))


class TestPropose:
    def test_nominal_size(self):
        net = tiny_teacher()
        cfg = EvolutionConfig(trials_per_cycle=4, step_fraction=0.05,
                              master_seed=0)
        cands = propose_candidates(net, 0, cfg, 0)
        assert len(cands) == 4
        # layer 0 has 6*8+8 = 56 params -> ceil(0.05*56) = 3
        assert all(c.size == 3 for c in cands)

    def test_deterministic_per_key(self):
        net = tiny_teacher()
        cfg = EvolutionConfig(trials_per_cycle=2, master_seed=9)
        a = propose_candidates(net, 0, cfg, 5)
        b = propose_candidates(net, 0, cfg, 5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)
        c = propose_candidates(net, 0, cfg, 6)
        assert any((x.indices != y.indices).any() for x, y in zip(a, c))

    def test_step_too_large(self):
        net = tiny_teacher()
        cfg = EvolutionConfig(step_fraction=1.0, master_seed=0)
        # nominal covers biases too, exceeding the 48 prunable weights
        with pytest.raises(ValueError, match="prunable"):
            propose_candidates(net, 0, cfg, 0)

    def test_samples_cover_already_zeroed(self):
        # expected new zeros per candidate ~ (1 - sparsity) * nominal
        net = nn.build_network({"input_shape": [40], "layers": [
            {"kind": "dense", "units": 25}]}, 0)
        mask = SparsityMask.empty(net)
        pool = sparsity.prunable_indices(net, 0)
        rng = np.random.default_rng(0)
        zeroed = rng.choice(pool, size=900, replace=False)  # 90% of 1000
        mask.bits[0][zeroed] = True
        cfg = EvolutionConfig(trials_per_cycle=300, step_fraction=0.1,
                              master_seed=7)
        cands = propose_candidates(net, 0, cfg, 0)
        nominal = cands[0].size
        new = np.mean([(~mask.layer_bits(0)[c.indices]).sum() for c in cands])
        expected = nominal * (1 - 0.9)
        sigma = math.sqrt(nominal * 0.9 * 0.1)  # binomial-ish spread
        assert abs(new - expected) < 4 * sigma / math.sqrt(len(cands)) + 0.5


class TestDivergence:
    def test_identical_outputs_zero(self):
        out = np.ones((4, 3))
        assert divergence(out, out.copy(), DivergenceSpec.whole_output(3)) == 0.0

    def test_single_head_arithmetic(self):
        s = np.array([[0.0, 1.0]])
        t = np.array([[1.0, 0.0]])
        assert divergence(s, t, DivergenceSpec.whole_output(2)) == pytest.approx(1.0)

    def test_zero_weight_head_ignored(self):
        s = np.array([[0.0, 1.0, 5.0]])
        t = np.array([[1.0, 0.0, -5.0]])
        spec = DivergenceSpec([Head(0, 2, weight=1.0), Head(2, 3, weight=0.0)])
        assert divergence(s, t, spec) == pytest.approx(1.0)

    def test_divisor_normalizes(self):
        s = np.array([[10.0]])
        t = np.array([[0.0]])
        spec = DivergenceSpec([Head(0, 1, divisor=10.0)])
        assert divergence(s, t, spec) == pytest.approx(1.0)

    def test_grad_matches_value(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(5, 4))
        t = rng.normal(size=(5, 4))
        spec = DivergenceSpec([Head(0, 2, divisor=2.0, weight=0.7),
                               Head(2, 4, weight=0.3)])
        value, grad = evolution.divergence_grad(s, t, spec)
        assert value == pytest.approx(divergence(s, t, spec))
        h = 1e-7
        for idx in [(0, 0), (2, 3), (4, 1)]:
            sp = s.copy()
            sp[idx] += h
            fd = (divergence(sp, t, spec) - value) / h
            assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            DivergenceSpec([])
        with pytest.raises(ValueError):
            DivergenceSpec([Head(0, 1, divisor=0.0)])
        with pytest.raises(ValueError):
            DivergenceSpec([Head(0, 1, weight=0.0)])

    @pytest.mark.parametrize("start,stop", [(2, 1), (1, 1), (-1, 2)])
    def test_empty_or_negative_head_rejected(self, start, stop):
        with pytest.raises(ValueError, match="empty or negative"):
            DivergenceSpec([Head(start, stop)])


class TestEvaluate:
    def test_empty_candidate_identical_nets(self):
        net = tiny_teacher()
        probe = tiny_probe()
        tout = nn.forward(net, probe.inputs)
        d = evaluate_candidate(net, CandidateSet(0, np.empty(0, dtype=np.int64)),
                               tout, probe.inputs, DivergenceSpec.whole_output(3))
        assert d == 0.0

    def test_student_not_modified(self):
        net = tiny_teacher()
        probe = tiny_probe()
        tout = nn.forward(net, probe.inputs)
        before = net.layers[0].weights.copy()
        evaluate_candidate(net, CandidateSet(0, np.arange(10, dtype=np.int64)),
                           tout, probe.inputs, DivergenceSpec.whole_output(3))
        np.testing.assert_array_equal(net.layers[0].weights, before)

    def test_parallel_matches_serial(self):
        net = tiny_teacher(3)
        probe = tiny_probe(64)
        tout = nn.forward(net, probe.inputs)
        cfg = EvolutionConfig(trials_per_cycle=16, step_fraction=0.05,
                              master_seed=4)
        cands = propose_candidates(net, 0, cfg, 0)
        spec = DivergenceSpec.whole_output(3)
        serial = evaluate_trials(net, SparsityMask.empty(net), cands, tout,
                                 probe, spec, workers=1)
        threaded = evaluate_trials(net, SparsityMask.empty(net), cands, tout,
                                   probe, spec, workers=4)
        assert serial.tobytes() == threaded.tobytes()

    def test_zeroes_only_the_candidate(self):
        # the student is used as given: only the candidate's indices are zeroed
        teacher = tiny_teacher()
        net = apply_mask(teacher, sparsity.random_mask(teacher, 0.3, seed=5))
        probe = tiny_probe()
        tout = nn.forward(teacher, probe.inputs)
        spec = DivergenceSpec.whole_output(3)
        cand = CandidateSet(2, [0, 1])
        got = evaluate_candidate(net, cand, tout, probe.inputs, spec)
        expected = divergence(nn.forward(apply_mask(net, merge(SparsityMask.empty(net), cand)),
                                         probe.inputs), tout, spec)
        assert got == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_front_cache_matches_full_forward(self, workers):
        # candidates on the dense layer behind the conv front; the student
        # passed in is unmasked, so the mask must be applied here too
        net = tiny_conv_teacher(1)
        probe = conv_probe(40)
        tout = nn.forward(net, probe.inputs)
        mask = sparsity.random_mask(net, 0.3, seed=5, include_biases=False)
        cfg = EvolutionConfig(trials_per_cycle=6, step_fraction=0.1, master_seed=2)
        cands = propose_candidates(net, 4, cfg, 0)
        spec = DivergenceSpec.whole_output(3)
        got = evaluate_trials(net, mask, cands, tout, probe, spec, workers)
        expected = [divergence(nn.forward(apply_mask(net, merge(mask, c)), probe.inputs),
                               tout, spec) for c in cands]
        assert got.tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("layer,include_biases", [(0, False), (0, True), (2, True)])
    def test_stacked_trials_match_one_by_one(self, layer, include_biases, workers,
                                             monkeypatch):
        # chunks of 3, 3 and a short 2; layer 2's trials run behind the front
        net = wide_teacher(1)
        probe = wide_probe()
        tout = nn.forward(wide_teacher(2), probe.inputs)
        mask = sparsity.random_mask(net, 0.3, seed=5, include_biases=False)
        spec = DivergenceSpec.whole_output(3)
        cfg = EvolutionConfig(trials_per_cycle=8, step_fraction=0.05,
                              include_biases=include_biases, master_seed=3)
        cands = propose_candidates(net, layer, cfg, 0)
        first = net.layers[layer]
        assert (max(c.indices.max() for c in cands) >= first.weights.size) == include_biases
        assert evolution.stack_size(first, probe.size) >= len(cands)
        monkeypatch.setattr(evolution, "STACK_CHUNK_BYTES",
                            chunk_bytes(first, probe.size, 3))
        assert evolution.stack_size(first, probe.size) == 3
        masked = apply_mask(net, mask)
        expected = [evaluate_candidate(masked, c, tout, probe.inputs, spec) for c in cands]
        calls = count_calls(monkeypatch, evolution, "evaluate_candidate")
        got = evaluate_trials(net, mask, cands, tout, probe, spec, workers)
        assert calls == []  # every trial was stacked
        assert got.tobytes() == np.asarray(expected).tobytes()

    def test_stacked_buffers_under_contention(self, monkeypatch):
        # one-trial chunks on more workers than cores, switching threads as
        # often as the interpreter allows: a chunk that wrote into buffers
        # another chunk was using would change that chunk's divergences
        net = wide_teacher(1)
        probe = wide_probe()
        tout = nn.forward(wide_teacher(2), probe.inputs)
        spec = DivergenceSpec.whole_output(3)
        cands = propose_candidates(net, 0, EvolutionConfig(
            trials_per_cycle=16, step_fraction=0.05, master_seed=3), 0)
        expected = evaluate_trials(net, SparsityMask.empty(net), cands, tout, probe, spec)
        monkeypatch.setattr(evolution, "STACK_CHUNK_BYTES", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=1) as runner:
                got = runner.submit(evaluate_trials, net, SparsityMask.empty(net), cands,
                                    tout, probe, spec, 6).result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_layers_keep_trial_order(self, workers, monkeypatch):
        # layer 0's trials are stacked, layer 3's (below the gate) run one by one
        net = wide_teacher(1)
        probe = wide_probe()
        tout = nn.forward(wide_teacher(2), probe.inputs)
        spec = DivergenceSpec.whole_output(3)
        cfg = EvolutionConfig(trials_per_cycle=4, step_fraction=0.05, master_seed=3)
        assert evolution.stack_size(net.layers[3], probe.size) == 0
        cands = [c for pair in zip(propose_candidates(net, 0, cfg, 0),
                                   propose_candidates(net, 3, cfg, 0)) for c in pair]
        expected = [evaluate_candidate(net, c, tout, probe.inputs, spec) for c in cands]
        calls = count_calls(monkeypatch, evolution, "evaluate_candidate")
        got = evaluate_trials(net, SparsityMask.empty(net), cands, tout, probe, spec, workers)
        assert len(calls) == 4
        assert got.tobytes() == np.asarray(expected).tobytes()

    def test_stacked_non_finite_raises_as_forward(self):
        net = wide_teacher(1)
        net = net.replace_layer(0, nn.Dense(net.layers[0].weights * 1e308, net.layers[0].bias))
        probe = wide_probe()
        assert evolution.stack_size(net.layers[0], probe.size) > 0
        cfg = EvolutionConfig(trials_per_cycle=4, step_fraction=0.05, master_seed=3)
        cands = propose_candidates(net, 0, cfg, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as want:
                nn.forward(net, probe.inputs)
            with pytest.raises(FloatingPointError) as got:
                evaluate_trials(net, SparsityMask.empty(net), cands, np.zeros((probe.size, 3)),
                                probe, DivergenceSpec.whole_output(3))
        assert str(got.value) == str(want.value) == "non-finite values produced by layer 0 (dense)"


# Run in a fresh process, so that the BLAS thread count in its environment
# takes effect: for each (rows, inner, cols, trials), whether every trial's
# column slice of one stacked GEMM has the bits of the trial's own GEMM.
STACKED_GEMM_CHECK = """
import json, sys
import numpy as np
out = {}
for rows, inner, cols, trials in json.loads(sys.argv[1]):
    rng = np.random.default_rng([rows, inner, cols, trials])
    x = rng.standard_normal((rows, inner))
    ws = [rng.standard_normal((inner, cols)) for _ in range(trials)]
    stacked = x @ np.concatenate(ws, axis=1)
    out[repr((rows, inner, cols, trials))] = all(
        (stacked[:, t * cols:(t + 1) * cols] == x @ w).all() for t, w in enumerate(ws))
print(json.dumps(out))
"""


class TestStackingGate:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_stacked_gemm_slices_on_this_blas(self, threads):
        """The premise of `evolution.stack_size` on the BLAS that runs the
        tests. The gate's smallest shapes and a 1024x784->32 layer's must give
        equal slices; a shape at the small-matrix size (128x400x10, under
        100^3) and a 21-column one must not, or the gate's premise changed."""
        gate = evolution.STACK_MIN_GEMM
        admitted = [(gate // (128 * 8) + 1, 128, 8), (gate // (400 * 32) + 1, 400, 32),
                    (1024, 784, 32)]
        refused = [(128, 400, 10), (1024, 784, 21)]
        for shapes, stacks in ((admitted, True), (refused, False)):
            for rows, inner, cols in shapes:
                layer = nn.Dense(np.zeros((inner, cols)), np.zeros(cols))
                assert (evolution.stack_size(layer, rows) > 0) == stacks
        checks = [(*shape, trials) for shape in admitted + refused for trials in (3, 10)]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "OMP_NUM_THREADS": str(threads)}
        proc = subprocess.run([sys.executable, "-c", STACKED_GEMM_CHECK, json.dumps(checks)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        same = json.loads(proc.stdout)
        assert all(same[repr((*shape, trials))] for shape in admitted for trials in (3, 10))
        assert not any(same[repr((*shape, 10))] for shape in refused)


class TestSelectCommit:
    def test_argmin(self):
        net = tiny_teacher()
        cands = [CandidateSet(0, [i]) for i in range(3)]
        mask, rec = select_and_commit(0, 0, cands, np.array([0.3, 0.1, 0.2]),
                                      SparsityMask.empty(net))
        assert rec.best_index == 1
        assert mask.layer_bits(0)[1]

    def test_tie_lowest_index(self):
        net = tiny_teacher()
        cands = [CandidateSet(0, [i]) for i in range(2)]
        _, rec = select_and_commit(0, 0, cands, np.array([0.2, 0.2]),
                                   SparsityMask.empty(net))
        assert rec.best_index == 0

    def test_population_stats(self):
        net = tiny_teacher()
        cands = [CandidateSet(0, [i]) for i in range(3)]
        _, rec = select_and_commit(0, 0, cands, np.array([1.0, 2.0, 3.0]),
                                   SparsityMask.empty(net))
        assert rec.mean == pytest.approx(2.0)
        assert rec.std == pytest.approx(math.sqrt(2.0 / 3.0))
        assert rec.best_divergence == 1.0

    def test_needs_one_trial(self):
        with pytest.raises(ValueError):
            select_and_commit(0, 0, [], np.array([]),
                              SparsityMask.empty(tiny_teacher()))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_divergence_rejected(self, bad):
        cands = [CandidateSet(0, [i]) for i in range(3)]
        with pytest.raises(ValueError, match="non-finite"):
            select_and_commit(0, 0, cands, np.array([0.3, bad, 0.2]),
                              SparsityMask.empty(tiny_teacher()))


class TestRetrain:
    def test_zero_epochs_unchanged(self):
        net = tiny_teacher()
        probe = tiny_probe()
        cfg = EvolutionConfig(retrain_epochs=0, master_seed=0)
        out, div = retrain(net, SparsityMask.empty(net),
                           nn.forward(net, probe.inputs), probe, cfg,
                           DivergenceSpec.whole_output(3), 0.25)
        assert out is net
        assert div == 0.25  # the divergence it was given, not measured again

    def test_already_optimal_stays_zero(self):
        net = tiny_teacher()
        probe = tiny_probe()
        tout = nn.forward(net, probe.inputs)
        cfg = EvolutionConfig(retrain_epochs=3, retrain_lr=0.5, master_seed=0)
        out, div = retrain(net, SparsityMask.empty(net), tout, probe, cfg,
                           DivergenceSpec.whole_output(3), 0.0)
        assert divergence(nn.forward(out, probe.inputs), tout,
                          DivergenceSpec.whole_output(3)) == div == 0.0

    def test_divergence_gradient_matches_central_differences(self):
        # the parameter gradient that retrain descends, with two heads
        net = tiny_conv_teacher(3)
        x = conv_probe(6).inputs
        t = nn.forward(tiny_conv_teacher(4), x)
        spec = DivergenceSpec([Head(0, 2, divisor=2.0, weight=0.7),
                               Head(2, 3, weight=0.3)])
        value, grads = nn.value_and_grads(
            net, x, lambda out: evolution.divergence_grad(out, t, spec))
        assert value == divergence(nn.forward(net, x), t, spec)
        numeric = central_differences(net, lambda: divergence(nn.forward(net, x), t, spec))
        assert_gradients_close(grads, numeric)

    def test_masked_mlp_improves(self):
        net = tiny_teacher(7)
        probe = tiny_probe(128, seed=2)
        tout = nn.forward(net, probe.inputs)
        mask = sparsity.random_mask(net, 0.8, seed=3, include_biases=False)
        student = apply_mask(net, mask)
        spec = DivergenceSpec.whole_output(3)
        before = divergence(nn.forward(student, probe.inputs), tout, spec)
        cfg = EvolutionConfig(retrain_epochs=20, retrain_lr=1.0, master_seed=0)
        out, best = retrain(student, mask, tout, probe, cfg, spec, before)
        after = divergence(nn.forward(out, probe.inputs), tout, spec)
        assert after == best < before
        for i in mask.bits:
            flat = np.concatenate([t.reshape(-1)
                                   for t in out.layers[i].param_tensors()])
            assert (flat[mask.layer_bits(i)] == 0.0).all()

    @pytest.mark.parametrize("make_net,make_probe,lr", [
        (tiny_teacher, tiny_probe, 32.0), (tiny_conv_teacher, conv_probe, 4.0)])
    def test_matches_copying_steps_and_masking(self, make_net, make_probe, lr):
        # The reference steps into new arrays and applies the mask after every
        # step. Only layer 0 is masked; apply_mask shares the last layer's
        # arrays with the input student. At these rates the third epoch
        # overshoots, so the best network is an earlier one.
        student = make_net(3)
        probe = make_probe(48)
        tout = nn.forward(make_net(4), probe.inputs)
        spec = DivergenceSpec.whole_output(3)
        half = sparsity.prunable_indices(student, 0).size // 2
        mask = sparsity.mask_with_counts(student, {0: half}, seed=1, include_biases=False)
        cfg = EvolutionConfig(retrain_epochs=3, retrain_lr=lr, retrain_batch_size=16)
        student_bytes = nn.serialize_network(student)
        net = best = apply_mask(student, mask)
        best_div = divergence(nn.forward(net, probe.inputs), tout, spec)
        out, out_div = retrain(student, mask, tout, probe, cfg, spec, best_div)
        assert nn.serialize_network(student) == student_bytes

        for _ in range(cfg.retrain_epochs):
            for lo in range(0, 48, 16):
                target = tout[lo:lo + 16]
                _, grads = nn.value_and_grads(
                    net, probe.inputs[lo:lo + 16],
                    lambda o: evolution.divergence_grad(o, target, spec))
                stepped = iter([t - cfg.retrain_lr * g
                                for t, g in zip(net.param_tensors(), grads)])
                net = apply_mask(nn.Network(
                    [l.with_params([next(stepped) for _ in l.param_tensors()])
                     for l in net.layers], net.input_shape), mask)
            div = divergence(nn.forward(net, probe.inputs), tout, spec)
            if div < best_div:
                best, best_div = net, div
        assert best_div < div
        assert nn.serialize_network(out) == nn.serialize_network(best)
        assert out_div == best_div

    def test_blown_up_step_keeps_the_run(self, tmp_path):
        # lr=1e200 overflows the first retrain step of every sweep; each
        # retrain then keeps its input, so the run matches one without retraining
        probe = datasets.synthetic_dataset("blobs", 64, 3, seed=1, feature_dim=8)
        teacher = nn.build_network({"input_shape": [8], "layers": [
            {"kind": "dense", "units": 8}, {"kind": "relu"},
            {"kind": "dense", "units": 3}, {"kind": "softmax"}]}, 0)
        base = dict(trials_per_cycle=4, step_fraction=0.1, target_sparsity=0.5,
                    master_seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            blown = run(teacher, probe, EvolutionConfig(retrain_epochs=2,
                                                        retrain_lr=1e200, **base))
        plain = run(teacher, probe, EvolutionConfig(retrain_epochs=0, **base))
        assert blown.status == plain.status == "target_reached"
        assert len(blown.history) == len(plain.history) > 0
        for name, res in (("blown", blown), ("plain", plain)):
            write_history(res.history, str(tmp_path / name))
        assert (tmp_path / "blown").read_bytes() == (tmp_path / "plain").read_bytes()
        assert nn.serialize_network(blown.student) == nn.serialize_network(plain.student)
        assert math.isfinite(blown.final_divergence)
        for i in blown.mask.bits:
            flat = blown.student.layers[i].flat_params()
            assert np.isfinite(flat).all()
            assert (flat[blown.mask.layer_bits(i)] == 0.0).all()


class TestRun:
    def test_zero_target_no_cycles(self):
        net = tiny_teacher()
        res = run(net, tiny_probe(), EvolutionConfig(target_sparsity=0.0,
                                                     master_seed=0))
        assert res.history == []
        assert res.status == "target_reached"
        assert nn.serialize_network(res.student) == nn.serialize_network(net)

    def test_replay_determinism(self):
        net = tiny_teacher(2)
        probe = tiny_probe(48)
        cfg = EvolutionConfig(trials_per_cycle=8, step_fraction=0.1,
                              target_sparsity=0.3, retrain_epochs=2,
                              retrain_lr=0.5, master_seed=11, scope=[0])
        r1 = run(net, probe, cfg)
        r2 = run(net, probe, cfg)
        assert len(r1.history) == len(r2.history)
        for a, b in zip(r1.history, r2.history):
            assert a.trial_divergences.tobytes() == b.trial_divergences.tobytes()
            np.testing.assert_array_equal(a.committed.indices, b.committed.indices)
        assert (nn.serialize_network(r1.student)
                == nn.serialize_network(r2.student))

    def test_workers_do_not_change_history(self):
        net = tiny_teacher(2)
        probe = tiny_probe(48)
        base = dict(trials_per_cycle=8, step_fraction=0.1, target_sparsity=0.3,
                    master_seed=11, scope=[0])
        r1 = run(net, probe, EvolutionConfig(**base, workers=1))
        r2 = run(net, probe, EvolutionConfig(**base, workers=3))
        for a, b in zip(r1.history, r2.history):
            assert a.trial_divergences.tobytes() == b.trial_divergences.tobytes()

    def test_conv_history_bytes_across_workers(self, tmp_path):
        net = tiny_conv_teacher(3)
        probe = conv_probe(48)
        base = dict(trials_per_cycle=6, step_fraction=0.1,
                    target_sparsity={0: 0.3, 4: 0.4}, retrain_epochs=1,
                    retrain_lr=0.3, master_seed=5, scope=[0, 4])
        written = []
        for workers in (1, 2):
            res = run(net, probe, EvolutionConfig(**base, workers=workers))
            assert res.status == "target_reached"
            path = tmp_path / f"history-{workers}.csv"
            write_history(res.history, str(path))
            written.append(path.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("name", CONV_RUNS)
    def test_conv_bytes_with_and_without_the_probe_matrix(self, name, tmp_path, monkeypatch):
        builds, real = [], nn.Conv2D._cols

        def counted(layer, *args):
            if layer.kernel.shape[:2] != (1, 1):  # layer 0's own kernel, not its patch form
                builds.append(1)
            return real(layer, *args)
        monkeypatch.setattr(nn.Conv2D, "_cols", counted)
        written = {}
        for keep in (evolution.IM2COL_KEEP_BYTES, 0):  # 0: every conv call builds its own
            monkeypatch.setattr(evolution, "IM2COL_KEEP_BYTES", keep)
            for workers in (1, 2):
                builds.clear()
                written[keep, workers] = conv_run(
                    name, tmp_path / f"history-{keep}-{workers}.csv", workers)
                assert (len(builds) == 1) == (keep > 0)  # built once for the run
        assert len(set(written.values())) == 1

    # sha256 of the history CSV, the mask and the student of each conv run
    CONV_RUN_DIGESTS = {
        "same-3x3": ("23d550db748af6a992e66d42e17dcb0955ba66755cbd53d6dbfe267676ce05d1",
                     "9b8e134983f1cc57d7bd423aea8f6ff20b4960d6f5a0ef23c90e14c708f230d0",
                     "78774bae02163d7d9db904752b5bfc1c435ac9e67d18c513b34717e8245297c1"),
        "valid-stride-2": ("5cc23d92d875c97d0ee1c21156f0d8ef4887138d907a87232203f0fdf3eb7b03",
                           "5e0025555af441aa8efb01658a21b8d301976ef1a0926c53bb4832bedbadedd2",
                           "83147fa151664ac21c028b4f65d4698b067a84af5e6cba9d6c20d1a007be33ca"),
    }

    @pytest.mark.parametrize("name", CONV_RUNS)
    def test_conv_run_bytes_are_pinned(self, name, tmp_path):
        written = conv_run(name, tmp_path / "history.csv")
        digests = tuple(hashlib.sha256(data).hexdigest() for data in written)
        assert digests == self.CONV_RUN_DIGESTS[name]

    def test_stacked_run_bytes_match_one_by_one(self, tmp_path, monkeypatch):
        # chunks of 4 and a short 2; an infinite gate stacks no trial
        net, rows = wide_teacher(2), wide_probe().size
        monkeypatch.setattr(evolution, "STACK_CHUNK_BYTES",
                            chunk_bytes(net.layers[0], rows, 4))
        assert [evolution.stack_size(net.layers[i], rows) for i in (0, 2)] == [4, 4]
        calls = count_calls(monkeypatch, evolution, "evaluate_candidate")
        written = {}
        for gate in (evolution.STACK_MIN_GEMM, math.inf):
            monkeypatch.setattr(evolution, "STACK_MIN_GEMM", gate)
            for workers in (1, 2, 3):
                calls.clear()
                written[gate, workers] = wide_run(
                    tmp_path / f"history-{gate}-{workers}.csv", workers)
                assert (calls == []) == (gate < math.inf)
        assert len(set(written.values())) == 1
        digests = tuple(hashlib.sha256(data).hexdigest() for data in written[math.inf, 1])
        assert digests == self.WIDE_RUN_DIGESTS

    # sha256 of wide_run's history CSV, mask and student, from trials run one
    # by one before trials were stacked
    WIDE_RUN_DIGESTS = ("d0395f3dbcb8bb7cde9cb83ef2caa3223ec20df21a744c63218a69f01a1e65c8",
                        "ea13d369485d1d559b7441c22e238fb4622b960f5b06421c88a3ce362174e47b",
                        "de0f47b586198156c703d1247d79e3f552946f6769c2d63172cdde690c165320")

    def test_monotone_sparsity_and_argmin(self):
        net = tiny_teacher(4)
        probe = tiny_probe(48)
        cfg = EvolutionConfig(trials_per_cycle=6, step_fraction=0.08,
                              target_sparsity=0.5, master_seed=3, scope=[0])
        res = run(net, probe, cfg)
        assert res.status == "target_reached"
        last = 0.0
        for rec in res.history:
            assert rec.best_divergence == rec.trial_divergences.min()
            assert rec.best_divergence <= rec.mean
            assert rec.sparsity_after >= rec.sparsity_before >= last - 1e-12
            last = rec.sparsity_after
            # effective new zeros never exceed the nominal candidate size
            grown = (rec.sparsity_after - rec.sparsity_before) * 56
            assert grown <= rec.committed.size + 1e-9

    def test_divergence_budget_reverts(self):
        net = tiny_teacher(5)
        probe = tiny_probe(48)
        for epochs in (0, 2):
            # retraining steps its own copy, never the rollback snapshot
            cfg = EvolutionConfig(trials_per_cycle=4, step_fraction=0.1,
                                  target_sparsity=0.9, divergence_budget=1e-9,
                                  retrain_epochs=epochs, master_seed=1, scope=[0])
            res = run(net, probe, cfg)
            assert res.status == "divergence_budget"
            # rolled back to the pre-violation state: empty mask here
            assert res.mask.zeroed() == 0
            assert res.final_divergence <= 1e-9
            assert nn.serialize_network(res.student) == nn.serialize_network(net)

    def test_multi_layer_round_robin(self):
        net = tiny_teacher(6)
        probe = tiny_probe(48)
        cfg = EvolutionConfig(trials_per_cycle=4, step_fraction=0.2,
                              target_sparsity=0.25, master_seed=2)
        res = run(net, probe, cfg)
        layers = {rec.layer for rec in res.history}
        assert layers == {0, 2}
        assert sparsity.sparsity(res.mask, 0) >= 0.25
        assert sparsity.sparsity(res.mask, 2) >= 0.25

    def test_saturation_status(self):
        net = tiny_teacher(8)
        probe = tiny_probe(32)
        # biases are not prunable, so 100% is unreachable
        cfg = EvolutionConfig(trials_per_cycle=2, step_fraction=0.5,
                              target_sparsity=1.0, master_seed=0, scope=[0],
                              max_cycles=500)
        res = run(net, probe, cfg)
        assert res.status == "saturated"
        pool = sparsity.prunable_indices(net, 0)
        assert res.mask.layer_bits(0)[pool].all()


class TestCombinations:
    def test_small(self):
        assert combinations_count(4, 2) == 6

    def test_choose_zero(self):
        assert combinations_count(17, 0) == 1

    def test_large_leading_digits(self):
        c = combinations_count(1000, 500)
        s = str(c)
        assert len(s) == 300
        assert s.startswith("270288")

    def test_k_above_n(self):
        with pytest.raises(ValueError):
            combinations_count(3, 4)


class TestWeightHistogram:
    def test_constant_weights_single_bin(self):
        net = nn.Network([nn.Dense(np.full((2, 2), 0.5), np.full(2, 0.5))], (2,))
        counts, edges = weight_histogram(net, bins=8)
        assert counts.sum() == 6
        assert (counts > 0).sum() == 1

    def test_counts_conserved_under_mask(self):
        net = tiny_teacher(1)
        mask = sparsity.random_mask(net, 0.5, seed=0)
        counts, _ = weight_histogram(net, bins=16, mask=mask)
        assert counts.sum() == mask.total() - mask.zeroed()

    def test_no_survivors_errors(self):
        net = tiny_teacher()
        mask = SparsityMask.empty(net)
        for i in mask.bits:
            mask.bits[i][:] = True
        with pytest.raises(ValueError, match="surviving"):
            weight_histogram(net, bins=4, mask=mask)

    def test_bins_validated(self):
        with pytest.raises(ValueError):
            weight_histogram(tiny_teacher(), bins=1)


class TestHistoryCsv:
    def _history(self):
        net = tiny_teacher(4)
        probe = tiny_probe(48)
        cfg = EvolutionConfig(trials_per_cycle=5, step_fraction=0.1,
                              target_sparsity=0.3, master_seed=3, scope=[0])
        return run(net, probe, cfg).history

    def test_roundtrip_and_stats(self, tmp_path):
        history = self._history()
        path = tmp_path / "h.csv"
        write_history(history, str(path))
        rows = read_history(str(path))
        assert len(rows) == len(history)
        for row, rec in zip(rows, history):
            assert row["mean"] == pytest.approx(rec.mean, abs=1e-15)
            assert row["std"] == pytest.approx(rec.std, abs=1e-15)
            # mean/std recomputable from the trial array
            assert rec.mean == pytest.approx(
                float(np.mean(rec.trial_divergences)), abs=1e-12)
            assert rec.std == pytest.approx(
                float(np.std(rec.trial_divergences)), abs=1e-12)

    def test_byte_identical_rewrites(self, tmp_path):
        history = self._history()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history(history, str(p1))
        write_history(history, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_a_formatting_error_leaves_no_file(self, tmp_path):
        history = self._history()
        history[-1].retrain_divergence = "not a number"  # float() fails on the last row
        path = tmp_path / "h.csv"
        with pytest.raises(ValueError, match="could not convert"):
            write_history(history, str(path))
        assert not path.exists()

    def test_empty_history_read_errors(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history([], str(path))
        with pytest.raises(ValueError, match="no rows"):
            read_history(str(path))


class TestConfigValidation:
    def test_bad_fields(self):
        with pytest.raises(ValueError):
            EvolutionConfig(trials_per_cycle=0)
        with pytest.raises(ValueError):
            EvolutionConfig(step_fraction=0.0)
        with pytest.raises(ValueError):
            EvolutionConfig(target_sparsity=1.5)
        for lr in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="retrain_lr"):
                EvolutionConfig(retrain_lr=lr)
        with pytest.raises(ValueError, match="retrain_batch_size"):
            EvolutionConfig(retrain_batch_size=0)

    @pytest.mark.parametrize("field,value", [
        ("workers", 0), ("workers", -2), ("max_cycles", 0), ("max_cycles", -1),
        ("retrain_epochs", -5), ("divergence_budget", math.nan),
        ("divergence_budget", math.inf), ("divergence_budget", -1.0)])
    def test_bad_run_limits(self, field, value):
        with pytest.raises(ValueError, match=field):
            EvolutionConfig(**{field: value})

    def test_run_limits_at_their_bounds(self):
        EvolutionConfig(workers=1, max_cycles=1, retrain_epochs=0, divergence_budget=0.0)

    def test_per_layer_targets(self):
        cfg = EvolutionConfig(target_sparsity={0: 0.5, 2: 0.9})
        assert cfg.target_for(0) == 0.5
        assert cfg.target_for(2) == 0.9
        assert cfg.target_for(1) == 0.0


@pytest.mark.slow
def test_de_beats_random_baseline():
    teacher, ds = train_blobs_teacher()
    probe = datasets.subset(ds, 256, seed=11)
    cfg = EvolutionConfig(trials_per_cycle=24, step_fraction=0.05,
                          target_sparsity=0.6, retrain_epochs=0,
                          master_seed=13, scope=[0])
    res = run(teacher, probe, cfg)
    tout = nn.forward(teacher, probe.inputs)
    spec = DivergenceSpec.whole_output(10)
    counts = {0: res.mask.zeroed(0)}
    randoms = []
    for s in range(20):
        m = sparsity.mask_with_counts(teacher, counts, seed=100 + s,
                                      include_biases=False)
        student = apply_mask(teacher, m)
        randoms.append(divergence(nn.forward(student, probe.inputs), tout, spec))
    assert res.final_divergence <= float(np.median(randoms))
