import math

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


class TestRetrain:
    def test_zero_epochs_unchanged(self):
        net = tiny_teacher()
        probe = tiny_probe()
        cfg = EvolutionConfig(retrain_epochs=0, master_seed=0)
        out = retrain(net, SparsityMask.empty(net),
                      nn.forward(net, probe.inputs), probe, cfg,
                      DivergenceSpec.whole_output(3))
        assert out is net

    def test_already_optimal_stays_zero(self):
        net = tiny_teacher()
        probe = tiny_probe()
        tout = nn.forward(net, probe.inputs)
        cfg = EvolutionConfig(retrain_epochs=3, retrain_lr=0.5, master_seed=0)
        out = retrain(net, SparsityMask.empty(net), tout, probe, cfg,
                      DivergenceSpec.whole_output(3))
        assert divergence(nn.forward(out, probe.inputs), tout,
                          DivergenceSpec.whole_output(3)) == 0.0

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
        out = retrain(student, mask, tout, probe, cfg, spec)
        after = divergence(nn.forward(out, probe.inputs), tout, spec)
        assert after < before
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
        out = retrain(student, mask, tout, probe, cfg, spec)
        assert nn.serialize_network(student) == student_bytes

        net = best = apply_mask(student, mask)
        best_div = divergence(nn.forward(net, probe.inputs), tout, spec)
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
