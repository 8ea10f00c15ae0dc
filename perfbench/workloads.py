"""The three benchmark workloads.

Each workload has a timed `setup` (data generation and teacher training, and
the mask on compress-100k), a timed `compress` (sparsify -> quantize -> pack,
up to the last container written), a timed `restore` (container bytes ->
PackedModel.from_bytes -> unpack_model), an untimed `finish_round` that hashes
the round's artifacts, and `check`, which verifies the outputs with `checks`
and returns the quality metrics. The benchmark's own held-out set is
built on first use, inside `check`, so that it stays out of the program's
peak memory reading.

Every workload starts from one fixed problem: the training data (class
centres and samples) and the teacher (init and SGD order) come from
PROBLEM_SEED. The run's seed drives what the workload exercises after that:
the probe, the evolution master seed, the rounding seed and the held-out
sample. The teacher is fixed because the level solver's time and the
compression ratios depend strongly on the trained weights, so a seed-drawn
teacher spreads them past any useful bound.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os

import numpy as np

from devolve import cli, datasets, evolution, nn, packing, quantize, sparsity

import checks
from checks import require

PROBLEM_SEED = 7
HELDOUT_TAG = 0xB0  # keeps the benchmark's own draws apart from program streams


def sha256_files(directory: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def train_teacher(net, train, seed: int, epochs: int, lr: float, batch: int = 64):
    """Cross-entropy SGD in the order `devolve train` uses."""
    for epoch in range(epochs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7EA1, epoch]))
        order = rng.permutation(train.size)
        for lo in range(0, train.size, batch):
            idx = order[lo:lo + batch]
            grads = nn.backward(net, nn.Batch(train.inputs[idx], train.labels[idx]),
                                "cross_entropy")
            net = nn.sgd_step(net, grads, lr)
    return net


def accuracy(outputs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(outputs.argmax(axis=1) == labels))


def new_zero_ratio(history, sizes: dict[int, int]) -> float:
    """Share of the committed candidates' positions that were not already
    zero (useful work over work attempted)."""
    new = sum(round((r["sparsity_after"] - r["sparsity_before"]) * sizes[r["layer"]])
              for r in history)
    return new / sum(r["committed_size"] for r in history)


def quality(parsed: dict, student, restored, teacher, heldout) -> dict[str, float]:
    """End-to-end quality figures of a restored model, computed here."""
    layers = checks.param_layers(parsed)
    n_params = sum(layer["size"] for layer in layers)
    errors = np.concatenate([
        np.abs(checks.flat_params(student, layer["index"]) - layer["weights"])[~layer["mask"]]
        for layer in layers])
    out_restored = checks.reference_forward(restored, heldout.inputs)
    out_teacher = checks.reference_forward(teacher, heldout.inputs)
    return {
        "total_ratio": 32.0 * n_params / (8.0 * parsed["bytes"]),
        "payload_ratio": 32.0 * n_params / sum(layer["payload_bits"] for layer in layers),
        "accuracy": accuracy(out_restored, heldout.labels),
        "teacher_accuracy": accuracy(out_teacher, heldout.labels),
        "divergence": float(np.mean((out_restored - out_teacher) ** 2)),
        "quant_error": float(errors.mean()),
    }


def container_counts(parsed: dict) -> dict[str, float]:
    layers = checks.param_layers(parsed)
    codes = sum(layer["codes"].size for layer in layers)
    bits = sum(layer["payload_bits"] for layer in layers)
    return {
        "packing.codes": codes,
        "packing.payload_bits": bits,
        "packing.mask_bytes": sum(layer["mask_bytes"] for layer in layers),
        "packing.lut_bytes": sum(4 * layer["levels"].size for layer in layers),
        "packing.bits_per_code": bits / codes,
        "packing.entropy_bits_per_code": sum(
            checks.entropy_bits(layer["codes"]) * layer["codes"].size
            for layer in layers if layer["codes"].size) / codes,
    }


def check_restore_path(parsed: dict, written_mask, data: bytes, quantized):
    """Container checks shared by every workload; returns the restored net."""
    checks.check_crc(data)
    net, mask = packing.unpack_model(packing.PackedModel.from_bytes(data))
    checks.check_masks(parsed, written_mask.bits, net, mask.bits)
    checks.check_survivors(parsed, quantized)
    checks.check_entropy(parsed)
    return net


class Workload:
    name = ""
    setup_artifacts: tuple[str, ...] = ("teacher.devn",)
    round_artifacts: tuple[str, ...] = ()
    # training data: samples, features, blob separation, network input shape
    N_TRAIN, FEATURES, SEPARATION, INPUT_SHAPE = 4096, 784, 14.0, (784,)
    N_HELDOUT = 8192

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.dir = workdir
        self.tracer = tracer
        self.container = b""

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def training_data(self):
        data = datasets.synthetic_dataset("blobs", self.N_TRAIN, 10, seed=PROBLEM_SEED,
                                          feature_dim=self.FEATURES,
                                          separation=self.SEPARATION)
        return datasets.ProbeSet(data.inputs.reshape(-1, *self.INPUT_SHAPE), data.labels)

    @functools.cached_property
    def heldout(self):
        """Held-out set: fresh unit noise around the training set's class
        means, drawn by the run's seed (the CLI trains on every sample it
        generates, so no generated sample is held out)."""
        train = self.training_data()
        flat = train.inputs.reshape(train.size, -1)
        means = np.stack([flat[train.labels == c].mean(axis=0) for c in range(10)])
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, HELDOUT_TAG]))
        labels = rng.permutation(np.arange(self.N_HELDOUT) % 10)
        inputs = means[labels] + rng.normal(size=(labels.size, flat.shape[1]))
        return datasets.ProbeSet(inputs.reshape(-1, *self.INPUT_SHAPE), labels)

    def restore(self):
        packing.unpack_model(packing.PackedModel.from_bytes(self.container))

    def finish_round(self) -> dict[str, str]:
        return sha256_files(self.dir, self.round_artifacts)

    def setup_hashes(self) -> dict[str, str]:
        return sha256_files(self.dir, self.setup_artifacts)

    def layer_metrics(self) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# evolve-dense: the documented CLI sequence, in-process
# ---------------------------------------------------------------------------

class EvolveDense(Workload):
    """train -> sparsify -> quantize -> pack -> unpack -> eval through
    devolve.cli.main, as scripts/run_blobs_pipeline.py drives it."""

    name = "evolve-dense"
    round_artifacts = ("student.devn", "mask.devm", "history.csv", "quantized.devn",
                       "luts.json", "model.devp", "restored.devn")
    WORKERS = 2
    TARGET = 0.8

    def __init__(self, seed: int, workdir: str, tracer):
        super().__init__(seed, workdir, tracer)
        self.config_path = self.path("run.json")
        with open(self.config_path, "w") as f:
            json.dump(self.config(), f, indent=1)

    def config(self) -> dict:
        names = {"model": "teacher.devn", "student": "student.devn", "mask": "mask.devm",
                 "history": "history.csv", "quantized": "quantized.devn",
                 "luts": "luts.json", "packed": "model.devp", "restored": "restored.devn"}
        return {
            "master_seed": PROBLEM_SEED,
            "model": {"architecture": {"input_shape": [784], "layers": [
                {"kind": "dense", "units": 32}, {"kind": "leaky_relu", "slope": 0.1},
                {"kind": "dense", "units": 10}, {"kind": "softmax"}]},
                "path": self.path("teacher.devn"), "init_seed": PROBLEM_SEED},
            "data": {"synthetic": {"kind": "blobs", "n": self.N_TRAIN, "classes": 10,
                                   "seed": PROBLEM_SEED, "feature_dim": self.FEATURES,
                                   "separation": self.SEPARATION},
                     "probe": {"size": 1024, "seed": self.seed}},
            "train": {"epochs": 8, "lr": 0.2, "batch_size": 64},
            "de": {"trials_per_cycle": 40, "step_fraction": 0.05,
                   "target_sparsity": self.TARGET, "retrain_epochs": 2,
                   "retrain_lr": 1.5, "scope": [0], "master_seed": self.seed},
            "quantization": {"scheme": "uniform_affine", "bits": 8,
                             "rounding": "stochastic", "seed": self.seed},
            "eval": {"model": self.path("restored.devn"),
                     "teacher": self.path("teacher.devn")},
            "output": {k: self.path(v) for k, v in names.items()},
        }

    def cli(self, command: str, *extra: str):
        with self.tracer.span(f"cli.{command}"), \
                contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main([command, "--config", self.config_path, *extra])
        require(code == 0, f"devolve {command} exited {code}: {out.getvalue()[-300:]}")

    def setup(self):
        self.cli("train")

    def compress(self):
        self.cli("sparsify", "--workers", str(self.WORKERS))
        self.cli("quantize")
        self.cli("pack")
        with open(self.path("model.devp"), "rb") as f:
            self.container = f.read()

    def finish_round(self):
        self.cli("unpack")
        self.cli("eval")
        return super().finish_round()

    def check(self) -> dict[str, float]:
        teacher = nn.load_network(self.path("teacher.devn"))
        student = nn.load_network(self.path("student.devn"))
        quantized = nn.load_network(self.path("quantized.devn"))
        restored = nn.load_network(self.path("restored.devn"))
        parsed = self.parsed = checks.parse_container(self.container)
        check_restore_path(parsed, sparsity.load_mask(self.path("mask.devm")),
                           self.container, quantized)
        checks.check_weights(parsed, restored, "devolve unpack")
        checks.check_sparsity(parsed, {0: self.TARGET})
        with open(self.path("luts.json")) as f:
            luts = {entry["layer"]: np.asarray(entry["levels"]) for entry in json.load(f)["layers"]}
        for layer in checks.param_layers(parsed):
            i, keep = layer["index"], ~layer["mask"]
            checks.check_stochastic(checks.flat_params(student, i)[keep],
                                    checks.flat_params(quantized, i)[keep], luts[i])
        for net, what in ((teacher, "teacher"), (restored, "restored")):
            checks.check_forward(checks.reference_forward(net, self.heldout.inputs),
                                 nn.forward(net, self.heldout.inputs), what)
        q = quality(parsed, student, restored, teacher, self.heldout)
        checks.check_accuracy(q["accuracy"], q["teacher_accuracy"])
        return q

    def layer_metrics(self):
        teacher = nn.load_network(self.path("teacher.devn"))
        history = evolution.read_history(self.path("history.csv"))
        sizes = {i: teacher.layer_param_count(i) for i in teacher.param_layer_indices()}
        return {"evolution.sweeps": len({r["cycle"] for r in history}),
                "evolution.new_zero_ratio": new_zero_ratio(history, sizes),
                **container_counts(self.parsed)}


# ---------------------------------------------------------------------------
# evolve-conv: library-driven evolution of a small image net
# ---------------------------------------------------------------------------

class EvolveConv(Workload):
    """conv2d -> relu -> max_pool -> flatten -> dense -> softmax on blobs
    reshaped to 10x10x1; evolution on the conv layer and the dense layer."""

    name = "evolve-conv"
    round_artifacts = ("student.devn", "mask.devm", "history.csv", "quantized.devn",
                       "model.devp")
    N_TRAIN, FEATURES, INPUT_SHAPE = 2048, 100, (10, 10, 1)
    N_HELDOUT = 4096
    ARCH = {"input_shape": list(INPUT_SHAPE), "layers": [
        {"kind": "conv2d", "filters": 16, "kernel": 3, "padding": "same"},
        {"kind": "relu"}, {"kind": "max_pool", "pool": 2}, {"kind": "flatten"},
        {"kind": "dense", "units": 10}, {"kind": "softmax"}]}
    TARGETS = {0: 0.3, 4: 0.6}

    def setup(self):
        self.train = self.training_data()
        self.teacher = train_teacher(nn.build_network(self.ARCH, PROBLEM_SEED),
                                     self.train, PROBLEM_SEED, epochs=3, lr=0.1)
        nn.save_network(self.teacher, self.path("teacher.devn"))

    def compress(self):
        probe = datasets.subset(self.train, 128, seed=self.seed)
        cfg = evolution.EvolutionConfig(
            trials_per_cycle=10, step_fraction=0.05, target_sparsity=dict(self.TARGETS),
            retrain_epochs=2, retrain_lr=0.5, master_seed=self.seed,
            scope=sorted(self.TARGETS), workers=1)
        self.result = evolution.run(self.teacher, probe, cfg)
        nn.save_network(self.result.student, self.path("student.devn"))
        sparsity.save_mask(self.result.mask, self.path("mask.devm"))
        evolution.write_history(self.result.history, self.path("history.csv"))
        self.model, _ = quantize.quantize_network(
            self.result.student, self.result.mask, scheme="uniform_affine", bits=8,
            rounding="nearest", seed=self.seed)
        nn.save_network(self.model.network, self.path("quantized.devn"))
        self.container = packing.pack_model(self.model).to_bytes()
        with open(self.path("model.devp"), "wb") as f:
            f.write(self.container)

    def check(self):
        parsed = self.parsed = checks.parse_container(self.container)
        restored = check_restore_path(parsed, self.result.mask, self.container,
                                      self.model.network)
        checks.check_sparsity(parsed, self.TARGETS)
        few = self.heldout.inputs[:8]
        for net, what in ((self.teacher, "teacher"), (restored, "restored")):
            checks.check_forward(checks.reference_forward(net, few), nn.forward(net, few), what)
        q = quality(parsed, self.result.student, restored, self.teacher, self.heldout)
        checks.check_accuracy(q["accuracy"], q["teacher_accuracy"])
        return q

    def layer_metrics(self):
        history = [{"cycle": r.cycle, "layer": r.layer, "sparsity_before": r.sparsity_before,
                    "sparsity_after": r.sparsity_after, "committed_size": r.committed.size}
                   for r in self.result.history]
        sizes = {i: self.teacher.layer_param_count(i) for i in self.TARGETS}
        return {"evolution.sweeps": len({r["cycle"] for r in history}),
                "evolution.new_zero_ratio": new_zero_ratio(history, sizes),
                **container_counts(self.parsed)}


# ---------------------------------------------------------------------------
# compress-100k: the paper's headline compression case
# ---------------------------------------------------------------------------

class Compress100k(Workload):
    """784 -> 128 -> 10 classifier (101,770 parameters), 90% magnitude mask,
    optimal_density nearest-rounding tables at 2, 4 and 8 bits."""

    name = "compress-100k"
    BITS = (2, 4, 8)
    REPORTED_BITS = 4
    SPARSITY = 0.9
    SEPARATION = 10.0
    setup_artifacts = ("teacher.devn", "mask.devm")
    round_artifacts = tuple(f"model-{b}b.devp" for b in BITS)
    ARCH = {"input_shape": [784], "layers": [
        {"kind": "dense", "units": 128}, {"kind": "leaky_relu", "slope": 0.1},
        {"kind": "dense", "units": 10}, {"kind": "softmax"}]}

    def setup(self):
        self.teacher = train_teacher(nn.build_network(self.ARCH, PROBLEM_SEED),
                                     self.training_data(), PROBLEM_SEED, epochs=8, lr=0.2)
        nn.save_network(self.teacher, self.path("teacher.devn"))
        # one magnitude threshold over every parameter (weights and biases)
        layers = self.teacher.param_layer_indices()
        flats = [checks.flat_params(self.teacher, i) for i in layers]
        order = np.argsort(np.abs(np.concatenate(flats)), kind="stable")
        pruned = np.zeros(order.size, dtype=bool)
        pruned[order[:round(self.SPARSITY * order.size)]] = True
        self.mask = sparsity.SparsityMask.empty(self.teacher)
        off = 0
        for i, flat in zip(layers, flats):
            self.mask.bits[i][:] = pruned[off:off + flat.size]
            off += flat.size
        self.student = sparsity.apply_mask(self.teacher, self.mask)
        sparsity.save_mask(self.mask, self.path("mask.devm"))

    def compress(self):
        self.models, self.containers = {}, {}
        for bits in self.BITS:
            model, _ = quantize.quantize_network(
                self.student, self.mask, scheme="optimal_density", bits=bits,
                rounding="nearest", seed=self.seed)
            data = packing.pack_model(model).to_bytes()
            with open(self.path(f"model-{bits}b.devp"), "wb") as f:
                f.write(data)
            self.models[bits], self.containers[bits] = model, data
        self.container = self.containers[self.REPORTED_BITS]

    def check(self):
        n = self.teacher.parameter_count()
        zeroed = sum(int(b.sum()) for b in self.mask.bits.values())
        require(zeroed == round(self.SPARSITY * n), f"mask zeroes {zeroed} of {n}")
        for bits in self.BITS:
            parsed = checks.parse_container(self.containers[bits])
            restored = check_restore_path(parsed, self.mask, self.containers[bits],
                                          self.models[bits].network)
            for lq in self.models[bits].layers:
                survivors = checks.flat_params(self.student, lq.layer)[~self.mask.bits[lq.layer]]
                checks.check_levels(lq.spec.levels, bits, survivors)
                checks.check_beats_uniform(lq.spec.levels, survivors)
            if bits == self.REPORTED_BITS:
                self.parsed, reported = parsed, restored
        few = self.heldout.inputs[:256]
        for net, what in ((self.teacher, "teacher"), (reported, "restored")):
            checks.check_forward(checks.reference_forward(net, few), nn.forward(net, few), what)
        q = quality(self.parsed, self.student, reported, self.teacher, self.heldout)
        checks.check_accuracy(q["accuracy"], q["teacher_accuracy"])
        return q

    def layer_metrics(self):
        errors, weights = 0.0, 0
        for lq in self.models[8].layers:
            survivors = checks.flat_params(self.student, lq.layer)[~self.mask.bits[lq.layer]]
            density = quantize.Density.from_samples(survivors, 256)
            errors += quantize.quantization_error(lq.spec.levels, density) * survivors.size
            weights += survivors.size
        return {"quantize.table_error_8b": errors / weights, **container_counts(self.parsed)}


WORKLOADS = {cls.name: cls for cls in (EvolveDense, EvolveConv, Compress100k)}
