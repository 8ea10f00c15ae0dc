"""Seeded config fuzzing for the command line: every config the schema
accepts either runs, or exits 1 before any work.

Each case sets one field of a small valid config to a boundary or
wrong-typed value and runs train -> sparsify -> quantize -> pack in-process,
stopping at the first command that does not exit 0. Every command must exit 0
or 1, never 2 (a runtime error). A command that exits 1 must do so before any
`nn.sgd_step`, any `evolution.evaluate_trials` and any change to an output
file.

The range cases come from the config table: for each range it holds, one
value just inside (the run must complete) and one just outside (exit 1).
Fields that name files are left out: a missing input file is a runtime error
by design (`test_cli.py::TestExitCodes::test_missing_model_file_is_runtime_error`).
So are learning rates large enough to overflow training
(`test_blown_up_train_writes_no_model`)."""

import copy
import json
import math

import numpy as np
import pytest

from devolve import cli, evolution, nn

from helpers import config_keys

N_SAMPLES = 60


class Huge(int):
    """An integer too large for a float, named so in test ids."""

    def __repr__(self):
        return "10**400"


HUGE = Huge(10 ** 400)
BASE = {
    "master_seed": 5,
    "model": {"architecture": {"input_shape": [4], "layers": [
        {"kind": "dense", "units": 6},  # layer 0: 24 weights + 6 biases
        {"kind": "leaky_relu", "slope": 0.1},
        {"kind": "dense", "units": 3},  # layer 2: 18 weights + 3 biases
        {"kind": "softmax"},
    ]}},
    "data": {"synthetic": {"kind": "blobs", "n": N_SAMPLES, "classes": 3, "seed": 2,
                           "feature_dim": 4},
             "probe": {"size": 32, "seed": 3}},
    "train": {"epochs": 2, "lr": 0.3, "batch_size": 16},
    "de": {"trials_per_cycle": 3, "step_fraction": 0.2, "target_sparsity": 0.4,
           "retrain_epochs": 1, "scope": [0]},
    "quantization": {"scheme": "uniform_affine", "bits": 3},
}
OUTPUTS = ("model", "student", "mask", "history", "quantized", "luts", "packed",
           "restored")
COMMANDS = ("train", "sparsify", "quantize", "pack")
# name files, so fuzzing them tests the file system (see the module docstring)
FILE_FIELDS = ("model.path", "model.architecture_path", "data.idx", "eval", "output")

# (dotted field, value, text the config error must contain; None: the run
# must complete)
BOUNDARY = [
    ("de.target_sparsity", {"first": 0.5}, "de.target_sparsity key 'first'"),
    ("de.target_sparsity", {"0": "half"}, "de.target_sparsity.0"),
    ("de.target_sparsity", {"9": 0.5}, "target_sparsity names layer 9"),
    ("de.target_sparsity", {"1": 0.5}, "target_sparsity names layer 1"),
    ("de.target_sparsity", {"0": 1.0}, None),  # biases stay: saturates
    ("de.scope", [9], "scope names layer 9"),
    ("de.scope", [1], "scope names layer 1"),  # leaky_relu: no parameters
    ("de.scope", [-1], "scope names layer -1"),
    ("de.scope", ["0"], "de.scope[0]"),
    ("de.scope", [0.0], "de.scope[0]"),
    ("de.scope", [], None),
    ("de.step_fraction", 1.0, "step_fraction"),  # 30 > 24 prunable weights
    ("de.step_fraction", 0.75, None),  # ceil(22.5) = 23 of 24
    ("data.probe.size", 0, "data.probe.size"),
    ("data.probe.size", N_SAMPLES + 1, "data.probe.size"),
    ("data.probe.size", N_SAMPLES, None),
    ("data.synthetic.n", 0, "data.synthetic"),
    ("data.synthetic.n", 2, "data.synthetic"),  # fewer than 3 classes
    ("data.synthetic.classes", 0, "data.synthetic"),
    ("data.synthetic.classes", -2, "data.synthetic"),
    ("data.synthetic.classes", 4, "more than the network's 3 outputs"),
    ("data.synthetic.classes", 1, None),
    ("data.synthetic.feature_dim", -1, "data.synthetic"),
    ("data.synthetic.feature_dim", 3, "do not fit"),
    ("data.synthetic.separation", float("nan"), "data.synthetic"),
    ("data.synthetic.kind", "moons", "data.synthetic"),
    ("quantization.per_layer", {"9": {"bits": 2}}, "quantization.per_layer key '9'"),
    ("quantization.per_layer", {"1": {"bits": 2}}, "quantization.per_layer key '1'"),
    ("quantization.per_layer", {"2": {"bits": 2}}, None),
    # one spelling per layer index: these would silently replace layer "0"
    ("de.target_sparsity", {"0": 0.5, "00": 0.9}, "de.target_sparsity key '00'"),
    ("quantization.per_layer", {"0": {"bits": 2}, "\uff10": {"bits": 3}},
     "quantization.per_layer key '\uff10'"),
    ("de.target_sparsity", {"\u00b2": 0.5}, "de.target_sparsity key '\u00b2'"),
    ("quantization", {"scheme": "optimal_density", "bits": 8}, None),
    ("master_seed", -1, "master_seed"),
    ("quantization.seed", -1, "quantization.seed"),
    ("divergence", {"heads": [{"start": 0, "stop": 3, "divisor": float("nan")}]},
     "divisor"),
    ("divergence", {"heads": [{"start": 0, "stop": 3, "weight": float("inf")}]},
     "weight"),
    ("model.architecture", {"layers": []}, "model.architecture"),
    ("model.architecture", {"input_shape": [4], "layers": [{"kind": "dense"}]},
     "model.architecture"),
    ("model.architecture", {"input_shape": [4], "layers": [{"kind": "gelu"}]},
     "model.architecture"),
    # a bool is not a number
    ("train.lr", True, "train.lr must be number"),
    ("de.step_fraction", True, "de.step_fraction must be number"),
    ("data.synthetic.separation", False, "data.synthetic.separation must be number"),
    ("de.target_sparsity", {"0": True}, "de.target_sparsity.0 must be number"),
    # out of range
    ("train.epochs", -3, "train.epochs"),
    ("train", {"lr": 0.3}, "config requires train.epochs"),
    ("de.workers", 0, "workers must be >= 1"),
    ("de.workers", -2, "workers must be >= 1"),
    ("de.max_cycles", 0, "max_cycles must be >= 1"),
    ("de.max_cycles", -1, "max_cycles must be >= 1"),
    ("de.max_cycles", 1, None),
    ("de.retrain_epochs", -5, "retrain_epochs must be >= 0"),
    ("de.divergence_budget", float("nan"), "divergence_budget"),
    ("de.divergence_budget", -1.0, "divergence_budget"),
    ("de.divergence_budget", 0.0, None),  # rolls back the first cycle
    ("data.probe", {}, "config requires data.probe.size"),
    ("data.probe", {"seed": 4}, "config requires data.probe.size"),
    # an architecture entry is checked, not guessed at: no unknown key is
    # dropped and no count is rounded
    ("model.architecture", {"input_shape": [2, 2, 1], "layers": [
        {"kind": "conv2d", "filters": 2, "kernel": 1}, {"kind": "max_pool", "size": 3},
        {"kind": "flatten"}, {"kind": "dense", "units": 3}, {"kind": "softmax"}]},
     "unexpected keyword argument 'size'"),
    ("model.architecture", {"input_shape": [2, 2, 1], "layers": [
        {"kind": "conv2d", "filters": 2, "strides": 2}, {"kind": "flatten"},
        {"kind": "dense", "units": 3}, {"kind": "softmax"}]},
     "unexpected keyword argument 'strides'"),
    ("model.architecture.layers", [
        {"kind": "dense", "units": 6, "activation": "relu"},
        {"kind": "dense", "units": 3}, {"kind": "softmax"}],
     "unexpected keyword argument 'activation'"),
    ("model.architecture.layers", [{"kind": "dense", "units": 2.7}, {"kind": "leaky_relu"},
                                   {"kind": "dense", "units": 3}, {"kind": "softmax"}],
     "layer 0 (dense): units must be an integer >= 1, got 2.7"),
    ("model.architecture.layers", [{"kind": "dense", "units": True}, {"kind": "leaky_relu"},
                                   {"kind": "dense", "units": 3}, {"kind": "softmax"}],
     "layer 0 (dense): units must be an integer >= 1, got True"),
    ("model.architecture.layers", [{"kind": "dense", "units": "5"}, {"kind": "leaky_relu"},
                                   {"kind": "dense", "units": 3}, {"kind": "softmax"}],
     "layer 0 (dense): units must be an integer >= 1, got '5'"),
    ("model.architecture.layers", [{"kind": "dense", "units": 0}, {"kind": "leaky_relu"},
                                   {"kind": "dense", "units": 3}, {"kind": "softmax"}],
     "layer 0 (dense): units must be an integer >= 1, got 0"),
    # DEVN stores a stride or a pool as a u8
    ("model.architecture", {"input_shape": [2, 2, 1], "layers": [
        {"kind": "conv2d", "filters": 2, "kernel": 1, "stride": 300}, {"kind": "flatten"},
        {"kind": "dense", "units": 3}, {"kind": "softmax"}]},
     "layer 0 (conv2d): stride must be an integer in [1, 255], got 300"),
    ("model.architecture", {"input_shape": [2, 2, 1], "layers": [
        {"kind": "conv2d", "filters": 2, "kernel": 1}, {"kind": "max_pool", "pool": 1,
                                                       "stride": 256},
        {"kind": "flatten"}, {"kind": "dense", "units": 3}, {"kind": "softmax"}]},
     "layer 1 (max_pool): stride must be an integer in [1, 255], got 256"),
    ("model.architecture.input_shape", [4.7], "input_shape[0] must be an integer >= 1"),
    ("model.architecture.layers", [], "invalid model.architecture: ValueError layers is empty"),
    # an integer too large for a float (`huge_cases` has the other keys)
    ("data.probe.size", HUGE, "data.probe.size"),
    # a count no array can hold
    *[(f"data.synthetic.{key}", value, "data.synthetic")
      for key in ("n", "classes", "feature_dim") for value in (HUGE, 2 ** 63)],
    ("divergence", {"heads": [{"start": 0, "stop": 3, "divisor": HUGE}]},
     "divergence.heads[0].divisor"),
    ("divergence", {"heads": [{"start": 0, "stop": 3, "weight": HUGE}]},
     "divergence.heads[0].weight"),
]
# optimal_density's widest tables; each level solve takes seconds
SLOW_BOUNDARY = [("quantization", {"scheme": "optimal_density", "bits": 10}, None)]
# every JSON type, at values that stay small whatever field they land in
POOL = [-1, 0, 1, 1.5, float("nan"), "x", True, None, [], [0], {}, {"0": 1}]
N_SEEDED = 48


def schema_fields():
    """Every field but sections and the items of lists and per-layer
    objects."""
    for field, key in config_keys():
        section = isinstance(key.kind, dict) and cli.LAYER not in key.kind
        if not (section or field.startswith(FILE_FIELDS) or "<" in field or "[" in field):
            yield field


def range_cases():
    """(field, value, expected) just inside and just outside each range in the
    config table, leaving out the cases BOUNDARY has."""
    cases = []
    for field, key in config_keys():
        if "<" in field or "[" in field or field.startswith(FILE_FIELDS):
            continue
        if key.choices:
            cases += [(field, choice, None) for choice in key.choices]
            cases.append((field, "x", field))
        elif key.low is not None and key.kind is int:
            inside = key.low + 1 if key.strict else key.low
            cases += [(field, inside, None), (field, inside - 1, field)]
        elif key.low is not None:
            low = float(key.low)
            inside = math.nextafter(low, math.inf) if key.strict else low
            outside = low if key.strict else math.nextafter(low, -math.inf)
            cases += [(field, inside, None), (field, outside, field),
                      (field, math.inf, field)]
    written = {(field, repr(value)) for field, value, _ in BOUNDARY}
    return [case for case in cases if (case[0], repr(case[1])) not in written]


def huge_cases():
    """(field, HUGE, expected) for each number key, which must exit 1 naming
    the key, and for each int key with a range, which takes any integer in
    it. BOUNDARY has data.probe.size and the head keys; train.epochs is left
    out, because that many epochs is a run that does not end, not an error."""
    cases = []
    for field, key in config_keys():
        if ("<" in field or "[" in field or field.startswith(FILE_FIELDS)
                or field in ("data.probe.size", "train.epochs")):
            continue
        kinds = key.kind if isinstance(key.kind, tuple) else (key.kind,)
        if float in kinds:
            cases.append((field, HUGE, field))
        elif int in kinds and key.low is not None:
            cases.append((field, HUGE, None))
    return cases


def seeded_cases(seed=0):
    rng = np.random.default_rng(seed)
    fields = list(schema_fields())
    for _ in range(N_SEEDED):
        yield (fields[int(rng.integers(len(fields)))],
               copy.deepcopy(POOL[int(rng.integers(len(POOL)))]))


def case_config(tmp_path, field, value):
    cfg = copy.deepcopy(BASE)
    cfg["model"]["path"] = str(tmp_path / "model")
    cfg["output"] = {key: str(tmp_path / key) for key in OUTPUTS}
    node = cfg
    *parents, last = field.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def work(monkeypatch):
    """Counts training steps and trial evaluations, calling through."""
    calls = []
    for module, name in ((nn, "sgd_step"), (evolution, "evaluate_trials")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def run_pipeline(tmp_path, field, value, work, capsys):
    """Exit codes of the commands run, and the config error text if any."""
    path = case_config(tmp_path, field, value)
    codes = []
    for command in COMMANDS:
        before = ({p.name: p.read_bytes() for p in tmp_path.iterdir()}, len(work))
        codes.append(cli.main([command, "--config", str(path)]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 1), f"{field}={value!r}: {command} exited 2: {err}"
        if codes[-1] == 1:
            after = ({p.name: p.read_bytes() for p in tmp_path.iterdir()}, len(work))
            assert after == before, f"{field}={value!r}: {command} worked before exit 1"
            return codes, err
    return codes, ""


def test_base_config_runs(tmp_path, work, capsys):
    assert run_pipeline(tmp_path, "master_seed", 5, work, capsys)[0] == [0] * 4
    assert "evaluate_trials" in work and "sgd_step" in work


def params(cases, marks=()):
    return [pytest.param(*case, id=f"{case[0]}={case[1]!r}", marks=marks)
            for case in cases]


@pytest.mark.parametrize("field,value,expected",
                         params(BOUNDARY) + params(range_cases()) + params(huge_cases())
                         + params(SLOW_BOUNDARY, pytest.mark.slow))
def test_boundary_values(tmp_path, work, capsys, field, value, expected):
    codes, err = run_pipeline(tmp_path, field, value, work, capsys)
    if expected is None:
        assert codes == [0] * len(COMMANDS), err
    else:
        assert codes[-1] == 1 and expected in err, (codes, err)


def test_seeded_values(tmp_path, work, capsys):
    exits = 0
    for k, (field, value) in enumerate(seeded_cases()):
        case_dir = tmp_path / str(k)
        case_dir.mkdir()
        codes, _ = run_pipeline(case_dir, field, value, work, capsys)
        exits += codes[-1] == 1
    assert exits >= N_SEEDED // 2  # most pool values are wrong for their field
