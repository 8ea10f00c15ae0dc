"""Command-line pipeline driver.

One JSON config describes a whole run; each subcommand executes one stage and
reads/writes the files named in the config's output section:

    devolve train    --config run.json      teacher from scratch
    devolve sparsify --config run.json      evolution cycle -> student + mask + history
    devolve quantize --config run.json      per-layer level tables -> quantized model
    devolve pack     --config run.json      Huffman-packed container
    devolve unpack   --config run.json      restore a model from a container
    devolve eval     --config run.json      accuracy / divergence of a model file
    devolve report   --config run.json      summary of a history CSV

`--set section.key=value` overrides config entries (values parsed as JSON);
`--workers N` is `--set de.workers=N`. Exit codes: 0 success, 1 config
validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Any, Optional

import numpy as np

from . import binio, datasets, evolution, nn, packing, quantize, sparsity


class ConfigError(ValueError):
    """Config fails schema validation."""


# ---------------------------------------------------------------------------
# Config table
# ---------------------------------------------------------------------------

REQUIRED = dataclasses.MISSING
LAYER = "<layer>"  # a section keyed by layer index holds this one key


class Same(str):
    """A default: the resolved value of the key at this dotted path."""


@dataclasses.dataclass(frozen=True)
class Key:
    """One config key: its kind, its default and, where the CLI itself uses
    the value, its range: one of `choices`, or a number that is finite and
    >= `low` (> `low` when `strict`)."""
    kind: Any
    default: Any = None
    low: Optional[float] = None
    strict: bool = False
    choices: tuple = ()

    def range_text(self) -> str:
        if self.choices:
            return f"one of {', '.join(self.choices)}"
        text = f"{'>' if self.strict else '>='} {self.low:g}"
        return text + " and finite" if self.kind is float else text


def _dataclass_keys(cls, **kinds) -> dict:
    """Keys for `cls`'s fields with the fields' defaults; a Key overrides."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    return {name: kind if isinstance(kind, Key) else Key(kind, defaults[name])
            for name, kind in kinds.items()}


_SEED = Key(int, Same("master_seed"), low=0)
_QUANT = {"scheme": Key(str, "uniform_affine", choices=quantize.SCHEMES),
          "bits": Key(int, 8), "rounding": Key(str, "nearest", choices=quantize.ROUNDINGS)}

# Every config key. A kind is int, float (any number), str, bool, dict (any
# object), None (null), a section (a dict of keys, keyed by layer index if it
# holds LAYER), a list holding the kind of each item, or a tuple of these; a
# bool is never a number. A default is a value, a Same, REQUIRED (a present
# section must set the key) or None (unset: the command that needs the key
# exits 1). A plain dict is a section that is always there.
_SCHEMA = {
    "master_seed": Key(int, REQUIRED, low=0),
    "model": {"architecture": Key(dict), "architecture_path": Key(str),
              "path": Key(str), "init_seed": _SEED},
    "data": {
        "synthetic": Key({
            "kind": Key(str, "blobs"), "n": Key(int, REQUIRED), "classes": Key(int, 2),
            "seed": _SEED, "feature_dim": Key(int, 2), "separation": Key(float, 5.0),
        }),
        "idx": Key({"images": Key(str, REQUIRED), "labels": Key(str, REQUIRED)}),
        "probe": Key({"size": Key(int, REQUIRED, low=1), "seed": _SEED}),
    },
    "train": {"epochs": Key(int, low=0), "lr": Key(float, 0.1, low=0, strict=True),
              "batch_size": Key(int, 64, low=1)},
    "de": _dataclass_keys(
        evolution.EvolutionConfig,
        trials_per_cycle=int, step_fraction=float,
        target_sparsity=(float, {LAYER: Key(float)}), divergence_budget=(float, None),
        retrain_epochs=int, retrain_lr=float, retrain_batch_size=int,
        scope=[Key(int)], include_biases=bool, workers=int, max_cycles=int,
        master_seed=_SEED),
    "divergence": {"heads": Key([Key(_dataclass_keys(
        evolution.Head, start=int, stop=int, divisor=float, weight=float))])},
    "quantization": {**_QUANT, "seed": _SEED, "per_layer": Key({LAYER: Key({
        name: dataclasses.replace(key, default=Same(f"quantization.{name}"))
        for name, key in _QUANT.items()})}, {})},
    "eval": {"model": Key(str), "teacher": Key(str)},
    "output": dict.fromkeys(("model", "student", "mask", "history", "quantized", "luts",
                             "packed", "restored"), Key(str)),
}
_TYPE_NAMES = {int: "int", float: "number", str: "str", bool: "bool", dict: "object",
               list: "list", None: "null"}


def _json_type(kind):
    return type(kind) if isinstance(kind, (dict, list)) else kind


def _matches(value, kind) -> bool:
    t = _json_type(kind)
    if t is None or isinstance(value, bool):
        return value is t or t is bool
    return isinstance(value, (int, float) if t is float else t)


def _resolve(value, key: Key, path: str):
    """`value` checked against `key`, with the defaults below it filled in."""
    kinds = key.kind if isinstance(key.kind, tuple) else (key.kind,)
    for kind in kinds:
        if _matches(value, kind):
            break
    else:
        names = "/".join(_TYPE_NAMES[_json_type(k)] for k in kinds)
        raise ConfigError(f"{path} must be {names}, got {type(value).__name__}")
    if isinstance(kind, dict):
        return _resolve_section(value, kind, path + ".")
    if isinstance(kind, list):
        return [_resolve(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value)]
    # a number must be a finite float (10**400 is not); an int key takes any int
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    if key.choices and value not in key.choices or key.low is not None and not (
            value > key.low if key.strict else value >= key.low):
        raise ConfigError(f"{path} must be {key.range_text()}, got {value!r}")
    return value


def _resolve_section(section: dict, table: dict, path: str) -> dict:
    if LAYER in table:
        for name in map(str, section):
            # one spelling per index: "00", "０" and "²" also pass isdigit()
            if not (name.isascii() and name.isdigit() and str(int(name)) == name):
                raise ConfigError(f"{path[:-1]} key {name!r} must be a layer index")
        return {int(k): _resolve(v, table[LAYER], path + str(k)) for k, v in section.items()}
    for name in section.keys() - table.keys():
        raise ConfigError(f"unknown config key {path}{name}")
    out = {}
    for name, key in table.items():
        key = key if isinstance(key, Key) else Key(key, {})
        if name in section:
            out[name] = _resolve(section[name], key, path + name)
        elif key.default is REQUIRED:
            raise ConfigError(f"config requires {path}{name}")
        elif key.default is None or isinstance(key.default, Same):
            out[name] = key.default
        else:
            out[name] = _resolve(key.default, key, path + name)
    return out


def _fill_same(node, root: dict):
    for k, v in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(v, Same):
            node[k] = functools.reduce(dict.get, v.split("."), root)
        elif isinstance(v, (dict, list)):
            _fill_same(v, root)


def _check_bits(q: dict, path: str):
    try:
        quantize.check_bits(q["scheme"], q["bits"])
    except ValueError as e:
        raise ConfigError(f"{path}bits: {e}")


def validate_config(config: dict) -> dict:
    """The config checked against `_SCHEMA`, `quantize.check_bits`,
    `datasets.check_synthetic`, `EvolutionConfig` and `DivergenceSpec`, with
    defaults filled in and per-layer maps keyed by int. The de scope and the
    head columns wait for the network, and the probe's upper size for the data."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    resolved = _resolve_section(config, _SCHEMA, "")
    _fill_same(resolved, resolved)
    quant = resolved["quantization"]
    _check_bits(quant, "quantization.")
    for layer, q in quant["per_layer"].items():
        _check_bits(q, f"quantization.per_layer.{layer}.")
    synthetic = resolved["data"]["synthetic"]
    if synthetic is not None:
        try:
            datasets.check_synthetic(synthetic["kind"], synthetic["n"], synthetic["classes"],
                                     synthetic["feature_dim"], synthetic["separation"])
        except ValueError as e:
            raise ConfigError(f"invalid data.synthetic: {e}")
    _evolution_config(resolved)
    if resolved["divergence"]["heads"]:
        _divergence_spec(resolved, math.inf)
    return resolved


def load_config(path: str, overrides: list[str] = ()) -> dict:
    """The resolved config in `path`, with `overrides` applied first."""
    try:
        with open(path) as f:
            config = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    return apply_overrides(config, overrides)


def apply_overrides(config: dict, sets: list[str]) -> dict:
    """Applies each `section.key=value` to `config` in place; returns the
    resolved config."""
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override through non-object {part}")
        node[parts[-1]] = value
    return validate_config(config)


def _require(config: dict, section: str, key: str):
    if config[section][key] is None:
        raise ConfigError(f"config requires {section}.{key}")
    return config[section][key]


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _build_dataset(config: dict, input_shape) -> datasets.ProbeSet:
    """The configured dataset with its inputs shaped to `input_shape`, the
    network's, so IDX images [n,28,28] fit both [784] and [28,28,1]."""
    data = config["data"]
    if data["synthetic"] is not None:
        dataset = datasets.synthetic_dataset(**data["synthetic"])
    elif data["idx"] is not None:
        dataset = datasets.load_idx_dataset(data["idx"]["images"], data["idx"]["labels"])
    else:
        raise ConfigError("data section needs either synthetic or idx")
    shape = dataset.inputs.shape[1:]
    if math.prod(shape) != math.prod(input_shape):
        raise ConfigError(f"dataset inputs of shape {list(shape)} do not fit "
                          f"the network input shape {list(input_shape)}")
    return datasets.ProbeSet(dataset.inputs.reshape(-1, *input_shape), dataset.labels)


def _build_probe(config: dict, dataset: datasets.ProbeSet) -> datasets.ProbeSet:
    probe = config["data"]["probe"]
    if probe is None:
        return dataset
    try:
        return datasets.subset(dataset, probe["size"], probe["seed"])
    except ValueError as e:
        raise ConfigError(f"invalid data.probe.size: {e}")


def _divergence_spec(config: dict, out_width: int) -> evolution.DivergenceSpec:
    heads = config["divergence"]["heads"]
    if not heads:
        return evolution.DivergenceSpec.whole_output(out_width)
    for i, h in enumerate(heads):
        if h["stop"] > out_width:
            raise ConfigError(f"divergence.heads[{i}] stop {h['stop']} exceeds "
                              f"the output width {out_width}")
    try:
        return evolution.DivergenceSpec([evolution.Head(**h) for h in heads])
    except ValueError as e:
        raise ConfigError(f"invalid divergence heads: {e}")


def _evolution_config(config: dict, teacher: Optional[nn.Network] = None):
    """The de section as an EvolutionConfig, its scope checked against `teacher`."""
    try:
        cfg = evolution.EvolutionConfig(**config["de"])
        if teacher is not None:
            evolution.scope_layers(teacher, cfg)
        return cfg
    except ValueError as e:
        raise ConfigError(f"invalid de section: {e}")


def _load_architecture(config: dict) -> dict:
    model = config["model"]
    if model["architecture"] is not None:
        return model["architecture"]
    if model["architecture_path"] is not None:
        return nn.load_architecture(model["architecture_path"])
    raise ConfigError("model section needs architecture or architecture_path")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(config: dict) -> int:
    arch = _load_architecture(config)
    try:
        net = nn.build_network(arch, config["model"]["init_seed"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid model.architecture: {type(e).__name__} {e}")
    if net.layers[-1].kind != "softmax":
        raise ConfigError("cross-entropy training expects a softmax output layer")
    dataset = _build_dataset(config, net.input_shape)
    width = int(np.prod(net.output_shape))
    if dataset.labels.max() >= width:
        raise ConfigError(f"data has {dataset.labels.max() + 1} classes, more than "
                          f"the network's {width} outputs")
    epochs = _require(config, "train", "epochs")
    lr, bs = config["train"]["lr"], config["train"]["batch_size"]
    path = _require(config, "output", "model")
    n = dataset.size
    for epoch in range(epochs):
        rng = np.random.default_rng(
            np.random.SeedSequence([config["master_seed"], 0x7EA1, epoch]))
        order = rng.permutation(n)
        for lo in range(0, n, bs):
            idx = order[lo:lo + bs]
            batch = nn.Batch(dataset.inputs[idx], dataset.labels[idx])
            grads = nn.backward(net, batch, "cross_entropy")
            nn.sgd_step(net, grads, lr)
    acc = nn.accuracy(net, dataset)  # raises before a blown-up model is saved
    nn.save_network(net, path)
    print(f"model {path}")
    print(f"accuracy {acc:.4f}")
    return 0


def cmd_sparsify(config: dict) -> int:
    student_path, mask_path, history_path = (
        _require(config, "output", key) for key in ("student", "mask", "history"))
    teacher = nn.load_network(_require(config, "model", "path"))
    cfg = _evolution_config(config, teacher)
    dataset = _build_dataset(config, teacher.input_shape)
    probe = _build_probe(config, dataset)
    spec = _divergence_spec(config, int(np.prod(teacher.output_shape)))
    result = evolution.run(teacher, probe, cfg, spec)
    nn.save_network(result.student, student_path)
    sparsity.save_mask(result.mask, mask_path)
    evolution.write_history(result.history, history_path)
    print(f"status {result.status}")
    print(f"cycles {len(result.history)}")
    print(f"sparsity {sparsity.sparsity(result.mask):.6f}")
    print(f"divergence {result.final_divergence:.6e}")
    if dataset.labels is not None:
        print(f"teacher_accuracy {nn.accuracy(teacher, dataset):.4f}")
        print(f"student_accuracy {nn.accuracy(result.student, dataset):.4f}")
    return 0


def cmd_quantize(config: dict) -> int:
    model_path = _require(config, "output", "quantized")
    luts_path = _require(config, "output", "luts")
    student = nn.load_network(_require(config, "output", "student"))
    mask = sparsity.load_mask(_require(config, "output", "mask"))
    q = config["quantization"]
    params = student.param_layer_indices()
    for i in q["per_layer"]:
        if i not in params:
            raise ConfigError(f"quantization.per_layer key '{i}' names no layer with "
                              f"parameters (those are {params})")
    dataset = _build_dataset(config, student.input_shape)
    probe = _build_probe(config, dataset)
    teacher_outputs = div_spec = None
    teacher_path = config["model"]["path"]
    if teacher_path:
        teacher = nn.load_network(teacher_path)
        teacher_outputs = nn.forward(teacher, probe.inputs)
        div_spec = _divergence_spec(config, int(np.prod(teacher.output_shape)))
    model, report = quantize.quantize_network(
        student, mask,
        scheme=q["scheme"], bits=q["bits"], rounding=q["rounding"], seed=q["seed"],
        per_layer=q["per_layer"],
        dataset=dataset if dataset.labels is not None else None,
        teacher_outputs=teacher_outputs, probe=probe, div_spec=div_spec,
    )
    luts = {"layers": [
        {"layer": lq.layer, "scheme": lq.spec.scheme, "bits": lq.spec.bits,
         "rounding": lq.spec.rounding, "seed": lq.spec.seed,
         "levels": lq.spec.levels.tolist()}
        for lq in model.layers
    ]}
    text = json.dumps(luts, sort_keys=True)  # first: a failure leaves no file behind
    nn.save_network(model.network, model_path)
    binio.write_file(luts_path, text.encode())
    for key in sorted(report):
        print(f"{key} {report[key]:.6f}")
    print(f"lut_count {len(model.layers)}")
    return 0


def cmd_pack(config: dict) -> int:
    path = _require(config, "output", "packed")
    qnet = nn.load_network(_require(config, "output", "quantized"))
    mask = sparsity.load_mask(_require(config, "output", "mask"))
    with open(_require(config, "output", "luts")) as f:
        luts = json.load(f)
    quants = []
    for entry in luts["layers"]:
        # values are exact level entries, so nearest lookup recovers the codes
        spec = quantize.QuantizationSpec(entry["scheme"], entry["bits"], "nearest",
                                         entry["levels"])
        i = entry["layer"]
        if not qnet.layers[i].param_tensors():
            raise ValueError(f"luts.json has a table for layer {i}, which has no parameters")
        kept = qnet.layers[i].flat_params()[~mask.layer_bits(i)]
        codes = quantize.quantize(kept, None, spec)
        if not np.array_equal(quantize.dequantize(codes, spec), kept):
            raise ValueError(f"layer {i}'s surviving weights are not all levels of "
                             f"its luts.json table")
        quants.append(quantize.LayerQuantization(i, spec, codes))
    packed = packing.pack_model(quantize.QuantizedModel(qnet, mask, quants))
    binio.write_file(path, packed.to_bytes())
    report = packing.compression_report(qnet, packed)
    print(f"packed {path}")
    for line in report.lines():
        print(line)
    return 0


def cmd_unpack(config: dict) -> int:
    path = _require(config, "output", "restored")
    with open(_require(config, "output", "packed"), "rb") as f:
        packed = packing.PackedModel.from_bytes(f.read())
    net, mask = packing.unpack_model(packed)
    nn.save_network(net, path)
    print(f"restored {path}")
    print(f"sparsity {sparsity.sparsity(mask):.6f}")
    return 0


def cmd_eval(config: dict) -> int:
    net = nn.load_network(_require(config, "eval", "model"))
    dataset = _build_dataset(config, net.input_shape)
    if dataset.labels is not None:
        print(f"accuracy {nn.accuracy(net, dataset):.6f}")
    teacher_path = config["eval"]["teacher"]
    if teacher_path:
        teacher = nn.load_network(teacher_path)
        spec = _divergence_spec(config, int(np.prod(teacher.output_shape)))
        div = evolution.divergence(
            nn.forward(net, dataset.inputs),
            nn.forward(teacher, dataset.inputs), spec)
        print(f"divergence {div:.6e}")
    return 0


def cmd_report(config: dict) -> int:
    rows = evolution.read_history(_require(config, "output", "history"))
    print(f"{'cycle':>5} {'layer':>5} {'sparsity':>9} {'mean':>12} {'std':>12} {'best':>12}")
    by_layer: dict[int, float] = {}
    for row in rows:
        if row["best"] > row["mean"] + 1e-12:
            raise ValueError(
                f"cycle {row['cycle']}: best {row['best']} exceeds mean {row['mean']}"
            )
        print(f"{row['cycle']:>5} {row['layer']:>5} {row['sparsity_after']:>9.4f} "
              f"{row['mean']:>12.5e} {row['std']:>12.5e} {row['best']:>12.5e}")
        prev = by_layer.get(row["layer"], -1.0)
        if row["sparsity_after"] + 1e-12 < prev:
            raise ValueError(f"sparsity decreased in layer {row['layer']}")
        by_layer[row["layer"]] = row["sparsity_after"]
    print(f"cycles {rows[-1]['cycle'] + 1}")
    for layer in sorted(by_layer):
        print(f"final_sparsity[{layer}] {by_layer[layer]:.6f}")
    return 0


COMMANDS = {"train": cmd_train, "sparsify": cmd_sparsify, "quantize": cmd_quantize,
            "pack": cmd_pack, "unpack": cmd_unpack, "eval": cmd_eval, "report": cmd_report}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="devolve", description="sparsify, quantize and pack small neural networks")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (JSON value)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel trial evaluation workers")
    args = parser.parse_args(argv)
    workers = [] if args.workers is None else [f"de.workers={args.workers}"]
    try:
        config = load_config(args.config, args.set + workers)
        return COMMANDS[args.command](config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 -- CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
