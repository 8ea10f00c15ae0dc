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
`--workers N` overrides evolution trial parallelism. Exit codes: 0 success,
1 config validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Optional

import numpy as np

from . import datasets, evolution, nn, packing, quantize, sparsity


class ConfigError(ValueError):
    """Config fails schema validation."""


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

_SCHEMA = {
    "master_seed": int,
    "model": {
        "architecture": dict,
        "architecture_path": str,
        "path": str,
        "init_seed": int,
    },
    "data": {
        "synthetic": {
            "kind": str, "n": int, "classes": int, "seed": int,
            "feature_dim": int, "separation": (int, float),
        },
        "idx": {"images": str, "labels": str},
        "probe": {"size": int, "seed": int},
    },
    "train": {"epochs": int, "lr": (int, float), "batch_size": int},
    "de": {
        "trials_per_cycle": int, "step_fraction": (int, float),
        "target_sparsity": (int, float, dict), "divergence_budget": (int, float),
        "retrain_epochs": int, "retrain_lr": (int, float),
        "retrain_batch_size": int, "scope": list, "include_biases": bool,
        "workers": int, "max_cycles": int, "master_seed": int,
    },
    "divergence": {"heads": list},
    "quantization": {
        "scheme": str, "bits": int, "rounding": str, "seed": int,
        "per_layer": dict,
    },
    "eval": {"model": str, "teacher": str},
    "output": {
        "model": str, "student": str, "mask": str, "history": str,
        "quantized": str, "luts": str, "packed": str, "restored": str,
    },
}

_QUANT_KEYS = {"scheme": str, "bits": int, "rounding": str}
_HEAD_KEYS = {"start": int, "stop": int, "divisor": (int, float),
              "weight": (int, float)}


def _check_keys(section: dict, schema: dict, path: str):
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {path}{key}")
        expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}{key} must be an object")
            _check_keys(value, expected, f"{path}{key}.")
        elif not isinstance(value, expected) or isinstance(value, bool) and expected is int:
            names = (expected.__name__ if isinstance(expected, type)
                     else "/".join(t.__name__ for t in expected))
            raise ConfigError(f"{path}{key} must be {names}, got {type(value).__name__}")


def validate_config(config: dict):
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(config, _SCHEMA, "")
    if "master_seed" not in config:
        raise ConfigError("config requires master_seed")
    quant = config.get("quantization", {})
    for layer_key, overrides in quant.get("per_layer", {}).items():
        if not str(layer_key).isdigit():
            raise ConfigError(f"quantization.per_layer key {layer_key!r} "
                              "must be a layer index")
        _check_keys(overrides, _QUANT_KEYS, f"quantization.per_layer.{layer_key}.")
    for i, head in enumerate(config.get("divergence", {}).get("heads", [])):
        if not isinstance(head, dict):
            raise ConfigError(f"divergence.heads[{i}] must be an object")
        _check_keys(head, _HEAD_KEYS, f"divergence.heads[{i}].")
        for required in ("start", "stop"):
            if required not in head:
                raise ConfigError(f"divergence.heads[{i}] requires {required}")


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            config = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    validate_config(config)
    return config


def apply_overrides(config: dict, sets: list[str]):
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
    validate_config(config)


def _require(config: dict, *path: str):
    node: Any = config
    for part in path:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"config requires {'.'.join(path)}")
        node = node[part]
    return node


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _build_dataset(config: dict, input_shape) -> datasets.ProbeSet:
    """The configured dataset with its inputs shaped to `input_shape`, the
    network's, so IDX images [n,28,28] fit both [784] and [28,28,1]."""
    data = _require(config, "data")
    if "synthetic" in data:
        s = data["synthetic"]
        dataset = datasets.synthetic_dataset(
            s.get("kind", "blobs"), _require(config, "data", "synthetic", "n"),
            s.get("classes", 2), s.get("seed", config["master_seed"]),
            feature_dim=s.get("feature_dim", 2),
            separation=s.get("separation", 5.0),
        )
    elif "idx" in data:
        dataset = datasets.load_idx_dataset(
            _require(config, "data", "idx", "images"),
            _require(config, "data", "idx", "labels"),
        )
    else:
        raise ConfigError("data section needs either synthetic or idx")
    shape = dataset.inputs.shape[1:]
    if math.prod(shape) != math.prod(input_shape):
        raise ConfigError(f"dataset inputs of shape {list(shape)} do not fit "
                          f"the network input shape {list(input_shape)}")
    return datasets.ProbeSet(dataset.inputs.reshape(-1, *input_shape), dataset.labels,
                             dataset.provenance)


def _build_probe(config: dict, dataset: datasets.ProbeSet) -> datasets.ProbeSet:
    probe_cfg = config.get("data", {}).get("probe")
    if not probe_cfg:
        return dataset
    return datasets.subset(dataset, probe_cfg.get("size", min(1024, dataset.size)),
                           probe_cfg.get("seed", config["master_seed"]))


def _divergence_spec(config: dict, out_width: int) -> evolution.DivergenceSpec:
    heads_cfg = config.get("divergence", {}).get("heads")
    if not heads_cfg:
        return evolution.DivergenceSpec.whole_output(out_width)
    heads = [evolution.Head(h["start"], h["stop"], h.get("divisor", 1.0),
                            h.get("weight", 1.0)) for h in heads_cfg]
    return evolution.DivergenceSpec(heads)


def _evolution_config(config: dict) -> evolution.EvolutionConfig:
    de = config.get("de", {})
    kwargs = dict(de)
    if "target_sparsity" in kwargs and isinstance(kwargs["target_sparsity"], dict):
        kwargs["target_sparsity"] = {int(k): float(v)
                                     for k, v in kwargs["target_sparsity"].items()}
    kwargs.setdefault("master_seed", config["master_seed"])
    try:
        return evolution.EvolutionConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid de section: {e}")


def _load_architecture(config: dict) -> dict:
    model = _require(config, "model")
    if "architecture" in model:
        return model["architecture"]
    if "architecture_path" in model:
        return nn.load_architecture(model["architecture_path"])
    raise ConfigError("model section needs architecture or architecture_path")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_train(config: dict) -> int:
    arch = _load_architecture(config)
    seed = config.get("model", {}).get("init_seed", config["master_seed"])
    net = nn.build_network(arch, seed)
    if net.layers and net.layers[-1].kind != "softmax":
        raise ConfigError("cross-entropy training expects a softmax output layer")
    dataset = _build_dataset(config, net.input_shape)
    train_cfg = config.get("train", {})
    epochs = train_cfg.get("epochs", 0)
    lr = train_cfg.get("lr", 0.1)
    bs = train_cfg.get("batch_size", 64)
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"train.lr must be positive and finite, got {lr}")
    if bs < 1:
        raise ConfigError(f"train.batch_size must be >= 1, got {bs}")
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
    path = _require(config, "output", "model")
    acc = nn.accuracy(net, dataset)  # raises before a blown-up model is saved
    nn.save_network(net, path)
    print(f"model {path}")
    print(f"accuracy {acc:.4f}")
    return 0


def cmd_sparsify(config: dict) -> int:
    teacher = nn.load_network(_require(config, "model", "path"))
    dataset = _build_dataset(config, teacher.input_shape)
    probe = _build_probe(config, dataset)
    cfg = _evolution_config(config)
    spec = _divergence_spec(config, int(np.prod(teacher.output_shape)))
    result = evolution.run(teacher, probe, cfg, spec)
    nn.save_network(result.student, _require(config, "output", "student"))
    sparsity.save_mask(result.mask, _require(config, "output", "mask"))
    evolution.write_history(result.history, _require(config, "output", "history"))
    print(f"status {result.status}")
    print(f"cycles {len(result.history)}")
    print(f"sparsity {sparsity.sparsity(result.mask):.6f}")
    print(f"divergence {result.final_divergence:.6e}")
    if dataset.labels is not None:
        print(f"teacher_accuracy {nn.accuracy(teacher, dataset):.4f}")
        print(f"student_accuracy {nn.accuracy(result.student, dataset):.4f}")
    return 0


def cmd_quantize(config: dict) -> int:
    student = nn.load_network(_require(config, "output", "student"))
    mask = sparsity.load_mask(_require(config, "output", "mask"))
    qcfg = config.get("quantization", {})
    dataset = _build_dataset(config, student.input_shape)
    probe = _build_probe(config, dataset)
    teacher_outputs = None
    div_spec = None
    teacher_path = config.get("model", {}).get("path")
    if teacher_path:
        teacher = nn.load_network(teacher_path)
        teacher_outputs = nn.forward(teacher, probe.inputs)
        div_spec = _divergence_spec(config, int(np.prod(teacher.output_shape)))
    per_layer = {int(k): v for k, v in qcfg.get("per_layer", {}).items()}
    model, report = quantize.quantize_network(
        student, mask,
        scheme=qcfg.get("scheme", "uniform_affine"),
        bits=qcfg.get("bits", 8),
        rounding=qcfg.get("rounding", "nearest"),
        seed=qcfg.get("seed", config["master_seed"]),
        per_layer=per_layer,
        dataset=dataset if dataset.labels is not None else None,
        teacher_outputs=teacher_outputs, probe=probe, div_spec=div_spec,
    )
    nn.save_network(model.network, _require(config, "output", "quantized"))
    luts = {"layers": [
        {"layer": lq.layer, "scheme": lq.spec.scheme, "bits": lq.spec.bits,
         "rounding": lq.spec.rounding, "seed": lq.spec.seed,
         "degenerate": lq.spec.degenerate, "levels": lq.spec.levels.tolist()}
        for lq in model.layers
    ]}
    with open(_require(config, "output", "luts"), "w") as f:
        json.dump(luts, f, sort_keys=True)
    for key in sorted(report):
        print(f"{key} {report[key]:.6f}")
    print(f"lut_count {len(model.layers)}")
    return 0


def cmd_pack(config: dict) -> int:
    qnet = nn.load_network(_require(config, "output", "quantized"))
    mask = sparsity.load_mask(_require(config, "output", "mask"))
    with open(_require(config, "output", "luts")) as f:
        luts = json.load(f)
    quants = []
    for entry in luts["layers"]:
        spec = quantize.QuantizationSpec(
            entry["scheme"], entry["bits"], entry["rounding"],
            np.asarray(entry["levels"], dtype=np.float64), entry.get("seed", 0),
            degenerate=entry.get("degenerate", False),
        )
        i = entry["layer"]
        flat = qnet.layers[i].flat_params()
        # values are exact level entries, so nearest lookup recovers the codes
        codes = quantize.quantize(flat, mask.layer_bits(i),
                                  quantize.QuantizationSpec(
                                      spec.scheme, spec.bits, "nearest",
                                      spec.levels, spec.seed, spec.degenerate))
        quants.append(quantize.LayerQuantization(i, spec, codes))
    packed = packing.pack_model(quantize.QuantizedModel(qnet, mask, quants))
    data = packed.to_bytes()
    path = _require(config, "output", "packed")
    with open(path, "wb") as f:
        f.write(data)
    report = packing.compression_report(qnet, packed)
    print(f"packed {path}")
    for line in report.lines():
        print(line)
    return 0


def cmd_unpack(config: dict) -> int:
    with open(_require(config, "output", "packed"), "rb") as f:
        packed = packing.PackedModel.from_bytes(f.read())
    net, mask = packing.unpack_model(packed)
    path = _require(config, "output", "restored")
    nn.save_network(net, path)
    print(f"restored {path}")
    print(f"sparsity {sparsity.sparsity(mask):.6f}")
    return 0


def cmd_eval(config: dict) -> int:
    model_path = _require(config, "eval", "model")
    net = nn.load_network(model_path)
    dataset = _build_dataset(config, net.input_shape)
    if dataset.labels is not None:
        print(f"accuracy {nn.accuracy(net, dataset):.6f}")
    teacher_path = config.get("eval", {}).get("teacher")
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
    header = f"{'cycle':>5} {'layer':>5} {'sparsity':>9} {'mean':>12} {'std':>12} {'best':>12}"
    print(header)
    last = -1.0
    for row in rows:
        if row["best"] > row["mean"] + 1e-12:
            raise ValueError(
                f"cycle {row['cycle']}: best {row['best']} exceeds mean {row['mean']}"
            )
        print(f"{row['cycle']:>5} {row['layer']:>5} {row['sparsity_after']:>9.4f} "
              f"{row['mean']:>12.5e} {row['std']:>12.5e} {row['best']:>12.5e}")
    by_layer: dict[int, float] = {}
    for row in rows:
        prev = by_layer.get(row["layer"], -1.0)
        if row["sparsity_after"] + 1e-12 < prev:
            raise ValueError(f"sparsity decreased in layer {row['layer']}")
        by_layer[row["layer"]] = row["sparsity_after"]
    print(f"cycles {rows[-1]['cycle'] + 1}")
    for layer in sorted(by_layer):
        print(f"final_sparsity[{layer}] {by_layer[layer]:.6f}")
    return 0


COMMANDS = {
    "train": cmd_train,
    "sparsify": cmd_sparsify,
    "quantize": cmd_quantize,
    "pack": cmd_pack,
    "unpack": cmd_unpack,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="devolve",
        description="sparsify, quantize and pack small neural networks",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (JSON value)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel trial evaluation workers")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        apply_overrides(config, args.set)
        if args.workers is not None:
            config.setdefault("de", {})["workers"] = args.workers
        return COMMANDS[args.command](config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 -- CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
