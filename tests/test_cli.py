import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from devolve import cli, datasets, evolution, nn, packing, quantize, sparsity
from devolve.cli import (ConfigError, _evolution_config, apply_overrides, load_config,
                         main, validate_config)

from helpers import config_keys


def pipeline_config(tmp_path, **extra):
    cfg = {
        "master_seed": 77,
        "model": {
            "architecture": {"input_shape": [16], "layers": [
                {"kind": "dense", "units": 12},
                {"kind": "leaky_relu", "slope": 0.1},
                {"kind": "dense", "units": 3},
                {"kind": "softmax"},
            ]},
            "path": str(tmp_path / "teacher.devn"),
        },
        "data": {
            "synthetic": {"kind": "blobs", "n": 256, "classes": 3, "seed": 5,
                          "feature_dim": 16},
            "probe": {"size": 128, "seed": 9},
        },
        "train": {"epochs": 6, "lr": 0.3, "batch_size": 32},
        "de": {"trials_per_cycle": 6, "step_fraction": 0.1,
               "target_sparsity": 0.5, "retrain_epochs": 2, "retrain_lr": 0.5,
               "master_seed": 77, "scope": [0]},
        "quantization": {"scheme": "uniform_affine", "bits": 6,
                         "rounding": "nearest"},
        "eval": {"model": str(tmp_path / "restored.devn"),
                 "teacher": str(tmp_path / "teacher.devn")},
        "output": {
            "model": str(tmp_path / "teacher.devn"),
            "student": str(tmp_path / "student.devn"),
            "mask": str(tmp_path / "mask.devm"),
            "history": str(tmp_path / "history.csv"),
            "quantized": str(tmp_path / "quantized.devn"),
            "luts": str(tmp_path / "luts.json"),
            "packed": str(tmp_path / "model.devp"),
            "restored": str(tmp_path / "restored.devn"),
        },
    }
    cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key bogus"):
            validate_config({"master_seed": 1, "bogus": 2})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="de.mutation_rate"):
            validate_config({"master_seed": 1, "de": {"mutation_rate": 0.1}})

    def test_density_bins_rejected(self):
        # the level tables always histogram 256 bins; the key set nothing
        with pytest.raises(ConfigError, match="quantization.density_bins"):
            validate_config({"master_seed": 1,
                             "quantization": {"density_bins": 256}})

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="must be int"):
            validate_config({"master_seed": "one"})

    def test_requires_master_seed(self):
        with pytest.raises(ConfigError, match="master_seed"):
            validate_config({})

    def test_head_keys(self):
        with pytest.raises(ConfigError, match="divergence.heads"):
            validate_config({"master_seed": 1,
                             "divergence": {"heads": [{"start": 0}]}})

    def test_null_divergence_budget_loads(self, tmp_path):
        # README documents null as "no budget"
        path = tmp_path / "run.json"
        path.write_text('{"master_seed": 1, "de": {"divergence_budget": null}}')
        assert _evolution_config(load_config(str(path))).divergence_budget is None

    def test_apply_overrides(self):
        cfg = {"master_seed": 1, "de": {"trials_per_cycle": 10}}
        apply_overrides(cfg, ["de.trials_per_cycle=99", "de.workers=2"])
        assert cfg["de"]["trials_per_cycle"] == 99
        assert cfg["de"]["workers"] == 2

    def test_override_rejects_unknown(self):
        with pytest.raises(ConfigError):
            apply_overrides({"master_seed": 1}, ["de.bogus=1"])

    def test_defaults_are_filled_in(self):
        cfg = validate_config({"master_seed": 4, "quantization": {
            "scheme": "optimal_density", "per_layer": {"2": {"bits": 3}}}})
        assert cfg["train"] == {"epochs": None, "lr": 0.1, "batch_size": 64}
        assert cfg["model"]["init_seed"] == 4 and cfg["quantization"]["seed"] == 4
        assert cfg["quantization"]["per_layer"] == {
            2: {"scheme": "optimal_density", "bits": 3, "rounding": "nearest"}}
        assert cfg["data"] == {"synthetic": None, "idx": None, "probe": None}
        assert evolution.EvolutionConfig(**cfg["de"]) == \
            evolution.EvolutionConfig(master_seed=4)

    def test_table_follows_the_library_dataclasses(self):
        for section, cls in ((cli._SCHEMA["de"], evolution.EvolutionConfig),
                             (cli._SCHEMA["divergence"]["heads"].kind[0].kind,
                              evolution.Head)):
            fields = {f.name: f.default for f in dataclasses.fields(cls)}
            assert {name: key.default for name, key in section.items()} == {
                **fields, **({"master_seed": cli.Same("master_seed")}
                             if cls is evolution.EvolutionConfig else {})}

    @pytest.mark.parametrize("section,key,value", [
        ("train", "lr", True), ("train", "batch_size", False),
        ("de", "step_fraction", True), ("de", "target_sparsity", {"0": True}),
        ("de", "divergence_budget", False), ("quantization", "bits", True)])
    def test_bool_is_not_a_number(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            validate_config({"master_seed": 1, section: {key: value}})

    def test_probe_section_needs_a_size(self):
        with pytest.raises(ConfigError, match="data.probe.size"):
            validate_config({"master_seed": 1, "data": {"probe": {}}})

    def test_validated_once_after_every_override(self, tmp_path, monkeypatch):
        path, _ = pipeline_config(tmp_path)
        seen = []
        real = cli.validate_config

        def counted(config):
            seen.append(json.loads(json.dumps(config)))
            return real(config)
        monkeypatch.setattr(cli, "validate_config", counted)
        monkeypatch.setattr(cli, "cmd_train", lambda config: 0)
        assert main(["train", "--config", str(path), "--set", "de.workers=3",
                     "--workers", "2"]) == 0
        assert len(seen) == 1 and seen[0]["de"]["workers"] == 2


def readme_table_rows():
    """README's config table as rendered from the config table."""
    rows = ["| key | type | default | range |", "| --- | --- | --- | --- |"]
    for path, key in config_keys():
        if isinstance(key.kind, dict):
            continue
        kinds = key.kind if isinstance(key.kind, tuple) else (key.kind,)
        names = "/".join(cli._TYPE_NAMES[cli._json_type(k)] for k in kinds)
        if path.endswith(("]", ">")):
            default = ""
        elif key.default is cli.REQUIRED:
            default = "required"
        elif key.default is None:
            default = "unset"
        elif isinstance(key.default, cli.Same):
            default = f"same as `{key.default}`"
        else:
            default = f"`{json.dumps(key.default)}`"
        checked = key.range_text() if key.choices or key.low is not None else ""
        rows.append(f"| `{path}` | {names} | {default} | {checked} |")
    return rows


def test_readme_lists_the_config_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Config schema")[1].split("\n## ")[0]
    assert [line for line in section.splitlines() if line.startswith("| ")] == \
        readme_table_rows()


def test_readme_states_the_bit_ranges():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = readme.split("- `quantization.bits` (also per layer) outside ")[1].split(";")[0]
    ranges = re.findall(r"(\d+)\.\.(\d+) for `(\w+)`", sentence)
    assert {scheme: (int(lo), int(hi)) for lo, hi, scheme in ranges} == quantize.BIT_RANGES
    assert len(ranges) == len(quantize.BIT_RANGES)


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    """Every input file of eval, pack and report, from one pipeline run."""
    tmp = tmp_path_factory.mktemp("pipeline")
    path, _ = pipeline_config(tmp)
    for stage in ("train", "sparsify", "quantize", "pack", "unpack"):
        assert main([stage, "--config", str(path)]) == 0
    return {p.name: p.read_bytes() for p in tmp.iterdir() if p.name != "model.devp"}


class TestExitCodes:
    def test_missing_config_is_validation_error(self, capsys):
        assert main(["train", "--config", "/nonexistent.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_validation_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["train", "--config", str(p)]) == 1

    def test_missing_model_file_is_runtime_error(self, tmp_path, capsys):
        path, _ = pipeline_config(tmp_path)
        assert main(["sparsify", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,setting", [
        ("sparsify", "de.retrain_lr=0"), ("sparsify", "de.retrain_lr=-0.5"),
        ("sparsify", "de.retrain_lr=NaN"), ("sparsify", "de.retrain_batch_size=0"),
        ("train", "train.lr=0"), ("train", "train.lr=NaN"),
        ("train", "train.batch_size=0")])
    def test_bad_step_setting_is_validation_error(self, tmp_path, monkeypatch, capsys,
                                                  command, setting):
        path, cfg = pipeline_config(tmp_path)
        nn.save_network(nn.build_network(cfg["model"]["architecture"], 0),
                        cfg["model"]["path"])
        work = []
        monkeypatch.setattr(evolution, "evaluate_trials", lambda *a: work.append(a))
        monkeypatch.setattr(nn, "sgd_step", lambda *a: work.append(a))
        assert main([command, "--config", str(path), "--set", setting]) == 1
        assert "config error" in capsys.readouterr().err
        assert work == []  # rejected before any trial or training step

    @pytest.mark.parametrize("settings", [
        ["quantization.scheme=bogus"], ["quantization.scheme=identity"],
        ["quantization.rounding=floor"], ["quantization.bits=0"],
        ["quantization.bits=-3"], ["quantization.bits=17"],
        ["quantization.scheme=uniform_scale", "quantization.bits=1"],
        ["quantization.scheme=optimal_density", "quantization.bits=11"],
        ["quantization.per_layer.0.scheme=bogus"],
        ["quantization.per_layer.0.scheme=identity"],
        ["quantization.per_layer.0.rounding=floor"],
        ["quantization.per_layer.0.bits=0"], ["quantization.per_layer.2.bits=17"],
        ["quantization.per_layer.0.scheme=optimal_density",
         "quantization.per_layer.0.bits=11"],
        # 12 bits suit uniform_affine, which layer 0 swaps for optimal_density
        ["quantization.bits=12", "quantization.per_layer.0.scheme=optimal_density"]])
    def test_bad_quantization_is_validation_error(self, tmp_path, monkeypatch, capsys,
                                                  settings):
        path, cfg = pipeline_config(tmp_path)
        work = []
        monkeypatch.setattr(nn, "sgd_step", lambda *a: work.append(a))
        monkeypatch.setattr(quantize, "solve_levels", lambda *a: work.append(a))
        sets = [arg for s in settings for arg in ("--set", s)]
        for command in ("train", "quantize"):
            assert main([command, "--config", str(path), *sets]) == 1
            assert "config error" in capsys.readouterr().err
        assert work == []  # rejected before any training step or level solve

    @pytest.mark.parametrize("quant", [
        {"scheme": "uniform_affine", "bits": 16}, {"scheme": "uniform_scale", "bits": 2},
        {"scheme": "optimal_density", "bits": 10, "rounding": "stochastic"},
        {"scheme": "optimal_density", "bits": 1,
         "per_layer": {"2": {"scheme": "uniform_affine", "bits": 16}}}])
    def test_quantization_bounds_load(self, quant):
        validate_config({"master_seed": 1, "quantization": quant})

    def test_train_without_output_model_fails_before_training(self, tmp_path, monkeypatch,
                                                              capsys):
        path, cfg = pipeline_config(tmp_path)
        del cfg["output"]["model"]
        path.write_text(json.dumps(cfg))
        steps = []
        monkeypatch.setattr(nn, "sgd_step", lambda *a: steps.append(a))
        assert main(["train", "--config", str(path)]) == 1
        assert "output.model" in capsys.readouterr().err
        assert steps == []

    # the pipeline net has 3 outputs
    @pytest.mark.parametrize("head,match", [
        ({"start": 2, "stop": 1}, "empty"), ({"start": 1, "stop": 1}, "empty"),
        ({"start": -1, "stop": 2}, "negative"), ({"start": 0, "stop": 4}, "output width 3")])
    def test_bad_divergence_head_is_validation_error(self, tmp_path, monkeypatch, capsys,
                                                     head, match):
        path, cfg = pipeline_config(tmp_path, divergence={"heads": [head]})
        nn.save_network(nn.build_network(cfg["model"]["architecture"], 0),
                        cfg["model"]["path"])
        trials = []
        monkeypatch.setattr(evolution, "evaluate_trials", lambda *a: trials.append(a))
        assert main(["sparsify", "--config", str(path)]) == 1
        assert match in capsys.readouterr().err
        assert trials == []

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_workers_flag_is_validation_error(self, tmp_path, monkeypatch, capsys,
                                                  workers):
        path, cfg = pipeline_config(tmp_path)
        nn.save_network(nn.build_network(cfg["model"]["architecture"], 0),
                        cfg["model"]["path"])
        trials = []
        monkeypatch.setattr(evolution, "evaluate_trials", lambda *a: trials.append(a))
        assert main(["sparsify", "--config", str(path), "--workers", workers]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert trials == [] and not (tmp_path / "history.csv").exists()

    def test_train_without_epochs_fails_before_training(self, tmp_path, monkeypatch,
                                                         capsys):
        path, cfg = pipeline_config(tmp_path)
        del cfg["train"]
        path.write_text(json.dumps(cfg))
        steps = []
        monkeypatch.setattr(nn, "sgd_step", lambda *a: steps.append(a))
        assert main(["train", "--config", str(path)]) == 1
        assert "config requires train.epochs" in capsys.readouterr().err
        assert steps == [] and not (tmp_path / "teacher.devn").exists()

    @pytest.mark.parametrize("command,setting,match", [
        ("train", "de.workers=0", "invalid de section"),
        ("train", "de.step_fraction=7.0", "invalid de section"),
        ("train", 'divergence.heads=[{"start": 0, "stop": 3, "divisor": -1}]',
         "invalid divergence heads"),
        ("pack", "de.trials_per_cycle=0", "invalid de section"),
        ("pack", 'divergence.heads=[{"start": 0, "stop": 2, "weight": -1}]',
         "invalid divergence heads")])
    def test_library_ranges_are_checked_at_load_in_every_command(
            self, tmp_path, capsys, command, setting, match):
        path, _ = pipeline_config(tmp_path)
        if command == "pack":  # with its inputs in place, only the config can stop it
            for stage in ("train", "sparsify", "quantize"):
                assert main([stage, "--config", str(path)]) == 0
        files = sorted(tmp_path.iterdir())
        assert main([command, "--config", str(path), "--set", setting]) == 1
        assert match in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == files

    @pytest.mark.parametrize("setting", ["data.probe.size=0", "data.synthetic.classes=0"])
    @pytest.mark.parametrize("command", ["eval", "pack", "report"])
    def test_data_ranges_are_checked_at_load_in_every_command(
            self, tmp_path, capsys, pipeline_files, command, setting):
        for name, data in pipeline_files.items():
            (tmp_path / name).write_bytes(data)
        path, _ = pipeline_config(tmp_path)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main([command, "--config", str(path), "--set", setting]) == 1
        assert setting.rsplit(".", 1)[0] in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_pack_refuses_a_table_that_float32_cannot_hold(self, tmp_path, capsys):
        path, cfg = pipeline_config(tmp_path)
        del cfg["model"]["path"]  # no teacher
        cfg["data"]["synthetic"]["feature_dim"] = 5
        cfg["quantization"]["bits"] = 8
        path.write_text(json.dumps(cfg))
        # 256 distinct f64 levels over 1e-6 near 0.5 are fewer in f32
        net = nn.Network([nn.Dense(np.linspace(0.5, 0.5 + 1e-6, 50).reshape(5, 10),
                                   np.zeros(10))], (5,))
        mask = sparsity.SparsityMask.empty(net)
        mask.bits[0][50:] = True  # biases pruned
        nn.save_network(net, cfg["output"]["student"])
        sparsity.save_mask(mask, cfg["output"]["mask"])
        assert main(["quantize", "--config", str(path)]) == 0
        assert main(["pack", "--config", str(path)]) == 2
        assert "layer 0" in capsys.readouterr().err
        assert not (tmp_path / "model.devp").exists()

    def test_a_luts_serialization_error_leaves_no_output(self, tmp_path, monkeypatch,
                                                         capsys, pipeline_files):
        for name in ("teacher.devn", "student.devn", "mask.devm"):
            (tmp_path / name).write_bytes(pipeline_files[name])
        path, _ = pipeline_config(tmp_path)
        solve = quantize.quantize_network

        def unserializable_seed(*args, **kwargs):
            model, report = solve(*args, **kwargs)
            model.layers[-1].spec.seed = np.uint64(model.layers[-1].spec.seed)
            return model, report
        monkeypatch.setattr(quantize, "quantize_network", unserializable_seed)
        assert main(["quantize", "--config", str(path)]) == 2
        assert "JSON serializable" in capsys.readouterr().err
        assert not (tmp_path / "luts.json").exists()
        assert not (tmp_path / "quantized.devn").exists()

    def test_a_container_serialization_error_leaves_no_file(self, tmp_path, monkeypatch,
                                                            capsys, pipeline_files):
        for name, data in pipeline_files.items():
            (tmp_path / name).write_bytes(data)
        path, _ = pipeline_config(tmp_path)

        def fail(self):
            raise RuntimeError("injected serialization error")
        monkeypatch.setattr(packing.PackedModel, "to_bytes", fail)
        assert main(["pack", "--config", str(path)]) == 2
        assert "injected" in capsys.readouterr().err
        assert not (tmp_path / "model.devp").exists()

    def test_blown_up_train_writes_no_model(self, tmp_path, capsys):
        path, _ = pipeline_config(tmp_path)
        # one step over all 256 samples at lr=1e200 overflows the next forward
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--config", str(path), "--set", "train.epochs=1",
                         "--set", "train.lr=1e200", "--set", "train.batch_size=256"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "teacher.devn").exists()


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        path, cfg = pipeline_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        acc = float([l for l in out.splitlines()
                     if l.startswith("accuracy")][0].split()[1])
        assert acc > 0.9

        assert main(["sparsify", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "status target_reached" in out
        assert (tmp_path / "student.devn").exists()
        assert (tmp_path / "mask.devm").exists()
        history = (tmp_path / "history.csv").read_text().splitlines()
        assert history[0].startswith("cycle,layer,")

        assert main(["quantize", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lut_count 2" in out
        luts = json.loads((tmp_path / "luts.json").read_text())
        assert len(luts["layers"]) == 2

        assert main(["pack", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "payload-only ratio" in out

        assert main(["unpack", "--config", str(path)]) == 0
        capsys.readouterr()

        assert main(["eval", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "divergence" in out

        assert main(["report", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "final_sparsity[0]" in out

    def test_zero_epoch_train_writes_initialized_model(self, tmp_path, capsys):
        path, cfg = pipeline_config(tmp_path)
        apply = ["train", "--config", str(path), "--set", "train.epochs=0"]
        assert main(apply) == 0
        net = nn.load_network(cfg["output"]["model"])
        fresh = nn.build_network(cfg["model"]["architecture"], 77)
        assert nn.serialize_network(net) == nn.serialize_network(fresh)

    def test_architecture_path_trains_the_inline_model(self, tmp_path, capsys):
        path, cfg = pipeline_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 0
        inline = (tmp_path / "teacher.devn").read_bytes()
        arch_path = tmp_path / "arch.json"
        arch_path.write_text(json.dumps(cfg["model"].pop("architecture")))
        cfg["model"]["architecture_path"] = str(arch_path)
        cfg["output"]["model"] = str(tmp_path / "from_path.devn")
        assert main(["train", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert (tmp_path / "from_path.devn").read_bytes() == inline

    def test_train_determinism(self, tmp_path, capsys):
        path, cfg = pipeline_config(tmp_path)
        main(["train", "--config", str(path)])
        first = (tmp_path / "teacher.devn").read_bytes()
        main(["train", "--config", str(path)])
        assert (tmp_path / "teacher.devn").read_bytes() == first

    def test_target_zero_student_equals_teacher(self, tmp_path, capsys):
        path, cfg = pipeline_config(tmp_path)
        main(["train", "--config", str(path)])
        assert main(["sparsify", "--config", str(path), "--set",
                     "de.target_sparsity=0.0"]) == 0
        teacher = (tmp_path / "teacher.devn").read_bytes()
        student = (tmp_path / "student.devn").read_bytes()
        assert teacher == student

    def test_history_rows_match_cycles(self, tmp_path, capsys):
        path, _ = pipeline_config(tmp_path)
        main(["train", "--config", str(path)])
        main(["sparsify", "--config", str(path)])
        out = capsys.readouterr().out
        cycles = int([l for l in out.splitlines()
                      if l.startswith("cycles")][0].split()[1])
        rows = (tmp_path / "history.csv").read_text().splitlines()
        assert len(rows) - 1 == cycles

    def test_set_override_changes_behavior(self, tmp_path, capsys):
        path, _ = pipeline_config(tmp_path)
        main(["train", "--config", str(path)])
        main(["sparsify", "--config", str(path), "--set",
              "de.target_sparsity=0.2"])
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("sparsity")][0]
        assert float(line.split()[1]) < 0.3

    def test_corrupted_packed_file_errors(self, tmp_path, capsys):
        path, cfg = pipeline_config(tmp_path)
        main(["train", "--config", str(path)])
        main(["sparsify", "--config", str(path)])
        main(["quantize", "--config", str(path)])
        main(["pack", "--config", str(path)])
        capsys.readouterr()
        packed = tmp_path / "model.devp"
        data = bytearray(packed.read_bytes())
        data[len(data) // 2] ^= 0x10
        packed.write_bytes(bytes(data))
        assert main(["unpack", "--config", str(path)]) == 2
        assert "CRC" in capsys.readouterr().err

    def test_workers_flag_identical_outputs(self, tmp_path, capsys):
        path, _ = pipeline_config(tmp_path)
        main(["train", "--config", str(path)])
        main(["sparsify", "--config", str(path)])
        first = (tmp_path / "history.csv").read_bytes()
        main(["sparsify", "--config", str(path), "--workers", "3"])
        assert (tmp_path / "history.csv").read_bytes() == first

    def test_packed_unpacked_eval_matches_quantized(self, tmp_path, capsys):
        path, cfg = pipeline_config(tmp_path)
        for cmd in ("train", "sparsify", "quantize", "pack", "unpack"):
            assert main([cmd, "--config", str(path)]) == 0
        capsys.readouterr()
        # accuracy of the restored model equals the quantized model's accuracy
        assert main(["eval", "--config", str(path)]) == 0
        restored_out = capsys.readouterr().out
        (tmp_path / "run.json").write_text(json.dumps({
            **cfg, "eval": {"model": cfg["output"]["quantized"],
                            "teacher": cfg["model"]["path"]}}))
        assert main(["eval", "--config", str(path)]) == 0
        quantized_out = capsys.readouterr().out
        acc_restored = restored_out.splitlines()[0]
        acc_quantized = quantized_out.splitlines()[0]
        assert acc_restored == acc_quantized

    # a whole-layer step with prunable biases zeroes layer 0 in one sweep
    FULLY_PRUNED = ["--set", "de.include_biases=true", "--set", "de.step_fraction=1.0",
                    "--set", 'de.target_sparsity={"0": 1.0}']

    def test_fully_pruned_layer_round_trip(self, tmp_path, capsys):
        path, _ = pipeline_config(tmp_path)
        for cmd in ("train", "sparsify", "quantize", "pack", "unpack"):
            assert main([cmd, "--config", str(path), *self.FULLY_PRUNED]) == 0, \
                capsys.readouterr().err
        entry = json.loads((tmp_path / "luts.json").read_text())["layers"][0]
        assert entry["layer"] == 0 and entry["bits"] == 0 and entry["levels"] == [0.0]
        assert "degenerate" not in entry
        restored = nn.load_network(str(tmp_path / "restored.devn"))
        assert not restored.layers[0].flat_params().any()
        assert restored.layers[2].flat_params().any()

    def test_luts_with_degenerate_key_pack_to_same_bytes(self, tmp_path, capsys):
        # luts.json files once flagged each one-entry table "degenerate"
        path, _ = pipeline_config(tmp_path)
        for cmd in ("train", "sparsify", "quantize", "pack"):
            assert main([cmd, "--config", str(path), *self.FULLY_PRUNED]) == 0
        packed = (tmp_path / "model.devp").read_bytes()
        luts = json.loads((tmp_path / "luts.json").read_text())
        for entry in luts["layers"]:
            entry["degenerate"] = len(entry["levels"]) == 1
        assert luts["layers"][0]["degenerate"]
        (tmp_path / "luts.json").write_text(json.dumps(luts, sort_keys=True))
        assert main(["pack", "--config", str(path), *self.FULLY_PRUNED]) == 0
        assert (tmp_path / "model.devp").read_bytes() == packed


CONV_ARCH = {"input_shape": [8, 8, 1], "layers": [
    {"kind": "conv2d", "filters": 4, "kernel": 3, "padding": "same"},
    {"kind": "relu"},
    {"kind": "max_pool", "pool": 2},
    {"kind": "flatten"},
    {"kind": "dense", "units": 3},
    {"kind": "softmax"},
]}


def write_config(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConvNets:
    def test_conv_pipeline(self, tmp_path, capsys):
        # 64 blob features reshaped to the conv net's [8,8,1] input
        _, cfg = pipeline_config(tmp_path)
        cfg["model"]["architecture"] = CONV_ARCH
        cfg["data"]["synthetic"].update(feature_dim=64, separation=8.0)
        cfg["de"].update(scope=[0], target_sparsity=0.3)
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        acc = float([l for l in out.splitlines()
                     if l.startswith("accuracy")][0].split()[1])
        assert acc > 0.9

        assert main(["sparsify", "--config", str(path)]) == 0
        assert "status target_reached" in capsys.readouterr().out
        mask = sparsity.load_mask(cfg["output"]["mask"])
        assert sparsity.sparsity(mask, 0) >= 0.3

        assert main(["quantize", "--config", str(path)]) == 0
        assert "lut_count 2" in capsys.readouterr().out
        assert main(["pack", "--config", str(path)]) == 0
        assert main(["unpack", "--config", str(path)]) == 0
        restored = nn.load_network(cfg["output"]["restored"])
        assert restored.input_shape == (8, 8, 1)
        capsys.readouterr()

        assert main(["eval", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "divergence" in out

    def test_idx_images_fit_flat_and_image_inputs(self, tmp_path, capsys):
        blobs = datasets.synthetic_dataset("blobs", 96, 3, seed=4, feature_dim=64)
        images = 1.0 / (1.0 + np.exp(-blobs.inputs.reshape(-1, 8, 8)))
        (tmp_path / "images.idx").write_bytes(datasets.serialize_idx(images))
        (tmp_path / "labels.idx").write_bytes(datasets.serialize_idx(blobs.labels))
        _, cfg = pipeline_config(tmp_path)
        cfg["data"] = {"idx": {"images": str(tmp_path / "images.idx"),
                               "labels": str(tmp_path / "labels.idx")}}
        cfg["train"]["epochs"] = 1
        for arch in (CONV_ARCH, {**cfg["model"]["architecture"], "input_shape": [64]}):
            cfg["model"]["architecture"] = arch
            path = write_config(tmp_path, cfg)
            assert main(["train", "--config", str(path)]) == 0
            assert main(["eval", "--config", str(path), "--set",
                         f"eval.model={cfg['output']['model']}"]) == 0
        capsys.readouterr()

        cfg["model"]["architecture"] = {**cfg["model"]["architecture"], "input_shape": [63]}
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "[8, 8]" in err and "[63]" in err
