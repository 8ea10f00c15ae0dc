import json

import numpy as np
import pytest

from devolve import datasets, evolution, nn, sparsity
from devolve.cli import ConfigError, apply_overrides, main, validate_config


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

    def test_apply_overrides(self):
        cfg = {"master_seed": 1, "de": {"trials_per_cycle": 10}}
        apply_overrides(cfg, ["de.trials_per_cycle=99", "de.workers=2"])
        assert cfg["de"]["trials_per_cycle"] == 99
        assert cfg["de"]["workers"] == 2

    def test_override_rejects_unknown(self):
        with pytest.raises(ConfigError):
            apply_overrides({"master_seed": 1}, ["de.bogus=1"])


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
