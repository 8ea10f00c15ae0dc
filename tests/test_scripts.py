"""The scripts under scripts/, called through their main() as on the command
line."""

import importlib.util
import sys
from pathlib import Path

from devolve import cli
from devolve.cli import main

from test_cli import pipeline_config

SCRIPTS = Path(__file__).parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSweepQuantization:
    def test_missing_run_json_exits_with_a_message(self, tmp_path, monkeypatch, capsys):
        sweep = load_script("sweep_quantization")
        monkeypatch.setattr(sys, "argv", ["sweep", "--workdir", str(tmp_path)])
        assert sweep.main() == 1
        assert "run.json not found" in capsys.readouterr().err

    def test_dataset_comes_from_run_json(self, tmp_path, monkeypatch, capsys):
        path, cfg = pipeline_config(tmp_path)
        for stage in ("train", "sparsify"):
            assert main([stage, "--config", str(path)]) == 0
        built = []
        build = cli._build_dataset

        def recorded(config, input_shape):
            built.append(config["data"]["synthetic"])
            return build(config, input_shape)
        monkeypatch.setattr(cli, "_build_dataset", recorded)
        sweep = load_script("sweep_quantization")
        monkeypatch.setattr(sys, "argv", ["sweep", "--workdir", str(tmp_path)])
        capsys.readouterr()
        assert sweep.main() == 0
        assert len(built) == 1 and cfg["data"]["synthetic"].items() <= built[0].items()
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(("uniform_", "optimal_"))]
        assert len(rows) == 18  # 3 schemes x 3 widths x 2 roundings
