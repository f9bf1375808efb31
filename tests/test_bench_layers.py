"""bench/layers.py runs end to end at a tiny lattice and writes its schema."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "bench" / "layers.py"


def test_layers_script_writes_its_schema(tmp_path):
    out = tmp_path / "bench.json"
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--dx", "0.0625", "--commands", "gronwall",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text())
    assert result["schema"] == "fracspde-bench-layers/1"
    assert result["repeats"] == 5
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(result["machine"])
    assert [(case["equation"], case["dx"]) for case in result["solver"]] == [
        ("wave", 0.0625), ("heat", 0.0625),
    ]
    for case in result["solver"]:
        assert case["n_steps"] == 8 and case["maxrss_mb"] > 0.0
        assert list(case["layers"]) == [
            "rng_draw", "band_field", "homogeneous", "slab_sums", "picard_step", "sweep", "solve",
            "ensemble",
        ]
        for layer in case["layers"].values():
            assert len(layer["times_s"]) == result["repeats"]
            assert layer["median_s"] == sorted(layer["times_s"])[len(layer["times_s"]) // 2]
            assert layer["tracemalloc_peak_mb"] > 0.0
    [cli] = result["cli"]
    # the script stops at a command that exits non-zero, so each timed run exited 0
    assert cli["command"] == "gronwall" and cli["args"] == []
    assert len(cli["times_s"]) == result["repeats"]
    assert cli["median_s"] > 0.0 and cli["maxrss_mb"] > 0.0


def load_layers():
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_a_labelled_key_runs_its_command(monkeypatch):
    layers = load_layers()
    argvs = []

    def child(argv, env):
        argvs.append(argv[3:-2])
        return 0, 1.0, 50.0, ""

    monkeypatch.setattr(layers, "_run_child", child)
    record = layers.time_command("picard:ensemble", {})
    assert argvs == [["picard", "--ensemble", "64", "--threads", "2"]] * layers.REPEATS
    assert record["command"] == "picard:ensemble"
    assert record["args"] == ["--ensemble", "64", "--threads", "2"]


def test_a_command_that_exits_non_zero_stops_the_script(monkeypatch):
    layers = load_layers()
    # the Gronwall bound diverges at this g, so every run of it fails
    monkeypatch.setitem(layers.COMMANDS, "gronwall", ("--g", "power:-0.7"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with pytest.raises(SystemExit, match=r"^gronwall --g power:-0\.7 exited [1-9]"):
        layers.time_command("gronwall", env)
