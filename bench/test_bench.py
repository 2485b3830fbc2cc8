"""Tests of the benchmark itself, on tiny configurations of each workload.

Each run is a subprocess, as in real use, so that the benchmark's fresh
imports of the library never disturb the test process.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = workloads.Sizes(
    forms_n=range(0, 3),
    forms_m=range(-1, 2),
    matrix_n=range(0, 2),
    matrix_m=range(0, 2),
    large_ns=(1, 2),
    spaces=20,
    pairs=10,
)


def corrupt_one_multiplicity(mf) -> None:
    """Make the solver answer one forms cell, (2, 0), off by one."""
    original = mf.multiplicity

    def wrong(rep, spec, *args, **kwargs):
        return original(rep, spec, *args, **kwargs) + (1 if rep.label == (2, 0) else 0)

    mf.multiplicity = wrong


def run_tiny(workload: str, trace: int = 0, hook: str = "None"):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", str(trace)]
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run, test_bench; "
        f"sys.exit(run.main({argv!r}, sizes=test_bench.TINY, hook={hook}))"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-2]) if len(lines) > 1 else None), (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_reports_every_end_to_end_metric(workload):
    code, details, result = run_tiny(workload)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert details["seed"] == 7 and details["fail_ratio"] == 0 and details["inputs_deterministic"]
    assert {"python", "nproc", "cpu_model"} <= set(details["env"])
    assert all(p["wall_s"] > 0 and p["cpu_s"] > 0 for p in details["passes"])


@pytest.mark.parametrize("workload", ["paper-grids", "random-filtered"])
def test_traced_run_reports_every_layer_and_adds_up(workload):
    code, details, result = run_tiny(workload, trace=1)
    assert code == 0, result
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    layers = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert math.isclose(layers, metrics["trace.wall_s"], rel_tol=1e-9)
    assert metrics["homspaces.total_s"] >= metrics["homspaces.self_s"] + metrics["varieties.self_s"]
    assert any(p["traced"] for p in details["passes"]) and any(not p["traced"] for p in details["passes"])
    if workload == "paper-grids":
        assert metrics["characters.oracle_calls"] == len(TINY.forms_n) * len(TINY.forms_m) + (len(TINY.matrix_n) * len(TINY.matrix_m)) ** 2
        assert metrics["homspaces.systems"] == metrics["characters.oracle_calls"]
        assert metrics["gl2.op_entries"] > 0 and metrics["varieties.filtration_calls"] > 0
    else:
        assert metrics["rees.self_s"] > 0 and metrics["characters.oracle_calls"] == 0
    assert 0 < metrics["homspaces.nnz_ratio"] <= 1 and 0 <= metrics["homspaces.rank_row_ratio"] <= 1


def test_corrupted_answer_counts_as_failure():
    code, details, result = run_tiny("paper-grids", hook="test_bench.corrupt_one_multiplicity")
    assert code != 0
    assert result["correct"] is False and result["failed"] == len(details["passes"])
    assert details["fail_ratio"] > 0


def test_same_seed_same_inputs():
    import multifilt as mf

    def plain(seed):
        return repr([(op.key, op.inputs) for op in workloads.build("random-filtered", mf, seed, TINY)])

    assert plain(3) == plain(3) != plain(4)


def test_without_library_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "paper-grids", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
