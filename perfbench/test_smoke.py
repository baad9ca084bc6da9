"""Smoke test of the benchmark at tiny N.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload on a machine small enough that a repetition takes a
fraction of a second, and checks the printed result against the metric
names and units declared in BENCHMARK.json, the counter gate, and the
refusal to run without the package.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = {"canonical": {"P": 2, "D": 2, "B": 4, "m": 32, "N": 256},
        "striped": {"P": 2, "D": 2, "B": 4, "m": 16, "N": 512}}
SEED = 5


def tiny_workloads() -> dict:
    return {name: dict(spec, config={**spec["config"], **TINY[spec["engine"]]})
            for name, spec in run.load_json(run.BENCH / "workloads.json").items()}


def run_main(capsys, workload: str, trace: int, references: dict) -> dict:
    argv = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace)]
    assert run.main(argv, workloads=tiny_workloads(), references=references) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    for name, entry in result["metrics"].items():
        assert f"{name} {entry['value']} {entry['unit']}" in lines
    return result


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(tiny_workloads()))
def test_every_declared_metric_is_printed_with_its_unit(capsys, workload, trace):
    declared = run.load_json(run.ROOT / "BENCHMARK.json")
    section = declared["per_layer" if trace else "end_to_end"]
    result = run_main(capsys, workload, trace, references={})
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (4 if trace else 3)
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {entry["name"]: entry["unit"] for entry in section}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("field", ("digest", "total"))
def test_corrupted_counter_reference_fails_every_repetition(capsys, field):
    workload = "canonical_random"
    spec = tiny_workloads()[workload]
    reference = run.reference_of(run.run_rep(workload, spec, SEED, False, 0, 60))
    good = run_main(capsys, workload, 0, {workload: {str(SEED): reference}})
    assert good["correct"] and good["failed"] == 0

    corrupted = dict(reference, **{field: reference[field][::-1]})
    bad = run_main(capsys, workload, 0, {workload: {str(SEED): corrupted}})
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] >= 3
    assert bad["metrics"]["pass_ratio"]["value"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canonical_random",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
