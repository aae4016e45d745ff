"""Smoke tests of the benchmark itself, at tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [d["name"] for d in declared]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) == 3}
    for d in declared:
        assert printed[d["name"]] == d["unit"] == result["metrics"][d["name"]]["unit"]
        assert isinstance(result["metrics"][d["name"]]["value"], (int, float))
    assert float(lines[-3].split()[1]) == 0.0 and lines[-3].startswith("failed_frac ")


def _gate_tiny_results(tmp_path):
    from biobj import harness

    config = run.make_config("summarize-records", 5, "tiny")
    config.update(dims=[2, 40])
    out = tmp_path / "results"
    harness.run_experiment(harness.ExperimentConfig(out_dir=str(out), **config))
    cells, _ = run.cells_and_evals(config)
    return out, cells, gate.check_records(str(out))


def test_corrupted_record_is_counted_in_failed_frac(tmp_path):
    out, cells, reference = _gate_tiny_results(tmp_path)
    assert reference["failures"] == {} and reference["summarized"] == cells
    assert run.record_failures(reference, reference, None, cells) == 0

    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    names = sorted(reference["bytes"])
    # One record gets an archive objective nudged, another loses its archive.
    text = (copy / names[0]).read_text().splitlines()
    row = text[text.index("archive:") + 1].split()
    row[2] = repr(float(row[2]) * 0.5)
    text[text.index("archive:") + 1] = " ".join(row)
    (copy / names[0]).write_text("\n".join(text) + "\n")
    text = (copy / names[1]).read_text()
    (copy / names[1]).write_text(text[: text.index("archive:")])

    checked = gate.check_records(str(copy))
    assert set(checked["failures"]) == {names[0], names[1]}
    failed = run.record_failures(checked, reference, None, cells)
    assert failed == 2 and failed / cells > 0.0

    pins = dict(reference["semantic"])
    pins[names[2]] = "0" * 16
    assert run.record_failures(reference, reference, pins, cells) == 1
    os.remove(copy / names[3])
    assert run.record_failures(gate.check_records(str(copy)), reference, None, cells) == 3


def test_layer_without_calls_is_unmeasured_not_zero():
    metrics = tracer.layer_metrics(tracer.Tracer(), [], None)
    declared = {d["name"] for d in BENCH["per_layer"]} - {"trace.overhead_frac"}
    assert set(metrics) == declared
    assert all(value is None for value in metrics.values())


def test_missing_program_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run-d2-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
