"""Smoke tests of the benchmark itself: ``python3 -m pytest -q psrbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "7", "--seconds", "0.1", "--scale", "0.02"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_corrupted_prediction_is_counted_as_a_failure(monkeypatch):
    """A valid-looking but wrong prediction file must fail the output check."""
    invoke = run.Bench.invoke
    corrupted = []

    def invoke_then_corrupt(self, argv, tracer=None):
        elapsed = invoke(self, argv, tracer)
        if argv[0] == "run" and argv[argv.index("--baseline") + 1] == "b2":
            out = Path(argv[argv.index("--out") + 1])
            lines = out.read_text().splitlines()
            if len(lines) > 2:  # manifest, base state, then the first step
                step = json.loads(lines[2])
                step["frame"] += 1
                lines[2] = json.dumps(step)
                out.write_text("\n".join(lines) + "\n")
                corrupted.append(out.name)
        return elapsed

    monkeypatch.setattr(run.Bench, "invoke", invoke_then_corrupt)
    result, lines = run.run_workload("corpus_short", 7, 0.1, False, scale=0.05)
    assert corrupted
    assert not result["correct"]
    assert result["failed"] >= len(set(corrupted))
    assert any(line.startswith("failure:") and "events differ" in line for line in lines)


def test_missing_sources_exit_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "wide_b3", "--seconds", "0.1"]) == 2
    assert capsys.readouterr().out == ""
