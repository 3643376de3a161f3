"""Smoke test of the benchmark itself: every workload at a tiny size, both
modes, with no failed op and every metric of BENCHMARK.json present.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_is_correct_and_complete(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if not trace:
        assert any(line.startswith("error_rate = 0.0 ") for line in lines)
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("table", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_wraps_every_binding_and_restores_them():
    td = workloads.import_program()
    original = td.automorphisms.substitute
    t = tracer.Tracer()
    t.install()
    try:
        assert td.automorphisms.substitute is not original
        assert td.automorphisms.substitute is td.poly.substitute
        td.classify_total(2, 3, 4)
    finally:
        t.uninstall()
    assert td.automorphisms.substitute is original
    tracer.assert_unwrapped()
    summary = t.summary()
    assert summary["calls"]["automorphisms.realize"] == 2
    assert summary["counts"]["classifier.verdicts.realizable"] == 1
