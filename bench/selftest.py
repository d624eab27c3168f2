"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q bench/selftest.py

Takes about a minute: the table workload is traced twice.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_OPS = {"table": 1, "sweep": 39, "cli": 60}


def traced_pass(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", "7",
           "--ops", str(SMALL_OPS[workload]), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
                          check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_pass(workload), traced_pass(workload)
    assert first["failed"] == second["failed"] == 0
    counts = {name: v[0] for name, v in first["layers"].items() if v[1] == "count"}
    assert counts == {name: v[0] for name, v in second["layers"].items() if v[1] == "count"}
    assert counts["protocols.key_rate.calls"] > 0
    assert first["refinements"] == second["refinements"]


def run_bench(tmp_root: Path | None, *args: str) -> subprocess.CompletedProcess:
    root = tmp_root or ROOT
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_prints_name_unit_and_samples(trace, section):
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    proc = run_bench(None, "--workload", "cli", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit, samples = line.split()
            assert samples.startswith("samples=") and int(samples[len("samples="):]) >= 0
            printed[name] = unit
            assert float(value) == pytest.approx(result["metrics"][name]["value"], rel=1e-5,
                                                 abs=1e-9)
    assert printed == declared


def test_restore_puts_back_every_binding():
    workloads.import_cvmdi()
    bindings = tracer.LAYER_BINDINGS + tracer.SEARCH_BINDINGS
    before = [getattr(importlib.import_module(m), a) for m, a, _ in bindings]
    t = tracer.Tracer()
    t.install()
    assert all(getattr(importlib.import_module(m), a) is not f
               for (m, a, _), f in zip(bindings, before))
    t.restore()
    assert [getattr(importlib.import_module(m), a) for m, a, _ in bindings] == before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "cli", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_windows_keep_every_operation_in_order():
    lat = [0.2] * 7 + [0.05] * 3
    ws = run.windows(lat)
    assert [t for w in ws for t in w] == lat
    assert all(sum(w) >= run.WINDOW_S for w in ws)
    assert run.windows([0.1]) == [[0.1]]


def test_best_table_takes_each_evaluation_at_its_best():
    segments = [[1.0, 3.0], [2.0, 2.0], [1.5, 2.5]]
    tables = [sum(s) + 0.5 for s in segments]
    assert run.best_table_s(tables, segments) == pytest.approx(1.0 + 2.0 + 0.5)
    with pytest.raises(RuntimeError):
        run.best_table_s([1.0, 1.0], [[0.5], [0.2, 0.3]])
