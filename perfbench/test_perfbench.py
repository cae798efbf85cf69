"""Self-tests of the benchmark, on shortened workloads.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

They check what the benchmark's numbers rely on: the same seed gives
byte-identical outputs, ``table1`` gives the same table at any job count,
the exact trace counts repeat across traced runs, and the benchmark
refuses to run where there is no program.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

# Shortened shapes: the same code paths as the benchmark, a few seconds
# each, but too short for the statistical output checks to hold reliably.
SMALL = {
    "table1-gaussian": {"replications": 2, "iterations": 1500},
    "oracle-crosscheck": {"crosscheck_replications": 50, "crosscheck_iterations": 20_000},
}


def _invoke(tmp_path, name, seed, label, jobs=None):
    workload = workloads.WORKLOADS[name]
    cfg = workload.config_for(seed, **SMALL[name])
    path = workloads.write_config(tmp_path / "config.yaml", cfg)
    out = tmp_path / label
    inv = run.invoke(workload.argv(path, seed, out, jobs=jobs), tmp_path, tmp_path / f"{label}.log")
    assert inv.returncode == 0, (tmp_path / f"{label}.log").read_text()
    return {name: (out / name).read_bytes() for name in workload.outputs}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_outputs(tmp_path, name):
    assert _invoke(tmp_path, name, 7, "a") == _invoke(tmp_path, name, 7, "b")


def test_table1_output_does_not_depend_on_job_count(tmp_path):
    serial = _invoke(tmp_path, "table1-gaussian", 11, "jobs1", jobs=1)
    assert _invoke(tmp_path, "table1-gaussian", 11, "jobs2", jobs=2) == serial


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], trace_overrides=SMALL[name])
    first = tracing.run_traced(workload, 3, tmp_path, run.SRC)
    second = tracing.run_traced(workload, 3, tmp_path, run.SRC)
    # The statistical output checks are not asserted: these shapes are too short.
    assert first.outputs_match and second.outputs_match
    counts = [{k: r.metrics[k][0] for k in tracing.EXACT_COUNTS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert set(first.metrics) | {"analysis.pool_cpu_util"} == set(tracing.PER_LAYER)
    # Every time is measured: by the workload, or by the tour where its layer is idle.
    assert all(value > 0 for value, unit in first.metrics.values() if unit in tracing.TIME_UNITS)


def test_end_to_end_reports_the_declared_metrics(tmp_path):
    workload = dataclasses.replace(
        workloads.WORKLOADS["oracle-crosscheck"],
        config=dict(workloads.ORACLE, **SMALL["oracle-crosscheck"]),
    )
    metrics, attempted, failed, errors, _ = run.end_to_end(workload, 5, 0.0, tmp_path)
    assert (failed, errors) == (0, [])
    assert attempted == run.SETUP_REPEATS + 2
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics)
    assert all(value > 0 for value, _ in metrics.values())


def test_benchmark_file_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert bench["workloads"] == [{"name": w.name, "why": w.why}
                                  for w in workloads.WORKLOADS.values()]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, (u, b) in tracing.PER_LAYER.items()]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-crosscheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
