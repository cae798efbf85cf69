"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions of the
package by name.  Entering its patches here, without running a workload,
makes a rename or removal of any traced name fail the suite before it can
stop a traced benchmark run."""

import importlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_patches_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    ee = tracing.import_program(REPO_ROOT / "src")
    tracer = tracing.Tracer()
    patches = tracing.layer_patches(ee, tracer) + tracing.replication_patches(ee, tracer)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    with tracing.patched(patches):
        for owner, attr, wrapper in patches:
            assert owner.__dict__[attr] is wrapper
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
