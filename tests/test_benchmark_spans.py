"""Every layer the benchmark's tracer (``perfbench/tracing.py``) wraps must
be reached by the short runs it takes a layer's time from: ``pytest
perfbench`` requires each layer to be timed.  A one-replication ``table1``
and a small ``oracle`` cross-check, run in this process under the tracer's
patches, must call every patched name at least once."""

import importlib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# short shapes of the two workloads: one replication runs through the scalar
# kernels, the reservoirs and the ladder step, as the tracer's tour does
SHAPES = {
    "table1-gaussian": {"replications": 1, "iterations": 300},
    "oracle-crosscheck": {"crosscheck_replications": 4, "crosscheck_iterations": 1000},
}


def test_a_short_table1_and_oracle_call_every_traced_span(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    ee = tracing.import_program(REPO_ROOT / "src")
    tracer = tracing.Tracer()
    patches = tracing.layer_patches(ee, tracer)
    spans = sorted(tracer.duration)  # one entry per span the patches opened
    with tracing.patched(patches):
        for name, overrides in SHAPES.items():
            workload = workloads.WORKLOADS[name]
            config = workloads.write_config(tmp_path / f"{name}.yaml",
                                            workload.config_for(1, **overrides))
            assert ee.cli.main(workload.argv(config, 1, tmp_path / name, jobs=1)) == 0
    capsys.readouterr()
    assert len(spans) > 10
    assert [span for span in spans if tracer.calls(span) == 0] == []
