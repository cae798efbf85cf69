"""In-process traced run: per-layer metrics of one workload.

The run calls ``eesampler.cli.main`` in this process with ``--jobs 1``
(spans opened here would not reach pool workers) three times:

1. untraced, except for one span per replication task, which gives the
   per-replication wall times;
2. traced: every public function of the layers below is wrapped, under
   the name its caller looks it up by, in a span that records its
   duration and its self time (duration minus the time of the traced
   spans it calls);
3. untraced again.

The three outputs must be byte-identical.  The tracing overhead is the
traced wall time over the mean of the two untraced ones.  Spans
are aggregated in memory per name, not kept one by one: an `ir` ladder
opens about a million of them per replication.

Where the functions are looked up:

* ``ladder.py`` imports the kernel functions by name, so they are patched
  on ``eesampler.ladder``; ``rwm_step`` is also patched on
  ``eesampler.kernels``, where the adaptive kernels call it for their
  local branch;
* ``analysis.py`` imports ``run_sampler`` by name (patched there);
* ``cli.py`` imports ``ee_pair_scaled_sums`` by name (patched there);
* methods (``Reservoir.push`` and the draws, ``GaussianTarget.energy``,
  the two ``to_csv``) are patched on their classes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import workloads
from workloads import output_digest, write_config

KERNELS = {
    "rwm_step": "rwm",
    "ee_adaptive_step": "ee",
    "ir_adaptive_step": "ir",
    "limit_ee_step": "ee_limit",
    "limit_ir_step": "ir_limit",
}
KINDS = tuple(KERNELS.values())
BRANCHES = ("local", "exchange", "resample")
# Reservoir sizes whose weighted draws are timed as "near 1e3" and "near
# 1e4": within a factor sqrt(10) either side.
DRAW_BUCKETS = {"n1e3": (10**2.5, 10**3.5), "n1e4": (10**3.5, 10**4.5)}

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "cli.load_config_s": ("s", "lower"),
    "cli.csv_write_s": ("s", "lower"),
    "cli.csv_rows": ("count", "lower"),
    "ladder.steps": ("count", "lower"),
    "ladder.step_self_us": ("us", "lower"),
    "ladder.record_self_s": ("s", "lower"),
    **{f"kernels.calls.{k}": ("count", "lower") for k in KINDS},
    **{f"kernels.self_us.{k}": ("us", "lower") for k in KINDS},
    **{f"kernels.accept_rate.{b}": ("ratio", "higher") for b in BRANCHES},
    "reservoir.weighted_draws": ("count", "lower"),
    **{f"reservoir.weighted_draw_us.{b}": ("us", "lower") for b in DRAW_BUCKETS},
    "reservoir.rows_scanned": ("count", "lower"),
    "reservoir.push_calls": ("count", "lower"),
    "reservoir.push_us": ("us", "lower"),
    "reservoir.uniform_draws": ("count", "lower"),
    "reservoir.uniform_draw_us": ("us", "lower"),
    "targets.energy_calls": ("count", "lower"),
    "targets.energy_us": ("us", "lower"),
    "analysis.replications": ("count", "lower"),
    **{f"analysis.replication_s.{k}.{q}": ("s", "lower") for k in KINDS for q in ("p50", "max")},
    "analysis.pool_cpu_util": ("ratio", "higher"),
    "analysis.pair_sim_s": ("s", "lower"),
    "analysis.pair_sim_ns_per_rep_step": ("ns", "lower"),
    "analysis.poisson_solves": ("count", "lower"),
    "analysis.poisson_solve_s": ("s", "lower"),
    "analysis.solve_flops_computed": ("flop", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

TIME_UNITS = ("s", "us", "ns")
# Short runs that reach every layer.  A time metric whose layer the
# workload's own command never calls (it would read 0) is taken from the
# first of these, traced in the same way, that calls it; the run's notes
# name every such metric.  Counts always belong to the workload itself.
TOUR = {
    "table1-gaussian": {"replications": 1, "iterations": 4000},
    "oracle-crosscheck": {"crosscheck_replications": 20, "crosscheck_iterations": 20_000},
}

# Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = (
    "reservoir.rows_scanned",
    "reservoir.push_calls",
    *(f"kernels.calls.{k}" for k in KINDS),
    "ladder.steps",
    "analysis.poisson_solves",
)


class Tracer:
    """Span aggregates: per name, every duration and every self time."""

    def __init__(self):
        self._stack = []
        self.duration = defaultdict(lambda: array("d"))
        self.self_time = defaultdict(lambda: array("d"))
        self.samples = defaultdict(lambda: array("d"))
        self.counts = Counter()

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, kwargs, result, duration)`` runs on return."""
        stack = self._stack
        durations = self.duration[name]
        self_times = self.self_time[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                durations.append(elapsed)
                self_times.append(elapsed - children)
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        return wrapper

    def calls(self, name) -> int:
        return len(self.duration[name])

    def total(self, name, table=None) -> float:
        return float(sum((table or self.duration)[name]))


@contextlib.contextmanager
def patched(patches):
    """Set each (owner, attribute, value) and restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def replication_patches(ee, tracer):
    def record(args, kwargs, result, elapsed):
        tracer.samples[f"replication.{args[0]}"].append(elapsed)

    original = ee.analysis.run_sampler
    return [(ee.analysis, "run_sampler", tracer.span("analysis.replication", original, record))]


def layer_patches(ee, tracer):
    """Every traced boundary, wrapped where its caller looks it up."""
    cli, ladder, kernels, reservoir, targets, analysis = (
        ee.cli, ee.ladder, ee.kernels, ee.reservoir, ee.targets, ee.analysis)
    counts = tracer.counts
    span = tracer.span

    def csv_rows(args, kwargs, result, elapsed):
        obj = args[0]
        if isinstance(obj, ladder.Trajectory):
            counts["cli.csv_rows"] += obj.n_iterations * obj.n_levels
        else:
            counts["cli.csv_rows"] += 2 * len(obj.sampler_labels)

    def single_iterations(args, kwargs, result, elapsed):
        counts["ladder.single_iterations"] += result.n_iterations

    def outcome(args, kwargs, result, elapsed):
        counts[f"branch.{result.branch}"] += 1
        counts[f"branch.{result.branch}.accepted"] += bool(result.accepted)

    def weighted(args, kwargs, result, elapsed):
        n = args[0].count
        counts["reservoir.rows_scanned"] += n
        for bucket, (low, high) in DRAW_BUCKETS.items():
            if low <= n < high:
                tracer.samples[f"weighted.{bucket}"].append(elapsed)

    def pair_sim(args, kwargs, result, elapsed):
        counts["pair_sim.rep_steps"] += result.size * kwargs["n_steps"]

    def solve(args, kwargs, result, elapsed):
        counts["poisson.flops"] += 2.0 / 3.0 * args[0].n_states ** 3

    patches = [
        (cli, "load_config", span("cli.load_config", cli.load_config)),
        (cli, "load_oracle_config", span("cli.load_config", cli.load_oracle_config)),
        (cli, "ee_pair_scaled_sums", span("analysis.pair_sim", cli.ee_pair_scaled_sums, pair_sim)),
        (ladder.Trajectory, "to_csv", span("cli.csv_write", ladder.Trajectory.to_csv, csv_rows)),
        (analysis.MSETable, "to_csv", span("cli.csv_write", analysis.MSETable.to_csv, csv_rows)),
        (ladder, "ladder_step", span("ladder.step", ladder.ladder_step)),
        (ladder, "run_ladder", span("ladder.record", ladder.run_ladder)),
        (ladder, "run_single", span("ladder.record", ladder.run_single, single_iterations)),
        (kernels, "rwm_step", span("kernels.rwm", kernels.rwm_step)),
        (reservoir.Reservoir, "push", span("reservoir.push", reservoir.Reservoir.push)),
        (reservoir.Reservoir, "sample_uniform",
         span("reservoir.uniform", reservoir.Reservoir.sample_uniform)),
        (reservoir.Reservoir, "sample_weighted",
         span("reservoir.weighted", reservoir.Reservoir.sample_weighted, weighted)),
        (targets.GaussianTarget, "energy", span("targets.energy", targets.GaussianTarget.energy)),
        (analysis, "poisson_solve", span("analysis.poisson_solve", analysis.poisson_solve, solve)),
    ]
    for function, kind in KERNELS.items():
        patches.append((ladder, function, span(f"kernels.{kind}", getattr(ladder, function), outcome)))
    return patches


def _median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if len(values) else 0.0


def layer_metrics(tracer: Tracer, light: Tracer) -> dict:
    """Per-layer values from the traced run (and replication times from the untraced one)."""
    t, c = tracer, tracer.counts
    m = {
        "cli.load_config_s": t.total("cli.load_config"),
        "cli.csv_write_s": t.total("cli.csv_write"),
        "cli.csv_rows": c["cli.csv_rows"],
        "ladder.steps": t.calls("ladder.step") + c["ladder.single_iterations"],
        "ladder.step_self_us": _median(t.self_time["ladder.step"], 1e6),
        "ladder.record_self_s": t.total("ladder.record", t.self_time),
    }
    for kind in KINDS:
        m[f"kernels.calls.{kind}"] = t.calls(f"kernels.{kind}")
        m[f"kernels.self_us.{kind}"] = _median(t.self_time[f"kernels.{kind}"], 1e6)
    for branch in BRANCHES:
        tried = c[f"branch.{branch}"]
        m[f"kernels.accept_rate.{branch}"] = c[f"branch.{branch}.accepted"] / tried if tried else 0.0
    m["reservoir.weighted_draws"] = t.calls("reservoir.weighted")
    for bucket in DRAW_BUCKETS:
        m[f"reservoir.weighted_draw_us.{bucket}"] = _median(t.samples[f"weighted.{bucket}"], 1e6)
    m["reservoir.rows_scanned"] = c["reservoir.rows_scanned"]
    m["reservoir.push_calls"] = t.calls("reservoir.push")
    m["reservoir.push_us"] = _median(t.duration["reservoir.push"], 1e6)
    m["reservoir.uniform_draws"] = t.calls("reservoir.uniform")
    m["reservoir.uniform_draw_us"] = _median(t.duration["reservoir.uniform"], 1e6)
    m["targets.energy_calls"] = t.calls("targets.energy")
    m["targets.energy_us"] = _median(t.duration["targets.energy"], 1e6)
    m["analysis.replications"] = light.calls("analysis.replication")
    for kind in KINDS:
        times = light.samples[f"replication.{kind}"]
        m[f"analysis.replication_s.{kind}.p50"] = _median(times)
        m[f"analysis.replication_s.{kind}.max"] = max(times, default=0.0)
    m["analysis.pair_sim_s"] = t.total("analysis.pair_sim")
    rep_steps = c["pair_sim.rep_steps"]
    m["analysis.pair_sim_ns_per_rep_step"] = m["analysis.pair_sim_s"] / rep_steps * 1e9 if rep_steps else 0.0
    m["analysis.poisson_solves"] = t.calls("analysis.poisson_solve")
    m["analysis.poisson_solve_s"] = t.total("analysis.poisson_solve")
    m["analysis.solve_flops_computed"] = c["poisson.flops"]
    return m


@dataclass
class TracedResult:
    metrics: dict
    outputs_match: bool
    attempted: int
    failed: int = 0
    errors: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def import_program(src: Path):
    """Import ``eesampler`` from ``src`` and refuse any other copy."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ee = importlib.import_module("eesampler")
    for name in ("cli", "ladder", "kernels", "reservoir", "targets", "analysis"):
        importlib.import_module(f"eesampler.{name}")
    where = Path(ee.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"eesampler imported from {where}, not from {src}")
    return ee


def _run_cli(ee, argv) -> tuple:
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = ee.cli.main(argv)
    return time.perf_counter() - start, code, sink.getvalue()


def run_traced(workload, seed: int, work: Path, src: Path) -> TracedResult:
    """Per-layer metrics of the workload, with the times it leaves at 0 taken from TOUR."""
    result = trace_workload(workload, seed, work, src)
    fill_from_tour(result, seed, work, src)
    return result


def trace_workload(workload, seed: int, work: Path, src: Path) -> TracedResult:
    """Untraced, traced, untraced in-process runs of the workload's trace shape, at jobs 1.

    The overhead compares the traced run with the mean of the two untraced
    runs around it, which cancels warm-up and a steady drift of the machine.
    """
    ee = import_program(src)
    cfg = workload.config_for(seed, **workload.trace_overrides)
    cfg_path = write_config(work / "trace_config.yaml", cfg)
    walls, digests, errors, failed = {}, {}, [], 0
    light, tracer = Tracer(), Tracer()
    runs = (("untraced", replication_patches(ee, light)),
            ("traced", layer_patches(ee, tracer)),
            ("untraced_after", []))
    for label, patches in runs:
        out = work / f"in_process_{label}"
        with patched(patches):
            walls[label], code, log = _run_cli(ee, workload.argv(cfg_path, seed, out, jobs=1))
        if code:
            problems = [f"{label} run exited {code}: {log.strip()[-300:]}"]
        else:
            problems = workload.check(out, cfg)
            if all((out / name).is_file() for name in workload.outputs):
                digests[label] = output_digest(out, workload.outputs)
        errors += problems
        failed += bool(problems)
    outputs_match = len(digests) == len(runs) and len(set(digests.values())) == 1
    if not outputs_match:
        errors.append("traced outputs differ from untraced outputs, or are missing")
        failed = len(runs)
    metrics = layer_metrics(tracer, light)
    untraced = (walls["untraced"] + walls["untraced_after"]) / 2
    metrics["trace.traced_wall_s"] = walls["traced"]
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_ratio"] = walls["traced"] / untraced - 1.0
    shape = ", ".join(f"{k}={v}" for k, v in sorted(workload.trace_overrides.items()))
    notes = [f"traced in-process at jobs 1{', ' + shape if shape else ''}; "
             f"tracing overhead {metrics['trace.overhead_ratio']:.1%} of the untraced wall time"]
    return TracedResult(
        metrics={name: (value, PER_LAYER[name][0]) for name, value in metrics.items()},
        outputs_match=outputs_match, attempted=len(runs), failed=failed, errors=errors,
        notes=notes,
    )


def fill_from_tour(result: TracedResult, seed: int, work: Path, src: Path) -> None:
    """Replace the time metrics that read 0 (layer never called) with TOUR values."""
    for name, overrides in TOUR.items():
        missing = [m for m, (value, unit) in result.metrics.items()
                   if value == 0 and unit in TIME_UNITS]
        if not missing:
            break
        ref = trace_workload(replace(workloads.WORKLOADS[name], trace_overrides=overrides),
                             seed, work, src)
        filled = [m for m in missing if ref.metrics[m][0] != 0]
        result.metrics.update({m: ref.metrics[m] for m in filled})
        result.attempted += ref.attempted
        result.failed += ref.failed
        result.errors += [f"tour {name}: {e}" for e in ref.errors]
        if filled:
            shape = ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
            result.notes.append(f"from a traced {name} run at {shape}, not from this workload: "
                                + " ".join(filled))
