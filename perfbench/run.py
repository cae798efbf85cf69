"""Benchmark runner for the `eesampler` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table1-gaussian --seed 1 --seconds 60 --trace 0

With ``--trace 0`` it runs the workload's CLI command as child
processes of this one (closed loop, one at a time) for about
``--seconds`` seconds, checks every invocation's outputs, and reports the
end-to-end metrics as medians over the invocations.  With ``--trace 1``
it makes one untraced invocation of the same command and then a traced
in-process run (see tracing.py) and reports the per-layer metrics.

The program is taken from ``src/`` of the checkout this file sits in
(``python -m eesampler`` with that directory on PYTHONPATH); there is
nothing to build.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracing
import workloads
from workloads import output_digest, write_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Timed `validate` invocations behind setup_s, after one untimed warm-up
# that fills the bytecode cache.
SETUP_REPEATS = 11
INVOCATION_TIMEOUT_S = 150


@dataclass
class Invocation:
    """One finished child process, with its resource use."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    errors: list
    digest: str = ""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def _on_alarm(signum, frame):
    raise TimeoutError


def invoke(args: list, cwd: Path, log: Path) -> Invocation:
    """Run ``python -m eesampler <args>`` and measure that process tree.

    ``os.wait4`` returns the rusage of this one child, including the pool
    workers it reaped, so every invocation gets its own CPU time and peak
    RSS (``RUSAGE_CHILDREN`` would give a maximum over every child this
    process has ever reaped).  Peak RSS is the largest single-process peak
    in the tree.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "eesampler", *args], cwd=cwd, env=child_env(),
            stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
        )
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INVOCATION_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    errors = []
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:]
        errors.append(f"exit {proc.returncode}: {' '.join(args[:2])}: {' '.join(tail)}")
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        errors=errors,
    )


def run_workload(workload, cfg: dict, cfg_path: Path, seed: int, work: Path, label: str):
    """One invocation of the workload's command, its outputs checked, digested and removed."""
    out = work / label
    inv = invoke(workload.argv(cfg_path, seed, out), work, work / f"{label}.log")
    if inv.returncode == 0:
        inv.errors += workload.check(out, cfg)
    if not inv.errors:
        inv.digest = output_digest(out, workload.outputs)
    shutil.rmtree(out, ignore_errors=True)
    return inv


def source_digest() -> str:
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return result.stdout.strip() or "unavailable"


def environment(workload) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_rev": git_rev(),
        "src_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": nproc,
        "jobs": workload.jobs,
        "blas_threads": BLAS_THREADS,
        "thread_budget": workload.jobs * BLAS_THREADS,
        "thread_budget_within_nproc": workload.jobs * BLAS_THREADS <= nproc,
        "machine": platform.machine(),
        "note": "compare results only between runs made on the same machine",
    }


def measure_setup(workload, cfg_path: Path, work: Path):
    """Median wall time of `validate` on the workload's config."""
    log = work / "validate.log"
    runs = [invoke(["validate", str(cfg_path)], work, log) for _ in range(SETUP_REPEATS + 1)]
    return statistics.median(r.wall_s for r in runs[1:]), runs


def end_to_end(workload, seed: int, seconds: float, work: Path):
    """Invocations of the workload for about ``seconds``; medians of their measures."""
    cfg = workload.config_for(seed)
    cfg_path = write_config(work / "config.yaml", cfg)
    setup_s, setup_runs = measure_setup(workload, cfg_path, work)
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(run_workload(workload, cfg, cfg_path, seed, work, f"run{len(runs)}"))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall_s for r in runs) > seconds:
            break
    digests = {r.digest for r in runs if r.digest}
    errors = [e for r in setup_runs + runs for e in r.errors]
    if len(digests) > 1:
        errors.append(f"outputs differ across {len(runs)} invocations with seed {seed}")
    attempted = len(setup_runs) + len(runs)
    failed = sum(1 for r in setup_runs + runs if r.errors) + (len(digests) > 1)
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "steps_per_s": (workload.chain_steps(cfg) / wall, "steps/s"),
        "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    notes = [f"invocations: {len(runs)} of {workload.command} (+{len(setup_runs)} validate), "
             f"wall_s {[round(r.wall_s, 3) for r in runs]}, cpu_s {[round(r.cpu_s, 3) for r in runs]}"]
    return metrics, attempted, failed, errors, notes


def traced(workload, seed: int, work: Path):
    """One untraced invocation (for pool utilisation), then the traced in-process run."""
    cfg = workload.config_for(seed)
    cfg_path = write_config(work / "config.yaml", cfg)
    inv = run_workload(workload, cfg, cfg_path, seed, work, "untraced")
    result = tracing.run_traced(workload, seed, work, SRC)
    metrics = result.metrics
    metrics["analysis.pool_cpu_util"] = (inv.cpu_s / (inv.wall_s * workload.jobs), "ratio")
    errors = inv.errors + result.errors
    attempted = 1 + result.attempted
    failed = bool(inv.errors) + result.failed
    return metrics, attempted, failed, errors, result.notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "eesampler" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC / 'eesampler'}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)

    workload = workloads.WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, errors, notes = traced(workload, args.seed, work)
        else:
            metrics, attempted, failed, errors, notes = end_to_end(
                workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in errors:
        print(f"error: {error}")
    for note in notes:
        print(f"note: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print("env " + json.dumps(environment(workload), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
