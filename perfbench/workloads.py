"""The two benchmark workloads: configs, commands, work counts and output checks.

Each workload is one `eesampler` subcommand on a config the benchmark
writes itself from the workload seed.  The configs are copies of the
bundled demo configs (demos/configs/gaussian_table1.yaml and
demos/configs/oracle_5state.yaml) with the run length changed, kept here
so that editing a demo never changes what the benchmark measures.

Why these two:

* ``table1-gaussian`` is the paper's headline experiment.  All five
  kernels, the ladder loop and the process pool run; `ir`'s weighted
  reservoir draws (O(n) each, so O(n^2) per run) take most of the CPU.
  Ten replications keep the per-estimand "limit kernels beat rwm" check
  reliable (see COMPARE_REPLICATIONS).
* ``oracle-crosscheck`` is the exact variance report plus its replicated
  simulation, which is almost all `analysis.ee_pair_scaled_sums`.  No
  kernel, reservoir or ladder code runs, so changes to those layers
  should leave it unchanged.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SIGMA = [[0.96, 2.44], [2.44, 7.04]]
TEMPERATURES = [10, 5, 2, 1]

GAUSSIAN = {
    "target": "gaussian",
    "covariance": SIGMA,
    "temperatures": TEMPERATURES,
    "theta": 0.5,
    "proposal_scale": 1.0,
    "kernel": "ee",
    "iterations": 10_000,
    "replications": 10,
    "burn_in": 0,
    "lambdas": [0.5, 0.5, 0.5],
    "kappas": [0.025, 0.075, 0.125],
}

ORACLE = {
    "target": "finite",
    "energies0": [0.0, 2.0, 4.0, 2.0, 0.0],
    "energies1": [0.0, 2.0, 4.0, 2.0, 0.0],
    "theta": 0.5,
    "move_prob": 0.6,
    "f": [1.0, 0.0, 0.0, 0.0, -1.0],
    "crosscheck_replications": 200,
    "crosscheck_iterations": 100_000,
}

# Estimands of `table1` on the Gaussian target, in output column order.
TABLE1_COLUMNS = ("E[X1]", "E[X2]", "E[X1^2]", "E[X2^2]")
TABLE1_SAMPLERS = ("rwm", "ir", "ir_limit", "ee", "ee_limit")
SINGLE_CHAIN = ("rwm", "ir_limit", "ee_limit")
# With R replications each MSE is roughly sigma^2 chi2_R / R, so at R=10 a
# true MSE ratio of 10 is lost by chance with probability below 1e-3.
COMPARE_REPLICATIONS = 10

# The cross-check variance must lie within this many of its own standard
# errors of the exact second-moment limit.  Below CROSSCHECK_MIN_REP_STEPS
# replication-steps the sample variance is too heavy-tailed for that test
# (at 100 x 20,000, 3 of seeds 1-40 fail it), so only finiteness is checked.
CROSSCHECK_SE = 4.0
CROSSCHECK_MIN_REP_STEPS = 200 * 100_000


def write_config(path: Path, cfg: dict) -> Path:
    # JSON is a subset of YAML, which the CLI parses.
    path.write_text(json.dumps(cfg, indent=1) + "\n")
    return path


def output_digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((out / name).read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config`` is the YAML mapping the command runs on (the seed is added
    at run time); ``outputs`` are the files whose bytes must repeat across
    invocations with the same seed.
    """

    name: str
    why: str
    command: str
    config: dict
    outputs: tuple
    jobs: int = 1
    # Config changes for the traced in-process run, which runs at jobs 1.
    trace_overrides: dict = field(default_factory=dict)

    def config_for(self, seed: int, **overrides) -> dict:
        cfg = dict(self.config)
        cfg.update(overrides)
        cfg["seed"] = seed
        return cfg

    def argv(self, config_path, seed: int, out, jobs: int | None = None) -> list:
        """CLI arguments after ``python -m eesampler``."""
        args = [self.command, str(config_path), "--seed", str(seed), "--out", str(out)]
        if self.command == "table1":
            args += ["--jobs", str(jobs or self.jobs)]
        return args

    def chain_steps(self, cfg: dict) -> int:
        """Chain-steps one invocation simulates."""
        if self.command == "table1":
            levels = sum(1 if kind in SINGLE_CHAIN else len(cfg["temperatures"])
                         for kind in TABLE1_SAMPLERS)
            return cfg["replications"] * levels * cfg["iterations"]
        return cfg["crosscheck_replications"] * 2 * cfg["crosscheck_iterations"]

    def check(self, out: Path, cfg: dict) -> list:
        """Errors found in one invocation's outputs (empty when correct)."""
        if (out / "FAILED").exists():
            return [f"FAILED sentinel: {(out / 'FAILED').read_text().splitlines()[0]}"]
        missing = [name for name in self.outputs if not (out / name).is_file()]
        if missing:
            return [f"missing output {name}" for name in missing]
        if self.command == "table1":
            return check_mse_table(out / "mse_table.csv", cfg["replications"])
        rep_steps = cfg["crosscheck_replications"] * cfg["crosscheck_iterations"]
        return check_variance_report(out / "variance_report.txt",
                                     compare=rep_steps >= CROSSCHECK_MIN_REP_STEPS)


def check_mse_table(path: Path, replications: int) -> list:
    """Every MSE finite and positive; both limit kernels beat rwm on every estimand.

    The comparison with rwm is made only from COMPARE_REPLICATIONS
    replications on; below that it is too often lost by chance.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0][2:]) != TABLE1_COLUMNS:
        return [f"unexpected mse_table columns {rows[0]}"]
    mse = {row[0]: [float(v) for v in row[2:]] for row in rows[1:] if row[1] == "mse"}
    if tuple(mse) != TABLE1_SAMPLERS:
        return [f"unexpected samplers {list(mse)}"]
    errors = []
    for sampler, values in mse.items():
        for name, value in zip(TABLE1_COLUMNS, values):
            if not (math.isfinite(value) and value > 0):
                errors.append(f"MSE of {sampler} on {name} is {value!r}")
    if replications < COMPARE_REPLICATIONS:
        return errors
    for sampler in ("ee_limit", "ir_limit"):
        for name, base, value in zip(TABLE1_COLUMNS, mse["rwm"], mse[sampler]):
            if not value < base:
                errors.append(f"{sampler} does not beat rwm on {name}: {value!r} >= {base!r}")
    return errors


def parse_variance_report(path: Path) -> dict:
    values = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(":")
        if sep and not line.startswith("#"):
            values[key.strip()] = value.strip()
    return values


def check_variance_report(path: Path, compare: bool = True) -> list:
    """Finite report; cross-check variance within a few standard errors of the limit."""
    values = parse_variance_report(path)
    keys = ("sigma_star_sq", "gamma_gbar", "clt_variance", "second_moment_limit",
            "crosscheck_sample_variance", "crosscheck_standard_error")
    errors = []
    numbers = {}
    for key in keys:
        try:
            numbers[key] = float(values[key])
        except (KeyError, ValueError):
            errors.append(f"variance report lacks a number for {key}: {values.get(key)!r}")
            continue
        if not math.isfinite(numbers[key]):
            errors.append(f"{key} is {numbers[key]!r}")
    if errors or not compare:
        return errors
    gap = abs(numbers["crosscheck_sample_variance"] - numbers["second_moment_limit"])
    if not gap <= CROSSCHECK_SE * numbers["crosscheck_standard_error"]:
        errors.append(
            f"cross-check variance {numbers['crosscheck_sample_variance']!r} is "
            f"{gap / numbers['crosscheck_standard_error']:.1f} standard errors from "
            f"second_moment_limit {numbers['second_moment_limit']!r}"
        )
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1-gaussian",
            why="the paper's five-sampler table at 10,000 iterations, 10 replications, "
                "jobs 2: all kernels, the ladder and the pool; ir's O(n) weighted draws dominate",
            command="table1",
            config=GAUSSIAN,
            outputs=("mse_table.csv", "mse_table.txt"),
            jobs=2,
            trace_overrides={"replications": 2},
        ),
        Workload(
            name="oracle-crosscheck",
            why="exact two-level variance report with a 200 x 100,000 replicated "
                "cross-check: the vectorised pair simulator; no kernel, reservoir or ladder code",
            command="oracle",
            config=ORACLE,
            outputs=("variance_report.txt",),
        ),
    )
}
