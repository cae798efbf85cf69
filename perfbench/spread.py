"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1] [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload (``--trace 0``, at
BENCHMARK.json's ``run_seconds``), one run at a time, and prints for each
end-to-end metric its median, its quartiles and the quartile spread
``(Q3 - Q1) / median`` next to a third of the metric's bound.  ``--out``
writes every value with each workload's environment record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    report, all_steady = {}, True
    for workload in args.workload or names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, env = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {seed}: NOT CORRECT, {result['failed']} of "
                      f"{result['attempted']} failed", flush=True)
                all_steady = False
            results.append(result)
        report[workload] = {"env": env}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            summary = summarise([r["metrics"][name]["value"] for r in results])
            summary["unit"] = metric["unit"]
            summary["bound"] = metric["bound"]
            report[workload][name] = summary
            steady = name == "setup_s" or summary["spread"] < metric["bound"] / 3
            all_steady &= steady
            print(f"{workload:18} {name:13} median {summary['median']:<12.6g} {metric['unit']:8} "
                  f"spread {summary['spread']:.4f} (bound/3 {metric['bound'] / 3:.4f})"
                  f"{'' if steady else '  TOO WIDE'}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"runs": args.runs, "first_seed": args.first_seed,
             "run_seconds": bench["run_seconds"], "workloads": report}, indent=1) + "\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
