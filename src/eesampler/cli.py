"""Command-line front end.

One executable with four subcommands:

* ``validate`` -- parse a config, run every structural check, and report
  the per-level lower bounds on theta when drift parameters are given;
* ``run``      -- one sampler run, written as a trajectory CSV plus a
  JSON metadata sidecar;
* ``table1``   -- the five-sampler mean-squared-error replication
  experiment, written as CSV and aligned text;
* ``oracle``   -- the exact two-level variance report on a finite
  instance, optionally cross-checked by replicated simulation.

Configs are flat YAML files; every key is documented in the README and
in the bundled files under demos/configs/.  A digest of the parsed
config is embedded in every metadata sidecar, and CSV output is
byte-identical across repeated invocations (timestamps only live in the
sidecars).  If a command fails after its output directory was created, a
FAILED sentinel file with the error is left there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .analysis import (
    FiniteChainModel,
    MomentEstimand,
    SamplerSpec,
    TableEstimand,
    ee_limit_clt_variance,
    ee_pair_scaled_sums,
    mse_harness,
)
from .kernels import (
    KappaTooLargeError,
    ee_limit_matrix,
    metropolis_matrix,
    neighbor_proposal,
    theta_lower_bound,
)
from .ladder import ladder_configs, run_sampler
from .targets import TemperatureLadder, make_finite_target, make_gaussian_target

TABLE1_KINDS = ("rwm", "ir", "ir_limit", "ee", "ee_limit")
ADAPTIVE = ("ee", "ir")
KERNEL_KINDS = ("rwm", "ee", "ir", "ee_limit", "ir_limit")


class ConfigError(ValueError):
    """A config file failed validation; the message names the key."""


def _fail(key: str, message: str):
    raise ConfigError(f"config key '{key}': {message}")


def load_raw_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must contain a mapping of keys, got {type(raw).__name__}")
    return raw


def config_digest(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, default=str).encode()
    return hashlib.sha256(canonical).hexdigest()[:16]


@dataclass
class RunConfig:
    """Validated sampler configuration (everything the run commands need)."""

    raw: dict
    digest: str
    target: object
    ladder: TemperatureLadder
    configs: tuple
    kernel: str | None
    iterations: int
    replications: int
    seed: int
    burn_in: int
    out: Path
    include_initial_state: bool


def _int_at_least(key, value, low):
    if value is None:
        _fail(key, "required")
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        _fail(key, f"must be an integer of at least {low}, got {value!r}")
    return value


def _build_target(raw):
    kind = raw.get("target")
    if kind == "gaussian":
        if "covariance" not in raw:
            _fail("covariance", "required for gaussian targets")
        try:
            return make_gaussian_target(raw["covariance"])
        except ValueError as exc:
            _fail("covariance", str(exc))
    elif kind == "finite":
        if "energies" not in raw:
            _fail("energies", "required for finite targets")
        try:
            return make_finite_target(raw["energies"])
        except ValueError as exc:
            _fail("energies", str(exc))
    else:
        _fail("target", f"must be 'gaussian' or 'finite', got {kind!r}")


def _build_ladder(raw, kernel):
    temps = raw.get("temperatures")
    if not isinstance(temps, (list, tuple)) or not temps:
        _fail("temperatures", "must be a non-empty list")
    for prev, nxt in zip(temps[:-1], temps[1:]):
        if nxt >= prev:
            _fail("temperatures", f"must be strictly decreasing; pair ({prev}, {nxt}) is not")
    theta = raw.get("theta", 0.5)
    n_adaptive = len(temps) - 1
    thetas = tuple(theta) if isinstance(theta, (list, tuple)) else (float(theta),) * n_adaptive
    if len(thetas) != n_adaptive:
        _fail("theta", f"need {n_adaptive} values (one per adaptive level), got {len(thetas)}")
    limit_only = kernel in ("rwm", "ee_limit", "ir_limit")
    for th in thetas:
        if not 0.0 <= th <= 1.0:
            _fail("theta", f"{th} outside [0, 1]")
        if th == 0.0 and not limit_only:
            _fail("theta", "0 is not allowed for an adaptive level (theta must lie in (0, 1])")
    try:
        if limit_only and any(th == 0.0 for th in thetas):
            return TemperatureLadder(tuple(temps)), thetas
        return TemperatureLadder(tuple(temps), thetas), thetas
    except ValueError as exc:
        _fail("temperatures", str(exc))


def _finite_base_matrices(raw, target, temps):
    if "proposal_matrix" in raw:
        proposal = np.array(raw["proposal_matrix"], dtype=float)
    else:
        move_prob = float(raw.get("move_prob", 1.0))
        proposal = neighbor_proposal(target.state_count, move_prob)
    try:
        return [
            metropolis_matrix(proposal, -np.asarray(target.energies) / t) for t in temps
        ]
    except ValueError as exc:
        _fail("proposal_matrix", str(exc))


def load_config(path, kernel_override=None, seed_override=None, out_override=None) -> RunConfig:
    raw = load_raw_config(path)
    kernel = kernel_override or raw.get("kernel")
    if kernel is not None and kernel not in KERNEL_KINDS:
        _fail("kernel", f"must be one of {KERNEL_KINDS}, got {kernel!r}")
    target = _build_target(raw)
    ladder, thetas = _build_ladder(raw, kernel)
    proposal_scale = float(raw.get("proposal_scale", 1.0))
    if proposal_scale <= 0:
        _fail("proposal_scale", "must be positive")
    if target.kind == "finite":
        bases = _finite_base_matrices(raw, target, ladder.temperatures)
        kwargs = {"base_matrices": bases}
    else:
        kwargs = {"proposal_covariance": proposal_scale**2 * np.eye(target.dimension)}
        if "ir_proposal_scale" in raw:
            kwargs["ir_proposal_covariance"] = (
                float(raw["ir_proposal_scale"]) ** 2 * np.eye(target.dimension)
            )
    if ladder.thetas is None:
        # theta 0 on a limit kind: configure the kernels directly
        configs = ladder_configs(ladder, single_theta=thetas[-1], **kwargs)
    else:
        configs = ladder_configs(ladder, **kwargs)
    seed = seed_override if seed_override is not None else raw.get("seed")
    _int_at_least("seed", seed, 0)
    burn_in = _int_at_least("burn_in", raw.get("burn_in", 0), 0)
    iterations = _int_at_least("iterations", raw.get("iterations"), 1)
    if burn_in >= iterations:
        _fail("burn_in", f"must be below iterations={iterations}")
    replications = _int_at_least("replications", raw.get("replications", 1), 1)
    out = Path(out_override if out_override is not None else raw.get("out", "results"))
    return RunConfig(
        raw=raw,
        digest=config_digest(raw),
        target=target,
        ladder=ladder,
        configs=configs,
        kernel=kernel,
        iterations=iterations,
        replications=replications,
        seed=seed,
        burn_in=burn_in,
        out=out,
        include_initial_state=bool(raw.get("include_initial_state", False)),
    )


def theta_bound_report(raw, temps, thetas):
    """Per-level theta lower bounds for user-supplied drift parameters.

    Returns (lines, warnings); silent when lambdas/kappas are absent.
    """
    lambdas = raw.get("lambdas")
    kappas = raw.get("kappas")
    if lambdas is None or kappas is None:
        return [], []
    n_adaptive = len(temps) - 1
    if len(lambdas) != n_adaptive or len(kappas) != n_adaptive:
        _fail("lambdas", f"lambdas and kappas need {n_adaptive} entries (one per adaptive level)")
    lines, warnings = [], []
    for level in range(1, len(temps)):
        lam, kap = float(lambdas[level - 1]), float(kappas[level - 1])
        try:
            bound = theta_lower_bound(lam, kap, temps[level], temps[level - 1])
        except (KappaTooLargeError, ValueError) as exc:
            _fail("kappas", f"level {level}: {exc}")
        theta = thetas[level - 1]
        status = "ok" if theta > bound else "below bound"
        lines.append(
            f"level {level}: theta={theta:.4f}, lower bound {bound:.4f} "
            f"(lambda={lam}, kappa={kap}) -> {status}"
        )
        if theta <= bound:
            warnings.append(
                f"level {level}: theta={theta:.4f} does not exceed the sufficient bound "
                f"{bound:.4f} (the bound is sufficient, not necessary)"
            )
    return lines, warnings


# --- output helpers -----------------------------------------------------------


def _write_metadata(path: Path, config: RunConfig, extra: dict):
    meta = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config_digest": config.digest,
        "seed": config.seed,
        "config": config.raw,
    }
    meta.update(extra)
    path.write_text(json.dumps(meta, indent=2, default=str) + "\n")


def _guarded(outdir: Path, work):
    """Run ``work`` and leave a FAILED sentinel in outdir if it raises."""
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        work()
    except Exception as exc:
        (outdir / "FAILED").write_text(
            f"{type(exc).__name__}: {exc}\n\n{traceback.format_exc()}"
        )
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# --- subcommands ----------------------------------------------------------------


def _is_oracle_config(raw: dict) -> bool:
    return any(key in raw for key in ("energies0", "energies1", "f", "p0", "p1"))


def cmd_validate(args) -> int:
    try:
        raw = load_raw_config(args.config)
        if _is_oracle_config(raw):
            cfg = load_oracle_config(args.config)
            print(f"config {args.config}: valid oracle instance (digest {cfg['digest']})")
            print(f"  states: {cfg['e0'].size}, theta: {cfg['theta']}")
            return 0
        config = load_config(args.config)
        lines, warnings = theta_bound_report(
            config.raw,
            config.ladder.temperatures,
            config.ladder.thetas or (config.configs[-1].theta,) * (config.ladder.n_levels - 1),
        )
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"config {args.config}: valid (digest {config.digest})")
    print(f"  target: {config.raw['target']}, levels: {config.ladder.n_levels}, "
          f"iterations: {config.iterations}, replications: {config.replications}")
    for line in lines:
        print("  " + line)
    for warning in warnings:
        print("  warning: " + warning)
    return 0


def cmd_run(args) -> int:
    try:
        config = load_config(args.config, kernel_override=args.kernel,
                             seed_override=args.seed, out_override=args.out)
        if config.kernel is None:
            _fail("kernel", "required for the run command (config key or --kernel)")
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1

    def work():
        traj = run_sampler(
            config.kernel, config.target, config.ladder, config.configs,
            config.iterations, config.seed,
            include_initial_state=config.include_initial_state,
        )
        csv_path = config.out / "trajectory.csv"
        traj.to_csv(csv_path)
        diagnostics = {
            f"level_{level}": {
                "acceptance_rate": traj.acceptance_rate(level),
                "local_fraction": traj.branch_fraction(level, "local"),
            }
            for level in range(traj.n_levels)
        }
        _write_metadata(
            config.out / "trajectory.meta.json",
            config,
            {
                "kernel": config.kernel,
                "iterations": config.iterations,
                "burn_in": config.burn_in,
                "levels": traj.n_levels,
                "diagnostics": diagnostics,
            },
        )
        print(f"wrote {csv_path} ({traj.n_iterations} iterations x {traj.n_levels} levels)")

    return _guarded(config.out, work)


def _table1_estimands(config):
    target = config.target
    if target.kind == "finite":
        pi = target.tempered_probabilities(1.0)
        states = np.arange(target.state_count)
        return [
            TableEstimand("E[S]", float(pi @ states), tuple(states)),
            TableEstimand("E[S^2]", float(pi @ states**2), tuple(states**2)),
        ]
    cov = target.covariance
    ests = []
    for i in range(target.dimension):
        ests.append(MomentEstimand(f"E[X{i + 1}]", 0.0, component=i, power=1))
    for i in range(target.dimension):
        ests.append(MomentEstimand(f"E[X{i + 1}^2]", float(cov[i, i]), component=i, power=2))
    return ests


def cmd_table1(args) -> int:
    try:
        config = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if config.ladder.thetas is None:
            _fail("theta", "adaptive samplers need theta in (0, 1]")
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1

    def work():
        specs = [
            SamplerSpec(kind, kind, config.target, config.ladder, config.configs)
            for kind in TABLE1_KINDS
        ]
        table = mse_harness(
            specs,
            _table1_estimands(config),
            replications=config.replications,
            iterations=config.iterations,
            master_seed=config.seed,
            burn_in=config.burn_in,
            jobs=args.jobs,
        )
        table.to_csv(config.out / "mse_table.csv")
        text = table.to_text()
        (config.out / "mse_table.txt").write_text(text + "\n")
        _write_metadata(
            config.out / "mse_table.meta.json",
            config,
            {
                "samplers": list(TABLE1_KINDS),
                "iterations": config.iterations,
                "replications": config.replications,
                "burn_in": config.burn_in,
            },
        )
        print(text)
        print(f"\nwrote {config.out / 'mse_table.csv'}")

    return _guarded(config.out, work)


# --- the finite-instance oracle command ----------------------------------------


def load_oracle_config(path, seed_override=None, out_override=None) -> dict:
    raw = load_raw_config(path)
    if raw.get("target", "finite") != "finite":
        _fail("target", "the oracle command works on finite targets")
    if "energies0" in raw or "energies1" in raw:
        if not ("energies0" in raw and "energies1" in raw):
            _fail("energies0", "energies0 and energies1 must be given together")
        e0 = np.asarray(raw["energies0"], dtype=float)
        e1 = np.asarray(raw["energies1"], dtype=float)
    else:
        temps = raw.get("temperatures")
        if not temps or len(temps) != 2:
            _fail("temperatures", "the oracle needs exactly two levels "
                                  "(or explicit energies0/energies1)")
        energies = np.asarray(raw.get("energies"), dtype=float)
        e0, e1 = energies / temps[0], energies / temps[1]
    if e0.shape != e1.shape or e0.ndim != 1 or e0.size == 0:
        _fail("energies0", "per-level energies must be equal-length vectors")
    if not (np.all(np.isfinite(e0)) and np.all(np.isfinite(e1))):
        _fail("energies0", "energies must be finite")
    n = e0.size
    theta = float(raw.get("theta", 0.5))
    if not 0.0 <= theta <= 1.0:
        _fail("theta", f"must lie in [0, 1], got {theta}")
    if "proposal_matrix" in raw:
        proposal = np.array(raw["proposal_matrix"], dtype=float)
    else:
        proposal = neighbor_proposal(n, float(raw.get("move_prob", 1.0)))
    p0 = np.array(raw["p0"], dtype=float) if "p0" in raw else metropolis_matrix(proposal, -e0)
    p1 = np.array(raw["p1"], dtype=float) if "p1" in raw else metropolis_matrix(proposal, -e1)
    f = np.asarray(raw.get("f", np.arange(n, dtype=float)), dtype=float)
    if f.shape != (n,):
        _fail("f", f"must have one value per state ({n}), got shape {f.shape}")
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    _int_at_least("seed", seed, 0)
    reps = raw.get("crosscheck_replications")
    if reps is not None:  # the cross-check reports a sample variance, which needs two
        _int_at_least("crosscheck_replications", reps, 2)
    return {
        "raw": raw,
        "digest": config_digest(raw),
        "e0": e0,
        "e1": e1,
        "theta": theta,
        "p0": p0,
        "p1": p1,
        "f": f,
        "seed": seed,
        "out": Path(out_override if out_override is not None else raw.get("out", "results")),
        "crosscheck_replications": reps,
        "crosscheck_iterations": raw.get("crosscheck_iterations"),
    }


def oracle_report(cfg) -> tuple:
    """VarianceReport for an oracle config, plus the two chain models."""
    pi0 = np.exp(-(cfg["e0"] - cfg["e0"].min()))
    pi0 /= pi0.sum()
    pi1 = np.exp(-(cfg["e1"] - cfg["e1"].min()))
    pi1 /= pi1.sum()
    log_r = cfg["e0"] - cfg["e1"]
    model0 = FiniteChainModel(cfg["p0"], pi0)
    limit = FiniteChainModel(ee_limit_matrix(cfg["p1"], pi0, log_r, cfg["theta"]), pi1)
    report = ee_limit_clt_variance(model0, limit, cfg["theta"], cfg["f"], log_r=log_r)
    return report, model0, limit, log_r


def format_variance_report(report, theta, crosscheck=None) -> str:
    lines = [
        "# two-level equi-energy variance report",
        f"theta: {theta}",
        f"sigma_star_sq: {report.sigma_star_sq!r}",
        f"gamma_gbar: {report.gamma_gbar!r}",
        f"clt_variance: {report.clt_variance!r}",
    ]
    if report.second_moment_limit is None:
        lines.append("second_moment_limit: not applicable (levels do not share kernel and law)")
    else:
        lines.append(f"second_moment_limit: {report.second_moment_limit!r}")
    if crosscheck is not None:
        lines.append(f"crosscheck_sample_variance: {crosscheck['variance']!r}")
        lines.append(f"crosscheck_standard_error: {crosscheck['std_err']!r}")
        lines.append(f"crosscheck_replications: {crosscheck['replications']}")
        lines.append(f"crosscheck_iterations: {crosscheck['iterations']}")
    return "\n".join(lines)


def cmd_oracle(args) -> int:
    try:
        cfg = load_oracle_config(args.config, seed_override=args.seed, out_override=args.out)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1

    def work():
        report, model0, limit, log_r = oracle_report(cfg)
        crosscheck = None
        if cfg["crosscheck_replications"] is not None:
            reps = cfg["crosscheck_replications"]
            iters = int(cfg["crosscheck_iterations"] or 100_000)
            fc = cfg["f"] - limit.stationary @ cfg["f"]
            scaled = ee_pair_scaled_sums(
                cfg["p0"], cfg["p1"], cfg["theta"], log_r, fc,
                n_steps=iters, replications=reps, seed=cfg["seed"],
            )
            var = float(scaled.var(ddof=1))
            crosscheck = {
                "variance": var,
                "std_err": var * float(np.sqrt(2.0 / (reps - 1))),
                "replications": reps,
                "iterations": iters,
            }
        text = format_variance_report(report, cfg["theta"], crosscheck)
        (cfg["out"] / "variance_report.txt").write_text(text + "\n")
        meta = {
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "config_digest": cfg["digest"],
            "seed": cfg["seed"],
            "config": cfg["raw"],
        }
        (cfg["out"] / "variance_report.meta.json").write_text(
            json.dumps(meta, indent=2, default=str) + "\n"
        )
        print(text)
        print(f"\nwrote {cfg['out'] / 'variance_report.txt'}")

    return _guarded(cfg["out"], work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eesampler",
        description="adaptive tempered MCMC samplers and finite-state variance oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run one sampler and write its trajectory")
    p.add_argument("config")
    p.add_argument("--kernel", choices=KERNEL_KINDS, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("table1", help="replicated five-sampler MSE experiment")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("oracle", help="exact two-level variance report (finite targets)")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
