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
in the bundled files under demos/configs/, and any other key is a config
error.  A digest of the parsed config is embedded in every metadata
sidecar, and CSV output is byte-identical across repeated invocations
(timestamps only live in the sidecars).  If a command fails after its
output directory was created, a FAILED sentinel file with the error is
left there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
    check_pair_table_size,
    ee_limit_clt_variance,
    ee_pair_scaled_sums,
    mse_harness,
)
from .kernels import (
    _check_stochastic,
    ee_limit_matrix,
    metropolis_matrix,
    neighbor_proposal,
    theta_lower_bound,
)
from .ladder import ADAPTIVE_KINDS, SINGLE_KINDS, ladder_configs, run_sampler
from .targets import TemperatureLadder, make_finite_target, make_gaussian_target

TABLE1_KINDS = ("rwm", "ir", "ir_limit", "ee", "ee_limit")


class ConfigError(ValueError):
    """A config file failed validation; the message names the key."""


def _fail(key: str, message: str):
    raise ConfigError(f"config key '{key}': {message}")


def _checked(key: str, build, *args):
    """``build(*args)``, with any conversion or domain error reported under ``key``."""
    try:
        return build(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(key, str(exc))


def _float(key, value) -> float:
    return _checked(key, float, value)


def _float_list(key, value) -> list:
    if not isinstance(value, list):
        _fail(key, f"must be a list of numbers, got {value!r}")
    return [_float(key, item) for item in value]


def _positive_scale(raw, key) -> float:
    scale = _float(key, raw.get(key, 1.0))
    if not (scale > 0.0 and 0.0 < scale * scale < math.inf):
        _fail(key, f"must be finite and positive, and so must its square; got {scale!r}")
    return scale


def _int_at_least(key, value, low):
    if value is None:
        _fail(key, "required")
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        _fail(key, f"must be an integer of at least {low}, got {value!r}")
    return value


def _jobs(text) -> int:
    """``--jobs``: an integer >= 1, else an argparse usage error (exit 2)."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _check_keys(raw: dict, known: frozenset):
    """Reject a key the loader does not read, so a misspelt key cannot pass unnoticed."""
    for key in raw:
        if key not in known:
            _fail(key, "unknown key")


def _out_dir(raw, out_override) -> Path:
    out = raw.get("out", "results") if out_override is None else out_override
    return _checked("out", Path, out)


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
    target: object
    ladder: TemperatureLadder
    configs: tuple
    kernel: str | None
    iterations: int
    replications: int
    seed: int
    burn_in: int
    out: Path


def _build_target(raw):
    kind = raw.get("target")
    if kind == "gaussian":
        key, make = "covariance", make_gaussian_target
    elif kind == "finite":
        key, make = "energies", make_finite_target
    else:
        _fail("target", f"must be 'gaussian' or 'finite', got {kind!r}")
    for family, keys in TARGET_KEYS.items():
        for stray in sorted(keys & raw.keys()) if family != kind else ():
            _fail(stray, f"applies to {family} targets only, not to {kind} ones")
    if key not in raw:
        _fail(key, f"required for {kind} targets")
    return _checked(key, make, raw[key])


def _build_ladder(raw, kernel):
    """The temperature ladder, and the theta of a limit kernel run with theta 0 (else None)."""
    temps = _float_list("temperatures", raw.get("temperatures"))
    ladder = _checked("temperatures", TemperatureLadder, temps)
    if len(temps) < 2:  # every sampler but rwm needs a hotter level
        _fail("temperatures", f"need at least two temperatures, got {len(temps)}")
    theta = raw.get("theta", 0.5)
    if isinstance(theta, list):
        thetas = _float_list("theta", theta)
    else:
        thetas = [_float("theta", theta)] * (len(temps) - 1)
    if kernel in SINGLE_KINDS and 0.0 in thetas:
        # theta 0 (pure refresh) suits only the limit kernels, which take their theta
        # directly; the ladder's (0, 1] rule still checks the other entries
        _checked("theta", TemperatureLadder, temps, [th or 1.0 for th in thetas])
        return ladder, thetas[-1]
    return _checked("theta", TemperatureLadder, temps, thetas), None


def _state_matrix(key, value, n) -> np.ndarray:
    matrix = _checked(key, _check_stochastic, value)
    if matrix.shape != (n, n):
        _fail(key, f"must be {n} x {n} (one row per state), got shape {matrix.shape}")
    return matrix


def _finite_bases(raw, n, log_weights) -> list:
    """One Metropolis base matrix per log-weight vector, over ``proposal_matrix``
    (else the nearest-neighbor proposal with ``move_prob``)."""
    if "proposal_matrix" in raw:
        proposal = _state_matrix("proposal_matrix", raw["proposal_matrix"], n)
    else:
        move_prob = _float("move_prob", raw.get("move_prob", 1.0))
        proposal = _checked("move_prob", neighbor_proposal, n, move_prob)
    return [_checked("proposal_matrix", metropolis_matrix, proposal, lw) for lw in log_weights]


# the run keys that belong to one target family
TARGET_KEYS = {
    "gaussian": frozenset(("covariance", "proposal_scale")),
    "finite": frozenset(("energies", "move_prob", "proposal_matrix")),
}
RUN_KEYS = frozenset((
    "target", "temperatures", "theta", "kernel", "iterations", "replications", "burn_in",
    "seed", "out", "lambdas", "kappas",
)).union(*TARGET_KEYS.values())


def load_config(path, kernel_override=None, seed_override=None, out_override=None) -> RunConfig:
    raw = load_raw_config(path)
    _check_keys(raw, RUN_KEYS)
    kernel = kernel_override or raw.get("kernel")
    if kernel is not None and kernel not in ADAPTIVE_KINDS + SINGLE_KINDS:
        _fail("kernel", f"must be one of {ADAPTIVE_KINDS + SINGLE_KINDS}, got {kernel!r}")
    target = _build_target(raw)
    ladder, single_theta = _build_ladder(raw, kernel)
    if target.kind == "finite":
        log_weights = [-target.energies / t for t in ladder.temperatures]
        kwargs = {"base_matrices": _finite_bases(raw, target.state_count, log_weights)}
    else:
        proposal_scale = _positive_scale(raw, "proposal_scale")
        kwargs = {"proposal_covariance": proposal_scale**2 * np.eye(target.dimension)}
    configs = ladder_configs(ladder, single_theta=single_theta, **kwargs)
    seed = seed_override if seed_override is not None else raw.get("seed")
    _int_at_least("seed", seed, 0)
    burn_in = _int_at_least("burn_in", raw.get("burn_in", 0), 0)
    iterations = _int_at_least("iterations", raw.get("iterations"), 1)
    if burn_in >= iterations:
        _fail("burn_in", f"must be below iterations={iterations}")
    replications = _int_at_least("replications", raw.get("replications", 1), 1)
    return RunConfig(
        raw=raw,
        target=target,
        ladder=ladder,
        configs=configs,
        kernel=kernel,
        iterations=iterations,
        replications=replications,
        seed=seed,
        burn_in=burn_in,
        out=_out_dir(raw, out_override),
    )


def theta_bound_report(raw, temps, thetas):
    """Per-level theta lower bounds for user-supplied drift parameters.

    Returns (lines, warnings); silent when lambdas/kappas are absent.
    """
    lambdas = raw.get("lambdas")
    kappas = raw.get("kappas")
    if lambdas is None or kappas is None:
        return [], []
    lambdas, kappas = _float_list("lambdas", lambdas), _float_list("kappas", kappas)
    n_adaptive = len(temps) - 1
    if len(lambdas) != n_adaptive or len(kappas) != n_adaptive:
        _fail("lambdas", f"lambdas and kappas need {n_adaptive} entries (one per adaptive level)")
    lines, warnings = [], []
    for level in range(1, len(temps)):
        lam, kap = lambdas[level - 1], kappas[level - 1]
        try:
            bound = theta_lower_bound(lam, kap, temps[level], temps[level - 1])
        except ValueError as exc:  # KappaTooLargeError included
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


def _write_metadata(path: Path, raw: dict, seed: int, **extra):
    meta = {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config_digest": config_digest(raw),
        "seed": seed,
        "config": raw,
        **extra,
    }
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
    """Whether the oracle loader reads more of ``raw``'s keys than the run loader,
    so that the loader chosen names the stray keys, whichever side they are on."""
    return len(raw.keys() & ORACLE_KEYS) > len(raw.keys() & RUN_KEYS)


def cmd_validate(args) -> int:
    raw = load_raw_config(args.config)
    if _is_oracle_config(raw):
        cfg = load_oracle_config(args.config)
        print(f"config {args.config}: valid oracle instance (digest {config_digest(raw)})")
        print(f"  states: {cfg['e0'].size}, theta: {cfg['theta']}")
        return 0
    config = load_config(args.config)
    lines, warnings = theta_bound_report(
        config.raw,
        config.ladder.temperatures,
        config.ladder.thetas or (config.configs[-1].theta,) * (config.ladder.n_levels - 1),
    )
    print(f"config {args.config}: valid (digest {config_digest(raw)})")
    print(f"  target: {config.raw['target']}, levels: {config.ladder.n_levels}, "
          f"iterations: {config.iterations}, replications: {config.replications}")
    for line in lines:
        print("  " + line)
    for warning in warnings:
        print("  warning: " + warning)
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config, kernel_override=args.kernel,
                         seed_override=args.seed, out_override=args.out)
    if config.kernel is None:
        _fail("kernel", "required for the run command (config key or --kernel)")

    def work():
        traj = run_sampler(config.kernel, config.target, config.ladder, config.configs,
                           config.iterations, config.seed)
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
            config.out / "trajectory.meta.json", config.raw, config.seed,
            kernel=config.kernel,
            iterations=config.iterations,
            burn_in=config.burn_in,
            levels=traj.n_levels,
            diagnostics=diagnostics,
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
    config = load_config(args.config, seed_override=args.seed, out_override=args.out)
    if config.ladder.thetas is None:
        _fail("theta", "adaptive samplers need theta in (0, 1]")

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
            config.out / "mse_table.meta.json", config.raw, config.seed,
            samplers=list(TABLE1_KINDS),
            iterations=config.iterations,
            replications=config.replications,
            burn_in=config.burn_in,
        )
        print(text)
        print(f"\nwrote {config.out / 'mse_table.csv'}")

    return _guarded(config.out, work)


# --- the finite-instance oracle command ----------------------------------------


ORACLE_KEYS = frozenset((
    "target", "energies0", "energies1", "energies", "temperatures", "theta", "move_prob",
    "proposal_matrix", "p0", "p1", "f", "seed", "out", "crosscheck_replications",
    "crosscheck_iterations",
))


def load_oracle_config(path, seed_override=None, out_override=None) -> dict:
    raw = load_raw_config(path)
    _check_keys(raw, ORACLE_KEYS)
    if raw.get("target", "finite") != "finite":
        _fail("target", "the oracle command works on finite targets")
    if "energies0" in raw or "energies1" in raw:
        if not ("energies0" in raw and "energies1" in raw):
            _fail("energies0", "energies0 and energies1 must be given together")
        e0 = _checked("energies0", make_finite_target, raw["energies0"]).energies
        e1 = _checked("energies1", make_finite_target, raw["energies1"]).energies
        if e0.shape != e1.shape:
            _fail("energies1", f"must have one entry per state like energies0 ({e0.size})")
    else:
        temps = _float_list("temperatures", raw.get("temperatures"))
        if len(temps) != 2:
            _fail("temperatures", "the oracle needs exactly two levels "
                                  "(or explicit energies0/energies1)")
        energies = _checked("energies", make_finite_target, raw.get("energies")).energies
        e0, e1 = energies / temps[0], energies / temps[1]
        if not (np.all(np.isfinite(e0)) and np.all(np.isfinite(e1))):
            _fail("temperatures", "energies divided by each temperature must be finite")
    n = e0.size
    theta = _float("theta", raw.get("theta", 0.5))
    if not 0.0 <= theta <= 1.0:
        _fail("theta", f"must lie in [0, 1], got {theta}")
    base0, base1 = _finite_bases(raw, n, [-e0, -e1])
    p0 = _state_matrix("p0", raw["p0"], n) if "p0" in raw else base0
    p1 = _state_matrix("p1", raw["p1"], n) if "p1" in raw else base1
    f = _checked("f", np.asarray, raw.get("f", np.arange(n, dtype=float)), float)
    if f.shape != (n,) or not np.all(np.isfinite(f)):
        _fail("f", f"must be {n} finite values (one per state), got shape {f.shape}")
    seed = seed_override if seed_override is not None else raw.get("seed", 0)
    _int_at_least("seed", seed, 0)
    reps = raw.get("crosscheck_replications")
    if reps is not None:  # the cross-check reports a sample variance, which needs two
        _int_at_least("crosscheck_replications", reps, 2)
        _checked("crosscheck_replications", check_pair_table_size, p0, p1, e0 - e1)
    return {
        "raw": raw,
        "e0": e0,
        "e1": e1,
        "theta": theta,
        "p0": p0,
        "p1": p1,
        "f": f,
        "seed": seed,
        "out": _out_dir(raw, out_override),
        "crosscheck_replications": reps,
        "crosscheck_iterations": _int_at_least(
            "crosscheck_iterations", raw.get("crosscheck_iterations", 100_000), 1
        ),
    }


def oracle_report(cfg) -> tuple:
    """VarianceReport for an oracle config, plus the two chain models."""
    pi0 = make_finite_target(cfg["e0"]).tempered_probabilities(1.0)
    pi1 = make_finite_target(cfg["e1"]).tempered_probabilities(1.0)
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
        f"second_moment_limit: {report.second_moment_limit!r}",
    ]
    if crosscheck is not None:
        lines.append(f"crosscheck_sample_variance: {crosscheck['variance']!r}")
        lines.append(f"crosscheck_standard_error: {crosscheck['std_err']!r}")
        lines.append(f"crosscheck_replications: {crosscheck['replications']}")
        lines.append(f"crosscheck_iterations: {crosscheck['iterations']}")
    return "\n".join(lines)


def cmd_oracle(args) -> int:
    cfg = load_oracle_config(args.config, seed_override=args.seed, out_override=args.out)

    def work():
        report, model0, limit, log_r = oracle_report(cfg)
        crosscheck = None
        if cfg["crosscheck_replications"] is not None:
            reps = cfg["crosscheck_replications"]
            iters = cfg["crosscheck_iterations"]
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
        _write_metadata(cfg["out"] / "variance_report.meta.json", cfg["raw"], cfg["seed"])
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
    p.add_argument("--kernel", choices=ADAPTIVE_KINDS + SINGLE_KINDS, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("table1", help="replicated five-sampler MSE experiment")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("oracle", help="exact two-level variance report (finite targets)")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # raised before any output directory is made
        print(f"invalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
