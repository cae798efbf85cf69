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

Configs are flat YAML files with one set of keys and one rule per key,
documented in the README and in the bundled files under demos/configs/;
any other key is a config error.  ``oracle`` reads a two-level finite
sampler config plus the keys in ``ORACLE_KEYS``, which ``run`` and
``table1`` refuse, and ``validate`` checks a config for ``oracle`` when
one of those keys is present, else for the samplers.  Every command reads
the one ``RunConfig`` that the shared parse builds, in which ``p0``/``p1``
are the oracle's level base matrices.  A digest of the parsed config is
embedded in every metadata sidecar, and CSV output is byte-identical
across repeated invocations (timestamps only live in the sidecars).  If
a command fails after its output directory was created, a FAILED
sentinel file with the error is left there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
import yaml

from .analysis import (
    FiniteChainModel,
    MomentEstimand,
    TableEstimand,
    check_pair_table_size,
    ee_limit_clt_variance,
    ee_pair_scaled_sums,
    mse_harness,
)
from .kernels import (
    KernelConfig,
    _check_stochastic,
    ee_limit_matrix,
    metropolis_matrix,
    neighbor_proposal,
    theta_lower_bound,
)
from .ladder import ADAPTIVE_KINDS, SINGLE_KINDS, check_adaptive_thetas, ladder_configs, run_sampler
from .targets import FiniteTarget, GaussianTarget, TemperatureLadder

TABLE1_KINDS = ("rwm", "ir", "ir_limit", "ee", "ee_limit")


class ConfigError(ValueError):
    """A config file failed validation; the message names the key."""


def _fail(key: str, message: str):
    raise ConfigError(f"config key '{key}': {message}")


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def _checked(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with any conversion or domain error reported under ``key``.
    An argument that is or holds a YAML true/false is refused, not read as 1 or 0."""
    for arg in (*args, *kwargs.values()):
        if _holds_bool(arg):
            _fail(key, f"must not be or hold a boolean, got {arg!r}")
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        _fail(key, str(exc))


def _float(key, value) -> float:
    return _checked(key, float, value)


def _float_list(key, value) -> list:
    if not isinstance(value, list):
        _fail(key, f"must be a list of numbers, got {value!r}")
    return [_float(key, item) for item in value]


# A random-walk step longer than this many proposal standard deviations has
# probability exp(-50), about 2e-22, in two dimensions (the chi-square tail at
# 100), so no run of feasible length proposes one.  Such a step reaches energy
# 0.5 (k s)^2 lambda_max(Sigma^-1) at most, which must be a finite float; the
# largest absolute row sum of Sigma^-1 stands in for lambda_max, which it
# bounds, since an eigensolver would add to the process's memory for one check.
PROPOSAL_SDS = 10.0


def _proposal_scale(raw, target) -> float:
    scale = _float("proposal_scale", raw.get("proposal_scale", 1.0))
    if not (scale > 0.0 and 0.0 < scale * scale < math.inf):
        _fail("proposal_scale", f"must be finite and positive, and so must its square; got {scale!r}")
    step = PROPOSAL_SDS * scale
    stiffest = float(np.abs(target._precision).sum(axis=1).max())
    step_energy = 0.5 * step * step * stiffest  # no float product raises; it overflows to inf
    if not step_energy < math.inf:
        _fail("proposal_scale", f"a step of {PROPOSAL_SDS:g} proposal standard deviations "
                                f"overflows the target's energy ({step_energy})")
    return scale


def _int_at_least(key, value, low, required=True):
    if value is None:
        return _fail(key, "required") if required else None
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
    """A validated config.  ``levels`` holds each finite level's energies; in the
    oracle's explicit-law form ``target`` and ``ladder`` are None.  On a finite
    target ``configs[l].base_matrix`` is level l's base matrix: ``p<l>`` where
    given, else a Metropolis matrix.  ``theta_bounds`` is the (lines, warnings)
    of ``theta_bound_report``.  The oracle's ``f`` and cross-check shape
    (replications, iterations) are None elsewhere, as is a skipped cross-check."""

    raw: dict
    target: object
    ladder: TemperatureLadder | None
    levels: list | None
    configs: tuple
    kernel: str | None
    iterations: int | None
    replications: int
    seed: int | None
    burn_in: int
    out: Path
    theta_bounds: tuple
    f: np.ndarray | None = None
    crosscheck: tuple | None = None


# the oracle's additions to a finite sampler config
ORACLE_KEYS = frozenset((
    "energies0", "energies1", "p0", "p1", "f", "crosscheck_replications", "crosscheck_iterations",
))
# the keys that belong to one target family; every oracle key is a finite one
TARGET_KEYS = {
    "gaussian": frozenset(("covariance", "proposal_scale")),
    "finite": frozenset(("energies", "move_prob", "proposal_matrix")) | ORACLE_KEYS,
}
CONFIG_KEYS = frozenset((
    "target", "temperatures", "theta", "kernel", "iterations", "replications", "burn_in",
    "seed", "out", "lambdas", "kappas",
)).union(*TARGET_KEYS.values())


def _build_levels(raw):
    """The target, its temperature ladder and, on a finite target, each level's
    energies E / t_l.  The oracle's explicit-law form gives two levels' energies
    and no target or ladder: the shared-kernel well has two equal laws, which
    no strictly decreasing ladder gives."""
    kind = raw.get("target")
    if kind == "gaussian":
        key, make = "covariance", GaussianTarget
    elif kind == "finite":
        key, make = "energies", FiniteTarget
    else:
        _fail("target", f"must be 'gaussian' or 'finite', got {kind!r}")
    for family, keys in TARGET_KEYS.items():
        for stray in sorted(keys & raw.keys()) if family != kind else ():
            _fail(stray, f"applies to {family} targets only, not to {kind} ones")
    if "energies0" in raw or "energies1" in raw:
        if not ("energies0" in raw and "energies1" in raw):
            _fail("energies0", "energies0 and energies1 must be given together")
        for stray in sorted({"energies", "temperatures", "lambdas", "kappas"} & raw.keys()):
            _fail(stray, "has no effect beside energies0/energies1")
        e0, e1 = (_checked(key, make, raw[key]).energies for key in ("energies0", "energies1"))
        if e0.shape != e1.shape:
            _fail("energies1", f"must have one entry per state like energies0 ({e0.size})")
        return None, None, [e0, e1]
    if key not in raw:
        _fail(key, f"required for {kind} targets")
    target = _checked(key, make, raw[key])
    temps = _float_list("temperatures", raw.get("temperatures"))
    ladder = _checked("temperatures", TemperatureLadder, temps)
    if len(temps) < 2:  # every sampler but rwm needs a hotter level
        _fail("temperatures", f"need at least two temperatures, got {len(temps)}")
    # an exact draw y = sqrt(t) L z from N(0, t Sigma) has energy t |z|^2 / 2 whatever
    # Sigma is; at PROPOSAL_SDS standard deviations that is PROPOSAL_SDS^2 t / 2
    if kind == "gaussian" and not 0.5 * PROPOSAL_SDS**2 * temps[0] < math.inf:
        _fail("temperatures", f"an exact draw of {PROPOSAL_SDS:g} standard deviations at "
                              f"temperature {temps[0]!r} overflows the energy")
    return target, ladder, [target.energies / t for t in temps] if kind == "finite" else None


def _state_matrix(key, value, n) -> np.ndarray:
    matrix = _checked(key, _check_stochastic, value)
    if matrix.shape != (n, n):
        _fail(key, f"must be {n} x {n} (one row per state), got shape {matrix.shape}")
    return matrix


def _finite_bases(raw, n, log_weights) -> list:
    """Level l's base matrix, for each level's log-weight vector: ``p<l>`` where
    given, else the Metropolis matrix over ``proposal_matrix`` (else the
    nearest-neighbor proposal with ``move_prob``)."""
    keys = [f"p{level}" for level in range(len(log_weights))]
    if all(key in raw for key in keys):  # then no base matrix is built from the proposal
        for stray in sorted({"move_prob", "proposal_matrix"} & raw.keys()):
            _fail(stray, "has no effect beside p0 and p1")
    elif "proposal_matrix" in raw:
        proposal = _state_matrix("proposal_matrix", raw["proposal_matrix"], n)
    else:
        move_prob = _float("move_prob", raw.get("move_prob", 1.0))
        proposal = _checked("move_prob", neighbor_proposal, n, move_prob)
    return [_state_matrix(key, raw[key], n) if key in raw
            else _checked("proposal_matrix", metropolis_matrix, proposal, lw)
            for key, lw in zip(keys, log_weights)]


def _parse(raw, kernel, seed, out_override, oracle) -> RunConfig:
    """The rules every config shares, for the oracle (which prices ``ee`` and
    needs a seed for a cross-check only) or for the samplers (which refuse
    the oracle's keys and need a seed and ``iterations``).  A file's
    ``kernel``, ``seed`` and ``out`` are checked even where a flag replaces them."""
    for key in raw:  # so that a misspelt key cannot fall back to a default unnoticed
        if key not in CONFIG_KEYS:
            _fail(key, "unknown key")
    kinds = ("ee",) if oracle else ADAPTIVE_KINDS + SINGLE_KINDS
    for value in (raw.get("kernel"), kernel):
        if value is not None and value not in kinds:
            _fail("kernel", f"must be one of {kinds}, got {value!r}")
    kernel = kernel or raw.get("kernel")
    target, ladder, levels = _build_levels(raw)
    for key in () if oracle else sorted(ORACLE_KEYS & raw.keys()):  # never ignore p0/p1 silently
        _fail(key, "is read by the oracle command only")
    theta = raw.get("theta", 0.5)
    if isinstance(theta, list):
        thetas = _float_list("theta", theta)
    else:
        thetas = [_float("theta", theta)] * (1 if ladder is None else ladder.top_level)
    if levels is None:
        proposal_scale = _proposal_scale(raw, target)
        kwargs = {"proposal_covariance": proposal_scale**2 * np.eye(target.dimension)}
    else:
        kwargs = {"base_matrices": _finite_bases(raw, levels[0].size, [-e for e in levels])}
    if ladder is None:  # the explicit-law form: two levels, and level 0 never mixes
        if len(thetas) != 1:
            _fail("theta", f"need one theta per adaptive level: expected 1, got {len(thetas)}")
        configs = tuple(_checked("theta", KernelConfig, value, base_matrix=base)
                        for value, base in zip((1.0, *thetas), kwargs["base_matrices"]))
    else:
        configs = _checked("theta", ladder_configs, ladder, thetas, **kwargs)
    if kernel not in SINGLE_KINDS:  # an adaptive (or unnamed) kernel cannot run at theta 0
        _checked("theta", check_adaptive_thetas, configs)
    seed_required = not oracle or raw.get("crosscheck_replications") is not None
    file_seed = _int_at_least("seed", raw.get("seed"), 0, seed_required and seed is None)
    seed = file_seed if seed is None else _int_at_least("seed", seed, 0)
    burn_in = _int_at_least("burn_in", raw.get("burn_in", 0), 0)
    iterations = _int_at_least("iterations", raw.get("iterations"), 1, not oracle)
    if iterations is not None and burn_in >= iterations:
        _fail("burn_in", f"must be below iterations={iterations}")
    out = _checked("out", Path, raw.get("out", "results"))
    temps = () if ladder is None else ladder.temperatures  # no ladder, no lambdas
    return RunConfig(
        raw=raw,
        target=target,
        ladder=ladder,
        levels=levels,
        configs=configs,
        kernel=kernel,
        iterations=iterations,
        replications=_int_at_least("replications", raw.get("replications", 1), 1),
        seed=seed,
        burn_in=burn_in,
        out=out if out_override is None else _checked("out", Path, out_override),
        theta_bounds=theta_bound_report(raw, temps, configs),
    )


def load_config(path, kernel_override=None, seed_override=None, out_override=None) -> RunConfig:
    """A sampler config, for ``run``, ``table1`` and ``validate``."""
    raw = load_raw_config(path)
    return _parse(raw, kernel_override, seed_override, out_override, False)


def theta_bound_report(raw, temps, configs):
    """Per-level theta lower bounds for user-supplied drift parameters.

    Returns (lines, warnings) on each ``configs[l].theta``; silent when both keys are absent.
    """
    lambdas, kappas = raw.get("lambdas"), raw.get("kappas")
    if lambdas is None and kappas is None:
        return [], []
    if lambdas is None or kappas is None:
        key, other = ("lambdas", "kappas") if kappas is None else ("kappas", "lambdas")
        _fail(key, f"has no effect without {other}")
    lambdas, kappas = _float_list("lambdas", lambdas), _float_list("kappas", kappas)
    n_adaptive = len(temps) - 1
    if len(lambdas) != n_adaptive or len(kappas) != n_adaptive:
        _fail("lambdas", f"lambdas and kappas need {n_adaptive} entries (one per adaptive level)")
    lines, warnings = [], []
    for level in range(1, len(temps)):
        lam, kap = lambdas[level - 1], kappas[level - 1]
        try:
            bound = theta_lower_bound(lam, kap, temps[level], temps[level - 1])
        except ValueError as exc:  # KappaTooLargeError included; lambda is checked first
            _fail("kappas" if 0.0 < lam < 1.0 else "lambdas", f"level {level}: {exc}")
        theta = configs[level].theta
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


def cmd_validate(args) -> int:
    raw = load_raw_config(args.config)
    if ORACLE_KEYS & raw.keys():  # an oracle-only key makes it an oracle config
        config, verdict = load_oracle_config(args.config), "valid oracle instance"
        oracle_report(config)  # an instance it cannot price is a config error
        summary = f"states: {config.levels[0].size}, theta: {config.configs[1].theta}"
    else:
        config, verdict = load_config(args.config), "valid"
        _checked("theta", check_adaptive_thetas, config.configs)  # valid for table1 too
        summary = (f"target: {raw['target']}, levels: {config.ladder.n_levels}, "
                   f"iterations: {config.iterations}, replications: {config.replications}")
    lines, warnings = config.theta_bounds
    print(f"config {args.config}: {verdict} (digest {config_digest(raw)})")
    for line in [summary, *lines]:
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
    _checked("theta", check_adaptive_thetas, config.configs)  # table1 runs ee and ir too

    def work():
        table = mse_harness(
            TABLE1_KINDS, config.target, config.ladder, config.configs, _table1_estimands(config),
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


def load_oracle_config(path, seed_override=None, out_override=None) -> RunConfig:
    """A finite sampler config with two levels, plus the oracle's keys: ``p0``
    and ``p1`` as the levels' base matrices, ``f`` and the cross-check shape."""
    raw = load_raw_config(path)
    config = _parse(raw, None, seed_override, out_override, True)
    if config.levels is None:
        _fail("target", "the oracle command works on finite targets")
    if len(config.levels) != 2:
        _fail("temperatures", "the oracle needs exactly two levels "
                              "(or explicit energies0/energies1)")
    e0, e1 = config.levels
    n = e0.size
    config.f = _checked("f", np.asarray, raw.get("f", np.arange(n, dtype=float)), float)
    if config.f.shape != (n,) or not np.all(np.isfinite(config.f)):
        _fail("f", f"must be {n} finite values (one per state), got shape {config.f.shape}")
    reps = raw.get("crosscheck_replications")
    if reps is None and "crosscheck_iterations" in raw:
        _fail("crosscheck_iterations", "has no effect without crosscheck_replications")
    if reps is not None:  # the cross-check reports a sample variance, which needs two
        _int_at_least("crosscheck_replications", reps, 2)
        _checked("crosscheck_replications", check_pair_table_size,
                 config.configs[0].base_matrix, config.configs[1].base_matrix, e0 - e1)
        iterations = raw.get("crosscheck_iterations", 100_000)
        config.crosscheck = (reps, _int_at_least("crosscheck_iterations", iterations, 1))
    return config


def oracle_report(config) -> tuple:
    """VarianceReport for an oracle config, plus the limit-kernel model and log r.

    A failure is a config error of the key behind the failing level's matrix:
    a failed Poisson solve is level 1's when its limit kernel is reducible
    (which takes theta 1), else level 0's, unless f scaled to max |f| = 1
    solves.  Then, as for a report with a non-finite value, f is too large
    for the report's floats.
    """
    raw = config.raw
    proposal = "proposal_matrix" if "proposal_matrix" in raw else "move_prob"
    key0, key1 = (key if key in raw else proposal for key in ("p0", "p1"))
    (e0, e1), (c0, c1) = config.levels, config.configs
    pi0 = FiniteTarget(e0).tempered_probabilities(1.0)
    pi1 = FiniteTarget(e1).tempered_probabilities(1.0)
    log_r = e0 - e1
    model0 = _checked(key0, FiniteChainModel, c0.base_matrix, pi0)
    limit_matrix = ee_limit_matrix(c1.base_matrix, pi0, log_r, c1.theta)
    limit = _checked(key1, FiniteChainModel, limit_matrix, pi1)
    f = config.f
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            report = ee_limit_clt_variance(model0, limit, c1.theta, f, log_r)
        except ValueError as exc:
            _checked(key1, FiniteChainModel, limit_matrix)  # raises if the limit kernel is reducible
            _checked(key0, ee_limit_clt_variance, model0, limit, c1.theta,
                     f / (np.abs(f).max() or 1.0), log_r)
            _fail("f", f"too large for the variance report's floats ({exc})")
    if not np.isfinite(astuple(report)).all():
        _fail("f", f"too large for the variance report's floats: {report}")
    return report, limit, log_r


def cmd_oracle(args) -> int:
    config = load_oracle_config(args.config, seed_override=args.seed, out_override=args.out)
    report, limit, log_r = oracle_report(config)
    p0, p1 = (level.base_matrix for level in config.configs)
    theta = config.configs[1].theta

    def work():
        lines = [
            "# two-level equi-energy variance report",
            f"theta: {theta}",
            f"sigma_star_sq: {report.sigma_star_sq!r}",
            f"gamma_gbar: {report.gamma_gbar!r}",
            f"clt_variance: {report.clt_variance!r}",
            f"second_moment_limit: {report.second_moment_limit!r}",
        ]
        if config.crosscheck is not None:
            reps, iters = config.crosscheck
            fc = config.f - limit.stationary @ config.f
            scaled = ee_pair_scaled_sums(p0, p1, theta, log_r, fc, n_steps=iters,
                                         replications=reps, seed=config.seed)
            var = float(scaled.var(ddof=1))
            lines += [
                f"crosscheck_sample_variance: {var!r}",
                f"crosscheck_standard_error: {var * float(np.sqrt(2.0 / (reps - 1)))!r}",
                f"crosscheck_replications: {reps}",
                f"crosscheck_iterations: {iters}",
            ]
        text = "\n".join(lines)
        (config.out / "variance_report.txt").write_text(text + "\n")
        _write_metadata(config.out / "variance_report.meta.json", config.raw, config.seed)
        print(text)
        print(f"\nwrote {config.out / 'variance_report.txt'}")

    return _guarded(config.out, work)


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
