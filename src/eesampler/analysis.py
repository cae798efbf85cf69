"""Exact variance oracles on finite chains, and empirical counterparts.

The oracle side is plain linear algebra: stationary vectors by direct
solve, the Poisson equation through the regularized system
(I - M + 1 pi') U = f, the asymptotic variance pi(f (2U - f)) of a
stationary chain, and the two-level quantities that price the adaptivity
of the equi-energy scheme -- the exchange-move fluctuation function
H_x(y), the covariance form Gamma, and the resulting variance report
(sigma_star^2, Gamma(gbar, gbar), the second-moment limit with
coefficient 2, and the coefficient-4 CLT variance that replicated runs
contradict, kept until the benchmark stops reading it).

The empirical side has batch means, a fast finite-chain simulator, a
replicated two-level equi-energy simulator (vectorized across
replications) used to cross-check the second-moment limit, and the
mean-squared-error replication harness that the table experiment runs
on.  Replication r of the harness derives its seed from (master seed, r)
and the result does not depend on how replications are scheduled.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .kernels import _check_stochastic, acceptance_matrix
from .ladder import run_sampler
from .targets import _pinned_cumsum

# relative to max(1, max|U|): the solve's rounding error grows with |U|
POISSON_RESIDUAL_TOL = 1e-10
STATIONARY_RESIDUAL_TOL = 1e-10
# replications per seeded block of the pair simulator; the block size fixes
# which generator drives each replication, so changing it changes the results
PAIR_CHUNK = 500


class ReducibleChainError(ValueError):
    """The transition matrix is not irreducible (or the solve degenerated)."""


def _strongly_connected(matrix: np.ndarray) -> bool:
    # reachability closure by repeated boolean squaring
    n = matrix.shape[0]
    reach = (matrix > 0) | np.eye(n, dtype=bool)
    steps = 1
    while steps < n:
        reach = (reach.astype(np.uint8) @ reach.astype(np.uint8)) > 0
        steps *= 2
    return bool(reach.all())


def stationary_distribution(matrix) -> np.ndarray:
    """Stationary vector of an irreducible row-stochastic matrix.

    Solves pi' M = pi' with the normalization sum(pi) = 1 by a direct
    linear solve; the residual is checked against 1e-10.
    """
    m = _check_stochastic(matrix)
    if not _strongly_connected(m):
        raise ReducibleChainError("matrix is reducible: no unique stationary distribution")
    n = m.shape[0]
    a = m.T - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError(f"stationary solve degenerated: {exc}") from None
    if pi.min() < -1e-9:
        raise ReducibleChainError("stationary solve produced negative mass")
    try:
        return _normalized_stationary(pi, m)
    except ValueError as exc:
        raise ReducibleChainError(f"stationary solve degenerated: {exc}") from None


def _normalized_stationary(pi: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``pi`` clipped at zero and normalized, checked to solve pi' M = pi' to 1e-10."""
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not 0.0 < total < np.inf:
        raise ValueError("stationary vector must be finite with positive total mass")
    pi = pi / total
    residual = np.abs(pi @ m - pi).max()
    if not residual <= STATIONARY_RESIDUAL_TOL:
        raise ValueError(f"stationary vector residual {residual:.3e} exceeds tolerance")
    return pi


@dataclass(frozen=True)
class FiniteChainModel:
    """Row-stochastic matrix together with its stationary vector."""

    matrix: np.ndarray
    stationary: np.ndarray | None = None

    def __post_init__(self):
        m = _check_stochastic(self.matrix)
        object.__setattr__(self, "matrix", m)
        if self.stationary is None:
            pi = stationary_distribution(m)
        else:
            pi = np.asarray(self.stationary, dtype=float)
            if pi.shape != (m.shape[0],) or np.any(pi < -1e-12):
                raise ValueError("stationary must be a nonnegative vector matching the matrix")
            pi = _normalized_stationary(pi, m)
        object.__setattr__(self, "stationary", pi)

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]


def poisson_solve(model: FiniteChainModel, f) -> np.ndarray:
    """Solution of U - M U = f - pi(f) with the series normalization.

    Solves the regularized system (I - M + 1 pi') U = f, whose solution
    is the fundamental-series value sum_k (M - 1 pi')^k f; in particular
    pi(U) = pi(f).  ``f`` of shape (S, k) solves for k functions at once,
    one per column.  The residual of the Poisson identity is checked
    against 1e-10 * max(1, max|U|).
    """
    f = np.asarray(f, dtype=float)
    m = model.matrix
    if f.ndim not in (1, 2) or f.shape[0] != m.shape[0]:
        raise ValueError(f"f must have {m.shape[0]} rows, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("f must be finite")
    a = np.eye(m.shape[0]) - m + np.outer(np.ones(m.shape[0]), model.stationary)
    try:
        u = np.linalg.solve(a, f)
    except np.linalg.LinAlgError as exc:
        raise ReducibleChainError(f"Poisson system is singular: {exc}") from None
    residual = np.abs(u - m @ u - (f - model.stationary @ f)).max()
    if not residual <= POISSON_RESIDUAL_TOL * max(1.0, np.abs(u).max()):
        raise ReducibleChainError(f"Poisson residual {residual:.3e} exceeds tolerance")
    return u


def asymptotic_variance(model: FiniteChainModel, f) -> float:
    """Asymptotic variance of n^{-1/2} sum f(X_k) for the stationary chain.

    Computes pi(fc * (2U - fc)) with fc the pi-centered f and U its
    Poisson solution, which sums the stationary autocovariance series
    pi(fc^2) + 2 sum_{k>=1} pi(fc M^k fc).
    """
    f = np.asarray(f, dtype=float)
    fc = f - float(model.stationary @ f)
    u = poisson_solve(model, fc)
    return float(model.stationary @ (fc * (2.0 * u - fc)))


def ee_h_function(model0: FiniteChainModel, limit_kernel: FiniteChainModel,
                  log_r, f) -> np.ndarray:
    """Exchange-move fluctuation function H, rows indexed by the current state.

    H[x, y] is the expected Poisson-solution value after an exchange
    proposal y against current state x, centered by its average over the
    level-0 law: T(y, x, U) - R(x, U), with U solving the Poisson
    equation for the centered f under the limiting kernel.
    """
    log_r = np.asarray(log_r, dtype=float)
    n = model0.n_states
    if limit_kernel.n_states != n or log_r.shape != (n,):
        raise ValueError("model0, limit_kernel and log_r must share one state space")
    f = np.asarray(f, dtype=float)
    fc = f - float(limit_kernel.stationary @ f)
    u = poisson_solve(limit_kernel, fc)
    accept = acceptance_matrix(log_r)
    t_u = accept * u[None, :] + (1.0 - accept) * u[:, None]
    r_u = t_u @ model0.stationary
    return t_u - r_u[:, None]


def gamma_covariance(model0: FiniteChainModel, f, g=None) -> float:
    """The covariance form Gamma(f, g) of the level-0 chain.

    Gamma(f, g) = pi0( Uf Ug - (P Uf)(P Ug) ) with Uf, Ug the Poisson
    solutions of the pi0-centered inputs; Gamma(f, f) is the asymptotic
    variance of n^{-1/2} sum f(X_k^{(0)}).  Symmetric, bilinear, and
    positive semidefinite.
    """
    f = np.asarray(f, dtype=float)
    fc = f - float(model0.stationary @ f)
    uf = poisson_solve(model0, fc)
    if g is None:
        ug = uf
    else:
        g = np.asarray(g, dtype=float)
        gc = g - float(model0.stationary @ g)
        ug = poisson_solve(model0, gc)
    m = model0.matrix
    return float(model0.stationary @ (uf * ug - (m @ uf) * (m @ ug)))


def gamma_covariance_matrix(model0: FiniteChainModel, h: np.ndarray) -> np.ndarray:
    """Gamma(x, y) over all pairs of rows of an H matrix (rows as functions)."""
    h = np.asarray(h, dtype=float)
    pi0 = model0.stationary
    hc = h - (h @ pi0)[:, None]
    u = poisson_solve(model0, hc.T)  # columns are U_x
    mu = model0.matrix @ u
    return u.T @ (pi0[:, None] * u) - mu.T @ (pi0[:, None] * mu)


@dataclass(frozen=True)
class VarianceReport:
    """The variance decomposition of the two-level equi-energy scheme.

    ``second_moment_limit`` is the limit of the normalized second moment,
    sigma_star^2 + 2 (1-theta)^2 Gamma(gbar, gbar).  ``clt_variance`` is
    the coefficient-4 value sigma_star^2 + 4 (1-theta)^2 Gamma, which
    replicated runs contradict; it is kept until the benchmark stops
    reading it.
    """

    sigma_star_sq: float
    gamma_gbar: float
    clt_variance: float
    second_moment_limit: float


def ee_limit_clt_variance(model0: FiniteChainModel, limit_kernel: FiniteChainModel,
                          theta: float, f, log_r=None) -> VarianceReport:
    """Full variance report for a finite two-level equi-energy instance.

    ``model0`` is the level-0 chain, ``limit_kernel`` the limiting kernel
    of level 1 (its stationary vector is the level-1 law).  ``log_r``
    gives the per-state log importance weights between the two tempered
    laws; by default it is recovered from the two stationary vectors,
    which determines it up to the additive constant that cancels in every
    acceptance ratio.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    pi0 = model0.stationary
    pi1 = limit_kernel.stationary
    if log_r is None:
        if np.any(pi0 <= 0.0) or np.any(pi1 <= 0.0):
            raise ValueError("cannot infer log_r with zero-mass states; pass it explicitly")
        log_r = np.log(pi1) - np.log(pi0)
    f = np.asarray(f, dtype=float)
    sigma_star_sq = asymptotic_variance(limit_kernel, f)
    h = ee_h_function(model0, limit_kernel, log_r, f)
    gbar = pi1 @ h
    gamma = gamma_covariance(model0, gbar)
    clt = sigma_star_sq + 4.0 * (1.0 - theta) ** 2 * gamma
    second = sigma_star_sq + 2.0 * (1.0 - theta) ** 2 * gamma
    return VarianceReport(sigma_star_sq, gamma, clt, second)


# --- empirical estimators ----------------------------------------------------


def batch_means_variance(values, batch_count: int) -> tuple[float, float]:
    """Non-overlapping batch-means estimate of the per-step asymptotic variance.

    Returns (estimate, standard error); the estimate is scaled so that
    Var(mean of n values) is approximately estimate / n.  Requires the
    length to split evenly into ``batch_count`` batches of at least 100
    points.
    """
    v = np.asarray(values, dtype=float).ravel()
    if batch_count < 2:
        raise ValueError("need at least 2 batches")
    if v.size % batch_count != 0:
        raise ValueError(f"{v.size} values do not divide into {batch_count} batches")
    m = v.size // batch_count
    if m < 100:
        raise ValueError(f"batches of {m} points are too small (need >= 100)")
    means = v.reshape(batch_count, m).mean(axis=1)
    estimate = m * float(means.var(ddof=1))
    std_err = estimate * np.sqrt(2.0 / (batch_count - 1))
    return estimate, std_err


def simulate_matrix_chain(matrix, n_steps: int, seed: int, x0: int = 0) -> np.ndarray:
    """Trajectory of a finite chain driven by an explicit matrix."""
    rows = [list(row) for row in _pinned_cumsum(_check_stochastic(matrix))]
    rng = np.random.default_rng(seed)
    us = rng.random(n_steps)
    out = np.empty(n_steps, dtype=np.int64)
    x = x0
    for i in range(n_steps):
        x = bisect_right(rows[x], us[i])
        out[i] = x
    return out


def ee_pair_scaled_sums(p0, p1, theta: float, log_r, f, n_steps: int,
                        replications: int, seed: int, x0: int = 0, x1: int = 0) -> np.ndarray:
    """Replicated two-level adaptive equi-energy runs, vectorized.

    Simulates ``replications`` independent copies of the coupled pair
    (level-0 chain with matrix ``p0``; level-1 chain mixing matrix ``p1``
    with uniform exchange proposals from the level-0 history, accepted by
    min(1, r(y)/r(x))) and returns n^{-1/2} sum_k f(X_k^{(1)}) for each
    copy.  ``f`` should already be centered under the level-1 stationary
    law.  The timing contract matches the ladder driver: at iteration n
    the exchange proposal is drawn from {X_1, ..., X_{n-1}} of level 0,
    and iteration 1 is forced local.

    Replications are processed in chunks of ``PAIR_CHUNK`` (chunk c
    seeded by spawn key (c,) of the master seed), so memory stays bounded.
    """
    cum0 = _pinned_cumsum(_check_stochastic(p0))
    cum1 = _pinned_cumsum(_check_stochastic(p1))
    history_dtype = np.min_scalar_type(cum0.shape[0] - 1)
    log_r = np.asarray(log_r, dtype=float)
    f = np.asarray(f, dtype=float)
    out = np.empty(replications)
    done = 0
    chunk_index = 0
    while done < replications:
        r = min(PAIR_CHUNK, replications - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
        s0 = np.full(r, x0, dtype=np.int64)
        s1 = np.full(r, x1, dtype=np.int64)
        hist = np.empty((n_steps, r), dtype=history_dtype)
        sums = np.zeros(r)
        rows = np.arange(r)
        for n in range(1, n_steps + 1):
            s0 = (cum0[s0] < rng.random(r)[:, None]).sum(axis=1)
            exchange = rng.random(r) >= theta
            local_next = (cum1[s1] < rng.random(r)[:, None]).sum(axis=1)
            if n == 1:
                s1 = local_next
            else:
                j = rng.integers(0, n - 1, size=r)
                y = hist[j, rows].astype(np.int64)
                accept = np.log(rng.random(r)) < log_r[y] - log_r[s1]
                s1 = np.where(exchange, np.where(accept, y, s1), local_next)
            hist[n - 1] = s0
            sums += f[s1]
        out[done : done + r] = sums / np.sqrt(n_steps)
        done += r
        chunk_index += 1
    return out


# --- replication harness ------------------------------------------------------


@dataclass(frozen=True)
class MomentEstimand:
    """Ergodic average of one state component raised to a power."""

    name: str
    truth: float
    component: int = 0
    power: int = 1

    def average(self, states: np.ndarray) -> float:
        return float(np.mean(states[:, self.component] ** self.power))


@dataclass(frozen=True)
class TableEstimand:
    """Ergodic average of a per-state value table (finite targets)."""

    name: str
    truth: float
    values: tuple

    def average(self, states: np.ndarray) -> float:
        return float(np.mean(np.asarray(self.values)[states]))


@dataclass(frozen=True)
class SamplerSpec:
    """Everything one replication of one sampler needs (picklable)."""

    label: str
    kind: str
    target: object
    ladder: object
    configs: tuple


def replication_seed(master_seed: int, replication: int) -> int:
    """Documented per-replication seed derivation: (master seed, index)."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(replication)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _replication_task(args) -> list[float]:
    spec, estimands, iterations, burn_in, seed = args
    traj = run_sampler(spec.kind, spec.target, spec.ladder, spec.configs, iterations, seed)
    states = traj.states[-1][burn_in:]
    return [est.average(states) for est in estimands]


@dataclass
class MSETable:
    """Mean-squared errors and baseline ratios, one row pair per sampler."""

    sampler_labels: list
    estimand_names: list
    truths: np.ndarray
    mse: np.ndarray
    ratios: np.ndarray
    replications: int
    iterations: int
    metadata: dict = field(default_factory=dict)

    def to_text(self) -> str:
        """Aligned table, MSE to 4 decimals and ratios to 2."""
        width = max(len(lbl) for lbl in self.sampler_labels) + 2
        colw = max(10, max(len(n) for n in self.estimand_names) + 2)
        lines = [
            " " * (width + 8)
            + "".join(f"{name:>{colw}}" for name in self.estimand_names)
        ]
        for i, label in enumerate(self.sampler_labels):
            mse_cells = "".join(f"{v:>{colw}.4f}" for v in self.mse[i])
            ratio_cells = "".join(f"{v:>{colw}.2f}" for v in self.ratios[i])
            lines.append(f"{label:<{width}}MSE     {mse_cells}")
            lines.append(f"{'':<{width}}Ratios  {ratio_cells}")
        if self.replications == 1:
            lines.append(
                "note: single replication; each MSE is one squared error and "
                "the ratios are unreliable"
            )
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sampler", "row"] + list(self.estimand_names))
            for i, label in enumerate(self.sampler_labels):
                writer.writerow([label, "mse"] + [repr(float(v)) for v in self.mse[i]])
                writer.writerow([label, "ratio"] + [repr(float(v)) for v in self.ratios[i]])


def mse_harness(samplers, estimands, replications: int, iterations: int,
                master_seed: int, burn_in: int = 0, jobs: int = 1) -> MSETable:
    """Replicated mean-squared-error comparison of samplers.

    Every sampler is replicated ``replications`` times for ``iterations``
    steps; replication r uses the seed derived from (master seed, r), the
    same across samplers.  MSEs are measured at the coldest level against
    the supplied truths, and the ratio rows are normalized by the first
    (baseline) sampler.  With ``jobs`` > 1 replications fan out to a
    process pool; results are independent of the worker count.
    """
    if replications < 1 or iterations < 1:
        raise ValueError("replications and iterations must be positive")
    samplers = list(samplers)
    estimands = list(estimands)
    seeds = [replication_seed(master_seed, r) for r in range(replications)]
    tasks = [
        (s, r, (spec, estimands, iterations, burn_in, seeds[r]))
        for s, spec in enumerate(samplers)
        for r in range(replications)
    ]
    averages = np.empty((len(samplers), replications, len(estimands)))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for (s, r, _), result in zip(
                tasks, pool.map(_replication_task, [t[2] for t in tasks], chunksize=4)
            ):
                averages[s, r] = result
    else:
        for s, r, args in tasks:
            averages[s, r] = _replication_task(args)
    truths = np.array([est.truth for est in estimands])
    errors = (averages - truths[None, None, :]) ** 2
    mse = errors.mean(axis=1)
    ratios = mse[0][None, :] / mse
    return MSETable(
        sampler_labels=[spec.label for spec in samplers],
        estimand_names=[est.name for est in estimands],
        truths=truths,
        mse=mse,
        ratios=ratios,
        replications=replications,
        iterations=iterations,
        metadata={"master_seed": master_seed, "burn_in": burn_in},
    )
