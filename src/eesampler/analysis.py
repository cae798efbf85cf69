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

The empirical side has batch means, a finite-chain simulator, a
replicated two-level equi-energy simulator (vectorized across
replications, with no stored history) used to cross-check the
second-moment limit, and the mean-squared-error replication harness that
the table experiment runs on.  Both simulators step through exact
transition tables: one lookup per chain-step gives the same next state
as the inverse-CDF draw from the matrix row.  The harness hands
``run_sampler`` one sampler kind and a chunk of replications per task:
the batched engine runs the chunk, or the scalar kernels a chunk of one.
Replication r derives its seed from (master seed, r), and its result
depends neither on the chunks nor on the worker count.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kernels import _check_stochastic, acceptance_matrix
from .ladder import replication_bytes, run_sampler
from .targets import _pinned_cumsum

# relative to max(1, max|U|): the solve's rounding error grows with |U|
POISSON_RESIDUAL_TOL = 1e-10
STATIONARY_RESIDUAL_TOL = 1e-10
# replications per seeded block of the pair simulator; the block size fixes
# which generator drives each replication, so changing it changes the results
PAIR_CHUNK = 500
# iterations per block of the pair simulator; each block draws its variates with
# one generator call per kind, so changing it changes the results too
PAIR_BLOCK = 128
# most entries (8 bytes each) the pair simulator's transition tables may hold
PAIR_TABLE_LIMIT = 2**23
# bytes of history one replication-harness task may hold: the engine's arrays
# for its chunk of replications (``ladder.replication_bytes`` each)
TASK_MEMORY_BUDGET = 10 * 2**20


class ReducibleChainError(ValueError):
    """The transition matrix is not irreducible (or the solve degenerated)."""


def _strongly_connected(matrix: np.ndarray) -> bool:
    # reachability closure by repeated squaring of the 0/1 matrix; path
    # counts reach n, so the product is in floats: uint8 counts wrap at 256
    n = matrix.shape[0]
    reach = ((matrix > 0) | np.eye(n, dtype=bool)).astype(float)
    steps = 1
    while steps < n:
        reach = ((reach @ reach) > 0).astype(float)
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
    against 1e-10 * max(1, max|U|): a relative bound, since the rounding
    error of the solve grows with the size of U.
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


def asymptotic_variance(model: FiniteChainModel, f, u=None) -> float:
    """Asymptotic variance of n^{-1/2} sum f(X_k) for the stationary chain.

    Computes pi(fc * (2U - fc)) with fc the pi-centered f and U its
    Poisson solution, which sums the stationary autocovariance series
    pi(fc^2) + 2 sum_{k>=1} pi(fc M^k fc).  A caller that holds U passes it.
    """
    f = np.asarray(f, dtype=float)
    fc = f - float(model.stationary @ f)
    if u is None:
        u = poisson_solve(model, fc)
    return float(model.stationary @ (fc * (2.0 * u - fc)))


def ee_h_function(model0: FiniteChainModel, limit_kernel: FiniteChainModel,
                  log_r, f, u=None) -> np.ndarray:
    """Exchange-move fluctuation function H, rows indexed by the current state.

    H[x, y] is the expected Poisson-solution value after an exchange
    proposal y against current state x, centered by its average over the
    level-0 law: T(y, x, U) - R(x, U), with U solving the Poisson
    equation for the centered f under the limiting kernel.  A caller that
    holds U passes it.
    """
    log_r = np.asarray(log_r, dtype=float)
    n = model0.n_states
    if limit_kernel.n_states != n or log_r.shape != (n,):
        raise ValueError("model0, limit_kernel and log_r must share one state space")
    if u is None:
        f = np.asarray(f, dtype=float)
        u = poisson_solve(limit_kernel, f - float(limit_kernel.stationary @ f))
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
    u = poisson_solve(limit_kernel, f - float(pi1 @ f))  # one solve serves both
    sigma_star_sq = asymptotic_variance(limit_kernel, f, u)
    h = ee_h_function(model0, limit_kernel, log_r, f, u)
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


def _distinct(values) -> np.ndarray:
    """Sorted distinct entries of ``values``, like ``np.unique``, which imports
    ``numpy.ma`` on first use (tens of ms on every ``validate``)."""
    v = np.sort(values, axis=None)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


class _InverseCdf:
    """u -> b.searchsorted(u, side="right") for u in [0, 1), by a guide table.

    ``b`` is sorted, distinct and holds 1.0.  Chen & Asau's guide table cuts
    [0, 1) into K = 2^k buckets, K > 2 b.size: guide[t] counts the entries
    <= t / K, which is the answer for every u in bucket t = floor(u K)
    (exact, as K is a power of two) up to the entries strictly inside the
    bucket.  Each correction pass adds 1 where b[q] <= u, so as many passes
    as the most crowded bucket has entries make the lookup exact.  Entries
    a few ulps apart share a bucket at every K, so when that count passes
    log2(b.size) + 1 the passes bisect the bucket instead: q += h where
    b[q + h - 1] <= u, for h = 2^(m-1), ..., 2, 1 and 2^m above the count.
    """

    def __init__(self, b: np.ndarray):
        self.buckets = 1 << (b.size.bit_length() + 1)
        self.guide = b.searchsorted(np.arange(self.buckets) / self.buckets, side="right")
        scaled = b * self.buckets
        bucket = scaled.astype(np.intp)
        inside = (scaled != bucket) & (b < 1.0)
        crowd = int(np.bincount(bucket[inside]).max(initial=0))
        if crowd > np.log2(b.size) + 1:
            self.steps = [1 << e for e in reversed(range(crowd.bit_length()))]
        else:
            self.steps = [1] * crowd
        # a bisection step may read past the bucket's last entry: pad with 1.0 > u
        self.edges = np.concatenate([b, np.ones(max(self.steps, default=1) - 1)])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        q = self.guide.take((u * self.buckets).astype(np.intp))
        for h in self.steps:
            if h == 1:
                q += self.edges.take(q) <= u
            else:
                q += h * (self.edges.take(q + (h - 1)) <= u)
        return q


def _transition_table(cum: np.ndarray) -> tuple[_InverseCdf, np.ndarray]:
    """Every row's inverse-CDF draw from one lookup.

    ``cum`` is a pinned cumulative matrix (see ``_pinned_cumsum``).  Returns
    (draw, table): with b the sorted distinct entries of ``cum``,
    draw(u) = searchsorted(b, u, "right") (``_InverseCdf``) and
    table[q, s] = searchsorted(cum[s], b[q-1], "right"), with row 0 all zero.
    Every entry of ``cum`` is in b, so for u in [0, 1) and q = draw(u),
    table[q, s] equals searchsorted(cum[s], u, "right") for every current
    state s at once: the same next state as the direct draw, by integer
    lookup alone.
    """
    b = _distinct(cum)
    table = np.zeros((b.size, cum.shape[0]), dtype=np.intp)
    for s, row in enumerate(cum):
        table[1:, s] = row.searchsorted(b[:-1], side="right")
    return _InverseCdf(b), table


def _check_state(name: str, x: int, n: int):
    if not 0 <= x < n:
        raise ValueError(f"{name} must be a state in [0, {n}), got {x}")


def simulate_matrix_chain(matrix, n_steps: int, seed: int) -> np.ndarray:
    """Trajectory of a finite chain driven by an explicit matrix, from state 0."""
    draw, table = _transition_table(_pinned_cumsum(_check_stochastic(matrix)))
    n = table.shape[1]
    rng = np.random.default_rng(seed)
    codes = (draw(rng.random(n_steps)) * n).tolist()
    flat = table.ravel().tolist()
    out = []
    x = 0
    for code in codes:
        x = flat[code + x]
        out.append(x)
    return np.array(out, dtype=np.int64)


def check_pair_table_size(p0, p1, log_r):
    """Raise ValueError if ``ee_pair_scaled_sums``'s tables would pass ``PAIR_TABLE_LIMIT``.

    For S states, each level's table has a row of S entries per distinct
    entry of its pinned cumulative matrix (at most S^2), and the exchange
    moves add S (D + 1) rows for D distinct values of ``log_r``: at most
    3 S^3 + S^2 entries, for dense matrices and distinct weights, so up to
    140 states; about S^3 for a nearest-neighbor proposal, about 200 states.
    """
    n = np.shape(p0)[0]
    rows = sum(_distinct(_pinned_cumsum(np.asarray(p, dtype=float))).size for p in (p0, p1))
    entries = n * (rows + n * (_distinct(log_r).size + 1))
    if entries > PAIR_TABLE_LIMIT:
        raise ValueError(f"the pair simulator's transition tables would hold {entries} "
                         f"entries, more than {PAIR_TABLE_LIMIT}; use fewer states")


def _walk(flat: np.ndarray, code: np.ndarray, s: np.ndarray, visits: np.ndarray) -> np.ndarray:
    """Step the chain of each column of ``code`` once per row; return the path.

    At row i, column c moves from state s[c] to flat[code[i, c] + s[c]].
    ``s`` ends on the last states and ``visits`` (columns, states) gains
    the path's visits, both in place.
    """
    path = np.empty(code.shape, dtype=np.intp)
    state = s
    for i in range(code.shape[0]):
        state = flat.take(code[i] + state, out=path[i])
    s[:] = state
    r, n = visits.shape
    visits += np.bincount((path + np.arange(r) * n).ravel(), minlength=r * n).reshape(r, n)
    return path


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
    seeded by spawn key (c,) of the master seed), and iterations in blocks
    of ``PAIR_BLOCK``, each drawing its variates with one generator call
    per kind.  Each chain advances by one gather per step from a
    transition table (``_transition_table``; the exchange moves add rows
    "to y from every state whose log_r ranks below a"), whose row comes
    from the uniform by a guide table (``_InverseCdf``).  The proposal
    X_{j+1}, j ~ U{0..n-2}, is read from per-replication level-0 visit
    counts by an integer inverse CDF, or, at the few j this block reached,
    from the block's path, so no history is stored.  Level 1 runs one
    block behind level 0: its codes need level 0's path through that
    block, and then one gather loop over both levels' 2r columns, from one
    table holding both levels' rows, advances the two chains together
    (the first block of level 0, and a short last block, run alone).
    """
    m0, m1 = _check_stochastic(p0), _check_stochastic(p1)
    n = m0.shape[0]
    if m1.shape != m0.shape:
        raise ValueError(f"p0 and p1 must have the same shape, got {m0.shape} and {m1.shape}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    log_r = np.asarray(log_r, dtype=float)
    f = np.asarray(f, dtype=float)
    for name, values in (("log_r", log_r), ("f", f)):
        if values.shape != (n,) or not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be {n} finite values, got shape {values.shape}")
    if n_steps < 1 or replications < 1:
        raise ValueError(f"n_steps and replications must be positive, got {n_steps}, {replications}")
    _check_state("x0", x0, n)
    _check_state("x1", x1, n)
    check_pair_table_size(m0, m1, log_r)
    draw0, table0 = _transition_table(_pinned_cumsum(m0))
    draw1, table1 = _transition_table(_pinned_cumsum(m1))
    # exchange row (y, a) moves to y from every state whose log_r has rank < a;
    # a = #{k : log v < log_r[y] - levels[k]} is a prefix count, because
    # log_r[y] - levels[k] does not increase with k, so the rule is exactly
    # log v < log_r[y] - log_r[x]
    levels = _distinct(log_r)
    rank = levels.searchsorted(log_r)
    states = np.arange(n)
    exchange_rows = np.where(rank < np.arange(levels.size + 1)[:, None], states[:, None, None],
                             states)
    # rows of level 0, then of level 1 (from row first1 on), then the exchange rows
    flat = np.concatenate([table0, table1, exchange_rows.reshape(-1, n)]).ravel()
    first1 = table0.shape[0]
    first_exchange_row = first1 + table1.shape[0] + states * (levels.size + 1)
    gaps = (log_r[:, None] - levels).T
    out = np.empty(replications)
    done = 0
    chunk_index = 0
    while done < replications:
        r = min(PAIR_CHUNK, replications - done)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
        # columns [0, r) are level 0, [r, 2r) level 1
        s = np.repeat(np.array([x0, x1], dtype=np.intp), r)
        visits = np.zeros((2 * r, n), dtype=np.int64)
        code = np.empty((PAIR_BLOCK, 2 * r), dtype=np.intp)
        lag = 0  # level-1 steps coded but not yet run
        for start in range(0, n_steps, PAIR_BLOCK):
            length = min(PAIR_BLOCK, n_steps - start)
            u0, u1, u_branch, u_accept = rng.random((4, length, r))
            j = rng.integers(0, np.maximum(np.arange(start, start + length), 1)[:, None],
                             size=(length, r))
            np.multiply(draw0(u0), n, out=code[:length, :r])
            # X_{j+1} among the first `start` level-0 states, tallied in visits
            y = np.zeros_like(j)
            for below in visits[:r].cumsum(axis=1)[:, :-1].T:
                y += below <= j
            if lag == length:
                path0 = _walk(flat, code[:length], s, visits)[:, :r]
            else:
                if lag:
                    _walk(flat, code[:lag, r:], s[r:], visits[r:])
                path0 = _walk(flat, code[:length, :r], s[:r], visits[:r])
            # j >= start (rare after the first block): X_{j+1} is on this block's path
            late, column = np.nonzero(j >= start)
            y[late, column] = path0[j[late, column] - start, column]
            log_v = np.log(u_accept)
            a = np.zeros_like(j)
            for gap in gaps:
                a += log_v < gap[y]
            exchange = u_branch >= theta
            if start == 0:
                exchange[0] = False
            np.multiply(np.where(exchange, first_exchange_row[y] + a, draw1(u1) + first1), n,
                        out=code[:length, r:])
            lag = length
        _walk(flat, code[:lag, r:], s[r:], visits[r:])
        out[done : done + r] = visits[r:] @ f / np.sqrt(n_steps)
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


def replication_seed(master_seed: int, replication: int) -> int:
    """Documented per-replication seed derivation: (master seed, index)."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(replication)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _replication_task(args) -> list:
    """Per-replication estimand averages of one (kind, chunk of seeds) task."""
    kind, target, ladder, configs, estimands, iterations, burn_in, seeds = args
    trajectories = run_sampler(kind, target, ladder, configs, iterations, seeds)
    return [[est.average(traj.states[-1][burn_in:]) for est in estimands]
            for traj in trajectories]


def _chunks(replications: int, size: int) -> list:
    """``range(replications)`` cut into the fewest runs of at most ``size``,
    of near-equal lengths."""
    count = -(-replications // size)
    edges = [c * replications // count for c in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


@dataclass
class MSETable:
    """Per-replication averages and the truths they estimate, one row per sampler kind.

    ``averages[s, r, e]`` is replication r's estimate of estimand e by
    sampler s; ``mse`` and ``ratios`` (against the first, baseline, kind)
    derive from it.
    """

    sampler_labels: list
    estimand_names: list
    truths: np.ndarray
    averages: np.ndarray

    @property
    def replications(self) -> int:
        return self.averages.shape[1]

    @property
    def mse(self) -> np.ndarray:
        return ((self.averages - self.truths) ** 2).mean(axis=1)

    @property
    def ratios(self) -> np.ndarray:
        mse = self.mse
        with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 is nan, x/0 is inf
            return mse[0][None, :] / mse

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


def mse_harness(kinds, target, ladder, configs, estimands, replications: int,
                iterations: int, master_seed: int, burn_in: int = 0, jobs: int = 1) -> MSETable:
    """Replicated mean-squared-error comparison of sampler kinds on one target.

    Every kind runs through ``run_sampler`` on the same target, ladder and
    configs, ``replications`` times for ``iterations`` steps; replication r
    uses the seed derived from (master seed, r), the same across kinds.
    MSEs are measured at the coldest level against the estimands' truths,
    and the ratio rows are normalized by the first (baseline) kind.

    A task is one kind and a chunk of replications, which the engine
    advances together: as many as fit ``TASK_MEMORY_BUDGET``
    (``ladder.replication_bytes``), cut into near-equal chunks.  With
    ``jobs`` > 1 the tasks fan out to a process pool of min(jobs, tasks)
    workers.  A replication's result depends on neither the chunks nor the
    worker count.
    """
    if replications < 1 or iterations < 1:
        raise ValueError("replications and iterations must be positive")
    if not 0 <= burn_in < iterations:
        raise ValueError(f"burn_in must lie in [0, {iterations}), got {burn_in}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    kinds = list(kinds)
    estimands = list(estimands)
    seeds = [replication_seed(master_seed, r) for r in range(replications)]
    tasks = []  # (bytes, kind index, chunk, arguments)
    for s, kind in enumerate(kinds):
        per_replication = replication_bytes(kind, target, ladder, iterations)
        for chunk in _chunks(replications, max(1, TASK_MEMORY_BUDGET // per_replication)):
            args = (kind, target, ladder, configs, estimands, iterations, burn_in,
                    [seeds[r] for r in chunk])
            tasks.append((len(chunk) * per_replication, s, chunk, args))
    tasks.sort(key=lambda t: -t[0])  # largest first, so that the pool ends on short tasks
    averages = np.empty((len(kinds), replications, len(estimands)))
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_task, [t[3] for t in tasks]))
    else:
        results = [_replication_task(t[3]) for t in tasks]
    for (_, s, chunk, _), result in zip(tasks, results):
        averages[s, chunk.start:chunk.stop] = result
    return MSETable(
        sampler_labels=kinds,
        estimand_names=[est.name for est in estimands],
        truths=np.array([est.truth for est in estimands]),
        averages=averages,
    )
