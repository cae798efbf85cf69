"""Coupled-chain driver: one replication through the scalar kernels, several
through the replication-batched engine, with the same bits.

Level 0 is a plain Markov chain at the hottest temperature, and each level
l >= 1 applies an adaptive kernel that reads the level-(l-1) reservoir: the
history of level l-1.  The timing contract is the one subtle point and the
most likely place for an implementation bug: when level l computes its step
for iteration n, the level-(l-1) reservoir must contain exactly the states
from iterations 1..n-1.

``run_sampler`` is the public entry point; it takes one seed or a list,
and one kind or a tuple of single-chain kinds.  It checks a run once,
before dispatch; the paths behind it trust their arguments and check only
what a run produces, such as non-finite energies.
One replication runs through the internal single-replication path,
``run_ladder`` or ``run_single``: the scalar kernels of ``kernels.py``, one
level-step at a time (``ladder_step`` advances every level, then pushes
every new state to its ``Reservoir``), each level reading its steps'
``Variates`` from ``level_variates``, its stream of the schedule below.
Several replications advance together through ``_engine``, as arrays:
states (R, K, d), or (R, K) integers on finite targets, and their energies
(R, K).  It records states only: a level that draws from its hotter
level's history evaluates what it draws, one energy call per stack.  Per
step the engine makes a few dozen numpy calls whatever R is, so it pays
from two replications on, and the scalar loop is cheaper for one.  All K
levels step in lockstep: iteration n computes every level's move from the
states of iteration n-1 and from the histories up to iteration n-1, and
only then records iteration n.  The recorded history of each level is its
reservoir, so the contract holds by construction.  An ``ir`` level keeps,
per replication, the log prefix sums of its hotter level's weights, each
extended by one ``np.logaddexp`` as a state is recorded, exactly as
``Reservoir.push`` keeps them, so no recorded state is evaluated again.
The three single-chain kinds are one kernel family at the coldest level:
a local move with probability theta (1 for ``rwm``), else an exact draw
at a refresh temperature (t_{K-1} for ``ee_limit``, t_K for
``ir_limit``) accepted by the ratio r(y)/r(x), which is 1 for
``ir_limit``.  So a tuple of them runs as one batch, with a row per
(kind, seed) that carries those parameters, and every row of a seed reads
that seed's one level-K stream: the engine's per-step calls are paid once
for all the kinds.

Seed plumbing: replication r with seed s (``analysis.replication_seed``
derives s from the master seed and r) drives level l by its own generator
``default_rng(SeedSequence(entropy=s, spawn_key=(level,)))``.  Each stream
draws its variates in blocks of ``BLOCK`` steps, of a fixed shape: first
``random((3, BLOCK))``, the branch, draw and accept uniforms of each step,
then the proposal variates, ``standard_normal((BLOCK, d))`` or, on a finite
target, ``random(BLOCK)`` row uniforms.  Step i of a block gets column i
of the uniforms and row i of the proposals, by role (``kernels.Variates``),
and a step uses at most one variate of each role, ignoring those its
branch has no use for:

* the branch uniform picks the local branch when below theta;
* the proposal normals z give the local (or ``ir`` inner) proposal
  x + chol z, and a Gaussian exact draw sqrt(t) chol(Sigma) z; a row
  uniform gives the next state of a finite local step;
* the draw uniform u gives an ``ee`` reservoir index floor(u n), the
  bisection target of an ``ir`` weighted draw, and a finite exact draw;
* the accept uniform's log is compared with the log acceptance ratio.

So replication r's output depends on none of the batch size (nor on
whether it runs alone, through the scalar kernels), the other seeds or the
run length, adding levels never perturbs existing streams, and the level-0
trace of a ladder run is identical to a single random-walk run at level 0
under the same seed.
"""

from __future__ import annotations

import csv
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

# run_ladder (through ladder_step) and run_single look the five kernels up
# here when they run.
from .kernels import (
    EXCHANGE,
    LOCAL,
    RESAMPLE,
    KernelConfig,
    Variates,
    ee_adaptive_step,
    ir_adaptive_step,
    limit_ee_step,
    limit_ir_step,
    rwm_step,
)
from .reservoir import NonFiniteWeightError, Reservoir
from .targets import _matvec, checked_energy, importance_coefficient

BRANCH_CODES = {LOCAL: 0, EXCHANGE: 1, RESAMPLE: 2}
BRANCH_NAMES = {code: name for name, code in BRANCH_CODES.items()}

ADAPTIVE_KINDS = ("ee", "ir")
SINGLE_KINDS = ("rwm", "ee_limit", "ir_limit")
# steps per variate block of every (replication, level) stream; the block
# shape fixes which variate each step gets, so changing it changes every run
BLOCK = 128


def level_rng(seed: int, level: int) -> np.random.Generator:
    """The documented per-level stream derivation."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(level,)))


def _draw_block(rng, finite: bool, uniforms, proposals) -> None:
    """Fill one block of a stream, in the schedule's order: ``uniforms`` (3,
    BLOCK), then ``proposals``, row uniforms (BLOCK,) or normals (BLOCK, d)."""
    rng.random(out=uniforms)
    (rng.random if finite else rng.standard_normal)(out=proposals)


def level_variates(seed: int, level: int, target):
    """Level ``level``'s stream of the variate schedule: an endless iterator of
    the ``Variates`` of its steps, drawn by blocks from ``level_rng(seed, level)``."""
    rng = level_rng(seed, level)
    finite = target.kind == "finite"
    shape = (BLOCK,) if finite else (BLOCK, target.dimension)
    while True:
        uniforms, proposals = np.empty((3, BLOCK)), np.empty(shape)
        _draw_block(rng, finite, uniforms, proposals)
        branch, draw, accept = uniforms.tolist()
        yield from map(Variates, branch, draw, accept, proposals.tolist() if finite else proposals)


@dataclass
class LadderState:
    """Joint state of a ``scheme`` ladder: current states and reservoirs of
    levels 0..K-1.

    ``energies[l]`` is ``target.energy(states[l])``; whoever replaces a state
    sets its energy too.
    """

    scheme: str
    states: list
    reservoirs: list
    energies: list


def init_ladder_state(target, ladder, scheme: str) -> LadderState:
    """Fresh ``scheme`` ladder state, before iteration 1: every level at the
    target's initial state.

    Every reservoir starts empty, as the recursion does from the zero
    measure: pushes begin at iteration 1.  An ``ir`` ladder's level-l
    reservoir weights each pushed state for its reader, level l+1.  Each
    initial state's energy is evaluated here, so every step receives the
    energy of its current state.
    """
    states = [target.initial_state() for _ in range(ladder.n_levels)]
    dim = None if target.kind == "finite" else target.dimension
    reservoirs = [Reservoir(dim, importance_coefficient(ladder, reader) if scheme == "ir" else None)
                  for reader in range(1, ladder.n_levels)]
    return LadderState(scheme, states, reservoirs, [checked_energy(target, x) for x in states])


def ladder_step(state: LadderState, target, ladder, configs, variates):
    """Advance every level by one iteration, level l on ``variates[l]``;
    returns the per-level outcomes.

    Levels 1..K read the level-(l-1) reservoir as of the previous
    iteration; pushes happen only after all levels have advanced.
    """
    adaptive = ee_adaptive_step if state.scheme == "ee" else ir_adaptive_step
    states, energies, reservoirs = state.states, state.energies, state.reservoirs
    outcomes = [rwm_step(target, ladder, 0, states[0], configs[0], variates[0], energies[0])]
    for level in range(1, ladder.n_levels):
        outcomes.append(
            adaptive(
                target,
                ladder,
                level,
                states[level],
                reservoirs[level - 1],
                configs[level],
                variates[level],
                energies[level],
            )
        )
    for level, out in enumerate(outcomes):
        states[level] = out.next
        energies[level] = out.energy
        if level < len(reservoirs):
            reservoirs[level].push(out.next, out.energy)
    return outcomes


@dataclass
class Trajectory:
    """Recorded per-level states plus step diagnostics."""

    states: list
    branches: np.ndarray
    accepted: np.ndarray

    @property
    def n_iterations(self) -> int:
        return self.branches.shape[0]

    @property
    def n_levels(self) -> int:
        return self.branches.shape[1]

    def acceptance_rate(self, level: int, branch: str | None = None) -> float:
        """Fraction of accepted steps at a level, optionally within one branch."""
        mask = np.ones(self.n_iterations, dtype=bool)
        if branch is not None:
            mask = self.branches[:, level] == BRANCH_CODES[branch]
        if not mask.any():
            return float("nan")
        return float(self.accepted[mask, level].mean())

    def branch_fraction(self, level: int, branch: str) -> float:
        return float((self.branches[:, level] == BRANCH_CODES[branch]).mean())

    def to_csv(self, path) -> None:
        """One row per (iteration, level): state components, branch, accepted."""
        finite = self.states[0].ndim == 1
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if finite:
                header = ["iteration", "level", "state", "branch", "accepted"]
            else:
                dim = self.states[0].shape[1]
                header = (
                    ["iteration", "level"]
                    + [f"x{i}" for i in range(dim)]
                    + ["branch", "accepted"]
                )
            writer.writerow(header)
            for n in range(self.n_iterations):
                for level in range(self.n_levels):
                    row = [n + 1, level]
                    if finite:
                        row.append(int(self.states[level][n]))
                    else:
                        row.extend(repr(float(v)) for v in self.states[level][n])
                    row.append(BRANCH_NAMES[int(self.branches[n, level])])
                    row.append(int(self.accepted[n, level]))
                    writer.writerow(row)


def _scalar_trajectory(target, n_levels, n_iterations, steps) -> Trajectory:
    """The Trajectory of the first ``n_iterations`` items of ``steps``, each
    one iteration's outcome at every level."""
    finite = target.kind == "finite"
    shape = (n_iterations,) if finite else (n_iterations, target.dimension)
    states = [np.empty(shape, dtype=np.int64 if finite else float) for _ in range(n_levels)]
    branches, accepted = [], []
    for n, outcomes in zip(range(n_iterations), steps):
        for level, out in enumerate(outcomes):
            states[level][n] = out.next
            branches.append(BRANCH_CODES[out.branch])
            accepted.append(out.accepted)
    return Trajectory(states, np.array(branches, dtype=np.int8).reshape(n_iterations, n_levels),
                      np.array(accepted, dtype=bool).reshape(n_iterations, n_levels))


def run_ladder(target, ladder, configs, scheme: str, n_iterations: int, seed: int) -> Trajectory:
    """Internal single-replication path of ``run_sampler`` for an adaptive
    ``scheme``: one seed's ladder through ``ladder_step``, as the engine runs it."""
    state = init_ladder_state(target, ladder, scheme)
    streams = [level_variates(seed, level, target) for level in range(ladder.n_levels)]
    steps = (ladder_step(state, target, ladder, configs, variates)
             for variates in zip(*streams))
    return _scalar_trajectory(target, ladder.n_levels, n_iterations, steps)


def run_single(target, ladder, config: KernelConfig, kind: str, n_iterations: int,
               seed: int) -> Trajectory:
    """Internal single-replication path of ``run_sampler`` for a non-adaptive
    ``kind`` (rwm, ee_limit or ir_limit): one chain of one seed at the
    ladder's coldest level, on that level's variate stream."""
    level = ladder.top_level
    step = {"rwm": rwm_step, "ee_limit": limit_ee_step, "ir_limit": limit_ir_step}[kind]

    def steps():
        x = target.initial_state()
        energy = checked_energy(target, x)
        for v in level_variates(seed, level, target):
            out = step(target, ladder, level, x, config, v, energy)
            x, energy = out.next, out.energy
            yield (out,)

    return _scalar_trajectory(target, 1, n_iterations, steps())


def replication_bytes(kinds, target, ladder, n_iterations: int) -> int:
    """Bytes the engine holds per replication of the tuple ``kinds``, which
    it runs as one batch: every level's recorded states, branch codes and
    acceptances, and the prefix sums of each ``ir`` reservoir level (all but
    the coldest), summed over the kinds.  It keeps no energies: a reader
    evaluates the states it draws."""
    state = 8 if target.kind == "finite" else 8 * target.dimension
    per_step = 0
    for kind in kinds:
        levels = ladder.n_levels if kind in ADAPTIVE_KINDS else 1
        per_step += levels * (state + 2) + (8 * (levels - 1) if kind == "ir" else 0)
    return n_iterations * per_step


def _engine(kinds, target, ladder, configs, n_iterations, seeds):
    """Run the tuple ``kinds`` as ``run_sampler`` does, one adaptive kind or
    single-chain kinds as one batch with a row per (kind, seed), kind-major;
    gives, per kind, one Trajectory per seed, each the scalar run of its
    seed bit for bit."""
    scheme = kinds[0] if kinds[0] in ADAPTIVE_KINDS else None
    levels = range(ladder.n_levels) if scheme else [ladder.top_level]
    configs = configs if scheme else configs[-1:]
    finite = target.kind == "finite"
    n_seeds, n_lev, n = len(seeds), len(levels), n_iterations
    n_rep = len(kinds) * n_seeds
    shape = () if finite else (target.dimension,)
    temps = np.array([ladder.temperature(level) for level in levels])
    if finite:
        base_cum = np.stack([config._base_cum for config in configs])
    else:
        chols = np.stack([config._proposal_chol for config in configs])
    # per row and level: theta, the branch that is not local, and the
    # coefficient c of its acceptance ratio exp(c (E(b) - E(y)))
    if scheme:
        # level 0 never mixes; c_l of the exchange (ee) and of the weights
        # level l puts on level l-1 (ir)
        thetas = np.array([1.0] + [config.theta for config in configs[1:]])
        coefs = np.array([importance_coefficient(ladder, level) if level else 0.0
                          for level in levels])
        away = BRANCH_CODES[EXCHANGE if scheme == "ee" else RESAMPLE]
    else:
        # a single-chain kind is local with probability theta, else an exact
        # draw from its refresh level's law, which the coldest level accepts by
        # the ratio with c = 1/t_K - 1/t_refresh: the exchange ratio for
        # ee_limit, always (c = 0, and log u < 0) for ir_limit
        top, theta = levels[0], configs[0].theta
        family = {"rwm": (1.0, top, LOCAL), "ee_limit": (theta, top - 1, EXCHANGE),
                  "ir_limit": (theta, top, RESAMPLE)}
        refresh_temps = [ladder.temperature(family[k][1]) for k in kinds]
        thetas = np.repeat([family[k][0] for k in kinds], n_seeds)[:, None]
        coefs = np.repeat([1.0 / temps[0] - 1.0 / t for t in refresh_temps], n_seeds)[:, None]
        away = np.repeat([BRANCH_CODES[family[k][2]] for k in kinds], n_seeds)[:, None]

    x = np.empty((n_rep, n_lev) + shape, dtype=np.int64 if finite else float)
    x[:] = target.initial_state()

    states = np.zeros((n_rep, n_lev, n) + shape, dtype=x.dtype)
    branches = np.empty((n_rep, n, n_lev), dtype=np.int8)
    # a finite local step, inner step or exact refresh moves unless a row exchanges
    always_accepted = finite and (scheme == "ir" or not scheme and not coefs.any())
    accepted = np.full((n_rep, n, n_lev), always_accepted)
    rngs = [[level_rng(seed, level) for level in levels] for seed in seeds]
    rows, lev = np.arange(n_rep)[:, None], np.arange(n_lev)
    hotter = np.maximum(lev - 1, 0)  # level l reads level l-1's history
    if scheme == "ir":
        # per replication and reservoir level j: log prefix sums of exp(lw),
        # lw = -c_{j+1} E, padded with +inf past the recorded column, so that
        # a bisection searches the whole row
        neg_coef = -coefs[1:]
        cum = np.full((n_rep, n_lev - 1, n), np.inf)
        cum_rows = list(cum.reshape(-1, n))
    u = np.empty((n_seeds, n_lev, 3, BLOCK))
    p = np.empty((n_seeds, n_lev, BLOCK) + shape)

    # log 0 = -inf (a uniform of 0 accepts, or draws the first state), and wide
    # finite energies may overflow checked_energy's stack sum, a log acceptance
    # ratio or logaddexp's difference to +-inf, which still compare right
    with np.errstate(divide="ignore", over="ignore"):
        ex = checked_energy(target, x)
        for start in range(0, n, BLOCK):
            m = min(BLOCK, n - start)
            for r, streams in enumerate(rngs):
                for j, rng in enumerate(streams):
                    _draw_block(rng, finite, u[r, j], p[r, j])
            # every row of a seed reads that seed's block
            u_rows, p_rows = u, p
            if len(kinds) > 1:
                u_rows, p_rows = np.concatenate([u] * len(kinds)), np.concatenate([p] * len(kinds))
            u_branch, u_draw, u_accept = u_rows.transpose(2, 3, 0, 1)[:, :m]
            prop = np.moveaxis(p_rows, 2, 0)[:m]
            local = u_branch < thetas
            if scheme and start == 0:
                local[0] = True  # iteration 1: every reservoir is empty
            branches[:, start:start + m] = np.where(local, BRANCH_CODES[LOCAL], away).swapaxes(0, 1)
            log_u = np.log(u_accept)
            if finite:
                local_x = local
            else:
                local_x = local[..., None]
                increments = _matvec(chols, prop)
            if not scheme:
                # the exact draws of every row of each kind, from the seeds' variates
                draws = (u_draw if finite else prop)[:, :n_seeds]
                exact = np.concatenate([target.tempered_draw(t, draws) for t in refresh_temps],
                                       axis=1)
            elif scheme == "ee":
                drawn = (u_draw * np.arange(start, start + m)[:, None, None]).astype(np.intp)
                mixes = (~local).any(axis=(1, 2)).tolist()
            else:
                # the (replication, reservoir level) pairs that resample at each
                # step, with their row of prefix sums and the log of their draw uniform
                steps, rs, js = np.nonzero(~local[:, :, 1:])
                ends = np.bincount(steps, minlength=m).cumsum().tolist()
                resample_rows = (rs * (n_lev - 1) + js).tolist()
                log_draws = np.log(u_draw[steps, rs, js + 1])

            lo = 0
            for i in range(m):
                col = start + i
                here = local[i]
                # b: the state a local or inner step starts from; y: the candidate
                b, eb = x, ex
                if scheme == "ir" and lo < ends[i]:
                    # bisect each resampling row's log prefix sums at log u plus their total
                    hi = ends[i]
                    r_i, j_i = rs[lo:hi], js[lo:hi]
                    targets = (log_draws[lo:hi] + cum[r_i, j_i, col - 1]).tolist()
                    k = [min(cum_rows[f].searchsorted(t, side="right"), col - 1)
                         for f, t in zip(resample_rows[lo:hi], targets)]
                    starts = states[r_i, j_i, k]
                    b, eb = x.copy(), ex.copy()
                    b[r_i, j_i + 1], eb[r_i, j_i + 1] = starts, checked_energy(target, starts)
                    lo = hi
                if finite:
                    # inverse CDF: the entries of b's base row at or below the row uniform
                    y = (base_cum[lev, b] <= prop[i][..., None]).sum(-1)
                else:
                    y = b + increments[i]
                if not scheme:
                    y = np.where(local_x[i], y, exact[i])
                elif scheme == "ee" and mixes[i]:
                    y = np.where(local_x[i], y, states[rows, hotter, drawn[i]])
                ey = checked_energy(target, y)
                # (-e' / t) - (-e / t) is e / t - e' / t, bit for bit (likewise for c)
                if always_accepted:
                    x, ex = y, ey
                else:
                    lar = np.inf if finite else (eb / temps) - (ey / temps)
                    if scheme != "ir":  # an inner step is accepted as a local one
                        lar = np.where(here, lar, (eb * coefs) - (ey * coefs))
                    acc = log_u[i] < lar
                    accepted[:, col] = acc
                    x = np.where(acc if finite else acc[..., None], y, b)
                    ex = np.where(acc, ey, eb)
                states[:, :, col] = x

                if scheme == "ir" and n_lev > 1:
                    lw = neg_coef * ex[:, :-1]
                    if not np.isfinite(lw).all():
                        raise NonFiniteWeightError("resampling log weights must be finite")
                    cum[:, :, col] = np.logaddexp(cum[:, :, col - 1], lw) if col else lw

    runs = [Trajectory(list(states[r]), branches[r], accepted[r]) for r in range(n_rep)]
    return [runs[k * n_seeds:(k + 1) * n_seeds] for k in range(len(kinds))]


def ladder_configs(ladder, thetas, proposal_covariance=None, base_matrices=None):
    """Per-level kernel configs for a ladder, one theta per adaptive level.

    Level 0 gets theta = 1 (it never mixes) and level l >= 1 gets
    ``thetas[l - 1]``.  ``KernelConfig`` checks each theta lies in [0, 1];
    an adaptive run also needs them in (0, 1] (``check_adaptive_thetas``).
    """
    thetas = (1.0, *thetas)
    if len(thetas) != ladder.n_levels:
        raise ValueError(f"need one theta per adaptive level: expected {ladder.n_levels - 1}, "
                         f"got {len(thetas) - 1}")
    return tuple(
        KernelConfig(
            theta=float(theta),
            proposal_covariance=proposal_covariance,
            base_matrix=None if base_matrices is None else base_matrices[level],
        )
        for level, theta in enumerate(thetas)
    )


def is_integer(value) -> bool:
    """An integer, numpy's included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value, low: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer of at least ``low``."""
    if not is_integer(value) or value < low:
        raise ValueError(f"{name} must be at least {low} and an integer, got {value!r}")


def check_adaptive_thetas(configs) -> None:
    """Check the thetas of ``configs[1:]`` lie in (0, 1]: at theta 0 an
    adaptive level would never move locally, only copy its hotter chain."""
    for config in configs[1:]:
        if not 0.0 < config.theta <= 1.0:
            raise ValueError(f"adaptive levels need theta in (0, 1], got {config.theta}")


def run_sampler(kind, target, ladder, configs, n_iterations: int, seed):
    """The one public way to run a sampler, for any of the five kinds.

    Adaptive kinds run the full ladder; the others run a single chain at
    the coldest level with the last config.  ``seed`` is one replication's
    seed, giving its Trajectory, or a sequence of seeds, giving a list with
    one Trajectory per seed, each exactly as its seed alone would run it.
    ``kind`` may also be a tuple of single-chain kinds, which gives a list
    with one result per kind, each exactly what that kind alone gives.
    A run is deterministic given (arguments, seed): level l of seed s draws
    from ``default_rng(SeedSequence(entropy=s, spawn_key=(l,)))`` (module
    docstring), so adding levels never perturbs existing streams, the
    level-0 trace of an adaptive run is the plain random walk of level 0's
    stream, and a short run is the start of a longer one.  One replication
    runs through the internal single-replication path (``run_ladder``,
    ``run_single``), several advance together through the batched engine:
    per step the engine makes a few dozen numpy calls whatever their number,
    and a tuple of kinds shares those calls, and each seed's variates,
    between its kinds.

    This is the one check of a run, before either path starts: the seeds
    and the run length (integers, not bools), each kind, for an adaptive kind
    one config per level and thetas in (0, 1] (else at least one config),
    a hotter level for ``ee_limit``, and that each config used fits the
    target.  An invalid run raises the same ``ValueError`` on both paths.
    """
    alone = isinstance(seed, (str, bytes)) or not isinstance(seed, Iterable)
    seeds = [seed] if alone else list(seed)
    for s in seeds:
        if not is_integer(s):
            raise ValueError(f"seed must be an integer or a sequence of integers, got {s!r}")
    group = isinstance(kind, (tuple, list))
    kinds = tuple(kind) if group else (kind,)
    for k in kinds:
        if k not in ADAPTIVE_KINDS + SINGLE_KINDS:
            raise ValueError(f"unknown sampler kind {k!r}")
    if group and not (kinds and set(kinds) <= set(SINGLE_KINDS)):
        raise ValueError(f"a tuple of kinds takes single-chain kinds {SINGLE_KINDS}, got {kind!r}")
    check_count("n_iterations", n_iterations)
    adaptive = kinds[0] in ADAPTIVE_KINDS
    if adaptive:
        if len(configs) != ladder.n_levels:
            raise ValueError(f"need {ladder.n_levels} kernel configs, got {len(configs)}")
        check_adaptive_thetas(configs)
    elif not configs:
        raise ValueError("need a kernel config, got none")
    elif "ee_limit" in kinds and ladder.top_level == 0:
        raise ValueError("the limit EE kernel needs a hotter level, which a one-level ladder lacks")
    finite = target.kind == "finite"
    name, size = ("base matrix", target.state_count) if finite else ("proposal", target.dimension)
    for config in configs if adaptive else configs[-1:]:
        shape = (config._base_cum if finite else config._proposal_chol).shape
        if shape != (size, size):
            raise ValueError(f"{name} shape {shape} does not match the target's size {size}")
    if len(seeds) != 1:
        per_kind = _engine(kinds, target, ladder, configs, n_iterations, seeds)
    elif adaptive:
        per_kind = [[run_ladder(target, ladder, configs, kinds[0], n_iterations, seeds[0])]]
    else:
        per_kind = [[run_single(target, ladder, configs[-1], k, n_iterations, seeds[0])]
                    for k in kinds]
    results = [runs[0] if alone else runs for runs in per_kind]
    return results if group else results[0]
