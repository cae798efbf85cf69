"""Coupled-chain driver: one replication through the scalar kernels, several
through the replication-batched engine, with the same bits.

Level 0 is a plain Markov chain at the hottest temperature, and each level
l >= 1 applies an adaptive kernel that reads the level-(l-1) reservoir: the
history of level l-1.  The timing contract is the one subtle point and the
most likely place for an implementation bug: when level l computes its step
for iteration n, the level-(l-1) reservoir must contain exactly the states
from iterations 1..n-1.

``run_sampler`` takes one seed or a list.  One replication runs through
``run_ladder`` or ``run_single``: the scalar kernels of ``kernels.py``, one
level-step at a time (``ladder_step`` advances every level, then pushes
every new state to its ``Reservoir``), each level reading its steps'
``Variates`` from ``level_variates``, its stream of the schedule below.
Several replications advance together through ``_engine``, as arrays:
states (R, K, d), or (R, K) integers on finite targets, and energies
(R, K).  Per step the engine makes a few dozen numpy calls whatever R is,
so it pays from two replications on, and the scalar loop is cheaper for
one.  All K levels step in lockstep: iteration n computes every level's
move from the states of iteration n-1 and from the histories up to
iteration n-1, and only then records iteration n.  The recorded history
of each level is its reservoir, so the contract holds by construction.
An ``ir`` level keeps, per replication, the running-max prefix sums of
its hotter level's weights, extended as each state is recorded and
rebuilt at a new record weight, exactly as ``Reservoir.push`` keeps them.

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
    if scheme not in ADAPTIVE_KINDS:
        raise ValueError(f"scheme must be 'ee' or 'ir', got {scheme!r}")
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


def _check_ladder(ladder, configs) -> None:
    if len(configs) != ladder.n_levels:
        raise ValueError(f"need {ladder.n_levels} kernel configs, got {len(configs)}")
    check_adaptive_thetas(configs)


def _single_level(kind, ladder, level) -> int:
    """The level a single chain of ``kind`` runs at (default: the coldest), checked."""
    if kind not in SINGLE_KINDS:
        raise ValueError(f"kind must be one of {SINGLE_KINDS}, got {kind!r}")
    if level is None:
        level = ladder.top_level
    ladder._check_level(level)
    if kind == "ee_limit" and level == 0:
        raise ValueError("the limit EE kernel needs a hotter level and cannot run at level 0")
    return level


def _check_iterations(n_iterations) -> None:
    if n_iterations < 1:
        raise ValueError("n_iterations must be at least 1")


def _scalar_trajectory(target, n_levels, n_iterations, steps) -> Trajectory:
    """The Trajectory of the first ``n_iterations`` items of ``steps``, each
    one iteration's outcome at every level."""
    _check_iterations(n_iterations)
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
    """Run the full adaptive ladder of one replication through ``ladder_step``;
    deterministic given (arguments, seed), and the engine's run of that seed."""
    state = init_ladder_state(target, ladder, scheme)
    _check_ladder(ladder, configs)
    streams = [level_variates(seed, level, target) for level in range(ladder.n_levels)]
    steps = (ladder_step(state, target, ladder, configs, variates)
             for variates in zip(*streams))
    return _scalar_trajectory(target, ladder.n_levels, n_iterations, steps)


def run_single(target, ladder, config: KernelConfig, kind: str, n_iterations: int,
               seed: int, level: int | None = None) -> Trajectory:
    """Run one chain with a non-adaptive kernel (rwm, ee_limit or ir_limit).

    The chain sits at ``level`` of the ladder (default: the coldest) and
    uses that level's variate stream, so a rwm run at level 0 reproduces
    the level-0 trace of a ladder run bit for bit.
    """
    level = _single_level(kind, ladder, level)
    step = {"rwm": rwm_step, "ee_limit": limit_ee_step, "ir_limit": limit_ir_step}[kind]

    def steps():
        x = target.initial_state()
        energy = checked_energy(target, x)
        for v in level_variates(seed, level, target):
            out = step(target, ladder, level, x, config, v, energy)
            x, energy = out.next, out.energy
            yield (out,)

    return _scalar_trajectory(target, 1, n_iterations, steps())


def replication_bytes(kind: str, target, ladder, n_iterations: int) -> int:
    """Bytes the engine holds per replication of ``kind``: every level's
    recorded states, energies, branches and acceptances, and an ``ir``
    level's prefix sums."""
    levels = ladder.n_levels if kind in ADAPTIVE_KINDS else 1
    state = 8 if target.kind == "finite" else 8 * target.dimension
    per_step = state + 8 + 2 + (8 if kind == "ir" else 0)
    return levels * n_iterations * per_step


def _engine(kind, target, ladder, configs, n_iterations, seeds):
    """Run ``kind`` as ``run_sampler`` does, one batch replication per seed;
    one Trajectory per seed, each the scalar run of its seed bit for bit."""
    if kind in ADAPTIVE_KINDS:
        _check_ladder(ladder, configs)
        levels = range(ladder.n_levels)
    else:
        levels, configs = [_single_level(kind, ladder, None)], configs[-1:]
    _check_iterations(n_iterations)
    finite = target.kind == "finite"
    n_rep, n_lev, n = len(seeds), len(levels), n_iterations
    shape = () if finite else (target.dimension,)
    adaptive = kind in ADAPTIVE_KINDS
    temps = np.array([ladder.temperature(level) for level in levels])
    thetas = np.array([config.theta for config in configs])
    # c_l of the exchange (ee, ee_limit) and of the weights level l puts on level l-1
    coefs = np.array([importance_coefficient(ladder, level) if level else 0.0
                      for level in levels])
    if finite:
        base_cum = np.stack([config._base_cum for config in configs])
    else:
        chols = np.stack([config._proposal_chol for config in configs])
        if chols.shape[1] != target.dimension:
            raise ValueError(f"proposal dimension {chols.shape[1]} does not match state "
                             f"dimension {target.dimension}")
    exact_t = None  # the temperature of a limit kernel's exact draws
    if kind == "ee_limit":
        exact_t = ladder.temperature(levels[0] - 1)
    elif kind == "ir_limit":
        exact_t = temps[0]

    x = np.empty((n_rep, n_lev) + shape, dtype=np.int64 if finite else float)
    x[:] = target.initial_state()
    ex = checked_energy(target, x)

    states = np.zeros((n_rep, n_lev, n) + shape, dtype=x.dtype)
    energies = np.zeros((n_rep, n_lev, n))
    branches = np.empty((n_rep, n, n_lev), dtype=np.int8)
    # a finite local step, inner step or exact refresh always moves
    always_accepted = finite and kind in ("rwm", "ir", "ir_limit")
    accepted = np.full((n_rep, n, n_lev), always_accepted)
    rngs = [[level_rng(seed, level) for level in levels] for seed in seeds]
    rows, lev = np.arange(n_rep)[:, None], np.arange(n_lev)
    hotter = np.maximum(np.arange(n_lev) - 1, 0)  # level l reads level l-1's history
    if kind == "ir":
        # per replication and reservoir level j: prefix sums of exp(lw - shift),
        # lw = -c_{j+1} E, shift the running max of lw
        neg_coef = -coefs[1:]
        cum = np.zeros((n_rep, n_lev - 1, n))
        shift = np.full((n_rep, n_lev - 1), -np.inf)
    away = BRANCH_CODES[EXCHANGE if kind in ("ee", "ee_limit") else RESAMPLE]
    u = np.empty((n_rep, n_lev, 3, BLOCK))
    p = np.empty((n_rep, n_lev, BLOCK) + shape)

    # log 0 = -inf (an accept uniform of 0 accepts), and exp(lw - shift) may
    # overflow where lw sets a record: that sum is rebuilt at the new shift
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, n, BLOCK):
            m = min(BLOCK, n - start)
            for r, streams in enumerate(rngs):
                for j, rng in enumerate(streams):
                    _draw_block(rng, finite, u[r, j], p[r, j])
            u_branch, u_draw, u_accept = u.transpose(2, 3, 0, 1)[:, :m]
            prop = np.moveaxis(p, 2, 0)[:m]
            if kind == "rwm":
                local = np.ones((m, n_rep, n_lev), dtype=bool)
            else:
                local = u_branch < thetas
            if adaptive:
                local[:, :, 0] = True
                if start == 0:
                    local[0] = True  # iteration 1: every reservoir is empty
            branches[:, start:start + m] = np.where(local, BRANCH_CODES[LOCAL], away).swapaxes(0, 1)
            log_u = np.log(u_accept)
            if finite:
                local_x = local
            else:
                local_x = local[..., None]
                increments = _matvec(chols, prop)
            if exact_t is not None:
                exact = target.tempered_draw(exact_t, u_draw if finite else prop)
            if kind == "ee":
                drawn = (u_draw * np.arange(start, start + m)[:, None, None]).astype(np.intp)

            for i in range(m):
                col = start + i
                here = local[i]
                # b: the state a local or inner step starts from; y: the candidate
                b, eb = x, ex
                if kind == "ir" and col and not here.all():
                    # bisect each resampling replication's prefix sums at u times their total
                    rs, js = np.nonzero(~here[:, 1:])
                    targets = (u_draw[i, rs, js + 1] * cum[rs, js, col - 1]).tolist()
                    k = np.zeros((n_rep, n_lev), dtype=np.intp)
                    k[rs, js + 1] = [cum[r, j, :col].searchsorted(t, side="right")
                                     for r, j, t in zip(rs.tolist(), js.tolist(), targets)]
                    np.minimum(k, col - 1, out=k)
                    b = np.where(local_x[i], x, states[rows, hotter, k])
                    eb = np.where(here, ex, energies[rows, hotter, k])
                if finite:
                    # inverse CDF: the entries of b's base row at or below the row uniform
                    y = (base_cum[lev, b] <= prop[i][..., None]).sum(-1)
                else:
                    y = b + increments[i]
                if kind in ("ee_limit", "ir_limit"):
                    y = np.where(local_x[i], y, exact[i])
                if kind == "ee" and not here.all():
                    k = drawn[i]
                    y = np.where(local_x[i], y, states[rows, hotter, k])
                    ey = energies[rows, hotter, k]
                    ey[here] = checked_energy(target, y[here])
                    exchange = True
                else:
                    ey = checked_energy(target, y)
                    exchange = kind == "ee_limit"
                # (-e' / t) - (-e / t) is e / t - e' / t, bit for bit (likewise for c)
                if always_accepted:
                    x, ex = y, ey
                else:
                    lar = np.inf if finite else (eb / temps) - (ey / temps)
                    if exchange:
                        lar = np.where(here, lar, (eb * coefs) - (ey * coefs))
                    elif kind == "ir_limit":
                        lar = np.where(here, lar, np.inf)
                    acc = log_u[i] < lar
                    accepted[:, col] = acc
                    x = np.where(acc if finite else acc[..., None], y, b)
                    ex = np.where(acc, ey, eb)
                states[:, :, col] = x
                energies[:, :, col] = ex

                if kind == "ir" and n_lev > 1:
                    lw = neg_coef * ex[:, :-1]
                    if not np.isfinite(lw).all():
                        raise NonFiniteWeightError("resampling log weights must be finite")
                    if col:
                        cum[:, :, col] = cum[:, :, col - 1] + np.exp(lw - shift)
                    record = lw > shift
                    if record.any():
                        for r, j in zip(*(a.tolist() for a in np.nonzero(record))):
                            top = lw[r, j]
                            shift[r, j] = top
                            np.exp(neg_coef[j] * energies[r, j, :col + 1] - top).cumsum(
                                out=cum[r, j, :col + 1])

    return [Trajectory(list(states[r]), branches[r], accepted[r]) for r in range(n_rep)]


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


def check_adaptive_thetas(configs) -> None:
    """Check the thetas of ``configs[1:]`` lie in (0, 1]: at theta 0 an
    adaptive level would never move locally, only copy its hotter chain."""
    for config in configs[1:]:
        if not 0.0 < config.theta <= 1.0:
            raise ValueError(f"adaptive levels need theta in (0, 1], got {config.theta}")


def run_sampler(kind: str, target, ladder, configs, n_iterations: int, seed):
    """Uniform entry point over the five sampler kinds.

    Adaptive kinds run the full ladder; the others run a single chain at
    the coldest level with the last config.  ``seed`` is one replication's
    seed, giving its Trajectory, or a sequence of seeds, giving a list with
    one Trajectory per seed, each exactly as its seed alone would run it.
    One replication runs through the scalar kernels (``run_ladder``,
    ``run_single``), several advance together through the batched engine:
    per step the engine makes a few dozen numpy calls whatever their number.
    """
    seeds = [seed] if isinstance(seed, numbers.Integral) else list(seed)
    if kind not in ADAPTIVE_KINDS + SINGLE_KINDS:
        raise ValueError(f"unknown sampler kind {kind!r}")
    if len(seeds) != 1:
        runs = _engine(kind, target, ladder, configs, n_iterations, seeds)
    elif kind in ADAPTIVE_KINDS:
        runs = [run_ladder(target, ladder, configs, kind, n_iterations, seeds[0])]
    else:
        runs = [run_single(target, ladder, configs[-1], kind, n_iterations, seeds[0])]
    return runs[0] if isinstance(seed, numbers.Integral) else runs
