"""Coupled-chain driver.

Advances K+1 chains in lockstep: level 0 is a plain Markov chain at the
hottest temperature, and each level l >= 1 applies an adaptive kernel
that reads the level-(l-1) reservoir.  The timing contract is the one
subtle point and the most likely place for an implementation bug: when
level l computes its step for iteration n, the level-(l-1) reservoir
must contain exactly the states from iterations 1..n-1.  The driver
therefore advances every level first and only then pushes the new states
into the reservoirs.

Seed plumbing: each level gets an independent generator derived as
``default_rng(SeedSequence(entropy=seed, spawn_key=(level,)))``, so
adding levels never perturbs the streams of existing ones, and the
level-0 trace of a ladder run is identical to a single-chain random-walk
run at level 0 under the same seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .kernels import (
    EXCHANGE,
    LOCAL,
    RESAMPLE,
    KernelConfig,
    ee_adaptive_step,
    ir_adaptive_step,
    limit_ee_step,
    limit_ir_step,
    rwm_step,
)
from .reservoir import Reservoir
from .targets import checked_energy

BRANCH_CODES = {LOCAL: 0, EXCHANGE: 1, RESAMPLE: 2}
BRANCH_NAMES = {code: name for name, code in BRANCH_CODES.items()}

ADAPTIVE_KINDS = ("ee", "ir")
SINGLE_KINDS = ("rwm", "ee_limit", "ir_limit")


def level_rng(seed: int, level: int) -> np.random.Generator:
    """The documented per-level stream derivation."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(level,)))


@dataclass
class LadderState:
    """Joint state: current states, reservoirs of levels 0..K-1 and generators.

    ``energies[l]`` is ``target.energy(states[l])``; whoever replaces a state
    sets its energy too.
    """

    states: list
    reservoirs: list
    rngs: list
    energies: list


def init_ladder_state(target, ladder, seed: int, initial_states=None) -> LadderState:
    """Fresh ladder state, before iteration 1.

    Every reservoir starts empty, as the recursion does from the zero
    measure: pushes begin at iteration 1.  Each initial state's energy is
    evaluated here, so every step receives the energy of its current state.
    """
    n_levels = ladder.n_levels
    if initial_states is None:
        states = [target.initial_state() for _ in range(n_levels)]
    else:
        states = list(initial_states)
        if len(states) != n_levels:
            raise ValueError(f"need {n_levels} initial states, got {len(states)}")
    dim = None if target.kind == "finite" else target.dimension
    reservoirs = [Reservoir(dimension=dim) for _ in range(n_levels - 1)]
    rngs = [level_rng(seed, level) for level in range(n_levels)]
    return LadderState(states=states, reservoirs=reservoirs, rngs=rngs,
                       energies=[checked_energy(target, x) for x in states])


def ladder_step(state: LadderState, target, ladder, configs, scheme: str):
    """Advance every level by one iteration; returns the per-level outcomes.

    Levels 1..K read the level-(l-1) reservoir as of the previous
    iteration; pushes happen only after all levels have advanced.
    """
    if scheme == "ee":
        adaptive = ee_adaptive_step
    elif scheme == "ir":
        adaptive = ir_adaptive_step
    else:
        raise ValueError(f"scheme must be 'ee' or 'ir', got {scheme!r}")
    states, energies, reservoirs, rngs = state.states, state.energies, state.reservoirs, state.rngs
    outcomes = [rwm_step(target, ladder, 0, states[0], configs[0], rngs[0], energies[0])]
    for level in range(1, ladder.n_levels):
        outcomes.append(
            adaptive(
                target,
                ladder,
                level,
                states[level],
                reservoirs[level - 1],
                configs[level],
                rngs[level],
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


def _record(target, n_levels, n_iterations, step):
    """Call ``step()`` (per-level outcomes of one iteration) ``n_iterations`` times
    and record every level's state, branch and acceptance."""
    if n_iterations < 1:
        raise ValueError("n_iterations must be at least 1")
    if target.kind == "finite":
        states = [np.empty(n_iterations, dtype=np.int64) for _ in range(n_levels)]
    else:
        states = [np.empty((n_iterations, target.dimension)) for _ in range(n_levels)]
    branches = np.empty((n_iterations, n_levels), dtype=np.int8)
    accepted = np.empty((n_iterations, n_levels), dtype=bool)
    for n in range(n_iterations):
        for level, out in enumerate(step()):
            states[level][n] = out.next
            branches[n, level] = BRANCH_CODES[out.branch]
            accepted[n, level] = out.accepted
    return states, branches, accepted


def run_ladder(target, ladder, configs, scheme: str, n_iterations: int, seed: int,
               initial_states=None) -> Trajectory:
    """Run the full adaptive ladder; deterministic given (arguments, seed)."""
    if len(configs) != ladder.n_levels:
        raise ValueError(f"need {ladder.n_levels} kernel configs, got {len(configs)}")
    check_adaptive_thetas(configs)
    state = init_ladder_state(target, ladder, seed, initial_states)
    return Trajectory(*_record(
        target, ladder.n_levels, n_iterations,
        lambda: ladder_step(state, target, ladder, configs, scheme),
    ))


def run_single(target, ladder, config: KernelConfig, kind: str, n_iterations: int,
               seed: int, level: int | None = None) -> Trajectory:
    """Run one chain with a non-adaptive kernel (rwm, ee_limit or ir_limit).

    The chain sits at ``level`` of the ladder (default: the coldest) and
    uses that level's seed stream, so a rwm run at level 0 reproduces the
    level-0 trace of a ladder run bit for bit.
    """
    if kind not in SINGLE_KINDS:
        raise ValueError(f"kind must be one of {SINGLE_KINDS}, got {kind!r}")
    if level is None:
        level = ladder.top_level
    ladder._check_level(level)
    if kind == "ee_limit" and level == 0:
        raise ValueError("the limit EE kernel needs a hotter level and cannot run at level 0")
    kernel = {"rwm": rwm_step, "ee_limit": limit_ee_step, "ir_limit": limit_ir_step}[kind]
    rng = level_rng(seed, level)
    x = target.initial_state()
    energy = checked_energy(target, x)

    def step():
        nonlocal x, energy
        out = kernel(target, ladder, level, x, config, rng, energy)
        x, energy = out.next, out.energy
        return (out,)

    return Trajectory(*_record(target, 1, n_iterations, step))


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


def run_sampler(kind: str, target, ladder, configs, n_iterations: int, seed: int) -> Trajectory:
    """Uniform entry point over the five sampler kinds.

    Adaptive kinds run the full ladder; the others run a single chain at
    the coldest level with the last config.
    """
    if kind in ADAPTIVE_KINDS:
        return run_ladder(target, ladder, configs, kind, n_iterations, seed)
    if kind in SINGLE_KINDS:
        return run_single(target, ladder, configs[-1], kind, n_iterations, seed)
    raise ValueError(f"unknown sampler kind {kind!r}")
