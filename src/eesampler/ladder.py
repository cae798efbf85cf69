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
from dataclasses import dataclass, field

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

BRANCH_CODES = {LOCAL: 0, EXCHANGE: 1, RESAMPLE: 2}
BRANCH_NAMES = {code: name for name, code in BRANCH_CODES.items()}

ADAPTIVE_KINDS = ("ee", "ir")
SINGLE_KINDS = ("rwm", "ee_limit", "ir_limit")


def level_rng(seed: int, level: int) -> np.random.Generator:
    """The documented per-level stream derivation."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(level,)))


@dataclass
class LadderState:
    """Joint state (current states, reservoirs of levels 0..K-1, iteration).

    ``energies[l]`` is ``target.energy(states[l])`` or ``None`` (not yet
    evaluated); whoever replaces a state sets its energy to ``None``.
    """

    states: list
    reservoirs: list
    rngs: list
    energies: list
    iteration: int = 0


def init_ladder_state(target, ladder, seed: int, initial_states=None) -> LadderState:
    """Fresh ladder state at iteration 0.

    Every reservoir starts empty, as the recursion does from the zero
    measure: pushes begin at iteration 1.
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
                       energies=[None] * n_levels)


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
    state.iteration += 1
    return outcomes


@dataclass
class Trajectory:
    """Recorded per-level states plus step diagnostics and run metadata."""

    kind: str
    states: list
    branches: np.ndarray
    accepted: np.ndarray
    seed: int
    metadata: dict = field(default_factory=dict)

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
    if ladder.thetas is None:
        raise ValueError("adaptive ladder runs need thetas on the temperature ladder")
    if len(configs) != ladder.n_levels:
        raise ValueError(f"need {ladder.n_levels} kernel configs, got {len(configs)}")
    thetas = [config.theta for config in configs[1:]]  # what the kernels read
    if not all(0.0 < theta <= 1.0 for theta in thetas):
        raise ValueError(f"adaptive levels need theta in (0, 1], got {thetas}")
    state = init_ladder_state(target, ladder, seed, initial_states)
    recorded = _record(
        target, ladder.n_levels, n_iterations,
        lambda: ladder_step(state, target, ladder, configs, scheme),
    )
    meta = {
        "scheme": scheme,
        "temperatures": list(ladder.temperatures),
        "thetas": thetas,
    }
    return Trajectory(scheme, *recorded, seed, meta)


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
    energy = None

    def step():
        nonlocal x, energy
        out = kernel(target, ladder, level, x, config, rng, energy)
        x, energy = out.next, out.energy
        return (out,)

    meta = {
        "kind": kind,
        "level": level,
        "temperature": ladder.temperature(level),
        "theta": config.theta,
    }
    return Trajectory(kind, *_record(target, 1, n_iterations, step), seed, meta)


def ladder_configs(ladder, proposal_covariance=None, base_matrices=None, single_theta=None):
    """Per-level kernel configs consistent with a ladder.

    Level 0 gets theta = 1 (it never mixes); adaptive levels take their
    theta from the ladder.  ``single_theta`` overrides every level's
    theta, which is how the single-kernel runs (where the ladder carries
    no thetas) get configured.
    """
    configs = []
    for level in range(ladder.n_levels):
        if single_theta is not None:
            theta = single_theta
        elif level == 0:
            theta = 1.0
        else:
            theta = ladder.theta(level)
        configs.append(
            KernelConfig(
                theta=theta,
                proposal_covariance=proposal_covariance,
                base_matrix=None if base_matrices is None else base_matrices[level],
            )
        )
    return tuple(configs)


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
