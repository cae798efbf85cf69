"""Single-step transition kernels.

Provides the random-walk Metropolis base kernel, the two adaptive kernels
(equi-energy exchange and importance resampling) that read a hotter
chain's reservoir, their limiting kernels driven by exact tempered
draws, the lower bound on the local-move probability theta implied by
the geometric-drift transfer argument, and explicit row-stochastic
matrices for every kernel kind on finite state spaces.

Conventions shared by all mixture kernels:

* a step reads its randomness from one ``Variates`` record, by role
  (the rules are listed with the variate schedule in ``ladder``), and
  ignores the variates its branch has no use for, so traces line up
  across kernel kinds under a shared schedule;
* an empty reservoir sends the step down the local branch
  unconditionally (the zero empirical measure admits no resampling);
* acceptance ratios are formed in log domain from energy differences,
  never from normalized densities.

Energy contract: every step kernel takes ``energy``, exactly
``target.energy(x)`` of the current state x, and returns E(next) as
``StepOutcome.energy``; it evaluates E (checked finite) only at a state
that came without one, a local or inner proposal or an exact draw.

A single replication steps through these functions, one level-step at a
time, on the batched engine's variate schedule (``ladder``); several
replications advance together through the engine, by the same rules and
with the same bits.

On finite targets the "random walk Metropolis" base kernel is a single
row draw from a caller-supplied stochastic matrix with the right
tempered stationary law; ``metropolis_matrix`` builds such a matrix from
a symmetric proposal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .targets import (
    _as_spd_matrix,
    _matvec,
    _pinned_cumsum,
    checked_energy,
    importance_coefficient,
)

STOCHASTIC_ATOL = 1e-12

LOCAL, EXCHANGE, RESAMPLE = "local", "exchange", "resample"


class KappaTooLargeError(ValueError):
    """kappa at or beyond 1/t_l - 1/t_{l-1}: the theta bound is undefined."""


class Variates(NamedTuple):
    """One step's variates, by role: three uniforms in [0, 1) and the
    proposal, standard normals of the state's dimension or, on a finite
    target, a row uniform."""

    branch: float
    draw: float
    accept: float
    proposal: object


@dataclass(slots=True)
class StepOutcome:
    """Result of one kernel step, with diagnostics for rate reporting.

    ``energy`` is ``target.energy(next)``.
    """

    next: object
    branch: str
    accepted: bool
    energy: float


@dataclass(frozen=True)
class KernelConfig:
    """Per-level kernel parameters.

    ``proposal_covariance`` drives the Gaussian random-walk proposal on
    continuous targets; ``base_matrix`` replaces it on finite targets.
    ``theta``, the probability of the local branch in mixture kernels, lives
    here only.  It may be 0 (pure refresh for the limiting kernels); an
    adaptive level needs (0, 1], which ``ladder.check_adaptive_thetas`` checks.
    The importance-resampling move advances its resampled state by the
    same local kernel.
    """

    theta: float = 1.0
    proposal_covariance: np.ndarray | None = None
    base_matrix: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.proposal_covariance is not None:
            cov = _as_spd_matrix(self.proposal_covariance, "proposal covariance")
            object.__setattr__(self, "proposal_covariance", cov)
        if self.base_matrix is not None:
            base = _check_stochastic(np.array(self.base_matrix, dtype=float))
            object.__setattr__(self, "base_matrix", base)

    @cached_property
    def _proposal_chol(self) -> np.ndarray:
        if self.proposal_covariance is None:
            raise ValueError("no proposal covariance configured for a continuous target")
        return np.linalg.cholesky(self.proposal_covariance)

    @cached_property
    def _base_cum(self) -> np.ndarray:
        if self.base_matrix is None:
            raise ValueError("no base matrix configured for a finite target")
        return _pinned_cumsum(self.base_matrix)


def _check_stochastic(matrix) -> np.ndarray:
    """``matrix`` as a float array, checked square and row-stochastic."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"matrix must be square and non-empty, got shape {m.shape}")
    if np.any(m < -STOCHASTIC_ATOL):
        raise ValueError("matrix has negative entries")
    dev = np.abs(m.sum(axis=1) - 1.0).max()
    if not dev <= STOCHASTIC_ATOL:  # also rejects NaN and infinite entries
        raise ValueError(f"matrix rows must sum to 1 (max deviation {dev:.3e})")
    return m


def rwm_step(target, ladder, level, x, config: KernelConfig, v: Variates, energy) -> StepOutcome:
    """One local step at ``level``.

    Continuous targets: propose y = x + chol z, z the proposal normals and
    chol the Cholesky factor of the proposal covariance, and accept when
    log u < log pi(y) - log pi(x), u the accept uniform.  Finite targets:
    the row uniform's inverse-CDF draw from the configured base matrix's
    row (assumed stationary for the tempered law at this level).
    """
    if target.kind == "finite":
        y = int(config._base_cum[int(x)].searchsorted(v.proposal, side="right"))
        return StepOutcome(y, LOCAL, True, checked_energy(target, y))
    x = np.asarray(x, dtype=float)
    chol = config._proposal_chol
    if chol.shape[0] != x.shape[0]:
        raise ValueError(
            f"proposal dimension {chol.shape[0]} does not match state dimension {x.shape[0]}"
        )
    t = ladder.temperature(level)
    y = x + _matvec(chol, v.proposal)
    ey = checked_energy(target, y)
    if _log_uniform(v.accept) < (-ey / t) - (-energy / t):
        return StepOutcome(y, LOCAL, True, ey)
    return StepOutcome(x, LOCAL, False, energy)


def _log_uniform(u: float) -> float:
    """log u of a uniform u, which can be exactly 0.0 (then log u = -inf).

    ``np.log``, not ``math.log``: the batched engine takes the log of a whole
    block of uniforms, and the two differ in the last bit on some inputs.
    """
    return float(np.log(u)) if u > 0.0 else -math.inf


def _exact_draw(target, temperature: float, v: Variates):
    """The exact tempered draw of ``v``: from its draw uniform on a finite
    target, from its proposal normals on a Gaussian one."""
    if target.kind == "finite":
        return int(target.tempered_draw(temperature, v.draw))
    return target.tempered_draw(temperature, v.proposal)


def _exchange_move(ladder, level, x, ex, y, ey, u) -> StepOutcome:
    """Move from x (energy ex) to the proposed y (energy ey) when the log of
    the accept uniform u is below log r(y) - log r(x)."""
    c = importance_coefficient(ladder, level)
    if _log_uniform(u) < (-ey * c) - (-ex * c):
        return StepOutcome(y, EXCHANGE, True, ey)
    return StepOutcome(x, EXCHANGE, False, ex)


def ee_adaptive_step(target, ladder, level, x, reservoir, config: KernelConfig, v: Variates,
                     energy) -> StepOutcome:
    """Equi-energy adaptive step at ``level`` against the level-(l-1) reservoir.

    With probability theta takes the local branch; otherwise proposes a
    uniform draw from the reservoir and accepts with probability
    min(1, r(y)/r(x)), r being the importance function between the two
    adjacent tempered laws.
    """
    if v.branch < config.theta or reservoir.count == 0:
        return rwm_step(target, ladder, level, x, config, v, energy)
    y, ey = reservoir.sample_uniform(v.draw)
    return _exchange_move(ladder, level, x, energy, y, ey, v.accept)


def ir_adaptive_step(target, ladder, level, x, reservoir, config: KernelConfig, v: Variates,
                     energy) -> StepOutcome:
    """Importance-resampling adaptive step at ``level``.

    With probability theta takes the local branch; otherwise resamples a
    reservoir state with weights proportional to the importance function
    r and advances it by one step of the local kernel (which may reject
    and hold at the resampled point).  The reservoir weights its states
    by r: it was built with ``importance_coefficient(ladder, level)``.
    """
    if v.branch < config.theta or reservoir.count == 0:
        return rwm_step(target, ladder, level, x, config, v, energy)
    y, ey = reservoir.sample_weighted(v.draw)
    inner = rwm_step(target, ladder, level, y, config, v, ey)
    inner.branch = RESAMPLE
    return inner


def limit_ee_step(target, ladder, level, x, config: KernelConfig, v: Variates,
                  energy) -> StepOutcome:
    """Limiting equi-energy kernel: independence MH proposing from the
    exact level-(l-1) tempered law instead of the reservoir."""
    if v.branch < config.theta:
        return rwm_step(target, ladder, level, x, config, v, energy)
    y = _exact_draw(target, ladder.temperature(level - 1), v)
    return _exchange_move(ladder, level, x, energy, y, checked_energy(target, y), v.accept)


def limit_ir_step(target, ladder, level, x, config: KernelConfig, v: Variates,
                  energy) -> StepOutcome:
    """Limiting importance-resampling kernel: mixture of the local kernel
    with an exact refresh from the level-l tempered law."""
    if v.branch < config.theta:
        return rwm_step(target, ladder, level, x, config, v, energy)
    y = _exact_draw(target, ladder.temperature(level), v)
    return StepOutcome(y, RESAMPLE, True, checked_energy(target, y))


def theta_lower_bound(lambda_l: float, kappa: float, t_l: float, t_prev: float) -> float:
    """Lower bound on theta_l from the drift-transfer condition.

    For drift rate lambda_l of the local kernel and drift exponent kappa
    (with 0 < kappa < 1/t_l - 1/t_prev), the mixture keeps a geometric
    drift only if theta_l exceeds

        1 / (1 + (1 - lambda_l) * (kappa^{-1} (1/t_l - 1/t_prev) - 1)).

    The bound is sufficient, not necessary; callers should treat a
    violation as a warning.
    """
    if not 0.0 < lambda_l < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lambda_l}")
    if not t_prev > t_l > 0.0:
        raise ValueError(f"need t_prev > t_l > 0, got t_prev={t_prev}, t_l={t_l}")
    delta = 1.0 / t_l - 1.0 / t_prev
    if not kappa > 0.0:  # written so that NaN fails
        raise ValueError(f"kappa must be positive, got {kappa}")
    if not kappa < delta:
        raise KappaTooLargeError(
            f"kappa={kappa} must be below 1/t_l - 1/t_prev = {delta}; the bound is undefined"
        )
    return 1.0 / (1.0 + (1.0 - lambda_l) * (delta / kappa - 1.0))


# --- explicit matrices on finite state spaces -------------------------------


def acceptance_matrix(log_r: np.ndarray) -> np.ndarray:
    """A[x, y] = min(1, r(y)/r(x)) from per-state log importance weights."""
    log_r = np.asarray(log_r, dtype=float)
    return np.exp(np.minimum(0.0, log_r[None, :] - log_r[:, None]))


def exchange_matrix(proposal: np.ndarray, log_r: np.ndarray) -> np.ndarray:
    """Exchange move R: propose y from ``proposal`` (a probability vector),
    accept by min(1, r(y)/r(x)), and hold at x on rejection."""
    r_kernel = acceptance_matrix(log_r) * np.asarray(proposal, dtype=float)[None, :]
    r_kernel[np.diag_indices_from(r_kernel)] += 1.0 - r_kernel.sum(axis=1)
    return r_kernel


def ee_limit_matrix(base: np.ndarray, proposal: np.ndarray, log_r: np.ndarray, theta: float) -> np.ndarray:
    """theta * base + (1 - theta) * R, R being ``exchange_matrix(proposal, log_r)``."""
    base = _check_stochastic(base)
    return theta * base + (1.0 - theta) * exchange_matrix(proposal, log_r)


def ir_limit_matrix(base: np.ndarray, refresh: np.ndarray, theta: float) -> np.ndarray:
    """theta * base + (1 - theta) * (every row = ``refresh``)."""
    base = _check_stochastic(base)
    refresh = np.asarray(refresh, dtype=float)
    return theta * base + (1.0 - theta) * np.tile(refresh, (base.shape[0], 1))


def ir_frozen_matrix(base: np.ndarray, mu: np.ndarray, log_r: np.ndarray, theta: float) -> np.ndarray:
    """Frozen importance-resampling kernel: resample from ``mu`` with
    weights exp(log_r), then one base-matrix step."""
    base = _check_stochastic(base)
    lw = np.asarray(log_r, dtype=float)
    q = np.asarray(mu, dtype=float) * np.exp(lw - lw.max())
    total = q.sum()
    if total <= 0.0:
        raise ValueError("frozen measure puts no mass anywhere")
    return ir_limit_matrix(base, (q / total) @ base, theta)


def finite_kernel_matrix(kind, target, ladder, level, base_matrix, theta, mu=None) -> np.ndarray:
    """Explicit one-step matrix of the requested kernel kind at ``level``.

    ``base_matrix`` must be row-stochastic with the level's tempered law
    as stationary distribution (caller-supplied).  ``mu`` is the frozen
    empirical measure (a probability vector) for the frozen kinds.
    """
    if target.kind != "finite":
        raise ValueError("explicit kernel matrices exist only for finite targets")
    base = _check_stochastic(base_matrix)
    if kind == "base":
        return base.copy()
    log_r = -importance_coefficient(ladder, level) * target.energies
    if kind == "ee_limit":
        proposal = target.tempered_probabilities(ladder.temperature(level - 1))
        return ee_limit_matrix(base, proposal, log_r, theta)
    if kind == "ir_limit":
        refresh = target.tempered_probabilities(ladder.temperature(level))
        return ir_limit_matrix(base, refresh, theta)
    if kind in ("ee_frozen", "ir_frozen"):
        if mu is None:
            raise ValueError(f"kind {kind!r} needs the frozen empirical measure mu")
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (target.state_count,) or np.any(mu < 0):
            raise ValueError("mu must be a nonnegative vector over the state space")
        if kind == "ee_frozen":
            return ee_limit_matrix(base, mu / mu.sum(), log_r, theta)
        return ir_frozen_matrix(base, mu, log_r, theta)
    raise ValueError(f"unknown kernel kind {kind!r}")


def metropolis_matrix(proposal_matrix: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
    """Metropolis matrix for a finite target from a symmetric proposal.

    ``log_weights`` are unnormalized log probabilities of the target law;
    the result is reversible with respect to it.
    """
    q = _check_stochastic(proposal_matrix)
    if not np.allclose(q, q.T, atol=1e-12, rtol=0.0):
        raise ValueError("proposal matrix must be symmetric")
    accept = acceptance_matrix(np.asarray(log_weights, dtype=float))
    p = q * accept
    np.fill_diagonal(p, 0.0)
    p[np.diag_indices_from(p)] = 1.0 - p.sum(axis=1)
    return p


def neighbor_proposal(state_count: int, move_prob: float = 1.0) -> np.ndarray:
    """Symmetric nearest-neighbor proposal on {0..S-1}.

    Proposes x-1 and x+1 each with probability move_prob/2; the leftover
    mass (including blocked moves at the ends) stays put.  Small
    ``move_prob`` gives a deliberately slow-mixing chain.
    """
    if not 0.0 < move_prob <= 1.0:
        raise ValueError("move_prob must lie in (0, 1]")
    q = np.zeros((state_count, state_count))
    half = move_prob / 2.0
    for i in range(state_count):
        if i > 0:
            q[i, i - 1] = half
        if i < state_count - 1:
            q[i, i + 1] = half
        q[i, i] = 1.0 - q[i].sum()
    return q
