"""Energy-based target families and temperature ladders.

A target is described by an energy function E; the tempered law at
temperature t has unnormalized density exp(-E(x)/t).  Normalizing
constants are never computed: every consumer works with log-density
differences, so the additive constant is irrelevant.

Two concrete families are provided: zero-mean Gaussians on R^d
(E(x) = x' Sigma^{-1} x / 2, so the tempered law is N(0, t*Sigma)) and
finite state spaces given by an energy vector.  Both carry exact
tempered samplers, which the limiting-kernel samplers require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_spd_matrix(covariance, what: str = "covariance") -> np.ndarray:
    """A float copy of ``covariance``, checked symmetric positive definite."""
    cov = np.array(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"{what} must be finite")
    if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
        raise ValueError(f"{what} must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} must be positive definite") from None
    return cov


def _pinned_cumsum(probabilities) -> np.ndarray:
    """Cumulative sums along the last axis with the final total pinned at 1.

    Every entry equal to the total (the last one, and those after the last
    state with mass) becomes exactly 1, so ``searchsorted(cum, u, side="right")``
    with u in [0, 1) is the inverse-CDF draw: rounding in the sums can send it
    neither past the last state nor onto a trailing state without mass.
    """
    cum = np.cumsum(probabilities, axis=-1)
    cum[cum >= cum[..., -1:]] = 1.0
    return cum


class GaussianTarget:
    """Zero-mean Gaussian N(0, Sigma) seen as an energy target.

    E(x) = 0.5 * x' Sigma^{-1} x, hence the tempered law at temperature t
    is N(0, t*Sigma).  (That rescaling is validated by a moment test in
    the suite before anything relies on it.)
    """

    kind = "continuous"

    def __init__(self, covariance):
        self.covariance = _as_spd_matrix(covariance)
        self.dimension = self.covariance.shape[0]
        self._precision = np.linalg.inv(self.covariance)
        self._chol = np.linalg.cholesky(self.covariance)

    def energy(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"state must have shape ({self.dimension},), got {x.shape}")
        return 0.5 * float(x @ self._precision @ x)

    def sample_tempered(self, temperature: float, rng, size=None):
        """Exact draw(s) from the tempered law N(0, t*Sigma)."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        scale = np.sqrt(temperature)
        if size is None:
            return scale * (self._chol @ rng.standard_normal(self.dimension))
        z = rng.standard_normal((size, self.dimension))
        return scale * (z @ self._chol.T)

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.dimension)


class FiniteTarget:
    """Finite state space {0, ..., S-1} with an explicit energy vector."""

    kind = "finite"

    def __init__(self, energies):
        energies = np.array(energies, dtype=float)
        if energies.ndim != 1 or energies.size == 0:
            raise ValueError("energies must be a non-empty vector")
        if not np.all(np.isfinite(energies)):
            raise ValueError("energies must all be finite")
        self.energies = energies
        self.state_count = energies.size

    def energy(self, x) -> float:
        s = int(x)
        if not 0 <= s < self.state_count:
            raise ValueError(f"state {s} out of range [0, {self.state_count})")
        return float(self.energies[s])

    def tempered_probabilities(self, temperature: float) -> np.ndarray:
        """Normalized tempered law: probabilities proportional to exp(-E/t)."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        logp = -self.energies / temperature
        logp -= logp.max()
        p = np.exp(logp)
        return p / p.sum()

    def sample_tempered(self, temperature: float, rng, size=None):
        """Exact draw(s) by inverse CDF over the normalized tempered vector."""
        cdf = _pinned_cumsum(self.tempered_probabilities(temperature))
        if size is None:
            return int(np.searchsorted(cdf, rng.random(), side="right"))
        return np.searchsorted(cdf, rng.random(size), side="right").astype(np.int64)

    def initial_state(self) -> int:
        return 0


@dataclass(frozen=True)
class TemperatureLadder:
    """Strictly decreasing temperatures t_0 > ... > t_K = 1.

    Level 0 is the hottest chain (a plain Markov chain in the adaptive
    schemes); level K is the distribution of interest.  ``thetas`` holds
    the local-move probabilities theta_1..theta_K of the adaptive levels
    and may be omitted when only temperatures are needed (single-kernel
    runs configure theta directly on the kernel).
    """

    temperatures: tuple
    thetas: tuple | None = None

    def __post_init__(self):
        temps = tuple(float(t) for t in self.temperatures)
        object.__setattr__(self, "temperatures", temps)
        if len(temps) == 0:
            raise ValueError("temperature list must be non-empty")
        if not all(0.0 < t < np.inf for t in temps):
            raise ValueError("temperatures must all be positive and finite")
        for prev, nxt in zip(temps[:-1], temps[1:]):
            if nxt >= prev:
                raise ValueError(
                    f"temperatures must be strictly decreasing; pair ({prev:g}, {nxt:g}) is not"
                )
        if temps[-1] != 1.0:
            raise ValueError(f"coldest temperature must be exactly 1, got {temps[-1]}")
        if self.thetas is not None:
            thetas = tuple(float(th) for th in self.thetas)
            object.__setattr__(self, "thetas", thetas)
            if len(thetas) != len(temps) - 1:
                raise ValueError(
                    f"need one theta per adaptive level: expected {len(temps) - 1}, "
                    f"got {len(thetas)}"
                )
            for th in thetas:
                if not 0.0 < th <= 1.0:
                    raise ValueError(f"every theta must lie in (0, 1], got {th}")

    @property
    def n_levels(self) -> int:
        return len(self.temperatures)

    @property
    def top_level(self) -> int:
        """Index K of the coldest level."""
        return len(self.temperatures) - 1

    def temperature(self, level: int) -> float:
        self._check_level(level)
        return self.temperatures[level]

    def theta(self, level: int) -> float:
        if self.thetas is None:
            raise ValueError("this ladder has no thetas configured")
        if not 1 <= level <= self.top_level:
            raise ValueError(f"theta is defined for levels 1..{self.top_level}, got {level}")
        return self.thetas[level - 1]

    def _check_level(self, level: int):
        if not 0 <= level < len(self.temperatures):
            raise ValueError(f"level must be in [0, {self.top_level}], got {level}")


def make_gaussian_target(covariance) -> GaussianTarget:
    """Gaussian target N(0, Sigma) from a symmetric positive definite matrix."""
    return GaussianTarget(covariance)


def make_finite_target(energies) -> FiniteTarget:
    """Finite target from an energy vector (tempered law proportional to exp(-E/t))."""
    return FiniteTarget(energies)


def checked_energy(target, x) -> float:
    """E(x) from ``target.energy``, rejecting a NaN or infinite value."""
    e = target.energy(x)
    if not math.isfinite(e):
        raise ValueError(f"non-finite energy at state {x!r}")
    return e


def tempered_log_density(target, ladder: TemperatureLadder, level: int, x) -> float:
    """Unnormalized log density -E(x)/t_level (additive constant unspecified)."""
    t = ladder.temperature(level)
    return -checked_energy(target, x) / t


def importance_log_weight(target, ladder: TemperatureLadder, level: int, x) -> float:
    """log r at ``level``: -E(x) * (1/t_level - 1/t_{level-1}).

    This is the log importance weight of the level-(l-1) tempered law
    against the level-l one; it is strictly decreasing in E(x).
    """
    coeff = importance_coefficient(ladder, level)
    return -checked_energy(target, x) * coeff


def importance_coefficient(ladder: TemperatureLadder, level: int) -> float:
    """The positive constant 1/t_level - 1/t_{level-1} multiplying -E(x)."""
    if level == 0:
        raise ValueError("level 0 has no importance weight (no hotter level)")
    ladder._check_level(level)
    return 1.0 / ladder.temperatures[level] - 1.0 / ladder.temperatures[level - 1]
