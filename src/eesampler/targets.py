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
        self._shape = (self.dimension,)
        self._precision = np.linalg.inv(self.covariance)
        self._chol = np.linalg.cholesky(self.covariance)

    def energy(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != self._shape:
            raise ValueError(f"state must have shape {self._shape}, got {x.shape}")
        # the bits of ``x @ P @ x`` (pinned by the suite) at half the dispatch cost
        return 0.5 * float(x.dot(self._precision).dot(x))

    def sample_tempered(self, temperature: float, rng, size=None):
        """Exact draw(s) from the tempered law N(0, t*Sigma)."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        scale = math.sqrt(temperature)
        if size is None:
            return scale * self._chol.dot(rng.standard_normal(self.dimension))
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
    schemes); level K is the distribution of interest.  The ladder holds
    temperatures only: each level's local-move probability theta is a
    kernel parameter and lives on that level's ``KernelConfig``.
    """

    temperatures: tuple

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

    def _check_level(self, level: int):
        if not 0 <= level < len(self.temperatures):
            raise ValueError(f"level must be in [0, {self.top_level}], got {level}")


def checked_energy(target, x) -> float:
    """E(x) from ``target.energy``, rejecting a NaN or infinite value."""
    e = target.energy(x)
    if not math.isfinite(e):
        raise ValueError(f"non-finite energy at state {x!r}")
    return e


def importance_coefficient(ladder: TemperatureLadder, level: int) -> float:
    """The positive constant 1/t_level - 1/t_{level-1}: the log importance weight
    of the level-(l-1) tempered law against the level-l one is -E(x) times it."""
    if level == 0:
        raise ValueError("level 0 has no importance weight (no hotter level)")
    ladder._check_level(level)
    return 1.0 / ladder.temperatures[level] - 1.0 / ladder.temperatures[level - 1]
