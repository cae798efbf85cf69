"""Energy-based target families and temperature ladders.

A target is described by an energy function E; the tempered law at
temperature t has unnormalized density exp(-E(x)/t).  Normalizing
constants are never computed: every consumer works with log-density
differences, so the additive constant is irrelevant.

Two concrete families are provided: zero-mean Gaussians on R^d
(E(x) = x' Sigma^{-1} x / 2, so the tempered law is N(0, t*Sigma)) and
finite state spaces given by an energy vector.  Both map variates to
exact tempered draws (``tempered_draw``), which the limiting kernels
require: standard normals on a Gaussian, uniforms on a finite space.
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


# numpy adds fewer than 8 terms one by one, starting from 0.0 (its pairwise
# summation begins at 8), so up to this dimension one vector's sums are taken
# in Python floats: the same bits as numpy's, in far fewer calls
_FLOAT_SUM_DIM = 7


def _matvec(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a vector x or a stack (..., d) of them, as a C-ordered
    elementwise product reduced over its last axis.  Each row is then summed
    by the same loop over its own d products, so its floats do not depend on
    the shape of the stack it sits in, which a BLAS call does not promise;
    the number of numpy calls does not grow with d.  ``matrix`` may be a
    stack (..., d, d) broadcast against x."""
    if x.ndim == 1 and matrix.ndim == 2 and len(x) <= _FLOAT_SUM_DIM:
        return np.array(_float_matvec(matrix.tolist(), x.tolist()))
    return np.add.reduce(np.multiply(matrix, x[..., None, :], order="C"), -1)


def _float_matvec(rows: list, x: list) -> list:
    """``_matvec`` of one short vector in Python floats, with numpy's bits."""
    out = []
    for row in rows:
        acc = 0.0
        for m, v in zip(row, x):
            acc += m * v
        out.append(acc)
    return out


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
        self._precision_rows = self._precision.tolist()
        self._chol = np.linalg.cholesky(self.covariance)

    def energy(self, x):
        """E(x) of a state (a float), or of each row of a stack (..., d) (an array).

        One formula for both, reduced row by row like ``_matvec``: a row's
        energy has the same bits alone and in any stack.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self._shape:
            raise ValueError(f"state must have shape (..., {self.dimension}), got {x.shape}")
        if x.ndim == 1 and self.dimension <= _FLOAT_SUM_DIM:
            v = x.tolist()
            acc = 0.0
            for a, b in zip(v, _float_matvec(self._precision_rows, v)):
                acc += a * b
            return 0.5 * acc
        e = 0.5 * np.add.reduce(np.multiply(x, _matvec(self._precision, x), order="C"), -1)
        return float(e) if x.ndim == 1 else e

    def tempered_draw(self, temperature: float, z):
        """The exact draw(s) from N(0, t*Sigma) that standard normals z, shape
        (..., d), map to: sqrt(t) * chol(Sigma) z."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        return math.sqrt(temperature) * _matvec(self._chol, z)

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

    def energy(self, x):
        """E(x) of a state (a float), or of each state in an integer array."""
        s = np.asarray(x)
        if s.ndim == 0:
            s = int(x)
            if not 0 <= s < self.state_count:
                raise ValueError(f"state {s} out of range [0, {self.state_count})")
            return float(self.energies[s])
        if s.size and not (0 <= s.min() and s.max() < self.state_count):
            raise ValueError(f"states out of range [0, {self.state_count})")
        return self.energies[s]

    def tempered_probabilities(self, temperature: float) -> np.ndarray:
        """Normalized tempered law: probabilities proportional to exp(-E/t)."""
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        logp = -self.energies / temperature
        with np.errstate(over="ignore"):  # a state past the float range below the max gets 0
            logp -= logp.max()
        p = np.exp(logp)
        return p / p.sum()

    def tempered_draw(self, temperature: float, u):
        """The exact draw(s) that uniform(s) u in [0, 1) map to, by inverse CDF
        over the normalized tempered vector."""
        cdf = _pinned_cumsum(self.tempered_probabilities(temperature))
        return cdf.searchsorted(u, side="right")

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


def checked_energy(target, x):
    """E(x) from ``target.energy`` of a state (a float), or of each state of a
    stack (an array), rejecting a NaN or infinite value."""
    e = target.energy(x)
    # a stack is checked by its sum, which is non-finite if an energy is, or
    # if finite energies overflow it: only then are the energies looked at
    if not math.isfinite(e if isinstance(e, float) else e.sum()):
        bad = ~np.isfinite(e)
        if bad.any():
            raise ValueError(f"non-finite energy at state {x[bad][0] if bad.ndim else x!r}")
    return e


def importance_coefficient(ladder: TemperatureLadder, level: int) -> float:
    """The positive constant 1/t_level - 1/t_{level-1}: the log importance weight
    of the level-(l-1) tempered law against the level-l one is -E(x) times it."""
    if level == 0:
        raise ValueError("level 0 has no importance weight (no hotter level)")
    ladder._check_level(level)
    return 1.0 / ladder.temperatures[level] - 1.0 / ladder.temperatures[level - 1]
