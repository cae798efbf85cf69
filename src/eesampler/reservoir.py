"""Append-only sample reservoirs (the empirical measure of a chain's history).

A reservoir realizes the running empirical measure mu_n of a chain: after
n pushes it is the uniform measure on the stored states, which is exactly
the n-fold application of the recursion mu -> mu + (delta_x - mu)/n from
the zero measure.  The zero measure itself has no sampling semantics, so
drawing from an empty reservoir is an error; adaptive kernels route
around it by taking their local branch until the first push.

Every state is stored with its energy E(x), and every draw returns the
pair, so a kernel never evaluates E at a drawn state.  A draw maps a
caller's uniform u in [0, 1) to a pair by the batched engine's
rules: a uniform draw takes item floor(u n), and a weighted draw
bisects the cumulative weights at u times their total.  A reservoir built
with its reader's coefficient c weights each state by exp(-c E(x)) when it
is pushed, as the engine does when it records a state: the running
cumulative sum of the weights shifted by the running max log weight is
extended by the new weight, or rebuilt at the new shift when the state
sets a record.  So a weighted draw only bisects, O(log n), and log
weights of any magnitude are safe.  No thinning, forgetting or weight
clipping: all raw states are kept.
"""

from __future__ import annotations

import math

import numpy as np


class EmptyReservoirError(RuntimeError):
    """Raised when a draw is requested from a reservoir with no samples."""


class NonFiniteWeightError(ValueError):
    """Raised when a resampling weight is NaN or infinite."""


class Reservoir:
    """Append-only store of states and their energies, with uniform and weighted resampling.

    Parameters
    ----------
    dimension : int or None
        ``None`` stores integer states (finite state spaces); an integer d
        stores float vectors of length d.
    coefficient : float or None
        The coefficient c of the weighted draws, exp(-c E(x)); ``None``
        builds a reservoir for uniform draws only.
    """

    def __init__(self, dimension: int | None = None, coefficient: float | None = None):
        self.dimension = dimension
        self.coefficient = coefficient
        self._count = 0
        if dimension is None:
            self._buf = np.empty(16, dtype=np.int64)
        else:
            self._shape = (dimension,)
            self._buf = np.empty((16, dimension), dtype=float)
        self._energy = np.empty(16)
        # with a coefficient: the prefix sums of exp(-c * energy - _shift),
        # _shift the largest log weight -c * energy pushed so far
        self._cum = None if coefficient is None else np.empty(16)
        self._shift = -np.inf

    @property
    def count(self) -> int:
        return self._count

    @property
    def samples(self) -> np.ndarray:
        """Read-only view of the stored states, oldest first."""
        view = self._buf[: self._count]
        view.flags.writeable = False
        return view

    def push(self, x, energy) -> None:
        """Append one state (never mutated afterwards) with its finite energy E(x).

        With a coefficient c its log weight lw = -c E(x) must be finite too
        (``NonFiniteWeightError``), and the prefix sums become
        ``cumsum(exp(lw - lw.max()))`` over every state's lw, bit for bit.
        A push that raises changes nothing.
        """
        if energy is None or not math.isfinite(energy):
            raise ValueError(f"a pushed state needs a finite energy, got {energy!r}")
        if self._cum is not None:
            lw = -self.coefficient * energy
            if not math.isfinite(lw):
                raise NonFiniteWeightError("resampling log weights must be finite")
        if self.dimension is None:
            x = int(x)
        else:
            x = np.asarray(x, dtype=float)
            if x.shape != self._shape:
                raise ValueError(f"state must have shape {self._shape}, got {x.shape}")
        n = self._count
        if n == len(self._buf):
            self._buf, self._energy, self._cum = (
                None if a is None else np.concatenate((a, np.empty_like(a)))
                for a in (self._buf, self._energy, self._cum))
        self._buf[n] = x
        self._energy[n] = energy
        if self._cum is not None:
            if lw > self._shift:
                self._shift = lw
                np.exp(-self.coefficient * self._energy[: n + 1] - lw).cumsum(
                    out=self._cum[: n + 1])
            else:
                # scalar np.exp (not math.exp): the same float as a vector exp
                self._cum[n] = self._cum[n - 1] + np.exp(lw - self._shift)
        self._count = n + 1

    def _item(self, k: int) -> tuple:
        """The k-th state (a copy) and its energy."""
        x = int(self._buf[k]) if self.dimension is None else self._buf[k].copy()
        return x, float(self._energy[k])

    def sample_uniform(self, u: float) -> tuple:
        """The stored (state, energy) pair floor(u * count) of a uniform u in
        [0, 1): each with probability 1/count."""
        if self._count == 0:
            raise EmptyReservoirError("cannot draw from an empty reservoir")
        return self._item(int(u * self._count))

    def sample_weighted(self, u: float) -> tuple:
        """One stored (state, energy) pair, with probability proportional to
        exp(-coefficient * energy): the prefix sums bisected at u times their
        total, u a uniform in [0, 1)."""
        n = self._count
        if n == 0:
            raise EmptyReservoirError("cannot draw from an empty reservoir")
        if self._cum is None:
            raise ValueError("a reservoir built without a coefficient has no weighted draws")
        cdf = self._cum[:n]
        k = int(cdf.searchsorted(u * cdf[-1], side="right"))
        return self._item(min(k, n - 1))
