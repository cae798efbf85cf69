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
bisects the cumulative weights at u times their total.  A weighted draw
weights each state by exp(-c E(x)) for the reservoir's one coefficient c.
It caches the running cumulative sum of the max-shifted weights, so a
draw weights only the states pushed since the previous weighted draw and
then bisects the cumulative sum: amortised O(log n) per draw, and log
weights of any magnitude are safe.  The cumulative sum is rebuilt at the
new shift only when a state sets a new record weight.  No thinning,
forgetting or weight clipping: all raw states are kept.
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
    """

    def __init__(self, dimension: int | None = None):
        self.dimension = dimension
        self._count = 0
        if dimension is None:
            self._buf = np.empty(16, dtype=np.int64)
        else:
            self._shape = (dimension,)
            self._buf = np.empty((16, dimension), dtype=float)
        self._energy = np.empty(16)
        # weighted-draw cache: the coefficient c of the weighted draws and the
        # prefix sums of exp(-c * energy - _shift) of the first _weighted states
        self._coefficient = None
        self._cum = np.empty(16)
        self._weighted = 0
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
        """Append one state (never mutated afterwards) with its finite energy E(x)."""
        if energy is None or not math.isfinite(energy):
            raise ValueError(f"a pushed state needs a finite energy, got {energy!r}")
        n = self._count
        if n == len(self._buf):
            self._buf, self._energy, self._cum = (
                np.concatenate((a[:n], np.empty_like(a)))
                for a in (self._buf, self._energy, self._cum)
            )
        if self.dimension is None:
            self._buf[n] = int(x)
        else:
            x = np.asarray(x, dtype=float)
            if x.shape != self._shape:
                raise ValueError(f"state must have shape {self._shape}, got {x.shape}")
            self._buf[n] = x
        self._energy[n] = energy
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

    def sample_weighted(self, coefficient: float, u: float) -> tuple:
        """One stored (state, energy) pair, with probability proportional to
        exp(-coefficient * energy).

        Every weighted draw from one reservoir must pass the same coefficient
        (``ValueError`` otherwise): each state is weighted once, at the first
        weighted draw after its push.  The cumulative sum of exp(log weight -
        running max) is extended by the new states, or rebuilt at the new
        shift when one of them sets a record, so the prefix floats equal a
        per-call ``cumsum(exp(lw - lw.max()))`` bit for bit.  A draw then
        bisects it at u times its total, u a uniform in [0, 1): amortised
        O(log n) per draw.
        A draw that raises leaves the cache unchanged.
        """
        n = self._count
        if n == 0:
            raise EmptyReservoirError("cannot draw from an empty reservoir")
        if self._coefficient is not None and coefficient != self._coefficient:
            raise ValueError(f"weighted by coefficient {self._coefficient!r}, got {coefficient!r}")
        done = self._weighted
        if done < n:
            new = [-coefficient * e for e in self._energy[done:n].tolist()]
            if not all(map(math.isfinite, new)):
                raise NonFiniteWeightError("resampling log weights must be finite")
            top, shift, cum = max(new), self._shift, self._cum
            if top > shift:
                self._shift = top
                np.exp(-coefficient * self._energy[:n] - top).cumsum(out=cum[:n])
            else:
                # scalar np.exp (not math.exp) and sequential adds: the same
                # floats as a vector exp and cumsum
                total = cum[done - 1]
                for k, lw in enumerate(new, done):
                    total += np.exp(lw - shift)
                    cum[k] = total
            self._coefficient = coefficient
            self._weighted = n
        cdf = self._cum[:n]
        k = int(cdf.searchsorted(u * cdf[-1], side="right"))
        return self._item(min(k, n - 1))

