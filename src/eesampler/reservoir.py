"""Append-only sample reservoirs (the empirical measure of a chain's history).

A reservoir realizes the running empirical measure mu_n of a chain: after
n pushes it is the uniform measure on the stored states, which is exactly
the n-fold application of the recursion mu -> mu + (delta_x - mu)/n from
the zero measure.  The zero measure itself has no sampling semantics, so
drawing from an empty reservoir is an error; adaptive kernels route
around it by taking their local branch until the first push.

Weighted resampling caches each state's log weight and the running
cumulative sum of the max-shifted exponentiated weights, so a draw
weights only the states pushed since the previous weighted draw and then
bisects the cumulative sum: amortised O(log n) per draw, and log weights
of any magnitude are safe.  The cumulative sum is rebuilt at the new
shift only when a state sets a new record weight.  No thinning,
forgetting or weight clipping: all raw states are kept.
"""

from __future__ import annotations

import numpy as np


class EmptyReservoirError(RuntimeError):
    """Raised when a draw is requested from a reservoir with no samples."""


class NonFiniteWeightError(ValueError):
    """Raised when a resampling weight is NaN or infinite."""


class Reservoir:
    """Append-only store of states with uniform and weighted resampling.

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
            self._buf = np.empty((16, dimension), dtype=float)
        # weighted-draw cache: log weights and the prefix sums of
        # exp(_lw - _shift) of the first _weighted states
        self._lw = np.empty(0)
        self._cum = np.empty(0)
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

    def push(self, x) -> None:
        """Append one state (never mutated afterwards)."""
        if self._count == len(self._buf):
            grown = np.empty(
                (2 * len(self._buf),) + self._buf.shape[1:], dtype=self._buf.dtype
            )
            grown[: self._count] = self._buf[: self._count]
            self._buf = grown
        if self.dimension is None:
            self._buf[self._count] = int(x)
        else:
            x = np.asarray(x, dtype=float)
            if x.shape != (self.dimension,):
                raise ValueError(f"state must have shape ({self.dimension},), got {x.shape}")
            self._buf[self._count] = x
        self._count += 1

    def _item(self, k: int):
        if self.dimension is None:
            return int(self._buf[k])
        return self._buf[k].copy()

    def empirical_mean(self, f=None):
        """Mean of f over the stored states (f vectorized; identity if None)."""
        if self._count == 0:
            raise EmptyReservoirError("empirical mean of an empty reservoir")
        values = self.samples if f is None else np.asarray(f(self.samples))
        return values.mean(axis=0)

    def sample_uniform(self, rng):
        """One stored state, each with probability 1/count."""
        if self._count == 0:
            raise EmptyReservoirError("cannot draw from an empty reservoir")
        return self._item(int(rng.integers(self._count)))

    def sample_weighted(self, log_weight, rng):
        """One stored state with probability proportional to exp(log_weight).

        ``log_weight`` maps a stacked block of states to one finite value
        per state, and must be the same row-wise function for the life of
        the reservoir: each state is weighted once, at the first weighted
        draw after its push, and its log weight is cached.  The cumulative
        sum of exp(log weight - running max) is extended by the new states,
        or rebuilt at the new shift when one of them sets a record, so the
        prefix floats equal a per-call ``cumsum(exp(lw - lw.max()))`` bit
        for bit.  A draw then bisects it with one ``rng.random()``:
        amortised O(log n) per draw.  A draw that raises leaves the cache
        unchanged.
        """
        n = self._count
        if n == 0:
            raise EmptyReservoirError("cannot draw from an empty reservoir")
        done = self._weighted
        if done < n:
            new = np.asarray(log_weight(self.samples[done:]), dtype=float)
            if new.shape != (n - done,):
                raise ValueError(f"log_weight must return {n - done} values, got {new.shape}")
            if not np.isfinite(new).all():
                raise NonFiniteWeightError("resampling log weights must be finite")
            if len(self._lw) < n:
                size = len(self._buf)
                self._lw = np.concatenate((self._lw[:done], np.empty(size - done)))
                self._cum = np.concatenate((self._cum[:done], np.empty(size - done)))
            self._lw[done:n] = new
            top = new.max()
            if top > self._shift:
                self._shift = top
                np.exp(self._lw[:n] - top).cumsum(out=self._cum[:n])
            else:
                w = np.exp(new - self._shift)
                w[0] += self._cum[done - 1]
                w.cumsum(out=self._cum[done:n])
            self._weighted = n
        cdf = self._cum[:n]
        k = int(cdf.searchsorted(rng.random() * cdf[-1], side="right"))
        return self._item(min(k, n - 1))

    def empirical_distribution(self, state_count: int) -> np.ndarray:
        """Occupation frequencies over a finite state space (integer states only)."""
        if self.dimension is not None:
            raise ValueError("empirical_distribution applies to integer-state reservoirs")
        if self._count == 0:
            raise EmptyReservoirError("empirical distribution of an empty reservoir")
        return np.bincount(self.samples, minlength=state_count) / self._count
