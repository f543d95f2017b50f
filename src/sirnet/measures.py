"""Finite real measures on the nonnegative integers.

``RealMeasure`` holds nonnegative real weights on ``0..kmax``: the state
variables of the deterministic large-population limit (the stochastic
simulation keeps integer level-count lists instead, see
:mod:`sirnet.simulation`).  Moments ``<mu, x^p>`` are provided up to
``p = 5``.
"""

from __future__ import annotations

import numpy as np

MAX_MOMENT = 5


def _check_moment_order(p):
    if not isinstance(p, (int, np.integer)) or p < 0 or p > MAX_MOMENT:
        raise ValueError(f"moment order must be an integer in 0..{MAX_MOMENT}, got {p!r}")


class RealMeasure:
    """Nonnegative real weights on levels ``0..kmax``, given as a vector or
    as a ``{level: weight}`` map."""

    __slots__ = ("weights", "kmax")

    def __init__(self, weights, kmax=None):
        if isinstance(weights, dict):
            if kmax is None:
                kmax = max((int(k) for k in weights), default=0)
            arr = np.zeros(kmax + 1)
            for k, w in weights.items():
                arr[int(k)] = float(w)
        else:
            arr = np.asarray(weights, dtype=float).copy()
            if kmax is None:
                kmax = len(arr) - 1
            elif kmax + 1 != len(arr):
                raise ValueError("kmax inconsistent with weight vector length")
        if arr.ndim != 1 or len(arr) != kmax + 1:
            raise ValueError("weights must be a vector over 0..kmax")
        if np.any(arr < 0):
            raise ValueError("negative weight")
        self.weights = arr
        self.kmax = int(kmax)

    @property
    def mass(self):
        return float(self.weights.sum())

    def __call__(self, level):
        return float(self.weights[level]) if 0 <= level <= self.kmax else 0.0

    def moment(self, p):
        _check_moment_order(p)
        k = np.arange(self.kmax + 1)
        return float((k ** p) @ self.weights)

    def __eq__(self, other):
        return (
            isinstance(other, RealMeasure)
            and self.kmax == other.kmax
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self):
        nz = {k: w for k, w in enumerate(self.weights) if w}
        return f"RealMeasure({nz}, kmax={self.kmax})"
