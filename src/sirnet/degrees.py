"""Degree distributions for configuration-model populations.

All parametric families are truncated at a finite ``kmax`` and renormalized,
so every distribution here has finite support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from sirnet.errors import (
    MIN_EVEN_TOTAL_CHANCE,
    ConfigurationError,
    check_degree,
    check_finite,
    check_nonnegative,
    check_population,
)


def _plain(value):
    """A JSON value read with ``object_pairs_hook=tuple``, its objects made
    dicts again."""
    if isinstance(value, tuple):
        return {k: _plain(v) for k, v in value}
    return [_plain(v) for v in value] if isinstance(value, list) else value


def _degree_weights(pairs):
    """The ``{degree: weight}`` map of a degree file's top-level JSON
    object, read as the tuple of its ``(key, value)`` pairs, as
    ``json.load`` with ``object_pairs_hook=tuple`` reads every object of
    the file; refuses two keys that name one degree, such as ``"2"`` and
    ``"02"``, a weight that is no JSON number, such as ``null``, ``true``,
    a list or an object, and an integer weight too large for a float,
    each naming the degree."""
    weights, keys = {}, {}
    for key, value in pairs:
        k = int(key)
        if k in keys:
            raise ConfigurationError(
                f"degree {k} is given twice in the degree file, as {keys[k]!r} and {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"the weight of degree {k} must be a number, got {json.dumps(_plain(value))}")
        try:
            weights[k] = float(value)
        except OverflowError:
            raise ConfigurationError(
                f"the weight of degree {k} must be finite, got an integer too large "
                "for a float") from None
        keys[k] = key
    return weights


@dataclass(frozen=True)
class DegreeSpec:
    """A finite-support probability law (p_k) on degrees ``0..kmax``, with
    ``kmax`` at most ``MAX_DEGREE``."""

    kind: str
    params: tuple = ()
    levels: np.ndarray = field(repr=False, default=None)
    probs: np.ndarray = field(repr=False, default=None)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def _build(kind, params, levels, probs):
        levels = np.asarray(levels, dtype=np.int64)
        probs = np.asarray(probs, dtype=float)
        keep = probs > 0
        levels, probs = levels[keep], probs[keep]
        with np.errstate(over="ignore"):
            total = probs.sum()
        if not np.isfinite(total):
            law = ":".join([kind, *map("{:g}".format, params)])
            raise ConfigurationError(
                f"the {law} degree law needs weights with a finite total, got {total:g}")
        if len(levels) == 0 or total <= 0:
            raise ConfigurationError("degree distribution has no mass")
        probs = probs / total
        spec = DegreeSpec(kind=kind, params=tuple(params), levels=levels, probs=probs)
        if spec.mean() <= 0:
            raise ConfigurationError("degree distribution must have positive mean degree")
        return spec

    @classmethod
    def explicit(cls, weights):
        """Weight ``weights[k]`` on degree ``k``, each finite and nonnegative."""
        levels = sorted(map(int, weights))
        check_degree(degree=max(levels, default=0))
        for k in levels:
            if k < 0:
                raise ConfigurationError(f"degree {k} is negative")
            check_nonnegative(**{f"the weight of degree {k}": weights[k]})
        return cls._build("explicit", (), levels, [weights[k] for k in levels])

    @classmethod
    def poisson(cls, lam, kmax):
        check_finite(lam=lam)
        if lam <= 0:
            raise ConfigurationError("poisson mean must be positive")
        if kmax < 0:
            raise ConfigurationError("poisson kmax must be nonnegative")
        check_degree(kmax=kmax)
        k = np.arange(int(kmax) + 1)
        # relative to the mode m: p_k/p_m is a product of the ratios lam/j
        # above m and j/lam below it, each <= 1, so lam**k and k! never
        # overflow and no log k! is needed
        m = min(math.floor(lam), int(kmax))
        above = np.cumprod(lam / k[m + 1:])
        below = np.cumprod(k[m:0:-1] / lam)[::-1]
        pmf = np.concatenate((below, [1.0], above))
        return cls._build("poisson", (lam, kmax), k, pmf)

    @classmethod
    def geometric(cls, q, kmax):
        """p_k proportional to (1-q) q^k on 0..kmax."""
        check_finite(q=q)
        if not 0 < q < 1:
            raise ConfigurationError("geometric parameter must lie in (0,1)")
        check_degree(kmax=kmax)
        k = np.arange(int(kmax) + 1)
        return cls._build("geometric", (q, kmax), k, (1 - q) * q ** k)

    @classmethod
    def powerlaw(cls, alpha, kmin, kmax):
        """p_k proportional to k^-alpha on kmin..kmax."""
        check_finite(alpha=alpha)
        if kmin < 1 or kmax < kmin:
            raise ConfigurationError("powerlaw needs 1 <= kmin <= kmax")
        check_degree(kmax=kmax)
        k = np.arange(int(kmin), int(kmax) + 1)
        with np.errstate(over="ignore"):  # an infinite weight is refused by _build
            weights = k ** (-float(alpha))
        return cls._build("powerlaw", (alpha, kmin, kmax), k, weights)

    @classmethod
    def from_string(cls, text):
        """Parse the CLI mini-grammar: ``poisson:5:30``, ``geometric:0.5:50``,
        ``powerlaw:2.5:1:100``, or ``file:weights.json``."""
        name, _, rest = text.partition(":")
        try:
            if name == "poisson":
                lam, kmax = rest.split(":")
                return cls.poisson(float(lam), int(kmax))
            if name == "geometric":
                q, kmax = rest.split(":")
                return cls.geometric(float(q), int(kmax))
            if name == "powerlaw":
                alpha, kmin, kmax = rest.split(":")
                return cls.powerlaw(float(alpha), int(kmin), int(kmax))
            if name == "file":
                with open(rest) as fh:
                    pairs = json.load(fh, object_pairs_hook=tuple)
                if not isinstance(pairs, tuple):  # only a JSON object reads as a tuple
                    raise ConfigurationError(
                        "a degree file must hold a JSON object mapping degree to weight")
                return cls.explicit(_degree_weights(pairs))
        except ConfigurationError:
            raise
        except (ValueError, OverflowError, OSError) as exc:
            raise ConfigurationError(f"cannot parse degree spec {text!r}: {exc}") from exc
        raise ConfigurationError(f"unknown degree spec kind {name!r}")

    # -- statistics -----------------------------------------------------------

    def mean(self):
        return float(self.levels @ self.probs)

    def kmax(self):
        return int(self.levels[-1])

    def r0(self):
        """Mean of the size-biased ``(k-1)``-offspring law,
        ``sum_k (k-1) k p_k / sum_l l p_l``; > 1 flags a giant component."""
        mean = self.mean()
        if mean <= 0:
            raise ConfigurationError("reproduction criterion needs positive mean degree")
        return float(((self.levels - 1) * self.levels) @ self.probs / mean)

    def check_even_total(self, n):
        """Refuse an ``n`` whose i.i.d. degrees have an even total with chance
        ``(1 + c^n) / 2``, ``c = sum_k (-1)^k p_k``, below ``MIN_EVEN_TOTAL_CHANCE``."""
        check_population(n)
        chance = (1 + (2 * float(self.probs[self.levels % 2 == 0].sum()) - 1) ** n) / 2
        if chance < MIN_EVEN_TOTAL_CHANCE:
            raise ConfigurationError(
                f"n={n} degrees drawn from {json.dumps(self.describe())} have the even "
                f"total that a pairing of half-edges needs with chance {chance:.3g}, "
                f"below {MIN_EVEN_TOTAL_CHANCE:g}")

    def sample(self, n, rng):
        """Level counts over ``0..kmax`` of ``n`` i.i.d. degree draws given
        an even total: entry ``k`` is how many draws equal ``k``, one
        multinomial draw, redrawn until the total is even."""
        self.check_even_total(n)
        counts = np.zeros(self.kmax() + 1, dtype=np.int64)
        while True:
            counts[self.levels] = rng.multinomial(n, self.probs)
            if not self.levels @ counts[self.levels] % 2:
                return counts

    def limit_measure(self, mass=1.0):
        """The law as a weight vector over ``0..kmax`` with the given total
        mass."""
        weights = np.zeros(self.kmax() + 1)
        weights[self.levels] = self.probs * mass
        return weights

    def describe(self):
        if self.kind == "explicit":
            return {"kind": "explicit",
                    "weights": dict(zip(self.levels.tolist(), self.probs.tolist()))}
        return {"kind": self.kind, "params": list(self.params)}
