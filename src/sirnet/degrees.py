"""Degree distributions for configuration-model populations.

All parametric families are truncated at a finite ``kmax`` and renormalized,
so every distribution here has finite support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from sirnet.errors import ConfigurationError


@dataclass(frozen=True)
class DegreeSpec:
    """A finite-support probability law (p_k) on degrees ``0..kmax``."""

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
        total = probs.sum()
        if len(levels) == 0 or total <= 0:
            raise ConfigurationError("degree distribution has no mass")
        probs = probs / total
        spec = DegreeSpec(kind=kind, params=tuple(params), levels=levels, probs=probs)
        if spec.mean() <= 0:
            raise ConfigurationError("degree distribution must have positive mean degree")
        return spec

    @classmethod
    def explicit(cls, weights):
        levels = sorted(int(k) for k in weights)
        return cls._build("explicit", (), levels, [weights[k] for k in levels])

    @classmethod
    def poisson(cls, lam, kmax):
        if lam <= 0:
            raise ConfigurationError("poisson mean must be positive")
        k = np.arange(int(kmax) + 1)
        # in log space: lam**k and k! overflow long before the pmf does
        pmf = np.exp(k * math.log(lam) - gammaln(k + 1) - lam)
        return cls._build("poisson", (lam, kmax), k, pmf)

    @classmethod
    def geometric(cls, q, kmax):
        """p_k proportional to (1-q) q^k on 0..kmax."""
        if not 0 < q < 1:
            raise ConfigurationError("geometric parameter must lie in (0,1)")
        k = np.arange(int(kmax) + 1)
        return cls._build("geometric", (q, kmax), k, (1 - q) * q ** k)

    @classmethod
    def powerlaw(cls, alpha, kmin, kmax):
        """p_k proportional to k^-alpha on kmin..kmax."""
        if kmin < 1 or kmax < kmin:
            raise ConfigurationError("powerlaw needs 1 <= kmin <= kmax")
        k = np.arange(int(kmin), int(kmax) + 1)
        return cls._build("powerlaw", (alpha, kmin, kmax), k, k ** (-float(alpha)))

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
                    weights = {int(k): float(v) for k, v in json.load(fh).items()}
                return cls.explicit(weights)
        except ConfigurationError:
            raise
        except (ValueError, OSError) as exc:
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

    def sample(self, n, rng):
        """n i.i.d. degree draws."""
        if n < 1:
            raise ConfigurationError("population size must be >= 1")
        return rng.choice(self.levels, size=n, p=self.probs)

    def limit_measure(self, mass=1.0):
        """The law as a weight vector over ``0..kmax`` with the given total
        mass."""
        weights = np.zeros(self.kmax() + 1)
        weights[self.levels] = self.probs * mass
        return weights

    def describe(self):
        if self.kind == "explicit":
            return {"kind": "explicit", "weights": {int(k): float(p) for k, p in zip(self.levels, self.probs)}}
        return {"kind": self.kind, "params": list(self.params)}
