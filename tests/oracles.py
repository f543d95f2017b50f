"""Independent oracles shared by the sampler, simulator and limit-solver tests.

The pmfs here are computed from first principles (binomial coefficients)
without touching the package's samplers.
:func:`replay_law` computes the exact law of a sampler it is handed by
running it on every possible sequence of integer draws.
:func:`influx_uncollapsed` and :func:`volz_rhs_polyval` restate two
limit-solver formulas without the package's shortcuts, and
:func:`influx_exact` evaluates the influx in exact rational arithmetic.
:func:`check_invariants` re-derives a simulator state's running totals
from its level vectors."""

import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

from sirnet.errors import StateCorruptionError


def check_invariants(state, mu_S0):
    """Re-derive the totals of a :class:`PopulationState` from its level
    vectors; raise :class:`StateCorruptionError` on a negative level, a
    drifted total, or ``mu_S`` gaining an atom over the initial ``mu_S0``."""
    vectors = {"mu_S": state.mu_S, "mu_IS": state.mu_IS, "mu_RS": state.mu_RS}
    for name, mu in vectors.items():
        if min(mu) < 0:
            raise StateCorruptionError(f"{name} has a negative level")
    masses = tuple(sum(mu) for mu in vectors.values())
    edges = tuple(sum(k * c for k, c in enumerate(mu)) for mu in vectors.values())
    if masses + edges != state.row():
        raise StateCorruptionError(
            f"running totals {state.row()} drifted from {masses + edges}"
        )
    if any(c > c0 for c, c0 in zip(state.mu_S, mu_S0)):
        raise StateCorruptionError("mu_S gained an atom over mu_S0")


def jl_oracle_pmf(k, n_S, n_IS, n_RS):
    """Joint pmf of (j, l): multivariate hypergeometric over the pool of
    n_S - 1 half-edges (n_IS - 1 infectious-side, n_RS removed-side),
    drawn k - 1 times without replacement."""
    n_SS = n_S - n_IS - n_RS
    draws = k - 1
    denom = math.comb(n_S - 1, draws)
    pmf = {}
    for j in range(min(n_IS - 1, draws) + 1):
        for l in range(min(n_RS, draws - j) + 1):
            m = draws - j - l
            if m > n_SS:
                continue
            p = math.comb(n_IS - 1, j) * math.comb(n_RS, l) * math.comb(n_SS, m) / denom
            if p > 0:
                pmf[(j, l)] = p
    return pmf


def allocation_oracle_pmf(counts, n):
    """Pmf of per-individual multiplicities when each n-subset of the
    labelled half-edges is equally likely: P(u) = prod C(c_i,u_i) / C(C,n)."""
    total = sum(counts)
    denom = math.comb(total, n)
    pmf = {}
    for u in itertools.product(*[range(c + 1) for c in counts]):
        if sum(u) != n:
            continue
        num = 1
        for c, ui in zip(counts, u):
            num *= math.comb(c, ui)
        if num:
            pmf[u] = num / denom
    return pmf


def level_counts(counts):
    """A roster of per-individual edge counts as a level measure: the
    tuple ``mu`` over levels ``0..max(counts)`` with ``mu[i]`` individuals
    holding ``i`` edges."""
    mu = [0] * (max(counts, default=0) + 1)
    for c in counts:
        mu[c] += 1
    return tuple(mu)


def aggregate_to_levels(counts, pmf):
    """Push a pmf over per-individual multiplicities ``u`` forward to the
    level measure left behind, ``level_counts(c - u)``; individuals at one
    level are exchangeable, so this is all the simulation state keeps."""
    size = max(counts, default=0) + 1
    out = {}
    for u, p in pmf.items():
        mu = [0] * size
        for c, ui in zip(counts, u):
            mu[c - ui] += 1
        key = tuple(mu)
        out[key] = out.get(key, 0.0) + p
    return out


def level_pick_chain_pmf(mu, n):
    """Analytic law of the level-pick chain: ``n`` sequential picks, each of
    level ``i`` with probability ``i mu(i) / sum_k k mu(k)``, each moving
    one individual from level ``i`` to ``i - 1``."""
    law = {tuple(mu): 1.0}
    for _ in range(n):
        nxt = {}
        for state, p in law.items():
            total = sum(i * m for i, m in enumerate(state))
            for i, m in enumerate(state):
                if i and m:
                    moved = list(state)
                    moved[i] -= 1
                    moved[i - 1] += 1
                    key = tuple(moved)
                    nxt[key] = nxt.get(key, 0.0) + p * i * m / total
        law = nxt
    return law


class _Branch(Exception):
    def __init__(self, n):
        super().__init__(n)
        self.n = n


class ScriptedDraws:
    """Stands in for the simulator's draw source: returns a fixed prefix of
    integer draws, then stops the caller to ask for the next one."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.pos = 0

    def below(self, n):
        if self.pos == len(self.prefix):
            raise _Branch(n)
        x = self.prefix[self.pos]
        self.pos += 1
        assert 0 <= x < n
        return x


def replay_law(run):
    """Exact law of ``run(draws)``'s return value when every integer draw
    ``draws.below(n)`` is uniform on ``0..n-1``: ``run`` is replayed on
    every sequence of draws it can ask for.  The work grows like the number
    of such sequences, so keep the inputs small."""
    law = {}
    stack = [((), 1.0)]
    while stack:
        prefix, p = stack.pop()
        try:
            outcome = run(ScriptedDraws(prefix))
        except _Branch as branch:
            stack.extend((prefix + (x,), p / branch.n) for x in range(branch.n))
            continue
        law[outcome] = law.get(outcome, 0.0) + p
    return law


def influx_uncollapsed(mu_S_weights, pS, pI, pR, K):
    """Brute-force multinomial double sum for the rate profile of new
    infectives entering with i edges-to-S: a size-biased degree-k node's
    remaining k-1 half-edges split into (i, j, l) susceptible / infectious /
    removed alters with multinomial probabilities."""
    out = [0.0] * (K + 1)
    kmax = len(mu_S_weights) - 1
    for i in range(K + 1):
        acc = 0.0
        for k in range(i + 1, kmax + 1):
            for j in range(k - 1 - i + 1):
                l = k - 1 - i - j
                coef = math.factorial(k - 1) / (
                    math.factorial(i) * math.factorial(j) * math.factorial(l)
                )
                acc += k * mu_S_weights[k] * coef * pS**i * pI**j * pR**l
        out[i] = acc
    return out


def influx_exact(mu_S0_weights, pS, pI, pR, theta=1.0):
    """The influx profile ``influx(i) = sum_k k mu_S(k) C(k-1, i) pS^i
    (pI+pR)^(k-1-i)`` at ``mu_S(k) = mu_S0(k) theta^k``, computed exactly
    from the float inputs (``math.comb`` binomials, no overflow or
    cancellation) and rounded once to floats.

    Every float is a dyadic rational, so ``k mu_S(k) = a_k / 2^e_k`` and
    ``(pI+pR)^j = c_j / 2^f_j``; each level sums its integer terms over
    one common power of two before the one rational division."""
    def dyadic(x):
        return x.numerator, x.denominator.bit_length() - 1

    w = [Fraction(float(x)) for x in mu_S0_weights]
    pS, theta = Fraction(float(pS)), Fraction(float(theta))
    q = Fraction(float(pI)) + Fraction(float(pR))
    kmax = len(w) - 1
    size_biased = [dyadic(k * w[k] * theta**k) for k in range(kmax + 1)]
    q_pow = [dyadic(q**j) for j in range(kmax)]
    top = max(e for _, e in size_biased) + max(f for _, f in q_pow)
    out = []
    for i in range(kmax + 1):
        acc = 0
        for k in range(i + 1, kmax + 1):
            (a, e), (c, f) = size_biased[k], q_pow[k - 1 - i]
            if a:
                acc += (a * math.comb(k - 1, i) * c) << (top - e - f)
        out.append(float(Fraction(acc, 1 << top) * pS**i))
    return out


def volz_rhs_polyval(mu_S0, r, beta):
    """The edge-based (Volz) right-hand side with ``g'`` and ``g''`` of
    ``mu_S0`` evaluated by ``numpy.polynomial.polynomial.polyval`` on numpy
    scalars, term by term as the package states it: ``rhs(y)`` over the
    state ``(theta, I, R, pI, pS, pR, N_IS, N_RS, N_S_aux)``."""
    d1 = P.polyder(np.asarray(mu_S0, dtype=float), 1)
    d2 = P.polyder(np.asarray(mu_S0, dtype=float), 2)

    def rhs(y):
        theta, I, R, pI, pS, pR, N_IS, N_RS, N_S_aux = y
        g1 = float(P.polyval(theta, d1))
        g2 = float(P.polyval(theta, d2))
        ratio = theta * g2 / g1 if g1 > 1e-12 else 0.0
        d = np.empty(9)
        d[0] = -r * pI * theta
        d[1] = r * pI * theta * g1 - beta * I
        d[2] = beta * I
        d[3] = r * pI * pS * ratio - r * pI * (1.0 - pI) - beta * pI
        d[4] = r * pI * pS * (1.0 - ratio)
        d[5] = beta * pI + r * pI * pR
        d[6] = r * pI * ((pS - pI) * theta * theta * g2 - theta * g1) - beta * N_IS
        d[7] = beta * N_IS - r * pR * pI * theta * theta * g2
        d[8] = -r * theta * pI * (g1 + theta * g2)
        return d

    return rhs


def jl_pool_configurations(max_n_S):
    """Every feasible pool configuration (k, n_S, n_IS, n_RS) with
    n_S <= max_n_S: at least one infectious edge, k - 1 <= n_S - 1."""
    out = []
    for n_S in range(1, max_n_S + 1):
        for n_IS in range(1, n_S + 1):
            for n_RS in range(0, n_S - n_IS + 1):
                for k in range(1, n_S + 1):
                    out.append((k, n_S, n_IS, n_RS))
    return out


def small_rosters(max_individuals=4, max_count=4):
    """All nondecreasing rosters with the given size and entry caps."""
    out = []

    def rec(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        if remaining == 0:
            return
        start = prefix[-1] if prefix else 1
        for c in range(start, max_count + 1):
            rec(prefix + [c], remaining - 1)

    rec([], max_individuals)
    return out
