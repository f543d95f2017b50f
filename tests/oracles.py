"""Independent combinatorial oracles shared by sampler tests.

The pmfs here are computed from first principles (binomial coefficients,
scipy hypergeometric pmfs) without touching the package's samplers.
:func:`replay_law` computes the exact law of a sampler it is handed by
running it on every possible sequence of integer draws."""

import itertools
import math

from scipy import stats


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


def jl_chain_pmf(k, n_S, n_IS, n_RS):
    """Analytic law of the sequential two-stage hypergeometric sampler."""
    draws = k - 1
    if draws == 0:
        return {(0, 0): 1.0}
    pmf = {}
    for j in range(draws + 1):
        pj = 1.0 if n_S - 1 == 0 else stats.hypergeom.pmf(j, n_S - 1, n_IS - 1, draws)
        if not pj > 0:
            continue
        for l in range(draws - j + 1):
            if draws - j == 0:
                pl = 1.0 if l == 0 else 0.0
            else:
                pl = stats.hypergeom.pmf(l, n_S - n_IS, n_RS, draws - j)
            if pj * pl > 0:
                pmf[(j, l)] = pj * pl
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
