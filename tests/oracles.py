"""Independent oracles shared by the sampler, simulator and limit-solver tests.

The pmfs here are computed from first principles (binomial coefficients)
without touching the package's samplers.
:func:`replay_law` computes the exact law of a sampler it is handed by
running it on every possible sequence of integer draws, and
:func:`all_matched_levels` runs the production (j, l) sampler where every
half-edge it draws is matched, which makes it a uniform subset sampler.
:func:`influx_uncollapsed` and :func:`volz_rhs_polyval` restate two
limit-solver formulas without the package's shortcuts,
:func:`volz_rhs_moments` restates the edge-based right-hand side on numpy
arrays,
:func:`influx_exact` evaluates the influx in exact rational arithmetic,
:func:`influx_table_full_shape` builds the influx table in one full-shape
pass, :func:`influx_kernel_full` selects from it the entries that the
package's table keeps,
and :func:`measure_rhs_reference` writes the measure system's right-hand
side level by level.
:func:`check_invariants` re-derives a simulator state's running totals
from its level vectors; :func:`grid_rows_from_events` re-derives the grid
rows of a run from its event log, and :func:`trajectory_csv_lines` and
:func:`solution_csv_lines` format a trajectory or a limit solve one row at
a time.  :func:`convergence_rows_reference` builds
a convergence report's rows with each sup-distance and each replica's
exit time from a plain loop over the replica's rows.
:func:`explicit_path_law` is the exact law of a whole epidemic's measure
path on every explicit configuration-model pairing of a tiny population,
and :func:`explicit_sir_grid` runs one epidemic on one such pairing of a
population of any size.  :func:`outbreak_probability` is the chance that
one infective starts a major outbreak, from the branching process of the
early epidemic with :func:`transmission_pgf`'s exact offspring law."""

import bisect
import collections
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P

from sirnet.errors import StateCorruptionError
from sirnet.harness import COMPARED
from sirnet.simulation import GRID_TIE, sample_jl


def check_invariants(state, mu_S0):
    """Re-derive the totals of a :class:`PopulationState` from its level
    vectors; raise :class:`StateCorruptionError` on a negative level, a
    drifted total, ``mu_S`` gaining an atom over the initial ``mu_S0``, or
    totals that no pairing of half-edges has: ``N_IS + N_RS > N_S``, or an
    odd open pool ``N_S - N_IS - N_RS``."""
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
    open_pool = state.N_S - state.N_IS - state.N_RS
    if open_pool < 0 or open_pool % 2:
        raise StateCorruptionError(f"no pairing has an open pool of {open_pool} half-edges")


def grid_rows_from_events(start, events, grid, n_grid, t_max):
    """The recorded rows of a run from its log, without the event loop.

    ``start`` is the record (row, snapshot) before the first event and
    ``events`` the ``(t, record)`` after each event.  The grid times are
    ``i * grid`` for ``i = 0..n_grid`` up to ``t_max + GRID_TIE``.  The
    record at grid time ``g`` is the one after the last event at a time
    ``t`` with ``g > t + GRID_TIE``: an event within ``GRID_TIE`` of a grid
    time counts as after it.  Returns the times and the records."""
    shifted = [t + GRID_TIE for t, _ in events]  # nondecreasing, as the times are
    records = [start] + [record for _, record in events]
    times = [i * grid for i in range(n_grid + 1) if i * grid <= t_max + GRID_TIE]
    return times, [records[bisect.bisect_left(shifted, g)] for g in times]


def trajectory_csv_lines(traj):
    """A trajectory's CSV, formatted one row at a time with the time to
    10 significant digits and the six counts as integers."""
    yield ",".join(traj.COLUMNS)
    for t, row in zip(traj.times, traj.counts):
        yield f"{t:.10g}," + ",".join(str(int(c)) for c in row)


def solution_csv_lines(sol, names):
    """A limit solve's CSV: the header ``names``, then per time each named
    column formatted on its own with 12 significant digits."""
    yield ",".join(names)
    cols = [sol.column(name) for name in names]
    for i in range(len(sol.t)):
        yield ",".join("%.12g" % float(col[i]) for col in cols)


def exit_time(times, n_IS, eps_prime):
    """The first grid time whose per-capita ``N_IS`` is below ``eps_prime``;
    ``inf`` if there is none."""
    for t, value in zip(times, n_IS):
        if value < eps_prime:
            return float(t)
    return math.inf


def convergence_rows_reference(replicas, limit, eps_prime, tau_bar, t_end):
    """The rows of :func:`sirnet.harness.convergence_report` over the
    records of ``replicas``, ``(n, rep, Trajectory)`` triples, built per
    (n, column) from the replicas' rows.  A replica's window is its grid
    rows up to ``t_end + GRID_TIE``; each sup-distance is a loop over them
    of the count divided by ``n`` against the ``limit`` table's entry of
    the same index, and each exit time comes from :func:`exit_time` over
    them."""
    by_n = {}
    for n, rep, traj in replicas:
        by_n.setdefault(n, []).append((rep, traj))
    rows = []
    for n in sorted(by_n):
        group = []  # per replica, in rep order: its window's times and per-capita rows
        for _, traj in sorted(by_n[n], key=lambda item: item[0]):
            window = [(float(t), [int(c) / n for c in row])
                      for t, row in zip(traj.times, traj.counts) if t <= t_end + GRID_TIE]
            group.append(window)
        N_IS = COMPARED.index("N_IS")
        frac = float(np.mean([exit_time([t for t, _ in window],
                                        [row[N_IS] for _, row in window], eps_prime) >= tau_bar
                              for window in group]))
        for c, col in enumerate(COMPARED):
            dists = []
            for window in group:
                sup = 0.0
                for (_, row), b in zip(window, limit[c]):
                    sup = max(sup, abs(row[c] - float(b)))
                dists.append(sup)
            dists = np.array(dists)
            rows.append({
                "n": n,
                "reps": len(group),
                "col": col,
                "mean_sup_dist": float(dists.mean()),
                "stderr": (float(dists.std(ddof=1) / np.sqrt(len(dists)))
                           if (dists != dists[0]).any() else 0.0),
                "frac_tau_ge_bound": frac,
            })
    return rows


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


def _double_factorial(n):
    """``n!! = n (n-2) (n-4) ...``, the number of perfect matchings of
    ``n + 1`` points; ``(-1)!! = 1``."""
    return math.prod(range(n, 0, -2))


def self_pair_oracle_pmf(m, pool):
    """Law of the number ``p`` of pairs among ``m`` marked points in a
    uniform perfect matching of ``pool`` points, counted over matchings:
    ``C(m, 2p) (2p-1)!!`` ways to pair ``2p`` marked points among
    themselves, ``(pool-m)! / (pool-2m+2p)!`` to give the other ``m-2p``
    distinct unmarked partners, and ``(pool-2m+2p-1)!!`` to match the
    unmarked rest, over all ``(pool-1)!!`` matchings."""
    pmf = {}
    for p in range(m // 2 + 1):
        rest = pool - 2 * m + 2 * p  # unmarked points left unpaired to marked ones
        if rest >= 0:
            ways = (math.comb(m, 2 * p) * _double_factorial(2 * p - 1)
                    * math.perm(pool - m, m - 2 * p) * _double_factorial(rest - 1))
            pmf[p] = ways / _double_factorial(pool - 1)
    return pmf


def infection_oracle_pmf(counts_IS, counts_RS, n_S, k, size):
    """Law of the level measures ``(mu_IS, mu_RS)``, each a tuple over
    ``0..size-1``, after one infection of a degree-``k`` susceptible.  The
    infectives hold ``counts_IS`` edges-to-S, the removed ``counts_RS``,
    and the susceptibles ``n_S`` half-edges.  ``(j, l)`` has the law
    :func:`jl_oracle_pmf`; given it, the ``j + 1`` infectious half-edges
    taken, the contaminating one included, are a uniform subset of all of
    them, the ``l`` removed ones a uniform subset of theirs, and the number
    ``p`` of pairs among her ``m = k - 1 - j - l`` open half-edges has the
    law :func:`self_pair_oracle_pmf` in the open pool of ``n_S - N_IS -
    N_RS``, independently; the new infective enters at level ``m - 2p``."""
    def padded(mu):
        return list(mu) + [0] * (size - len(mu))

    law = {}
    pool = n_S - sum(counts_IS) - sum(counts_RS)
    jl = jl_oracle_pmf(k, n_S, sum(counts_IS), sum(counts_RS))
    for (j, l), p in jl.items():
        infectious = aggregate_to_levels(counts_IS, allocation_oracle_pmf(list(counts_IS), j + 1))
        removed = aggregate_to_levels(counts_RS, allocation_oracle_pmf(list(counts_RS), l))
        m = k - 1 - j - l
        for pairs, p_pairs in self_pair_oracle_pmf(m, pool).items():
            for mu_IS, p_IS in infectious.items():
                mu_IS = padded(mu_IS)
                mu_IS[m - 2 * pairs] += 1
                for mu_RS, p_RS in removed.items():
                    key = (tuple(mu_IS), tuple(padded(mu_RS)))
                    law[key] = law.get(key, 0.0) + p * p_pairs * p_IS * p_RS
    return law


def all_matched_levels(mu, n, draws, removed=False):
    """The level measure ``mu`` (a roster, see :func:`level_counts`) after
    :func:`sirnet.simulation.sample_jl` matches ``n`` half-edges of a
    degree-``(n+1)`` infective to it.  Every other pool half-edge is held
    by ``mu``, on the infectious side (``a = N_S - 1``, ``b = 0``) or with
    ``removed`` on the removed side (``a = 0``), so each draw is matched
    and the ``n`` taken are a uniform ``n``-subset of ``mu``'s half-edges:
    the allocation law."""
    levels = list(mu)
    total = sum(i * c for i, c in enumerate(levels))
    if removed:
        sample_jl(n + 1, total + 1, 1, total, [0], levels, draws)
    else:
        sample_jl(n + 1, total + 1, total + 1, 0, levels, [0], draws)
    return tuple(levels)


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


def replay_law(run, one=1.0):
    """Exact law of ``run(draws)``'s return value when every integer draw
    ``draws.below(n)`` is uniform on ``0..n-1``: ``run`` is replayed on
    every sequence of draws it can ask for.  Probabilities are ``one``
    divided by the draws' ranges, so ``one=Fraction(1)`` keeps them exact.
    The work grows like the number of such sequences, so keep the inputs
    small."""
    law = {}
    stack = [((), one)]
    while stack:
        prefix, p = stack.pop()
        try:
            outcome = run(ScriptedDraws(prefix))
        except _Branch as branch:
            stack.extend((prefix + (x,), p / branch.n) for x in range(branch.n))
            continue
        law[outcome] = law.get(outcome, 0) + p
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


def influx_table_full_shape(mu_S0_weights, block=64):
    """The influx table of :func:`sirnet.limit.influx_kernel` built at once
    over its full ``(block, blocks, kmax+1)`` shape: every depth
    ``d = r + block*b`` and level ``i``, with ``log T[d, i] = log (i+d)! -
    log i! - log d! + log((i+d+1) mu_S0(i+d+1))``, ``-inf`` past ``kmax``,
    less the maximum ``M`` of each block and level, then exponentiated.
    Returns ``(U, M)``, ``M`` of shape ``(blocks, kmax+1)``."""
    w = np.asarray(mu_S0_weights, dtype=float)
    kmax = len(w) - 1
    blocks = -(-kmax // block)
    i = np.arange(kmax + 1)
    d = (np.arange(block)[:, None] + block * np.arange(blocks))[:, :, None]
    n = i + d
    outside = n >= kmax
    n = np.minimum(n, kmax - 1)
    log_fact = np.array([math.lgamma(m + 1) for m in range(kmax + 1)])
    with np.errstate(divide="ignore"):
        log_kw = np.log(np.arange(kmax + 1) * w)
    log_T = log_fact[n] - log_fact[i] - log_fact[np.minimum(d, kmax)] + log_kw[n + 1]
    log_T[outside] = -np.inf
    M = log_T.max(axis=0)
    return np.exp(log_T - np.where(np.isfinite(M), M, 0.0)), M


def influx_kept(kmax, block=64):
    """The mask over :func:`influx_table_full_shape`'s ``U`` of the entries
    that :func:`sirnet.limit.influx_kernel` keeps: depth row
    ``r < min(block, kmax)`` and, in block ``b``, level ``i < kmax - block*b``."""
    blocks = -(-kmax // block)
    r = np.arange(block)[:, None, None]
    b = np.arange(blocks)[:, None]
    i = np.arange(kmax + 1)
    return (r < min(block, kmax)) & (i < kmax - block * b)


def influx_kernel_full(mu_S0_weights, block=64):
    """The influx table ``(U, P, coef, depths, level, levels)`` of
    :func:`sirnet.limit.influx_kernel`, taken from
    :func:`influx_table_full_shape`: the first ``min(block, kmax)`` depth
    rows and, in block ``b``, the levels ``i < kmax - block*b``, the blocks
    side by side; ``P`` stacks ``M``, ``i``, ``block*b`` and ``1`` over
    the kept columns, and ``coef`` is four ones."""
    U, M = influx_table_full_shape(mu_S0_weights, block)
    kmax = M.shape[1] - 1
    rows = min(block, kmax)
    widths = [kmax - block * b for b in range(len(M))]
    level = np.concatenate([np.arange(width) for width in widths])
    P = np.stack((
        np.concatenate([M[b, :width] for b, width in enumerate(widths)]),
        level.astype(float),
        np.concatenate([np.full(width, float(block * b)) for b, width in enumerate(widths)]),
        np.ones(len(level)),
    ))
    U = np.concatenate([U[:rows, b, :width] for b, width in enumerate(widths)], axis=1)
    return U, P, np.ones(4), np.arange(float(rows)), level, kmax + 1


def measure_rhs_reference(y, mu_S0, r, beta):
    """The measure system's right-hand side at the packed state
    ``y = [theta, mu_IS(0..kmax), mu_RS(0..kmax)]``, one level at a time
    as the paper writes its three equations, with the influx of
    :func:`influx_uncollapsed` at ``mu_S(k) = mu_S0(k) max(theta, 0)^k``::

        theta' = -r pI theta
        mu_IS'(i) = r pI influx(i) + r (1 + pI rho) shift(mu_IS)(i) - beta mu_IS(i)
        mu_RS'(i) = beta mu_IS(i) + r pI rho shift(mu_RS)(i)

    with ``shift(mu)(i) = (i+1) mu(i+1) - i mu(i)``, ``mu(kmax+1) = 0``;
    zero throughout once ``N_S`` is at most ``1e-12``."""
    levels = len(mu_S0)
    theta = float(y[0])
    mu_IS = [float(v) for v in y[1:levels + 1]]
    mu_RS = [float(v) for v in y[levels + 1:]]
    mu_S = [float(w) * max(theta, 0.0) ** k for k, w in enumerate(mu_S0)]
    N_S = sum(k * m for k, m in enumerate(mu_S))
    if N_S <= 1e-12:
        return np.zeros(len(y))
    pI = sum(k * m for k, m in enumerate(mu_IS)) / N_S
    pR = sum(k * m for k, m in enumerate(mu_RS)) / N_S
    pS = 1.0 - pI - pR
    rho = sum(k * (k - 1) * m for k, m in enumerate(mu_S)) / N_S
    influx = influx_uncollapsed(mu_S, pS, pI, pR, levels - 1)

    def shift(mu, i):
        return (i + 1) * (mu[i + 1] if i + 1 < levels else 0.0) - i * mu[i]

    d_IS = [r * pI * influx[i] + r * (1 + pI * rho) * shift(mu_IS, i) - beta * mu_IS[i]
            for i in range(levels)]
    d_RS = [beta * mu_IS[i] + r * pI * rho * shift(mu_RS, i) for i in range(levels)]
    return np.array([-r * pI * theta] + d_IS + d_RS)


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


def volz_rhs_moments(mu_S0, r, beta):
    """The edge-based (Volz) right-hand side on numpy arrays, for rk4's
    array path: ``N_S`` and ``N_S rho`` are the first two entries of
    ``np.dot(moments, theta ** k)`` over the package's table of
    ``k mu_S0(k)``, ``k(k-1) mu_S0(k)``, ``mu_S0(k)`` and
    ``(k+1) mu_S0(k+1)``, and every term is written out as the package
    states it, so the same state gives the same bits as the package's
    float path.  ``rhs(y)`` over the state
    ``(theta, I, R, pI, pS, pR, N_IS, N_RS, N_S_aux)``."""
    w = np.asarray(mu_S0, dtype=float)
    k = np.arange(len(w), dtype=float)
    moments = np.stack((k * w, k * (k - 1) * w, w, np.append(k[1:] * w[1:], 0.0)))

    def rhs(y):
        theta, I, R, pI, pS, pR, N_IS, N_RS, N_S_aux = y
        N_S, N_S_rho, _, _ = np.dot(moments, theta ** k)
        rho = N_S_rho / N_S if N_S > 1e-12 else 0.0
        d = np.empty(9)
        d[0] = -r * pI * theta
        d[1] = r * pI * N_S - beta * I
        d[2] = beta * I
        d[3] = r * pI * pS * rho - r * pI * (1.0 - pI) - beta * pI
        d[4] = r * pI * pS * (1.0 - rho)
        d[5] = beta * pI + r * pI * pR
        d[6] = r * pI * ((pS - pI) * N_S_rho - N_S) - beta * N_IS
        d[7] = beta * N_IS - r * pR * pI * N_S_rho
        d[8] = -r * pI * (N_S + N_S_rho)
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


def _matchings(half_edges):
    """Every perfect matching of ``half_edges``, a list of pairs each."""
    if not half_edges:
        yield []
        return
    first, rest = half_edges[0], half_edges[1:]
    for i, other in enumerate(rest):
        for matching in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + matching


def _sir_path_law(edges, degrees, status, r, beta, size):
    """Exact law of the projected path of the SIR jump chain on the
    multigraph ``edges`` (vertex pairs, loops and repeats included) from
    the vertex ``status`` tuple (``"S"``, ``"I"``, ``"R"``) until no vertex
    is infectious.  Each I-S edge fires at rate ``r`` and makes its
    susceptible end infectious, a loop never does, and each infective is
    removed at rate ``beta``.  A state projects to ``(mu_S, mu_IS,
    mu_RS)`` over levels ``0..size-1``: susceptibles by degree, infectives
    and removed by their number of edges to susceptibles."""

    def project(status):
        mu = {"S": [0] * size, "I": [0] * size, "R": [0] * size}
        to_S = [0] * len(status)
        for u, v in edges:
            if u != v:
                to_S[u] += status[v] == "S"
                to_S[v] += status[u] == "S"
        for x, kind in enumerate(status):
            mu[kind][degrees[x] if kind == "S" else to_S[x]] += 1
        return tuple(tuple(mu[kind]) for kind in "SIR")

    @functools.cache
    def law_from(status):
        here = project(status)
        moves = []
        for u, v in edges:
            for a, b in ((u, v), (v, u)):
                if status[a] == "I" and status[b] == "S":
                    moves.append((r, status[:b] + ("I",) + status[b + 1:]))
        moves += [(beta, status[:x] + ("R",) + status[x + 1:])
                  for x, kind in enumerate(status) if kind == "I"]
        if not moves:
            return {(here,): Fraction(1)}
        total = sum(rate for rate, _ in moves)
        law = {}
        for rate, nxt in moves:
            for path, p in law_from(nxt).items():
                law[(here,) + path] = law.get((here,) + path, 0) + rate / total * p
        return law

    return law_from(status)


def explicit_path_law(mu_S, mu_IS, r, beta):
    """Exact law of the projected path of an SIR epidemic on an explicit
    configuration-model multigraph, until no vertex is infectious.

    The vertices are ``mu_S[k]`` susceptibles and ``mu_IS[k]`` infectives
    of each degree ``k``.  Every initial pairing of their half-edges is
    equally likely: each infective half-edge pairs with a distinct
    susceptible half-edge, and the rest form a uniform perfect matching,
    loops and multi-edges included.  On each multigraph the path law is
    :func:`_sir_path_law`'s, in ``Fraction`` arithmetic; ``r`` and
    ``beta`` should be ``Fraction`` or ``int``."""
    size = len(mu_S)
    degrees = [k for mu in (mu_S, mu_IS) for k, c in enumerate(mu) for _ in range(c)]
    status = tuple("S" * sum(mu_S) + "I" * sum(mu_IS))
    half = [x for x, d in enumerate(degrees) for _ in range(d)]  # owner of each half-edge
    infective = [h for h, x in enumerate(half) if status[x] == "I"]
    susceptible = [h for h, x in enumerate(half) if status[x] == "S"]
    pairings = [
        list(zip(infective, image)) + matching
        for image in itertools.permutations(susceptible, len(infective))
        for matching in _matchings([h for h in susceptible if h not in image])
    ]
    # pairings that make one multigraph share its path law
    graphs = collections.Counter(
        tuple(sorted(tuple(sorted((half[a], half[b]))) for a, b in pairing))
        for pairing in pairings)
    law = {}
    for edges, count in graphs.items():
        for path, p in _sir_path_law(edges, degrees, status, r, beta, size).items():
            law[path] = law.get(path, 0) + p * count / len(pairings)
    return law


def explicit_sir_grid(counts, i0, r, beta, t_max, grid, rng):
    """``(S, I)`` at every grid time ``i * grid <= t_max + GRID_TIE`` of a
    Gillespie SIR epidemic on an explicit configuration-model multigraph,
    drawn with the ``random.Random`` ``rng``.

    ``counts[k]`` labelled vertices have degree ``k``, and a uniform
    ``ceil(i0 n)`` of them start infectious.  Each infective half-edge
    pairs with a distinct uniform susceptible half-edge, and the rest form
    a uniform matching, loops and multi-edges included (van der Hofstad,
    *Random Graphs and Complex Networks* vol. 1, 2017, ch. 7); the total
    degree must leave them an even number.  Each I-S edge fires at rate
    ``r``, a loop never, and each infective is removed at rate ``beta``.
    Every vertex keeps its count of edges to susceptibles, so an event
    updates its vertices' neighbours only, besides one scan over the
    infectives to pick the edge that fires.  The row at a grid time holds
    the state after every event before it."""
    degrees = [k for k, c in enumerate(counts) for _ in range(c)]
    n = len(degrees)
    status = ["S"] * n
    infectives = rng.sample(range(n), math.ceil(i0 * n))
    for v in infectives:
        status[v] = "I"
    owner = [v for v, d in enumerate(degrees) for _ in range(d)]
    from_I = [h for h, v in enumerate(owner) if status[v] == "I"]
    from_S = [h for h, v in enumerate(owner) if status[v] == "S"]
    partners = rng.sample(from_S, len(from_I))
    taken = set(partners)
    rest = [h for h in from_S if h not in taken]
    if len(rest) % 2:
        raise ValueError("an odd number of half-edges is left to match")
    rng.shuffle(rest)
    neighbours = [[] for _ in range(n)]
    for a, b in itertools.chain(zip(from_I, partners), zip(rest[::2], rest[1::2])):
        u, v = owner[a], owner[b]
        if u != v:  # a loop never transmits
            neighbours[u].append(v)
            neighbours[v].append(u)
    to_S = [sum(status[w] == "S" for w in nbrs) for nbrs in neighbours]
    N_IS = sum(to_S[v] for v in infectives)
    S, I = n - len(infectives), len(infectives)
    grid_times = [i * grid for i in range(math.ceil(t_max / grid) + 1)
                  if i * grid <= t_max + GRID_TIE]
    rows, t = [], 0.0
    while True:
        rate = r * N_IS + beta * I
        t_next = t + rng.expovariate(rate) if rate > 0 else math.inf
        while len(rows) < len(grid_times) and grid_times[len(rows)] < t_next:
            rows.append((S, I))
        if len(rows) == len(grid_times):
            return rows
        t = t_next
        if rng.random() * rate < beta * I:
            i = rng.randrange(I)
            v = infectives[i]
            infectives[i] = infectives[-1]
            infectives.pop()
            status[v] = "R"
            N_IS -= to_S[v]
            I -= 1
            continue
        x = rng.randrange(N_IS)
        for v in infectives:
            x -= to_S[v]
            if x < 0:
                break
        u = rng.choice([w for w in neighbours[v] if status[w] == "S"])
        status[u] = "I"
        infectives.append(u)
        for w in neighbours[u]:
            to_S[w] -= 1
            N_IS -= status[w] == "I"
        N_IS += to_S[u]
        S -= 1
        I += 1


def transmission_pgf(m, r, beta, s):
    """``E[s^J]`` for the number ``J`` of an infective's ``m`` I-S edges that
    transmit before she is removed.  Each edge fires at rate ``r`` and she
    is removed at rate ``beta``, so after ``j`` transmissions the next event
    is one more with chance ``(m-j) r / ((m-j) r + beta)``; the edges share
    her infectious period, so they do not transmit independently.  Exact in
    ``Fraction`` arithmetic when ``r``, ``beta`` and ``s`` are."""
    total, reach = 0, 1  # reach: P(J >= j)
    for j in range(m):
        go = (m - j) * r / ((m - j) * r + beta)
        total += reach * (1 - go) * s**j
        reach *= go
    return total + reach * s**m


def outbreak_probability(spec, r, beta, pgf=None):
    """The chance of a major outbreak from one infective of a degree drawn
    from ``spec``, on the branching process of the early epidemic (Ball,
    Sirl & Trapman 2009).  A new infective of the size-biased degree ``k``
    holds ``k - 1`` I-S edges and the first infective all ``k``; ``G_m(s) =
    pgf(m, s)``, by default :func:`transmission_pgf`.  The extinction
    chance ``q`` is the least root of ``q = sum_k (k p_k / <k>) G_{k-1}(q)``,
    iterated from 0, and the answer ``1 - sum_k p_k G_k(q)``."""
    pgf = pgf or (lambda m, s: transmission_pgf(m, r, beta, s))
    law = list(zip(spec.levels.tolist(), spec.probs.tolist()))
    mean = sum(k * p for k, p in law)
    q = 0.0
    for _ in range(100_000):
        q, last = sum(k * p / mean * pgf(k - 1, q) for k, p in law if k), q
        if q - last < 1e-15:
            break
    return 1.0 - sum(p * pgf(k, q) for k, p in law)
