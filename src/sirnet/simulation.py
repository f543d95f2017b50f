"""Event-driven SIR simulation on a configuration-model graph.

The graph itself is never built.  The Markov state is three level-count
measures over ``0..kmax``:

* ``mu_S[k]``: susceptibles of degree ``k``;
* ``mu_IS[i]``: infectious individuals with ``i`` half-edges still pointing
  into the susceptible class ("edges-to-S"), level 0 included so that the
  mass of ``mu_IS`` is ``I``;
* ``mu_RS[i]``: removed individuals with ``i`` edges-to-S.

Individuals at one level are exchangeable, so these vectors and the running
totals ``S, I, R, N_S, N_IS, N_RS`` are the whole state: O(kmax) in size,
whatever the population.  Events:

* removal: a uniformly chosen infectious individual recovers; she moves
  from ``mu_IS[i]`` to ``mu_RS[i]``, level ``i`` picked with weight
  ``mu_IS(i)``;
* infection: an infectious-to-susceptible half-edge fires; the susceptible
  alter's degree ``k`` is picked with weight ``k mu_S(k)``, and her
  remaining ``k-1`` half-edges are drawn one at a time, without
  replacement, from the other ``N_S - 1`` susceptible half-edges.  Each
  draw is uniform among those left, so it is paired to an infective, to a
  removed individual or open in proportion to what is left of each; the
  counts ``(j, l)`` of the first two kinds are multivariate hypergeometric
  exactly.  The ``j+1`` infectious and ``l`` removed half-edges consumed
  are uniform without replacement: sequential picks, each weighted
  ``i mu(i)`` and moving one individual from level ``i`` to ``i-1``.  The
  new infective enters ``mu_IS`` at level ``k-1-j-l``.

Waiting times are exponential with total rate ``r*N_IS + beta*I`` (direct
Gillespie selection between the two event classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sirnet.errors import (
    ConfigurationError,
    InfeasibleDrawError,
    StateCorruptionError,
    check_finite,
    check_nonnegative,
)

INFINITE_TIME = math.inf

BLOCK = 1024  # values drawn from the generator per numpy call
_WORD = 1 << 63  # integer draws reduce uniform 63-bit words


# ---------------------------------------------------------------------------
# Random numbers and the level samplers
# ---------------------------------------------------------------------------


class BlockDraws:
    """The event loop's random numbers, drawn from ``rng`` in blocks.

    One numpy call fills a block of ``BLOCK`` values, which costs far less
    per value than a scalar call.  :meth:`below` reduces 63-bit words by
    rejection, so every integer draw is exactly uniform.
    """

    __slots__ = ("rng", "_exponentials", "_uniforms", "_words")

    def __init__(self, rng):
        self.rng = rng
        self._exponentials = []
        self._uniforms = []
        self._words = []

    def exponential(self):
        """A standard exponential variate."""
        if not self._exponentials:
            self._exponentials = self.rng.standard_exponential(BLOCK).tolist()
        return self._exponentials.pop()

    def uniform(self):
        """A uniform variate on ``[0, 1)``."""
        if not self._uniforms:
            self._uniforms = self.rng.random(BLOCK).tolist()
        return self._uniforms.pop()

    def below(self, n):
        """A uniform integer on ``0..n-1``."""
        if n < 1:
            raise InfeasibleDrawError(f"cannot draw from {n} outcomes")
        limit = _WORD - _WORD % n
        words = self._words
        while True:
            if not words:
                words.extend(self.rng.integers(_WORD, size=BLOCK).tolist())
            x = words.pop()
            if x < limit:
                return x % n


def pick_size_biased(mu, total, draws):
    """Level ``k`` with probability ``k mu[k] / total``, where ``total`` is
    ``sum_k k mu[k]``: the degree of the susceptible an infection hits, and
    the level of the owner of a uniformly chosen half-edge."""
    x = draws.below(total)
    k = 0
    for count in mu:
        x -= k * count
        if x < 0:
            return k
        k += 1
    raise StateCorruptionError(f"level weights sum below their total {total}")


def pick_uniform(mu, total, draws):
    """Level ``i`` with probability ``mu[i] / total``, where ``total`` is
    ``sum_i mu[i]``: the level of a uniformly chosen individual."""
    x = draws.below(total)
    for i, count in enumerate(mu):
        x -= count
        if x < 0:
            return i
    raise StateCorruptionError(f"level counts sum below their total {total}")


def take_half_edges(mu, total, m, draws):
    """Remove ``m`` distinct half-edges, uniform among the ``total`` held by
    the individuals that ``mu`` counts per level; ``mu`` changes in place.

    Each pick takes one remaining half-edge uniformly, so its owner's level
    ``i`` is size-biased, and moves the owner to level ``i-1``.  Individuals
    at one level are exchangeable, so this is the law of a uniform
    ``m``-subset of the labelled half-edges, aggregated over levels.
    """
    if m > total:
        raise InfeasibleDrawError(f"cannot draw {m} half-edges from a pool of {total}")
    for _ in range(m):
        i = pick_size_biased(mu, total, draws)
        mu[i] -= 1
        mu[i - 1] += 1
        total -= 1


# ---------------------------------------------------------------------------
# Parameters, state, trajectory
# ---------------------------------------------------------------------------


@dataclass
class SimParams:
    r: float  # infection rate per I-S edge
    beta: float  # removal rate per infectious node
    t_max: float
    record_grid: float = 0.05
    snapshot_measures: bool = False

    def __post_init__(self):
        check_nonnegative(r=self.r, beta=self.beta)
        check_finite(t_max=self.t_max, record_grid=self.record_grid)
        if not self.t_max > 0:
            raise ConfigurationError("t_max must be positive")
        if not self.record_grid > 0:
            raise ConfigurationError("record_grid must be positive")
        # floor(t_max/grid + 1e-9) >= 1, the grid row count of simulate
        if self.t_max / self.record_grid + 1e-9 < 1:
            raise ConfigurationError(
                f"record_grid={self.record_grid:g} is coarser than t_max={self.t_max:g}, "
                "so no row follows t=0"
            )


@dataclass
class Trajectory:
    times: np.ndarray
    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    N_S: np.ndarray
    N_IS: np.ndarray
    N_RS: np.ndarray
    terminal: str = "t_max"
    snapshots: list = field(default_factory=list)
    n_infections: int = 0
    n_removals: int = 0

    COLUMNS = ("t", "S", "I", "R", "N_S", "N_IS", "N_RS")

    def column(self, name):
        return getattr(self, name if name != "t" else "times")

    def to_csv_lines(self):
        yield ",".join(self.COLUMNS)
        for i in range(len(self.times)):
            yield (
                f"{self.times[i]:.10g},{int(self.S[i])},{int(self.I[i])},"
                f"{int(self.R[i])},{int(self.N_S[i])},{int(self.N_IS[i])},{int(self.N_RS[i])}"
            )


class PopulationState:
    """Full stochastic state: the level-count vectors ``mu_S``, ``mu_IS``
    and ``mu_RS`` over ``0..kmax`` (lists of ints) with running class sizes
    and edge totals.

    Built from ``mu_S``, a level-count sequence (``mu_S[k]`` susceptibles
    of degree ``k``), and the edges-to-S count of each initial infective.
    """

    __slots__ = ("mu_S", "mu_IS", "mu_RS", "S", "I", "R", "N_S", "N_IS", "N_RS", "t")

    def __init__(self, mu_S, infectious_counts):
        susceptible = np.asarray(mu_S, dtype=np.int64)
        infectious = np.asarray(infectious_counts, dtype=np.int64)
        if susceptible.min(initial=0) < 0:
            raise StateCorruptionError("negative susceptible count")
        if infectious.min(initial=0) < 0:
            raise StateCorruptionError("negative edges-to-S count")
        kmax = max(len(susceptible) - 1, int(infectious.max(initial=0)))
        self.mu_S = susceptible.tolist() + [0] * (kmax + 1 - len(susceptible))
        self.mu_IS = np.bincount(infectious, minlength=kmax + 1).tolist()
        self.mu_RS = [0] * (kmax + 1)
        self.S = int(susceptible.sum())
        self.N_S = int(np.arange(len(susceptible)) @ susceptible)
        self.I, self.N_IS = len(infectious), int(infectious.sum())
        self.R = self.N_RS = 0
        self.t = 0.0

    def row(self):
        return (self.S, self.I, self.R, self.N_S, self.N_IS, self.N_RS)

    def measure_snapshot(self):
        return {"mu_S": self.mu_S.copy(), "mu_IS": self.mu_IS.copy(),
                "mu_RS": self.mu_RS.copy()}

    def feasible(self):
        """Whether another infection event is well defined: the matching
        pools need ``N_IS + N_RS <= N_S``.  Every infection consumes two
        free susceptible half-edges per edge-to-S it creates, so near total
        infection the half-edge construction can exhaust itself; the event
        loop then stops with terminal reason ``depleted``."""
        return self.N_IS + self.N_RS <= self.N_S


def initial_infective_count(n, i0):
    """Number ``ceil(i0 * n)`` of initial infectives among ``n`` nodes;
    refuses an ``i0`` outside (0, 1) or one that leaves no susceptibles."""
    if not 0 < i0 < 1:
        raise ConfigurationError(f"initial infected fraction i0 must lie in (0,1), got {i0}")
    n_inf = int(math.ceil(i0 * n))
    if n_inf >= n:
        raise ConfigurationError(f"i0={i0} on n={n} nodes leaves no susceptibles")
    return n_inf


def initialize_state(degrees, i0, *, rng):
    """Split a degree sequence into initial susceptibles and infectives.

    A uniform ``ceil(i0 * n)`` of the individuals start infectious, the
    initial law the limit models, with ``d_x(S) = d_x``.  Every infective
    half-edge must pair with a susceptible one, so a split with
    ``N_IS > N_S`` is refused.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = len(degrees)
    if n == 0:
        raise ConfigurationError("empty degree sequence")
    infected = rng.choice(n, size=initial_infective_count(n, i0), replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[infected] = True
    state = PopulationState(np.bincount(degrees[~mask]), degrees[mask])
    if state.N_IS > state.N_S:
        raise ConfigurationError(
            f"i0={i0} gives the initial infectives {state.N_IS} half-edges but the "
            f"susceptibles only {state.N_S}, so not every infective half-edge "
            "can pair with a susceptible one"
        )
    return state


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def sample_jl(k, n_S, n_IS, n_RS, draws):
    """Numbers (j, l) of infectious- and removed-alter half-edges among the
    ``k-1`` non-contaminating half-edges of a degree-k new infective.

    The pool holds ``n_S - 1`` half-edges: ``n_IS - 1`` of type I-S,
    ``n_RS`` of type R-S, the rest open susceptible stubs.  The ``k-1``
    half-edges are drawn one at a time by ``draws.below``, each uniform
    among those left, so ``(j, l)`` has the multivariate hypergeometric law
    exactly.  Once no I-S or R-S half-edge is left the rest are open and
    no more draws are made.
    """
    if k < 1 or n_IS < 1:
        raise InfeasibleDrawError("infection event needs k >= 1 and N_IS >= 1")
    pool = n_S - 1
    if k - 1 > pool:
        raise InfeasibleDrawError(
            f"cannot draw {k - 1} half-edges from a pool of {pool}"
        )
    a, b = n_IS - 1, n_RS  # I-S and R-S half-edges left in the pool
    if a + b > pool:
        raise InfeasibleDrawError("edge pools exhausted: N_IS + N_RS > N_S")
    for _ in range(k - 1):
        if not a + b:
            break
        x = draws.below(pool)
        if x < a:
            a -= 1
        elif x < a + b:
            b -= 1
        pool -= 1
    return n_IS - 1 - a, n_RS - b


def apply_infection(state, k, j, l, draws):
    """Apply one infection event.

    A degree-``k`` susceptible is infected; ``j`` of her other half-edges
    match infectious and ``l`` removed half-edges.  Takes ``j + 1`` uniform
    half-edges (the contaminating edge included) from ``mu_IS`` and ``l``
    from ``mu_RS``, then enters her in ``mu_IS`` at level ``k-1-j-l``.  Net
    effects: ``dN_IS = k - 2 - 2j - l`` and ``dN_RS = -l``.
    """
    mu_S = state.mu_S
    if not 0 < k < len(mu_S) or mu_S[k] < 1:
        raise StateCorruptionError(f"no susceptible of degree {k} left")
    level = k - 1 - j - l
    if j < 0 or l < 0 or level < 0:
        raise StateCorruptionError(f"cannot match j={j}, l={l} on a degree-{k} infective")
    if j + 1 > state.N_IS or l > state.N_RS:
        raise InfeasibleDrawError(
            f"cannot take {j + 1} infectious and {l} removed half-edges from "
            f"pools of {state.N_IS} and {state.N_RS}"
        )
    take_half_edges(state.mu_IS, state.N_IS, j + 1, draws)
    if l:
        take_half_edges(state.mu_RS, state.N_RS, l, draws)
    mu_S[k] -= 1
    state.mu_IS[level] += 1
    state.S -= 1
    state.N_S -= k
    state.I += 1
    state.N_IS += level - j - 1
    state.N_RS -= l
    return state


def apply_removal(state, level):
    """Move one infectious individual with ``level`` edges-to-S into the
    removed class, carrying her edges-to-S."""
    mu_IS = state.mu_IS
    if not 0 <= level < len(mu_IS):
        raise IndexError(f"level {level} outside 0..{len(mu_IS) - 1}")
    if mu_IS[level] < 1:
        raise StateCorruptionError(f"no infectious individual at level {level}")
    mu_IS[level] -= 1
    state.mu_RS[level] += 1
    state.I -= 1
    state.R += 1
    state.N_IS -= level
    state.N_RS += level
    return state


# ---------------------------------------------------------------------------
# Event loop
# ---------------------------------------------------------------------------


def simulate(state, params, rng):
    """Run the epidemic to ``t_max`` or extinction; record rows on the grid.

    Grid rows take the state holding at each grid time (the last event at or
    before it).  After extinction the state is constant, so the remaining
    grid rows repeat it.  If an infection exhausts the susceptible half-edge
    pools (see :meth:`PopulationState.feasible`) recording stops there with
    terminal reason ``depleted``.  Every random number comes from ``rng``:
    identically seeded generators and parameters reproduce the trajectory
    bit for bit.
    """
    draws = BlockDraws(rng)
    r, beta = params.r, params.beta
    grid = params.record_grid
    n_grid = int(math.floor(params.t_max / grid + 1e-9))
    times = [0.0]
    rows = [state.row()]
    snapshots = []
    if params.snapshot_measures:
        snapshots.append((0.0, state.measure_snapshot()))
    next_idx = 1  # next grid row to emit
    terminal = "t_max"
    n_inf = 0
    n_rem = 0

    def emit_until(limit):
        nonlocal next_idx
        while next_idx <= n_grid and next_idx * grid <= limit + 1e-12:
            times.append(next_idx * grid)
            rows.append(state.row())
            if params.snapshot_measures:
                snapshots.append((next_idx * grid, state.measure_snapshot()))
            next_idx += 1

    while True:
        rate = r * state.N_IS + beta * state.I
        if rate <= 0.0:
            terminal = "extinct"
            emit_until(params.t_max)
            break
        t_new = state.t + draws.exponential() / rate
        emit_until(min(t_new, params.t_max))
        if t_new > params.t_max:
            state.t = params.t_max
            break
        state.t = t_new
        if draws.uniform() * rate < beta * state.I:
            apply_removal(state, pick_uniform(state.mu_IS, state.I, draws))
            n_rem += 1
        else:
            k = pick_size_biased(state.mu_S, state.N_S, draws)
            j, l = sample_jl(k, state.N_S, state.N_IS, state.N_RS, draws)
            apply_infection(state, k, j, l, draws)
            n_inf += 1
            if not state.feasible():
                # half-edge pools exhausted: further infections undefined
                terminal = "depleted"
                break

    rows = np.asarray(rows, dtype=np.int64)
    return Trajectory(
        times=np.asarray(times),
        S=rows[:, 0],
        I=rows[:, 1],
        R=rows[:, 2],
        N_S=rows[:, 3],
        N_IS=rows[:, 4],
        N_RS=rows[:, 5],
        terminal=terminal,
        snapshots=snapshots,
        n_infections=n_inf,
        n_removals=n_rem,
    )


def stopping_time(traj, eps, n):
    """First recorded time with ``N_IS / n < eps``; ``inf`` if never."""
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    below = traj.N_IS / n < eps
    idx = np.flatnonzero(below)
    return float(traj.times[idx[0]]) if len(idx) else INFINITE_TIME
