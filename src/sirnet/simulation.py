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
whatever the population.  The initial state is drawn in the same terms:
the degree counts of ``n`` i.i.d. degrees given an even total are one
multinomial draw, redrawn until the total is even, and
those of a uniform ``ceil(i0 n)`` of them, the initial infectives, one
multivariate hypergeometric draw, so no vertex-indexed array is ever built.
Events:

* removal: a uniformly chosen infectious individual recovers; she moves
  from ``mu_IS[i]`` to ``mu_RS[i]``, level ``i`` picked with weight
  ``mu_IS(i)``;
* infection: an infectious-to-susceptible half-edge fires; the susceptible
  alter's degree ``k`` is picked with weight ``k mu_S(k)``.  The firing
  half-edge is uniform among the ``N_IS``, and her remaining ``k-1``
  half-edges are drawn one at a time, without replacement, from the other
  ``N_S - 1`` susceptible half-edges.  Each draw is uniform among those
  left, so it is paired to an infective, to a removed individual or open
  in proportion to what is left of each; the counts ``(j, l)`` of the
  first two kinds are multivariate hypergeometric exactly.  The same draw
  names the matched half-edge, so its owner, found at level ``i`` with
  weight ``i mu(i)``, moves to level ``i-1``.  Her ``m = k-1-j-l`` open
  half-edges then pair in turn, each with a uniform other half-edge of
  the open pool ``N_S - N_IS - N_RS``, which holds her own: with ``p``
  pairs among her own she enters ``mu_IS`` at level ``m - 2p``.

Waiting times are exponential with total rate ``r*N_IS + beta*I`` (direct
Gillespie selection between the two event classes).  So the chain is SIR
on the configuration model, a uniform pairing of half-edges revealed as
infections reach it (Janson, Luczak & Windridge 2014).  Once its class is
chosen, an event is one call of :func:`fire`, which picks the level and
moves the individual; the exact path-law test replays that same function.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from sirnet.errors import (
    MAX_GRID_ROWS,
    ConfigurationError,
    InfeasibleDrawError,
    StateCorruptionError,
    check_nonnegative,
    check_population,
    check_positive,
    check_rate_bound,
)

BLOCK = 1024  # values drawn from the generator per numpy call
_WORD = 1 << 63  # integer draws reduce uniform 63-bit words
# a grid time within GRID_TIE after an event counts as after it, so its row
# holds the event: the rule of simulate's rows and of every window of them
GRID_TIE = 1e-12
# the finest record_grid a run takes: the tie puts rows past t_max, up to
# GRID_TIE / record_grid of them, which below this is more than round-off
MIN_GRID = 1e3 * GRID_TIE


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


def _owner_level(mu, x):
    """Level of the owner of half-edge ``x`` (from 0), the ``mu[k]``
    individuals at level ``k`` holding ``k`` half-edges each, in level order;
    for a uniform ``x``, ``k`` with probability ``k mu[k] / sum_i i mu[i]``."""
    k = 0
    for count in mu:
        x -= k * count
        if x < 0:
            return k
        k += 1
    raise StateCorruptionError("level weights sum below the half-edge drawn")


def _drop_owner(mu, x):
    """Take half-edge ``x`` (see :func:`_owner_level`): its owner drops a level."""
    i = _owner_level(mu, x)
    mu[i] -= 1
    mu[i - 1] += 1


def pick_size_biased(mu, total, draws):
    """Level ``k`` with probability ``k mu[k] / total``, where ``total`` is
    ``sum_k k mu[k]``: the degree of the susceptible an infection hits."""
    return _owner_level(mu, draws.below(total))


def pick_uniform(mu, total, draws):
    """Level ``i`` with probability ``mu[i] / total``, where ``total`` is
    ``sum_i mu[i]``: the level of a uniformly chosen individual."""
    x = draws.below(total)
    for i, count in enumerate(mu):
        x -= count
        if x < 0:
            return i
    raise StateCorruptionError(f"level counts sum below their total {total}")


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
        check_positive(t_max=self.t_max, record_grid=self.record_grid)
        steps = self.grid_steps
        if steps < 1:
            raise ConfigurationError(
                f"record_grid={self.record_grid:g} is coarser than t_max={self.t_max!r}, "
                "so no row follows t=0")
        if steps >= MAX_GRID_ROWS:  # grid_steps counts no further
            rows = next_row(self.t_max, self.record_grid, n_grid=2**53)
            if rows > 2**53:  # next_row counts no further
                rows = f"more than {MAX_GRID_ROWS}"
            raise ConfigurationError(
                f"record_grid={self.record_grid:g} puts {rows} rows on "
                f"[0, t_max={self.t_max:g}]; a trajectory stores at most {MAX_GRID_ROWS}")
        if self.record_grid < MIN_GRID:
            raise ConfigurationError(
                f"record_grid={self.record_grid:g} is finer than {MIN_GRID:g}: a grid "
                f"time within {GRID_TIE:g} after an event counts as after it, so rows "
                f"up to {GRID_TIE:g} past t_max={self.t_max:g} would be recorded")

    @property
    def grid_steps(self):
        """The last grid row that :func:`simulate` records, by the one rule
        of every run and window: ``next_row(t_max, record_grid) - 1``."""
        return next_row(self.t_max, self.record_grid) - 1


@dataclass
class Trajectory:
    """A simulated run as the runs :func:`simulate` records: ``rows``, the
    ``(R, 6)`` int64 table of the states recorded, columns in
    ``COLUMNS[1:]`` order; ``runs``, the list of how many consecutive grid
    rows each holds; and, with snapshots, ``run_snapshots``, one level
    snapshot per run.  Grid row ``i`` is at time ``i * grid``.

    The per-row views are derived on first use: ``times``, the grid;
    ``counts``, the ``(T, 6)`` table of every grid row, of which
    ``column(name)`` is one column; and ``snapshots``, each row's
    ``(t, snapshot)``."""

    grid: float
    rows: np.ndarray
    runs: list
    terminal: str = "t_max"
    run_snapshots: list = field(default_factory=list)
    n_infections: int = 0
    n_removals: int = 0

    COLUMNS = ("t", "S", "I", "R", "N_S", "N_IS", "N_RS")

    @property
    def n_rows(self):
        """The number of grid rows."""
        return sum(self.runs)

    @cached_property
    def times(self):
        return np.arange(self.n_rows) * self.grid

    @cached_property
    def counts(self):
        return np.repeat(self.rows, self.runs, axis=0)

    def column(self, name):
        return self.times if name == "t" else self.counts[:, self.COLUMNS.index(name) - 1]

    def _by_row(self, per_run):
        """``(t, item)`` at every grid row in order, ``item`` being the entry
        of ``per_run`` for the row's run.  Row ``i``'s ``t = i * grid`` is
        the product ``times`` holds there, bit for bit."""
        grid, start = self.grid, 0
        for item, length in zip(per_run, self.runs):
            for i in range(start, start + length):
                yield i * grid, item
            start += length

    @property
    def snapshots(self):
        """``(t, snapshot)`` at every grid row, the rows of one run sharing
        its snapshot object."""
        return self._by_row(self.run_snapshots)

    def to_csv_lines(self):
        """The header, then one row per grid time: each run's six counts
        are formatted once, and each row's time."""
        yield ",".join(self.COLUMNS)
        tails = [",%d,%d,%d,%d,%d,%d" % tuple(row) for row in self.rows.tolist()]
        for t, tail in self._by_row(tails):
            yield f"{t:.10g}{tail}"


class PopulationState:
    """Full stochastic state: the level-count vectors ``mu_S``, ``mu_IS``
    and ``mu_RS`` over ``0..kmax`` (lists of ints) with running class sizes
    and edge totals.

    Built from two level-count vectors, the paper's initial measures:
    ``mu_S[k]`` susceptibles of degree ``k`` and ``mu_IS[i]`` infectives
    with ``i`` edges-to-S.  Nobody is removed yet.  A state that no
    pairing has, ``N_IS > N_S`` or an odd ``N_S - N_IS``, is refused.
    """

    __slots__ = ("mu_S", "mu_IS", "mu_RS", "S", "I", "R", "N_S", "N_IS", "N_RS", "t")

    def __init__(self, mu_S, mu_IS):
        mu_S = np.asarray(mu_S, dtype=np.int64).tolist()
        mu_IS = np.asarray(mu_IS, dtype=np.int64).tolist()
        if min(mu_S + mu_IS, default=0) < 0:
            raise StateCorruptionError("negative level count")
        size = max(len(mu_S), len(mu_IS), 1)  # levels 0..kmax
        self.mu_S = mu_S + [0] * (size - len(mu_S))
        self.mu_IS = mu_IS + [0] * (size - len(mu_IS))
        self.mu_RS = [0] * size
        levels = range(size)
        self.S, self.N_S = sum(mu_S), sum(map(operator.mul, levels, self.mu_S))
        self.I, self.N_IS = sum(mu_IS), sum(map(operator.mul, levels, self.mu_IS))
        self.R = self.N_RS = 0
        self.t = 0.0
        if self.N_IS > self.N_S or (self.N_S - self.N_IS) % 2:
            raise ConfigurationError(f"no pairing of half-edges has N_S={self.N_S} "
                                     f"and N_IS={self.N_IS}")

    def row(self):
        return (self.S, self.I, self.R, self.N_S, self.N_IS, self.N_RS)

    def measure_snapshot(self):
        return {"mu_S": self.mu_S.copy(), "mu_IS": self.mu_IS.copy(),
                "mu_RS": self.mu_RS.copy()}


def initial_infective_count(n, i0):
    """Number ``ceil(i0 * n)`` of initial infectives among ``n`` nodes;
    refuses an ``i0`` outside (0, 1) or one that leaves no susceptibles,
    and an ``n`` that :func:`check_population` refuses."""
    check_population(n)
    if not 0 < i0 < 1:
        raise ConfigurationError(f"initial infected fraction i0 must lie in (0,1), got {i0}")
    n_inf = int(math.ceil(i0 * n))
    if n_inf >= n:
        raise ConfigurationError(f"i0={i0} on n={n} nodes leaves no susceptibles")
    return n_inf


def check_event_rate(state, params):
    """Refuse rates whose total event rate can overflow
    (:func:`check_rate_bound` at ``state``); an infinite rate would
    compare ``inf`` with ``inf`` in the choice of event."""
    check_rate_bound(params.r, params.beta, state.N_S, state.S + state.I + state.R)


def plan_simulate(spec, n, i0, params, seed):
    """Every refusal of a :func:`simulate` run of ``params`` on ``n``
    individuals with degrees drawn from ``spec``, made before its first
    event; returns its start ``(state, rng)``.  ``seed`` is an int, refused
    if negative, or a :class:`numpy.random.SeedSequence`; the PCG64
    generator it seeds draws the degree counts, then the initial
    infectives (:func:`initialize_state`), and is left to draw the events.
    Besides what those draws refuse, refuses rates that
    :func:`check_event_rate` refuses at the state drawn."""
    if not isinstance(seed, np.random.SeedSequence):
        check_nonnegative(seed=seed)
        seed = np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    state = initialize_state(spec.sample(n, rng), i0, rng=rng)
    check_event_rate(state, params)
    return state, rng


def initialize_state(counts, i0, *, rng):
    """Split a population, given by its degree counts (``counts[k]``
    individuals of degree ``k``), into initial susceptibles and infectives.

    A uniform ``ceil(i0 * n)`` of the individuals start infectious, the
    initial law the limit models, with ``d_x(S) = d_x``.  The degrees of a
    uniform subset are multivariate hypergeometric, so one such draw gives
    the infectives' level counts; no array of individuals is built.  Every
    infective half-edge must pair with a susceptible one, so a split with
    ``N_IS > N_S`` is refused, as :class:`PopulationState` refuses an odd
    total degree.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.min(initial=0) < 0:
        raise ConfigurationError("degree counts must be nonnegative")
    n_inf = initial_infective_count(int(counts.sum()), i0)
    infected = rng.multivariate_hypergeometric(counts, n_inf)
    n_IS, n_S = np.array([infected, counts - infected]) @ np.arange(len(counts))
    if n_IS > n_S:
        raise ConfigurationError(
            f"i0={i0} gives the initial infectives {n_IS} half-edges but the "
            f"susceptibles only {n_S}, so not every infective half-edge "
            "can pair with a susceptible one"
        )
    return PopulationState(counts - infected, infected)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def sample_jl(k, n_S, n_IS, n_RS, mu_IS, mu_RS, draws):
    """Numbers (j, l) of infectious- and removed-alter half-edges among the
    ``k-1`` non-contaminating half-edges of a degree-k new infective.

    The pool holds ``n_S - 1`` half-edges: ``n_IS - 1`` of type I-S, held
    by those ``mu_IS`` counts, ``n_RS`` of type R-S, held by those of
    ``mu_RS``, the rest open susceptible stubs.  The ``k-1`` half-edges are
    drawn one at a time by ``draws.below``, each uniform among those left,
    so ``(j, l)`` has the multivariate hypergeometric law exactly.  With
    ``a`` I-S and ``b`` R-S half-edges left, a draw ``x < a`` takes I-S
    half-edge ``x`` and ``a <= x < a+b`` R-S half-edge ``x-a`` from its
    owner (:func:`_drop_owner`).  Once no I-S or R-S half-edge is left the
    rest are open and no more draws are made.  An infection with no I-S
    half-edge to fire or fewer than ``k`` susceptible half-edges is refused
    before any draw.
    """
    if k < 1 or n_IS < 1:
        raise InfeasibleDrawError("infection event needs k >= 1 and N_IS >= 1")
    if k > n_S:
        raise InfeasibleDrawError(f"cannot draw {k - 1} half-edges from a pool of {n_S - 1}")
    pool = n_S - 1
    a, b = n_IS - 1, n_RS  # I-S and R-S half-edges left in the pool
    for _ in range(k - 1):
        if not a + b:
            break
        x = draws.below(pool)
        if x < a:
            _drop_owner(mu_IS, x)
            a -= 1
        elif x < a + b:
            _drop_owner(mu_RS, x - a)
            b -= 1
        pool -= 1
    return n_IS - 1 - a, n_RS - b


def apply_infection(state, k, draws):
    """Infect a degree-``k`` susceptible; return her ``(j, l, p)``.

    The contaminating half-edge is uniform among the ``N_IS`` and taken
    from its owner first; :func:`sample_jl` then matches her other
    ``k-1`` half-edges from what is left.  Her ``m = k-1-j-l`` open ones
    pair in turn within the open pool ``N_S - N_IS - N_RS``, hers
    included: while she holds two or more, the partner is her own with
    probability ``(own - 1) / (pool - 1)``; a last one needs no draw.
    With ``p`` self-pairs she enters ``mu_IS`` at level ``m - 2p``:
    ``dN_IS = k - 2 - 2j - l - 2p`` and ``dN_RS = -l``.  A refused event
    draws nothing and leaves the state as it was.
    """
    mu_S, mu_IS = state.mu_S, state.mu_IS
    if not 0 < k < len(mu_S) or mu_S[k] < 1:
        raise StateCorruptionError(f"no susceptible of degree {k} left")
    _drop_owner(mu_IS, draws.below(state.N_IS))
    j, l = sample_jl(k, state.N_S, state.N_IS, state.N_RS, mu_IS, state.mu_RS, draws)
    own = m = k - 1 - j - l
    pool, p = state.N_S - state.N_IS - state.N_RS, 0
    while own >= 2:
        mine = draws.below(pool - 1) < own - 1  # her partner is her own
        own -= 1 + mine
        p += mine
        pool -= 2
    level = m - 2 * p
    mu_S[k] -= 1
    mu_IS[level] += 1
    state.S -= 1
    state.N_S -= k
    state.I += 1
    state.N_IS += level - j - 1
    state.N_RS -= l
    return j, l, p


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


def next_row(limit, grid, first=1, n_grid=MAX_GRID_ROWS):
    """The least row index ``i >= first`` with ``i > n_grid`` or
    ``i * grid > limit + GRID_TIE``: the row after the last one that
    ``limit`` reaches, by default the count of rows on ``[0, limit]``.
    Since ``i * grid`` grows with ``i``, the floor of ``(limit + GRID_TIE)
    / grid`` is at most a step or two from that row, and the steps make
    the rule exact; the cost does not grow with the rows passed."""
    cut = limit + GRID_TIE
    i = max(math.floor(min(cut / grid, n_grid)), first - 1)  # n_grid caps an inf ratio
    while i < n_grid and (i + 1) * grid <= cut:
        i += 1
    while i >= first and i * grid > cut:
        i -= 1
    return i + 1


def fire(state, removal, draws):
    """Fire one event on ``state``: a removal if ``removal`` is true, else
    an infection.  A removal moves an infective of the level
    :func:`pick_uniform` draws over ``mu_IS`` (:func:`apply_removal`); an
    infection infects a susceptible of the degree :func:`pick_size_biased`
    draws over ``mu_S`` (:func:`apply_infection`).  :func:`simulate` fires
    every event through it, and the exact path-law test replays it over
    every draw sequence.  The four names are looked up as module globals,
    so a wrapper set on one of them sees every call."""
    if removal:
        apply_removal(state, pick_uniform(state.mu_IS, state.I, draws))
    else:
        apply_infection(state, pick_size_biased(state.mu_S, state.N_S, draws), draws)


def simulate(state, params, rng):
    """Run the epidemic to ``t_max`` or extinction; record rows on the grid.

    The row at grid time ``g`` is the state after every event at a time
    ``t`` with ``g > t + GRID_TIE``: the last event before ``g``, an event
    within ``GRID_TIE`` of ``g`` counting as after it.  One state and the
    number of grid rows it covers are recorded per run of rows, so the
    returned :class:`Trajectory` grows with the events, not with the
    grid.  Each event's class is a removal with chance ``beta I / rate``,
    by one float uniform, and :func:`fire` then runs it.  Once the total
    event rate is 0 the state is constant, so the remaining grid rows
    repeat it; the terminal reason is then ``extinct``
    if no I-S edge is left, and ``t_max`` otherwise (both rates 0).  Every
    random number comes from ``rng``:
    identically seeded generators and parameters reproduce the trajectory
    bit for bit.  Rates that :func:`check_event_rate` refuses are refused
    before the first event: :func:`plan_simulate`, which makes every
    refusal of a run, has refused them at a start it drew, and a state
    built otherwise is checked here.
    """
    check_event_rate(state, params)
    draws = BlockDraws(rng)
    r, beta, t_max = params.r, params.beta, params.t_max
    grid = params.record_grid
    n_grid = params.grid_steps
    # the state recorded on each run of grid rows, and the run's length
    rows = [state.row()]
    runs = [1]
    snapshots = [state.measure_snapshot()] if params.snapshot_measures else []
    next_idx = 1  # next grid row to emit
    next_t = next_idx * grid  # its time
    terminal = "t_max"
    S0, R0 = state.S, state.R

    def emit_until(limit):
        nonlocal next_idx, next_t
        first = next_idx
        next_idx = next_row(limit, grid, first, n_grid)
        if next_idx > first:
            rows.append(state.row())
            runs.append(next_idx - first)
            if params.snapshot_measures:
                snapshots.append(state.measure_snapshot())
        next_t = next_idx * grid if next_idx <= n_grid else math.inf

    while True:
        rate = r * state.N_IS + beta * state.I
        if rate <= 0.0:  # no event can follow; extinct once no I-S edge is left
            terminal = "extinct" if state.N_IS == 0 else "t_max"
            emit_until(t_max)
            break
        t_new = state.t + draws.exponential() / rate
        if t_new > t_max:
            emit_until(t_max)
            state.t = t_max
            break
        if next_t <= t_new + GRID_TIE:  # the event follows a grid time
            emit_until(t_new)
        state.t = t_new
        fire(state, draws.uniform() * rate < beta * state.I, draws)

    # each infection takes one susceptible and each removal adds one removed
    return Trajectory(grid=grid, rows=np.array(rows, dtype=np.int64), runs=runs,
                      terminal=terminal, run_snapshots=snapshots,
                      n_infections=S0 - state.S, n_removals=state.R - R0)
