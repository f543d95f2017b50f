import copy
import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from oracles import (
    ScriptedDraws,
    check_invariants,
    explicit_path_law,
    explicit_sir_grid,
    grid_rows_from_events,
    replay_law,
    trajectory_csv_lines,
)
from sirnet import simulation
from sirnet.cli import _atomic_write, _snapshot_lines
from sirnet.degrees import DegreeSpec
from sirnet.errors import ConfigurationError, InfeasibleDrawError, StateCorruptionError
from sirnet.simulation import (
    BlockDraws,
    PopulationState,
    SimParams,
    Trajectory,
    apply_infection,
    apply_removal,
    initialize_state,
    next_row,
    pick_size_biased,
    pick_uniform,
    simulate,
)


SMALL_MU_S0 = [0, 0, 2, 1]


def small_state():
    """3 susceptibles (degrees 2,2,3), 2 infectives with 2 and 1 edges-to-S."""
    return PopulationState(SMALL_MU_S0, [0, 1, 1])


def test_state_summaries():
    st = small_state()
    assert (st.S, st.I, st.R) == (3, 2, 0)
    assert (st.N_S, st.N_IS, st.N_RS) == (7, 3, 0)
    assert (st.mu_S, st.mu_IS, st.mu_RS) == ([0, 0, 2, 1], [0, 1, 1, 0], [0, 0, 0, 0])
    check_invariants(st, SMALL_MU_S0)


def test_apply_infection_deltas():
    st = small_state()
    # degree-3 susceptible infected through I-S half-edge 0 (the level-1
    # infective's); her other two half-edges: I-S half-edge 1 of the two
    # left (the level-2 infective's), then an open one
    k = 3
    before = (st.S, st.I, st.R, st.N_IS, st.N_RS)
    draws = ScriptedDraws((0, 1, 4))
    j, l = apply_infection(st, k, draws)
    assert (j, l) == (1, 0) and draws.pos == 3
    assert st.S == before[0] - 1 and st.I == before[1] + 1 and st.R == before[2]
    assert st.N_IS - before[3] == k - 2 - 2 * j - l
    assert st.N_RS - before[4] == -l
    # the infectives (2, 1) end at (1, 0); the new one carries k-1-j-l = 1
    assert st.mu_S == [0, 0, 2, 0]
    assert st.mu_IS == [1, 2, 0, 0]
    check_invariants(st, SMALL_MU_S0)


def test_apply_infection_validates_totals():
    st = small_state()
    draws = BlockDraws(np.random.default_rng(0))
    with pytest.raises(StateCorruptionError):
        apply_infection(st, 5, draws)  # no degree-5 susceptible
    with pytest.raises(StateCorruptionError):
        apply_infection(st, 1, draws)  # no degree-1 susceptible
    with pytest.raises(InfeasibleDrawError):
        apply_infection(PopulationState([0, 0, 1], [1]), 2, draws)  # no I-S half-edge
    assert st.row() == small_state().row()  # rejected events change nothing
    check_invariants(st, SMALL_MU_S0)
    # more I-S than susceptible half-edges: the pools are refused before
    # any draw, so the state is unchanged and no random number is taken
    over_full = PopulationState([0, 0, 1], [0, 0, 0, 1])
    scripted = ScriptedDraws(())
    with pytest.raises(InfeasibleDrawError, match="edge pools exhausted"):
        apply_infection(over_full, 2, scripted)
    assert scripted.pos == 0
    assert over_full.row() == (1, 1, 0, 2, 3, 0)
    assert (over_full.mu_S, over_full.mu_IS, over_full.mu_RS) == (
        [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0])
    check_invariants(over_full, [0, 0, 1, 0])


def test_apply_removal_moves_edges():
    st = small_state()
    apply_removal(st, 2)  # infective with 2 edges-to-S
    assert (st.I, st.R) == (1, 1)
    assert st.N_IS == 1 and st.N_RS == 2
    assert st.mu_IS == [0, 1, 0, 0] and st.mu_RS == [0, 0, 1, 0]
    assert st.S + st.I + st.R == 5
    check_invariants(st, SMALL_MU_S0)
    with pytest.raises(IndexError):
        apply_removal(st, 5)
    with pytest.raises(StateCorruptionError):
        apply_removal(st, 2)  # nobody infectious left at level 2


def test_initialize_state_counts():
    spec = DegreeSpec.poisson(5, 30)
    rng = np.random.default_rng(0)
    counts = spec.sample(500, rng)
    st = initialize_state(counts, 0.02, rng=rng)
    assert st.I == math.ceil(0.02 * 500)
    assert st.S == 500 - st.I
    # every initial infective keeps her full degree as edges-to-S
    assert [s + i for s, i in zip(st.mu_S, st.mu_IS)] == counts.tolist()
    assert st.N_IS + st.N_S == np.arange(31) @ counts
    check_invariants(st, st.mu_S)


def test_initialize_state_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        initialize_state([0, 0, 2], 0.0, rng=rng)
    with pytest.raises(ConfigurationError):
        initialize_state([0, 0, 2], 0.9, rng=rng)  # no susceptibles left
    with pytest.raises(ConfigurationError):
        initialize_state([], 0.1, rng=rng)
    with pytest.raises(ConfigurationError, match="nonnegative"):
        initialize_state([0, -1, 3], 0.1, rng=rng)


def test_initialize_refuses_more_infective_than_susceptible_half_edges():
    # 2 of 3 individuals infectious: 4 infective half-edges against 2
    with pytest.raises(ConfigurationError, match=r"i0=0\.6 .* 4 half-edges .* only 2"):
        initialize_state([0, 0, 3], 0.6, rng=np.random.default_rng(0))
    # equal pools pair exactly, and are accepted
    st = initialize_state([0, 0, 4], 0.5, rng=np.random.default_rng(0))
    assert st.N_IS == st.N_S == 4


def test_initial_state_exact_law():
    # n = 6 i.i.d. degrees, 2 w.p. 3/8 and 3 w.p. 5/8, then a uniform pair
    # of infectives (i0 = 0.3; N_IS <= 6 < 8 <= N_S, so never refused): the
    # law of (mu_S, mu_IS), enumerated over every degree sequence and every
    # pair, against draws through sample and initialize_state
    p = {2: Fraction(3, 8), 3: Fraction(5, 8)}
    n, pairs = 6, list(itertools.combinations(range(6), 2))
    law = Counter()
    for degrees in itertools.product(p, repeat=n):
        weight = math.prod(p[d] for d in degrees) / len(pairs)
        for pair in pairs:
            infected = [degrees[x] for x in pair]
            susceptible = [d for x, d in enumerate(degrees) if x not in pair]
            law[(tuple(np.bincount(susceptible, minlength=4).tolist()),
                 tuple(np.bincount(infected, minlength=4).tolist()))] += weight
    assert sum(law.values()) == 1
    spec = DegreeSpec.explicit({2: 3.0, 3: 5.0})
    rng = np.random.default_rng(20261018)
    draws = 20_000
    seen = Counter()
    for _ in range(draws):
        st = initialize_state(spec.sample(n, rng), 0.3, rng=rng)
        seen[(tuple(st.mu_S), tuple(st.mu_IS))] += 1
    assert set(seen) <= set(law)
    cells = sorted(law)
    expected = np.array([float(law[c]) * draws for c in cells])
    assert len(cells) == 15 and expected.min() > 50  # none too small for the chi-square
    observed = np.array([seen[c] for c in cells])
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(stat, len(cells) - 1) > 1e-3, stat  # 11.3 at this seed


def test_initial_state_memory_is_o_kmax():
    # 10**8 individuals: a degree sequence alone would take 800 MB
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        st = initialize_state(DegreeSpec.poisson(5, 30).sample(10**8, rng), 0.01, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (st.S, st.I) == (10**8 - 10**6, 10**6)
    assert peak < 2**20, peak


def test_simulate_reproducible():
    spec = DegreeSpec.poisson(5, 30)
    params = SimParams(r=1.0, beta=0.5, t_max=3.0, record_grid=0.1)

    def run():
        rng = np.random.default_rng(123)
        st = initialize_state(spec.sample(400, rng), 0.02, rng=rng)
        return simulate(st, params, rng=rng)

    a, b = run(), run()
    np.testing.assert_array_equal(a.times, b.times)
    for col in ("S", "I", "R", "N_S", "N_IS", "N_RS"):
        np.testing.assert_array_equal(a.column(col), b.column(col))
    assert a.terminal == b.terminal


def test_simulate_grid_and_extinction_fill():
    # beta only: the epidemic dies; remaining grid rows repeat the final state
    st = PopulationState([0, 0, 10], [3])
    params = SimParams(r=1.0, beta=5.0, t_max=100.0, record_grid=10.0)
    traj = simulate(st, params, rng=np.random.default_rng(1))
    assert traj.terminal == "extinct"
    assert len(traj.times) == 11  # t=0 plus 10 grid rows
    assert traj.column("I")[-1] == 0 and traj.column("R")[-1] == 3
    assert np.all(traj.column("I")[-5:] == 0)
    assert traj.column("S")[-1] == 10  # nobody to infect through 0 edges


@pytest.mark.parametrize("r, beta, mu_IS, terminal", [
    (0.0, 0.0, [0, 2], "t_max"),  # no event can happen, yet 2 I-S edges are left
    (1.0, 0.0, [3], "extinct"),  # infectives left, but none with an I-S edge
    (0.0, 0.0, [3], "extinct"),
])
def test_simulate_zero_rate_terminal(r, beta, mu_IS, terminal):
    # a zero total rate ends the run at once; it is extinct only without I-S edges
    st = PopulationState([0, 0, 10], mu_IS)
    first = st.row()
    traj = simulate(st, SimParams(r=r, beta=beta, t_max=1.0, record_grid=0.25),
                    rng=np.random.default_rng(1))
    assert traj.terminal == terminal
    assert len(traj.times) == 5 and traj.n_infections == traj.n_removals == 0
    assert (traj.counts == first).all()  # every grid row repeats the initial state


def geometric_run(n):
    """A seeded epidemic on ``n`` nodes of geometric degree, to t=5."""
    rng = np.random.default_rng(8)
    st = initialize_state(DegreeSpec.geometric(0.6, 40).sample(n, rng), 0.05, rng=rng)
    return simulate(st, SimParams(r=2.0, beta=1.0, t_max=5.0), rng=rng)


def test_simulate_conserves_population_checked(checked_events):
    n = 300
    traj = geometric_run(n)
    S, I, R, N_S, N_IS, N_RS = traj.counts.T
    assert np.all(S + I + R == n)
    assert np.all(N_IS + N_RS <= N_S[0])
    assert np.all(np.diff(S) <= 0)
    assert np.all(np.diff(R) >= 0)
    assert traj.n_infections + traj.n_removals > 0
    assert checked_events.count == traj.n_infections + traj.n_removals


def test_checked_events_catch_a_dropped_update(monkeypatch, request):
    # a removal that loses its N_RS += level update: the event loop runs on
    # with a corrupt state unless the checking wrappers are installed
    real_removal = simulation.apply_removal

    def drops_n_rs_update(state, level):
        real_removal(state, level)
        state.N_RS -= level
        return state

    monkeypatch.setattr(simulation, "apply_removal", drops_n_rs_update)
    geometric_run(300)
    request.getfixturevalue("checked_events")
    with pytest.raises(StateCorruptionError, match="dN_RS mismatch on removal"):
        geometric_run(300)


def test_snapshots_recorded():
    st = PopulationState([0, 0, 5], [0, 2])
    params = SimParams(r=1.0, beta=1.0, t_max=1.0, record_grid=0.5,
                       snapshot_measures=True)
    traj = simulate(st, params, rng=np.random.default_rng(2))
    snapshots = list(traj.snapshots)
    assert len(snapshots) == len(traj.times)
    t0, snap0 = snapshots[0]
    assert t0 == 0.0
    assert snap0 == {"mu_S": [0, 0, 5], "mu_IS": [0, 2, 0], "mu_RS": [0, 0, 0]}
    for (_, snap), row in zip(snapshots, traj.counts.tolist()):
        masses = [sum(snap[name]) for name in ("mu_S", "mu_IS", "mu_RS")]
        edges = [sum(k * c for k, c in enumerate(snap[name]))
                 for name in ("mu_S", "mu_IS", "mu_RS")]
        assert masses + edges == row


def record_events(monkeypatch):
    """Log ``(state.t, (row, snapshot))`` after every event the simulator
    applies, by wrapping its two event functions."""
    log = []

    def recorded(apply):
        def wrapper(state, *args):
            out = apply(state, *args)
            log.append((state.t, (state.row(), state.measure_snapshot())))
            return out
        return wrapper

    monkeypatch.setattr(simulation, "apply_infection", recorded(simulation.apply_infection))
    monkeypatch.setattr(simulation, "apply_removal", recorded(simulation.apply_removal))
    return log


@pytest.mark.parametrize("seed,n,t_max,grid,terminal", [
    (1, 300, 1.0, 1e-4, "t_max"),  # ~240 events under 10001 grid rows
    (1, 300, 5.0, 0.5, "t_max"),  # ~520 events between 11 grid rows
    (1, 300, 60.0, 0.05, "extinct"),  # rows after extinction repeat the last state
    (1, 300, 7.3, 0.7, "t_max"),  # last grid time 7.0 < t_max
    (2, 50, 60.0, 0.05, "depleted"),  # rows stop at the depleting infection
], ids=["fine-grid", "coarse-grid", "extinction-fill", "t_max-off-grid", "depleted"])
def test_grid_rows_match_event_log(monkeypatch, seed, n, t_max, grid, terminal):
    rng = np.random.default_rng(seed)
    st = initialize_state(DegreeSpec.poisson(5, 30).sample(n, rng), 0.05, rng=rng)
    start = (st.row(), st.measure_snapshot())
    log = record_events(monkeypatch)
    params = SimParams(r=1.0, beta=0.5, t_max=t_max, record_grid=grid,
                       snapshot_measures=True)
    traj = simulate(st, params, rng=rng)
    assert traj.terminal == terminal
    assert len(log) == traj.n_infections + traj.n_removals
    t_end = log[-1][0] if terminal == "depleted" else t_max
    times, records = grid_rows_from_events(
        start, log, grid, math.floor(t_max / grid + 1e-9), t_end)
    assert traj.times.tolist() == times  # bit for bit
    assert traj.counts.tolist() == [list(row) for row, _ in records]
    assert list(traj.snapshots) == [(t, snap) for t, (_, snap) in zip(times, records)]
    assert list(traj.to_csv_lines()) == list(trajectory_csv_lines(traj))


def _row_walk(limit, grid, first, n_grid):
    """``next_row`` by its definition: walk the rows from ``first``."""
    i = first
    while i <= n_grid and i * grid <= limit + simulation.GRID_TIE:
        i += 1
    return i


@pytest.mark.parametrize("grid", [1e-5, 1e-4, 2e-4, 0.005, 0.05, 0.1, 0.3, 1 / 3, 0.7])
def test_next_row_matches_row_walk_at_ties(grid):
    # limits at every row time and GRID_TIE and one ulp either side of it
    # and of the tie: the arithmetic start steps onto the walk's row
    n_grid = 60
    tie = simulation.GRID_TIE
    for k in range(n_grid + 3):
        g = k * grid
        limits = [g, g - tie, g + tie, float(np.nextafter(g, -1)), float(np.nextafter(g, 1)),
                  float(np.nextafter(g - tie, -1)), float(np.nextafter(g - tie, 1))]
        for limit in limits:
            for first in range(max(k - 3, 1), min(k + 3, n_grid + 1) + 1):
                assert next_row(limit, grid, first, n_grid) == \
                    _row_walk(limit, grid, first, n_grid), (limit, first)


def test_next_row_far_along_the_grid():
    # a limit a million rows on from first: the row that the walk reaches
    grid, n_grid = 1e-5, 10**7 - 1
    for k in (10**6, 10**7 - 2, 10**7 - 1):
        g = k * grid
        for limit in (g, g - simulation.GRID_TIE, float(np.nextafter(g - simulation.GRID_TIE, -1))):
            expected = _row_walk(limit, grid, k - 2, n_grid)
            assert next_row(limit, grid, 1, n_grid) == expected
    assert next_row(1e9, grid, 1, n_grid) == n_grid + 1


def test_params_refuse_grid_too_fine_to_store():
    # 10**7 rows, t=0 included, are stored; one more is refused
    params = SimParams(r=1.0, beta=0.5, t_max=10**7 - 1, record_grid=1.0)
    assert params.grid_steps == 10**7 - 1
    with pytest.raises(ConfigurationError,
                       match=r"record_grid=1 puts 10000001 rows .* at most 10000000"):
        SimParams(r=1.0, beta=0.5, t_max=10**7, record_grid=1.0)
    with pytest.raises(ConfigurationError, match="record_grid=1e-09 puts 10000000001 rows"):
        SimParams(r=1.0, beta=0.5, t_max=10.0, record_grid=1e-9)
    with pytest.raises(ConfigurationError, match="record_grid=4.94066e-324 puts inf rows"):
        SimParams(r=1.0, beta=0.5, t_max=10.0, record_grid=5e-324)  # t_max/grid overflows


def test_csv_lines_schema():
    st = PopulationState([0, 0, 5], [0, 1])
    traj = simulate(st, SimParams(r=1.0, beta=1.0, t_max=1.0, record_grid=0.5),
                    rng=np.random.default_rng(3))
    lines = list(traj.to_csv_lines())
    assert lines[0] == "t,S,I,R,N_S,N_IS,N_RS"
    assert len(lines) == len(traj.times) + 1
    assert lines == list(trajectory_csv_lines(traj))
    empty = np.zeros((0, 6), dtype=np.int64)
    assert list(Trajectory(0.5, empty, []).to_csv_lines()) == lines[:1]


def test_trajectory_is_held_and_written_in_bounded_memory(tmp_path):
    # 50001 grid rows and 88 events: the run holds one row and one snapshot
    # per run of grid rows, and its writers derive each grid row in turn, so
    # neither grows with the grid.  Expanded to a (T, 6) table and a per-row
    # snapshot list, the run would hold 7.3 MB here and peak at 9.1 MB.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1)))
    st = initialize_state(DegreeSpec.poisson(5, 30).sample(2000, rng), 0.01, rng=rng)
    params = SimParams(r=1.0, beta=0.5, t_max=0.5, record_grid=1e-5, snapshot_measures=True)
    tracemalloc.start()
    try:
        traj = simulate(st, params, rng=rng)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _atomic_write(tmp_path / "t.csv", traj.to_csv_lines())
        _atomic_write(tmp_path / "t.jsonl", _snapshot_lines(traj.snapshots))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 50001 and traj.n_infections + traj.n_removals == 88
    assert held < 2**20, held
    assert peak < 2**20, peak
    assert (tmp_path / "t.csv").read_text().splitlines() == list(trajectory_csv_lines(traj))


def lazy_path_law(mu_S, mu_IS, r, beta):
    """Exact law of the path of level measures that :func:`simulate`'s
    events run from ``PopulationState(mu_S, mu_IS)`` until ``I = 0``.  The
    event class is a removal with probability ``beta I / (r N_IS + beta I)``
    exactly, in place of :func:`simulate`'s float uniform; each event is
    the production ``pick_uniform``/``apply_removal`` or
    ``pick_size_biased``/``apply_infection``, replayed over every draw
    sequence.  An infection that leaves the pools infeasible ends the
    path with ``"depleted"``."""
    states = {}  # a state of each measure triple reached

    def key(state):
        return tuple(tuple(mu) for mu in (state.mu_S, state.mu_IS, state.mu_RS))

    def removal(state, draws):
        apply_removal(state, pick_uniform(state.mu_IS, state.I, draws))

    def infection(state, draws):
        apply_infection(state, pick_size_biased(state.mu_S, state.N_S, draws), draws)

    def step(state, event):
        def run(draws):
            after = copy.deepcopy(state)
            event(after, draws)
            if not after.feasible():
                return "depleted"
            states.setdefault(key(after), after)
            return key(after)
        return run

    @functools.cache
    def law_from(here):
        if here == "depleted" or not states[here].I:
            return {(): Fraction(1)}
        state = states[here]
        rates = ((beta * state.I, removal), (r * state.N_IS, infection))
        total = sum(rate for rate, _ in rates)
        law = {}
        for rate, event in rates:
            if rate:
                for nxt, p in replay_law(step(state, event), one=Fraction(1)).items():
                    for path, q in law_from(nxt).items():
                        p_path = Fraction(rate, total) * p * q
                        law[(nxt,) + path] = law.get((nxt,) + path, 0) + p_path
        return law

    start = PopulationState(mu_S, mu_IS)
    states[key(start)] = start
    return {(key(start),) + path: p for path, p in law_from(key(start)).items()}


def _small_epidemics(degrees, max_n=4, max_total=8):
    """Every ``(mu_S, mu_IS)`` over levels ``degrees`` with at most
    ``max_n`` individuals, at least one infective and one susceptible, an
    even total degree of at most ``max_total``, and no more infective than
    susceptible half-edges."""
    size = max(degrees) + 1
    out = []
    for counts in itertools.product(range(max_n + 1), repeat=2 * len(degrees)):
        mu_S, mu_IS = [0] * size, [0] * size
        for k, c_S, c_I in zip(degrees, counts[::2], counts[1::2]):
            mu_S[k], mu_IS[k] = c_S, c_I
        n_S = sum(k * c for k, c in enumerate(mu_S))
        n_IS = sum(k * c for k, c in enumerate(mu_IS))
        if (sum(counts) <= max_n and sum(mu_S) and sum(mu_IS)
                and (n_S + n_IS) % 2 == 0 and n_S + n_IS <= max_total and n_IS <= n_S):
            out.append((mu_S, mu_IS))
    return out


@pytest.mark.parametrize("r, beta", [(2, 1), (1, 3)])
def test_path_law_equals_explicit_configuration_model(r, beta):
    # on degrees 0, 1 and 2 a new infective holds at most one open
    # half-edge, so no self-pairing is possible and the lazy chain is the
    # epidemic on the uniform multigraph exactly, path by path (on degrees
    # 0 to 3, 26 of the 52 cases with a degree-3 individual differ: a new
    # infective's open half-edges may pair with each other)
    cases = _small_epidemics((0, 1, 2))
    assert len(cases) == 52
    for mu_S, mu_IS in cases:
        lazy = lazy_path_law(mu_S, mu_IS, r, beta)
        assert lazy == explicit_path_law(mu_S, mu_IS, Fraction(r), Fraction(beta)), (mu_S, mu_IS)
        assert sum(lazy.values()) == 1


def _even_degree_counts(spec, n, rng):
    """``spec.sample(n, rng)`` redrawn until the total degree is even."""
    while True:
        counts = spec.sample(n, rng)
        if np.arange(len(counts)) @ counts % 2 == 0:
            return counts


def _z_score(a, b):
    """Two-sample z-score of the difference of the means of ``a`` and ``b``."""
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return (a.mean() - b.mean()) / se if se else 0.0 if a.mean() == b.mean() else math.inf


@pytest.mark.parametrize("weights", [{1: 1.0, 2: 3.0}, {2: 1.0}], ids=["1-2", "2"])
def test_chain_matches_explicit_multigraph_at_n_50(weights):
    # the lazy chain against Gillespie SIR on an explicit pairing of the same
    # degree counts, drawn once per replica for both sides; on degrees 1 and
    # 2 the chain is exact, so every mean agrees within sampling error.  Only
    # even degree totals are drawn, which a pairing needs; the chain itself
    # does not condition its law on parity yet.  Final S/n is S at t_max=20,
    # and I/n is compared at t=0.5, 1 and 2.  Over base seeds 90 to 109 the
    # largest |z| of the eight was 3.27.
    n, i0, r, beta, reps = 50, 0.1, 2.0, 1.0, 1000
    params = SimParams(r=r, beta=beta, t_max=20.0, record_grid=0.5)
    rows = [1, 2, 4, 40]  # the grid rows at t = 0.5, 1, 2 and 20
    spec = DegreeSpec.explicit(weights)
    rng, ref_rng = np.random.default_rng(90), random.Random(90)
    lazy, explicit = [], []
    for _ in range(reps):
        counts = _even_degree_counts(spec, n, rng)
        traj = simulate(initialize_state(counts, i0, rng=rng), params, rng=rng)
        assert traj.terminal != "depleted"
        lazy.append(traj.counts[rows, :2])
        explicit.append(np.array(explicit_sir_grid(counts, i0, r, beta, 20.0, 0.5,
                                                   ref_rng))[rows])
    lazy, explicit = np.array(lazy) / n, np.array(explicit) / n
    z = {"final S": _z_score(lazy[:, -1, 0], explicit[:, -1, 0])}
    for i, t in enumerate((0.5, 1, 2)):
        z[f"I at t={t}"] = _z_score(lazy[:, i, 1], explicit[:, i, 1])
    assert all(abs(v) < 4 for v in z.values()), z
