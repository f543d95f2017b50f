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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (
    ScriptedDraws,
    check_invariants,
    explicit_path_law,
    explicit_sir_grid,
    grid_rows_from_events,
    outbreak_probability,
    replay_law,
    trajectory_csv_lines,
    transmission_pgf,
)
from sirnet import simulation
from sirnet.cli import _atomic_write, _snapshot_lines
from sirnet.degrees import DegreeSpec
from sirnet.errors import ConfigurationError, InfeasibleDrawError, StateCorruptionError
from sirnet.harness import plan_study
from sirnet.limit import horizon_bound, limit_initial
from sirnet.simulation import (
    BlockDraws,
    PopulationState,
    SimParams,
    Trajectory,
    apply_infection,
    apply_removal,
    initialize_state,
    next_row,
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
    # left (the level-2 infective's), then an open one, which pairs with
    # another susceptible's open half-edge without a draw
    k = 3
    before = (st.S, st.I, st.R, st.N_IS, st.N_RS)
    draws = ScriptedDraws((0, 1, 4))
    j, l, p = apply_infection(st, k, draws)
    assert (j, l, p) == (1, 0, 0) and draws.pos == 3
    assert st.S == before[0] - 1 and st.I == before[1] + 1 and st.R == before[2]
    assert st.N_IS - before[3] == k - 2 - 2 * j - l - 2 * p
    assert st.N_RS - before[4] == -l
    # the infectives (2, 1) end at (1, 0); the new one carries k-1-j-l = 1
    assert st.mu_S == [0, 0, 2, 0]
    assert st.mu_IS == [1, 2, 0, 0]
    check_invariants(st, SMALL_MU_S0)
    # the same infection with both other half-edges open: of the 3 other
    # half-edges in the open pool of 4, draw 0 names her own, a loop, so
    # she enters at level 0 and dN_IS = 3 - 2 - 2 = -1
    st = small_state()
    draws = ScriptedDraws((0, 4, 4, 0))
    assert apply_infection(st, k, draws) == (0, 0, 1) and draws.pos == 4
    assert (st.N_S, st.N_IS, st.mu_IS) == (4, 2, [2, 0, 1, 0])
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
    # more I-S than susceptible half-edges, or an odd open pool: no pairing
    # has such a state, so it is refused when built, before any event
    for mu_S, mu_IS in [([0, 0, 1], [0, 0, 0, 1]), ([0, 0, 5], [0, 1])]:
        with pytest.raises(ConfigurationError, match="no pairing of half-edges has"):
            PopulationState(mu_S, mu_IS)


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
    # n = 6 i.i.d. degrees, 2 w.p. 3/8 and 3 w.p. 5/8, given an even total,
    # then a uniform pair of infectives (i0 = 0.3; N_IS <= 6 < 8 <= N_S, so
    # never refused): the law of (mu_S, mu_IS), enumerated over every degree
    # sequence of even total and every pair, against draws through sample
    # and initialize_state
    p = {2: Fraction(3, 8), 3: Fraction(5, 8)}
    n, pairs = 6, list(itertools.combinations(range(6), 2))
    even = [d for d in itertools.product(p, repeat=n) if sum(d) % 2 == 0]
    total = sum(math.prod(p[d] for d in degrees) for degrees in even)
    law = Counter()
    for degrees in even:
        weight = math.prod(p[d] for d in degrees) / total / len(pairs)
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
    assert len(cells) == 8 and expected.min() > 50  # none too small for the chi-square
    observed = np.array([seen[c] for c in cells])
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(stat, len(cells) - 1) > 1e-3, stat  # 5.2 at this seed


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
    (1, 300, 1.0, 1e-4, "t_max"),  # ~170 events under 10001 grid rows
    (1, 300, 5.0, 0.5, "t_max"),  # ~520 events between 11 grid rows
    (1, 300, 60.0, 0.05, "extinct"),  # rows after extinction repeat the last state
    (1, 300, 7.3, 0.7, "t_max"),  # last grid time 7.0 < t_max
], ids=["fine-grid", "coarse-grid", "extinction-fill", "t_max-off-grid"])
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
    # a bound on the rows: the oracle keeps those within t_max + GRID_TIE
    times, records = grid_rows_from_events(start, log, grid, math.ceil(t_max / grid), t_max)
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


@settings(derandomize=True, deadline=None)
@example(grid=0.5, k=1, delta=-2e-10)  # t_max 0.4999999999: row 1 at 0.5 is past it
@given(grid=st.floats(1e-5, 2), k=st.integers(1, 2000),
       delta=st.one_of(st.just(0.0), st.floats(1e-16, 1e-8), st.floats(-1e-8, -1e-16)))
def test_one_rule_places_every_row(grid, k, delta):
    # simulate's rows, SimParams' refusal and plan_study's window refusal
    # all count the rows i with i * grid <= t_max + GRID_TIE: t_max near a
    # whole number of grid steps, on either side of it
    t_max = k * grid * (1 + delta)
    params = SimParams(r=0.0, beta=0.0, t_max=grid, record_grid=grid)
    params.t_max = t_max  # the pair itself, whether or not SimParams takes it
    # no event: every row is placed by the rule alone
    traj = simulate(PopulationState([0, 1], [0, 1]), params, np.random.default_rng(0))
    assert traj.n_rows == _row_walk(t_max, grid, 1, 10**7)
    try:
        steps = SimParams(r=0.0, beta=0.0, t_max=t_max, record_grid=grid).grid_steps
    except ConfigurationError:
        steps = None
    assert (steps is not None) == (traj.n_rows >= 2)
    assert steps is None or traj.n_rows == steps + 1
    # rates of 1e-7 put tau_bar at 13454, so the window is all of [0, t_max]
    try:
        plan_study(DegreeSpec.poisson(5, 30), 1e-7, 1e-7, 0.01, [100], 2, 0, t_max, grid)
        refused = False
    except ConfigurationError:
        refused = True
    assert refused == (traj.n_rows < 2)


def test_params_refuse_grid_too_fine_to_store():
    # 10**7 rows, t=0 included, are stored; one more is refused
    params = SimParams(r=1.0, beta=0.5, t_max=10**7 - 1, record_grid=1.0)
    assert params.grid_steps == 10**7 - 1
    with pytest.raises(ConfigurationError,
                       match=r"record_grid=1 puts 10000001 rows .* at most 10000000"):
        SimParams(r=1.0, beta=0.5, t_max=10**7, record_grid=1.0)
    with pytest.raises(ConfigurationError, match="record_grid=1e-09 puts 10000000001 rows"):
        SimParams(r=1.0, beta=0.5, t_max=10.0, record_grid=1e-9)
    with pytest.raises(ConfigurationError, match="record_grid=7e-07 puts 14285715 rows"):
        SimParams(r=1.0, beta=0.5, t_max=10.0, record_grid=7e-7)  # not 14285715.2857
    with pytest.raises(ConfigurationError,
                       match="record_grid=4.94066e-324 puts more than 10000000 rows"):
        SimParams(r=1.0, beta=0.5, t_max=10.0, record_grid=5e-324)  # t_max/grid overflows


def test_params_row_cap_names_no_count_at_next_rows_cap():
    # converge's window at r=1e303 ends at tau_bar = 1.34544e-306, a ratio
    # of 1345 grid steps to t_max, but its rows reach t_max + GRID_TIE:
    # next_row stops at its cap of 2**53 + 1, which is no count of rows
    t_end = horizon_bound(limit_initial(DegreeSpec.poisson(5, 30), 0.01), 1e303, 1.0, 0.01)
    assert t_end / 1e-306 < 2**53
    with pytest.raises(ConfigurationError) as refused:
        SimParams(r=1e303, beta=1.0, t_max=t_end, record_grid=1e-306)
    assert str(refused.value) == (
        "record_grid=1e-306 puts more than 10000000 rows on [0, t_max=1.34544e-306]; "
        "a trajectory stores at most 10000000")


def test_params_refuse_grid_finer_than_the_tie():
    # a grid time within GRID_TIE after an event counts as after it, so a
    # grid of 1e-16 recorded 10011 rows on [0, 1e-15], the last at
    # t = 1.001e-12; a grid of MIN_GRID = 1e3 * GRID_TIE is the finest taken
    assert simulation.MIN_GRID == 1e3 * simulation.GRID_TIE
    assert SimParams(r=1.0, beta=0.5, t_max=1e-3, record_grid=1e-9).grid_steps == 10**6
    finer = float(np.nextafter(simulation.MIN_GRID, 0))
    for t_max, grid in ((1e-15, 1e-16), (1e-3, finer), (1.34544e-13, 1e-13)):
        with pytest.raises(ConfigurationError) as refused:
            SimParams(r=1.0, beta=0.5, t_max=t_max, record_grid=grid)
        assert str(refused.value) == (
            f"record_grid={grid:g} is finer than 1e-09: a grid time within 1e-12 after "
            f"an event counts as after it, so rows up to 1e-12 past t_max={t_max:g} "
            "would be recorded")


def test_csv_lines_schema():
    st = PopulationState([0, 0, 5], [0, 0, 1])
    traj = simulate(st, SimParams(r=1.0, beta=1.0, t_max=1.0, record_grid=0.5),
                    rng=np.random.default_rng(3))
    lines = list(traj.to_csv_lines())
    assert lines[0] == "t,S,I,R,N_S,N_IS,N_RS"
    assert len(lines) == len(traj.times) + 1
    assert lines == list(trajectory_csv_lines(traj))
    empty = np.zeros((0, 6), dtype=np.int64)
    assert list(Trajectory(0.5, empty, []).to_csv_lines()) == lines[:1]


def test_trajectory_is_held_and_written_in_bounded_memory(tmp_path):
    # 50001 grid rows and 94 events: the run holds one row and one snapshot
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
    assert len(traj.times) == 50001 and traj.n_infections + traj.n_removals == 94
    assert held < 2**20, held
    assert peak < 2**20, peak
    assert (tmp_path / "t.csv").read_text().splitlines() == list(trajectory_csv_lines(traj))


def lazy_path_law(mu_S, mu_IS, r, beta):
    """Exact law of the path of level measures that :func:`simulate`'s
    events run from ``PopulationState(mu_S, mu_IS)`` until ``I = 0``.  The
    event class is a removal with probability ``beta I / (r N_IS + beta I)``
    exactly, in place of :func:`simulate`'s float uniform; each event is
    the production :func:`~sirnet.simulation.fire` of that class, replayed
    over every draw sequence."""
    states = {}  # a state of each measure triple reached

    def key(state):
        return tuple(tuple(mu) for mu in (state.mu_S, state.mu_IS, state.mu_RS))

    def step(state, removal):
        def run(draws):
            after = copy.deepcopy(state)
            simulation.fire(after, removal, draws)
            states.setdefault(key(after), after)
            return key(after)
        return run

    @functools.cache
    def law_from(here):
        if not states[here].I:
            return {(): Fraction(1)}
        state = states[here]
        rates = ((beta * state.I, True), (r * state.N_IS, False))
        total = sum(rate for rate, _ in rates)
        law = {}
        for rate, removal in rates:
            if rate:
                for nxt, p in replay_law(step(state, removal), one=Fraction(1)).items():
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
        if sum(counts) > max_n:
            continue
        mu_S, mu_IS = [0] * size, [0] * size
        for k, c_S, c_I in zip(degrees, counts[::2], counts[1::2]):
            mu_S[k], mu_IS[k] = c_S, c_I
        n_S = sum(k * c for k, c in enumerate(mu_S))
        n_IS = sum(k * c for k, c in enumerate(mu_IS))
        if (sum(mu_S) and sum(mu_IS)
                and (n_S + n_IS) % 2 == 0 and n_S + n_IS <= max_total and n_IS <= n_S):
            out.append((mu_S, mu_IS))
    return out


@pytest.mark.parametrize("r, beta", [(2, 1), (1, 3)])
def test_path_law_equals_explicit_configuration_model(r, beta):
    # the lazy chain is the epidemic on the uniform multigraph exactly, path
    # by path.  Degrees 0 to 3 hold every case on degrees {0, 1, 2}, {1, 3}
    # and {2, 3}; in 52 of the 104 a degree-3 new infective can hold two
    # open half-edges that pair with each other (without that self-pairing,
    # 26 of those 52 differ)
    cases = _small_epidemics((0, 1, 2, 3))
    assert len(cases) == 104
    for degrees in ((1, 3), (2, 3)):
        assert all(case in cases for case in _small_epidemics(degrees))
    for mu_S, mu_IS in cases:
        lazy = lazy_path_law(mu_S, mu_IS, r, beta)
        assert lazy == explicit_path_law(mu_S, mu_IS, Fraction(r), Fraction(beta)), (mu_S, mu_IS)
        assert sum(lazy.values()) == 1


def test_event_class_is_a_removal_with_chance_beta_I_over_rate(monkeypatch):
    # each event of simulate is a removal with chance p = beta I / (r N_IS +
    # beta I) of the state before it, so removals minus the sum of the p's
    # is a martingale whose variance is the sum of p(1-p).  Wrapping fire
    # reads each event's class and state on the production loop.  The runs
    # stop at t=5, where the limit's N_IS is 0.0017 a node (100 edges at
    # n=60000), so no event meets N_IS = 0 and a class choice that would
    # infect there is caught by this law, not by an infeasible draw.  The
    # four runs make about 4.2e5 events and a variance of about 66,000.
    # Over seeds 1-4, 5-8, ... 21-24 |z| stayed under 1.4; cutting the
    # infection share by 5% (u (rate - 0.05 r N_IS) < beta I) read z of
    # 11.4 to 13.9, and a removal chance of 0.99 p read -6.7 to -8.4.
    r, beta, n = 1.0, 0.5, 60000
    params = SimParams(r=r, beta=beta, t_max=5.0, record_grid=5.0)
    fire = simulation.fire
    removals, sum_p, var = 0, 0.0, 0.0

    def recorded(state, removal, draws):
        nonlocal removals, sum_p, var
        p = beta * state.I / (r * state.N_IS + beta * state.I)
        removals += removal
        sum_p += p
        var += p * (1.0 - p)
        fire(state, removal, draws)

    monkeypatch.setattr(simulation, "fire", recorded)
    spec = DegreeSpec.poisson(5, 30)
    for seed in (1, 2, 3, 4):
        rng = np.random.default_rng(seed)
        simulate(initialize_state(spec.sample(n, rng), 0.01, rng=rng), params, rng=rng)
    z = (removals - sum_p) / math.sqrt(var)
    assert var > 60000, var
    assert abs(z) < 4, (z, removals, sum_p, var)


def _z_score(a, b):
    """Two-sample z-score of the difference of the means of ``a`` and ``b``."""
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    return (a.mean() - b.mean()) / se if se else 0.0 if a.mean() == b.mean() else math.inf


@pytest.mark.parametrize("spec", [
    DegreeSpec.explicit({1: 1.0, 2: 3.0}),
    DegreeSpec.explicit({2: 1.0}),
    DegreeSpec.poisson(5, 30),
], ids=["1-2", "2", "poisson:5:30"])
def test_chain_matches_explicit_multigraph_at_n_50(spec):
    # the lazy chain against Gillespie SIR on an explicit pairing of the same
    # degree counts, drawn once per replica for both sides (even totals, as
    # sample draws them); the chain is exact, so every mean agrees within
    # sampling error.  On poisson:5:30 a new infective's open half-edges may
    # pair with each other, which the chain must sample to agree.  Final S/n
    # is S at t_max=20, and I/n is compared at t=0.5, 1 and 2.  Over base
    # seeds 90 to 109 the largest |z| of the eight on degrees 1 and 2 was
    # 3.27, and of the four on poisson:5:30 was 2.64.
    n, i0, r, beta, reps = 50, 0.1, 2.0, 1.0, 1000
    params = SimParams(r=r, beta=beta, t_max=20.0, record_grid=0.5)
    rows = [1, 2, 4, 40]  # the grid rows at t = 0.5, 1, 2 and 20
    rng, ref_rng = np.random.default_rng(90), random.Random(90)
    lazy, explicit = [], []
    for _ in range(reps):
        counts = spec.sample(n, rng)
        traj = simulate(initialize_state(counts, i0, rng=rng), params, rng=rng)
        lazy.append(traj.counts[rows, :2])
        explicit.append(np.array(explicit_sir_grid(counts, i0, r, beta, 20.0, 0.5,
                                                   ref_rng))[rows])
    lazy, explicit = np.array(lazy) / n, np.array(explicit) / n
    z = {"final S": _z_score(lazy[:, -1, 0], explicit[:, -1, 0])}
    for i, t in enumerate((0.5, 1, 2)):
        z[f"I at t={t}"] = _z_score(lazy[:, i, 1], explicit[:, i, 1])
    assert all(abs(v) < 4 for v in z.values()), z


def _race_pgf(m, r, beta, s):
    """``E[s^J]`` over every order in which ``m`` edge clocks of rate ``r``
    and one removal clock of rate ``beta`` ring: an order's chance is the
    product of each clock's rate over the rates still running, and ``J`` is
    the number of edge clocks before the removal."""
    total = 0
    for order in itertools.permutations(range(m + 1)):  # clock m is the removal
        p, left = Fraction(1), m * r + beta
        for clock in order:
            rate = beta if clock == m else r
            p *= rate / left
            left -= rate
        total += p * s ** order.index(m)
    return total


def test_transmission_pgf_equals_race_enumeration():
    for r, beta in [(Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(3))]:
        for m in range(5):
            for s in (Fraction(0), Fraction(1, 3), Fraction(1)):
                assert transmission_pgf(m, r, beta, s) == _race_pgf(m, r, beta, s), (m, s)


def test_major_outbreak_chance_from_one_infective():
    # the early epidemic from one infective, ceil(0.5) = 1 of n=300, against
    # the branching value 0.8621, whose offspring share one infectious
    # period; Newman's independent transmissions give 0.9591, which the
    # runs must tell apart.  A run is major if it infects more than 5%: the
    # final sizes are bimodal, nearly all under 1% or over 50%, and at t=30
    # no run at or under 5% was still infectious at any seed below.  Over
    # seeds 1 to 20 the z-score against the exact value ran from -2.20 to
    # +2.22, and against Newman's from -12.48 to -9.37.
    spec, n, runs, r, beta = DegreeSpec.poisson(5, 30), 300, 1500, 1.0, 0.5
    params = SimParams(r=r, beta=beta, t_max=30.0, record_grid=30.0)
    rng = np.random.default_rng(7)
    major = 0
    for _ in range(runs):
        traj = simulate(initialize_state(spec.sample(n, rng), 0.5 / n, rng=rng), params, rng=rng)
        major += n - traj.counts[-1, 0] > 0.05 * n
    share = major / runs
    se = math.sqrt(share * (1 - share) / runs)
    exact = outbreak_probability(spec, r, beta)
    T = r / (r + beta)
    newman = outbreak_probability(spec, r, beta, pgf=lambda m, s: (1 - T + T * s) ** m)
    assert round(exact, 4) == 0.8621 and round(newman, 4) == 0.9591
    assert abs(share - exact) < 4 * se, (share, exact, se)
    assert abs(share - newman) > 6 * se, (share, newman, se)
