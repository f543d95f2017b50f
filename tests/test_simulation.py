import math

import numpy as np
import pytest

from oracles import check_invariants
from sirnet import simulation
from sirnet.degrees import DegreeSpec
from sirnet.errors import ConfigurationError, InfeasibleDrawError, StateCorruptionError
from sirnet.simulation import (
    BlockDraws,
    PopulationState,
    SimParams,
    apply_infection,
    apply_removal,
    initialize_state,
    simulate,
    stopping_time,
)


SMALL_MU_S0 = [0, 0, 2, 1]


def small_state():
    """3 susceptibles (degrees 2,2,3), 2 infectives with 2 and 1 edges-to-S."""
    return PopulationState(SMALL_MU_S0, [2, 1])


def test_state_summaries():
    st = small_state()
    assert (st.S, st.I, st.R) == (3, 2, 0)
    assert (st.N_S, st.N_IS, st.N_RS) == (7, 3, 0)
    assert (st.mu_S, st.mu_IS, st.mu_RS) == ([0, 0, 2, 1], [0, 1, 1, 0], [0, 0, 0, 0])
    check_invariants(st, SMALL_MU_S0)


def test_apply_infection_deltas():
    st = small_state()
    # degree-3 susceptible infected; j=1 matched I-S edge, l=0: whichever
    # 2 of the 3 I-S half-edges are taken, the infectives (2, 1) end at (1, 0)
    k, j, l = 3, 1, 0
    before = (st.S, st.I, st.R, st.N_IS, st.N_RS)
    apply_infection(st, k, j, l, BlockDraws(np.random.default_rng(0)))
    assert st.S == before[0] - 1 and st.I == before[1] + 1 and st.R == before[2]
    assert st.N_IS - before[3] == k - 2 - 2 * j - l
    assert st.N_RS - before[4] == -l
    # the new infective carries k-1-j-l = 1 edge-to-S
    assert st.mu_S == [0, 0, 2, 0]
    assert st.mu_IS == [1, 2, 0, 0]
    check_invariants(st, SMALL_MU_S0)


def test_apply_infection_validates_totals():
    st = small_state()
    draws = BlockDraws(np.random.default_rng(0))
    with pytest.raises(InfeasibleDrawError):
        apply_infection(st, 3, 1, 1, draws)  # l = 1 > N_RS = 0
    with pytest.raises(InfeasibleDrawError):
        apply_infection(PopulationState([0] * 8 + [1], [1, 1]), 8, 2, 0, draws)
    with pytest.raises(StateCorruptionError):
        apply_infection(st, 3, 2, 1, draws)  # k-1-j-l < 0
    with pytest.raises(StateCorruptionError):
        apply_infection(st, 5, 0, 0, draws)  # no degree-5 susceptible
    with pytest.raises(StateCorruptionError):
        apply_infection(st, 1, 0, 0, draws)  # no degree-1 susceptible
    assert st.row() == small_state().row()  # rejected events change nothing
    check_invariants(st, SMALL_MU_S0)


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
    degrees = spec.sample(500, rng)
    st = initialize_state(degrees, 0.02, rng=rng)
    assert st.I == math.ceil(0.02 * 500)
    assert st.S == 500 - st.I
    # every initial infective keeps her full degree as edges-to-S
    assert st.N_IS + st.N_S == degrees.sum()
    check_invariants(st, st.mu_S)


def test_initialize_state_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        initialize_state([2, 2], 0.0, rng=rng)
    with pytest.raises(ConfigurationError):
        initialize_state([2, 2], 0.9, rng=rng)  # no susceptibles left
    with pytest.raises(ConfigurationError):
        initialize_state([], 0.1, rng=rng)


def test_initialize_refuses_more_infective_than_susceptible_half_edges():
    # 2 of 3 individuals infectious: 4 infective half-edges against 2
    with pytest.raises(ConfigurationError, match=r"i0=0\.6 .* 4 half-edges .* only 2"):
        initialize_state([2, 2, 2], 0.6, rng=np.random.default_rng(0))
    # equal pools pair exactly, and are accepted
    st = initialize_state([2, 2, 2, 2], 0.5, rng=np.random.default_rng(0))
    assert st.N_IS == st.N_S == 4


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
    st = PopulationState([0, 0, 10], [0, 0, 0])
    params = SimParams(r=1.0, beta=5.0, t_max=100.0, record_grid=10.0)
    traj = simulate(st, params, rng=np.random.default_rng(1))
    assert traj.terminal == "extinct"
    assert len(traj.times) == 11  # t=0 plus 10 grid rows
    assert traj.I[-1] == 0 and traj.R[-1] == 3
    assert np.all(traj.I[-5:] == 0)
    assert traj.S[-1] == 10  # nobody to infect through 0 edges


def geometric_run(n):
    """A seeded epidemic on ``n`` nodes of geometric degree, to t=5."""
    rng = np.random.default_rng(8)
    st = initialize_state(DegreeSpec.geometric(0.6, 40).sample(n, rng), 0.05, rng=rng)
    return simulate(st, SimParams(r=2.0, beta=1.0, t_max=5.0), rng=rng)


def test_simulate_conserves_population_checked(checked_events):
    n = 300
    traj = geometric_run(n)
    assert np.all(traj.S + traj.I + traj.R == n)
    assert np.all(traj.N_IS + traj.N_RS <= traj.N_S[0])
    assert np.all(np.diff(traj.S) <= 0)
    assert np.all(np.diff(traj.R) >= 0)
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
    st = PopulationState([0, 0, 5], [1, 1])
    params = SimParams(r=1.0, beta=1.0, t_max=1.0, record_grid=0.5,
                       snapshot_measures=True)
    traj = simulate(st, params, rng=np.random.default_rng(2))
    assert len(traj.snapshots) == len(traj.times)
    t0, snap0 = traj.snapshots[0]
    assert t0 == 0.0
    assert snap0 == {"mu_S": [0, 0, 5], "mu_IS": [0, 2, 0], "mu_RS": [0, 0, 0]}
    for (_, snap), *row in zip(traj.snapshots, traj.S, traj.I, traj.R,
                               traj.N_S, traj.N_IS, traj.N_RS):
        masses = [sum(snap[name]) for name in ("mu_S", "mu_IS", "mu_RS")]
        edges = [sum(k * c for k, c in enumerate(snap[name]))
                 for name in ("mu_S", "mu_IS", "mu_RS")]
        assert masses + edges == row


def test_csv_lines_schema():
    st = PopulationState([0, 0, 5], [1])
    traj = simulate(st, SimParams(r=1.0, beta=1.0, t_max=1.0, record_grid=0.5),
                    rng=np.random.default_rng(3))
    lines = list(traj.to_csv_lines())
    assert lines[0] == "t,S,I,R,N_S,N_IS,N_RS"
    assert len(lines) == len(traj.times) + 1


def test_stopping_time():
    traj_times = np.array([0.0, 0.1, 0.2, 0.3])
    traj = type("T", (), {})()
    traj.times = traj_times
    traj.N_IS = np.array([50, 30, 5, 0])
    assert stopping_time(traj, 0.02, 1000) == pytest.approx(0.2)
    assert stopping_time(traj, 1e-9, 1000) == pytest.approx(0.3)  # extinction
    traj.N_IS = np.array([50, 30, 25, 20])
    assert stopping_time(traj, 0.002, 1000) == math.inf
    with pytest.raises(ConfigurationError):
        stopping_time(traj, 0.0, 1000)
