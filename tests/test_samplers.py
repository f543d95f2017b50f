"""Exactness of the half-edge matching samplers.

Oracles (independent of the implementation):

* joint law of (j, l): multivariate hypergeometric over the pool of
  ``N_S - 1`` half-edges with ``N_IS - 1`` infectious-side and ``N_RS``
  removed-side elements, drawn ``k - 1`` times;
* allocation law: every set of ``n`` distinct half-edges equally likely,
  reported as counts per individual, then aggregated to the level measure
  the simulator keeps (a roster is a level measure);
* the whole infection event: the contaminating half-edge and the ``j``
  matched infectious ones a uniform ``(j+1)``-subset, the ``l`` removed
  ones a uniform ``l``-subset, and the pairs among the new infective's
  open half-edges counted over the perfect matchings of the open pool,
  given ``(j, l)``;
* the removal pick is uniform over individuals and the susceptible pick is
  size-biased by degree.

An infection is one pass: :func:`sirnet.simulation.apply_infection` draws
the contaminating half-edge, then :func:`sample_jl` draws each other
half-edge once by ``below``, and that one draw both classifies it and
names the owner it is matched to; one draw more per pairing of her open
half-edges, while she holds two, says whether the partner is her own.  These are the functions
:func:`sirnet.simulation.simulate` runs; their exact law is computed by
replaying them on every sequence of integer draws (``replay_law``), and
checked against real draws by frequency.
"""

import numpy as np
import pytest

from oracles import (
    ScriptedDraws,
    aggregate_to_levels,
    all_matched_levels,
    allocation_oracle_pmf,
    infection_oracle_pmf,
    jl_oracle_pmf,
    jl_pool_configurations,
    level_counts,
    level_pick_chain_pmf,
    replay_law,
    small_rosters,
)
from sirnet.errors import InfeasibleDrawError, StateCorruptionError
from sirnet.simulation import (
    BlockDraws,
    PopulationState,
    apply_infection,
    apply_removal,
    pick_size_biased,
    pick_uniform,
    sample_jl,
)


def jl_law(k, n_S, n_IS, n_RS):
    """Exact law of :func:`sample_jl`, the sampler simulate runs, with every
    I-S and R-S half-edge held by its own individual."""
    return replay_law(lambda draws: sample_jl(k, n_S, n_IS, n_RS,
                                              [0, n_IS - 1], [0, n_RS], draws))


def test_jl_replay_equals_oracle_small_grid():
    for config in jl_pool_configurations(6):
        oracle = jl_oracle_pmf(*config)
        law = jl_law(*config)
        assert set(law) == set(oracle), config
        for key, p in oracle.items():
            assert law[key] == pytest.approx(p, abs=1e-12), (config, key)


def test_jl_draws_only_through_below():
    # ScriptedDraws has below and nothing else: no rng to fall back on
    assert not hasattr(ScriptedDraws(()), "rng")
    # pool of 7: 2 I-S, 2 R-S, 3 open; draws 0, 0, 0 hit I-S, I-S, R-S,
    # and each names the owner it is matched to
    draws = ScriptedDraws((0, 0, 0))
    mu_IS, mu_RS = [0, 0, 1], [0, 2]
    assert sample_jl(4, 8, 3, 2, mu_IS, mu_RS, draws) == (2, 1)
    assert draws.pos == 3
    assert mu_IS == [1, 0, 0] and mu_RS == [1, 1]


def test_jl_scalar_draws_within_support():
    draws = BlockDraws(np.random.default_rng(5))
    support = set(jl_oracle_pmf(4, 8, 3, 2))
    for _ in range(500):
        assert sample_jl(4, 8, 3, 2, [0, 2], [0, 2], draws) in support


def test_jl_degenerate_cases():
    # an empty script stops any caller that asks for a draw
    no_draws = ScriptedDraws(())
    assert sample_jl(1, 5, 2, 1, [0, 1], [0, 1], no_draws) == (0, 0)  # no extra half-edges
    assert sample_jl(3, 5, 1, 0, [0], [0], no_draws) == (0, 0)  # nothing infectious/removed to hit


def test_jl_infeasible():
    draws = ScriptedDraws(())
    with pytest.raises(InfeasibleDrawError):
        sample_jl(6, 5, 2, 0, [0, 1], [0], draws)  # k-1 > N_S-1
    with pytest.raises(InfeasibleDrawError):
        sample_jl(2, 5, 0, 0, [0], [0], draws)  # no contaminating edge


def level_oracle(counts, n):
    return aggregate_to_levels(counts, allocation_oracle_pmf(list(counts), n))


def test_allocation_chain_equals_oracle():
    for counts in [(1,), (3,), (2, 2), (1, 3), (1, 2, 3), (4, 1, 2, 2)]:
        for n in range(sum(counts) + 1):
            oracle = level_oracle(counts, n)
            chain = level_pick_chain_pmf(level_counts(counts), n)
            assert set(oracle) == set(chain)
            for key in oracle:
                assert chain[key] == pytest.approx(oracle[key], abs=1e-12)


def test_allocate_exact_law_enumeration():
    # every sequence of integer draws replayed through sample_jl, on the
    # infectious and the removed side, where every draw is matched
    for counts in [(1,), (3,), (2, 2), (1, 3), (1, 2, 3), (3, 1, 2), (4, 1, 2, 2)]:
        mu = level_counts(counts)
        for n in range(min(sum(counts), 5) + 1):
            oracle = level_oracle(counts, n)
            for removed in (False, True):
                law = replay_law(lambda d: all_matched_levels(mu, n, d, removed))
                assert set(law) == set(oracle), (counts, n, removed)
                for key, p in oracle.items():
                    assert law[key] == pytest.approx(p, abs=1e-12), (counts, n, key)


def test_roster_sampling_matches_allocation_law():
    draws = BlockDraws(np.random.default_rng(17))
    counts = [2, 1, 3]
    mu = level_counts(counts)
    oracle = level_oracle(counts, 3)
    hits = {}
    n_draws = 100_000
    for _ in range(n_draws):
        key = all_matched_levels(mu, 3, draws)
        hits[key] = hits.get(key, 0) + 1
    assert set(hits) <= set(oracle)
    for key, p in oracle.items():
        assert hits.get(key, 0) / n_draws == pytest.approx(p, abs=0.01)


def test_allocate_edges_and_errors():
    mu = (0, 0, 1, 1)
    assert all_matched_levels(mu, 0, ScriptedDraws(())) == mu
    draws = BlockDraws(np.random.default_rng(0))
    assert all_matched_levels(mu, 5, draws) == (2, 0, 0, 0)  # full pool
    assert all_matched_levels(mu, 5, draws, removed=True) == (2, 0, 0, 0)
    with pytest.raises(InfeasibleDrawError):
        all_matched_levels(mu, 6, draws)
    with pytest.raises(StateCorruptionError):  # n_IS overstates the levels
        sample_jl(2, 8, 8, 0, list(mu), [0], ScriptedDraws((6,)))


def event_state(mu_S, counts_IS, counts_RS):
    """A state whose infectives hold ``counts_IS`` edges-to-S and whose
    removed hold ``counts_RS``, built by the simulator's own events."""
    state = PopulationState(mu_S, np.bincount(list(counts_IS) + list(counts_RS),
                                              minlength=1))
    for c in counts_RS:
        apply_removal(state, c)
    return state


def event_law(mu_S, counts_IS, counts_RS, k):
    """Exact law of ``(mu_IS, mu_RS)`` after :func:`apply_infection`."""
    def run(draws):
        state = event_state(mu_S, counts_IS, counts_RS)
        apply_infection(state, k, draws)
        return tuple(state.mu_IS), tuple(state.mu_RS)

    return replay_law(run)


def test_infection_event_exact_law():
    # the whole event, contaminating half-edge first, replayed on every draw
    # sequence against the (j, l) law times the two allocation laws
    susceptibles = [[0, 1, 1], [0, 0, 0, 2], [0, 1, 1, 1], [0, 0, 1, 0, 1], [0, 1, 0, 0, 1]]
    rosters = small_rosters(3, 3)
    checked = 0
    for mu_S in susceptibles:
        n_S = sum(k * c for k, c in enumerate(mu_S))
        for counts_IS in rosters:
            for counts_RS in [()] + rosters:
                pool = n_S - sum(counts_IS) - sum(counts_RS)
                if pool < 0 or pool % 2:  # no pairing has these pools
                    continue
                size = max(len(mu_S), *[c + 1 for c in counts_IS + counts_RS])
                for k in range(1, len(mu_S)):
                    if not mu_S[k]:
                        continue
                    oracle = infection_oracle_pmf(counts_IS, counts_RS, n_S, k, size)
                    law = event_law(mu_S, counts_IS, counts_RS, k)
                    config = (mu_S, counts_IS, counts_RS, k)
                    assert set(law) == set(oracle), config
                    for key, p in oracle.items():
                        assert abs(law[key] - p) < 1e-12, (config, key)
                    checked += 1
    assert checked == 350


def test_infection_draws_once_per_matched_half_edge():
    # after the degree pick: one draw for the contaminating half-edge, then
    # one per half-edge until no I-S or R-S half-edge is left, although k-1 = 6,
    # then one per pairing of her m = 3 open half-edges while two are left
    state = event_state([0] * 7 + [2], (1, 1), (2,))
    assert (state.N_S, state.N_IS, state.N_RS) == (14, 2, 2)
    # contaminating: I-S 0; then open, I-S 0, R-S 0, R-S 0; then in the open
    # pool of 10, another's (8 of 9 is not one of her 2 others), then her
    # own (0 of 7), and her last one pairs without a draw
    draws = ScriptedDraws((0, 12, 0, 0, 0, 8, 0))
    assert apply_infection(state, 7, draws) == (1, 2, 1)
    assert draws.pos == 7
    assert state.mu_IS == [2, 1, 0, 0, 0, 0, 0, 0]
    assert state.mu_RS == [1, 0, 0, 0, 0, 0, 0, 0]


def test_removal_pick_uniform_over_individuals():
    mu = [3, 0, 2, 1, 0, 4]
    law = replay_law(lambda d: pick_uniform(mu, 10, d))
    assert law == pytest.approx({i: c / 10 for i, c in enumerate(mu) if c}, abs=1e-15)
    draws = BlockDraws(np.random.default_rng(23))
    picks = np.bincount([pick_uniform(mu, 10, draws) for _ in range(100_000)],
                        minlength=len(mu))
    np.testing.assert_allclose(picks / 100_000, np.array(mu) / 10, atol=0.005)


def test_susceptible_pick_size_biased():
    mu = [5, 3, 0, 2, 1]  # degree-0 susceptibles are never hit
    total = sum(k * c for k, c in enumerate(mu))
    law = replay_law(lambda d: pick_size_biased(mu, total, d))
    want = {k: k * c / total for k, c in enumerate(mu) if k * c}
    assert law == pytest.approx(want, abs=1e-15)
    draws = BlockDraws(np.random.default_rng(29))
    picks = np.bincount([pick_size_biased(mu, total, draws) for _ in range(100_000)],
                        minlength=len(mu))
    np.testing.assert_allclose(picks / 100_000, [want.get(k, 0.0) for k in range(len(mu))],
                               atol=0.005)


def test_block_draws_below_exact_range():
    draws = BlockDraws(np.random.default_rng(31))
    for n in (1, 2, 7, 1000, (1 << 62) + 1, (1 << 63) - 1):
        xs = [draws.below(n) for _ in range(2000)]
        assert min(xs) >= 0 and max(xs) < n
    counts = np.bincount([draws.below(7) for _ in range(70_000)], minlength=7)
    np.testing.assert_allclose(counts / 70_000, 1 / 7, atol=0.006)
    with pytest.raises(InfeasibleDrawError):
        draws.below(0)


def test_block_draws_below_rejects_partial_top_range():
    # 2**63 = 2 mod 3: the two top words would favour residues 0 and 1
    class Words:
        def integers(self, high, size):
            return np.array([5, high - 1, high - 2])

    assert BlockDraws(Words()).below(3) == 5 % 3
