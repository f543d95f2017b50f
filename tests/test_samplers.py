"""Exactness of the half-edge matching samplers.

Oracles (independent of the implementation):

* joint law of (j, l): multivariate hypergeometric over the pool of
  ``N_S - 1`` half-edges with ``N_IS - 1`` infectious-side and ``N_RS``
  removed-side elements, drawn ``k - 1`` times;
* allocation law: every set of ``n`` distinct half-edges equally likely,
  reported as counts per individual, then aggregated to the level measure
  the simulator keeps (a roster is a level measure);
* the removal pick is uniform over individuals and the susceptible pick is
  size-biased by degree.

The (j, l) sampler and the level samplers are the ones
:func:`sirnet.simulation.simulate` runs;
their exact law is computed by replaying them on every sequence of integer
draws (``replay_law``), and checked against real draws by frequency.
"""

import numpy as np
import pytest

from oracles import (
    ScriptedDraws,
    aggregate_to_levels,
    allocation_oracle_pmf,
    jl_oracle_pmf,
    jl_pool_configurations,
    level_counts,
    level_pick_chain_pmf,
    replay_law,
)
from sirnet.errors import InfeasibleDrawError, StateCorruptionError
from sirnet.simulation import (
    BlockDraws,
    pick_size_biased,
    pick_uniform,
    sample_jl,
    take_half_edges,
)


def jl_law(k, n_S, n_IS, n_RS):
    """Exact law of :func:`sample_jl`, the sampler simulate runs."""
    return replay_law(lambda draws: sample_jl(k, n_S, n_IS, n_RS, draws))


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
    # pool of 7: 2 I-S, 2 R-S, 3 open; draws 0, 0, 0 hit I-S, I-S, R-S
    draws = ScriptedDraws((0, 0, 0))
    assert sample_jl(4, 8, 3, 2, draws) == (2, 1)
    assert draws.pos == 3


def test_jl_scalar_draws_within_support():
    draws = BlockDraws(np.random.default_rng(5))
    support = set(jl_oracle_pmf(4, 8, 3, 2))
    for _ in range(500):
        assert sample_jl(4, 8, 3, 2, draws) in support


def test_jl_degenerate_cases():
    # an empty script stops any caller that asks for a draw
    assert sample_jl(1, 5, 2, 1, ScriptedDraws(())) == (0, 0)  # no extra half-edges
    assert sample_jl(3, 5, 1, 0, ScriptedDraws(())) == (0, 0)  # nothing infectious/removed to hit


def test_jl_infeasible():
    draws = ScriptedDraws(())
    with pytest.raises(InfeasibleDrawError):
        sample_jl(6, 5, 2, 0, draws)  # k-1 > N_S-1
    with pytest.raises(InfeasibleDrawError):
        sample_jl(2, 5, 0, 0, draws)  # no contaminating edge
    with pytest.raises(InfeasibleDrawError):
        sample_jl(2, 5, 4, 2, draws)  # N_IS + N_RS > N_S


def level_oracle(counts, n):
    return aggregate_to_levels(counts, allocation_oracle_pmf(list(counts), n))


def take_law(counts, n):
    """Exact law of the level measure :func:`take_half_edges` leaves."""
    mu = level_counts(counts)

    def run(draws):
        levels = list(mu)
        take_half_edges(levels, sum(counts), n, draws)
        return tuple(levels)

    return replay_law(run)


def test_allocation_chain_equals_oracle():
    for counts in [(1,), (3,), (2, 2), (1, 3), (1, 2, 3), (4, 1, 2, 2)]:
        for n in range(sum(counts) + 1):
            oracle = level_oracle(counts, n)
            chain = level_pick_chain_pmf(level_counts(counts), n)
            assert set(oracle) == set(chain)
            for key in oracle:
                assert chain[key] == pytest.approx(oracle[key], abs=1e-12)


def test_allocate_exact_law_enumeration():
    # every sequence of integer draws replayed through the production sampler
    for counts in [(1,), (3,), (2, 2), (1, 3), (1, 2, 3), (3, 1, 2), (4, 1, 2, 2)]:
        for n in range(min(sum(counts), 5) + 1):
            oracle = level_oracle(counts, n)
            law = take_law(counts, n)
            assert set(law) == set(oracle), (counts, n)
            for key, p in oracle.items():
                assert law[key] == pytest.approx(p, abs=1e-12), (counts, n, key)


def test_roster_sampling_matches_allocation_law():
    draws = BlockDraws(np.random.default_rng(17))
    counts = [2, 1, 3]
    mu = list(level_counts(counts))
    oracle = level_oracle(counts, 3)
    hits = {}
    n_draws = 100_000
    for _ in range(n_draws):
        levels = mu.copy()
        take_half_edges(levels, 6, 3, draws)
        hits[tuple(levels)] = hits.get(tuple(levels), 0) + 1
    assert set(hits) <= set(oracle)
    for key, p in oracle.items():
        assert hits.get(key, 0) / n_draws == pytest.approx(p, abs=0.01)


def test_allocate_edges_and_errors():
    draws = BlockDraws(np.random.default_rng(0))
    mu = [0, 0, 1, 1]
    take_half_edges(mu, 5, 0, draws)
    assert mu == [0, 0, 1, 1]
    take_half_edges(mu, 5, 5, draws)  # full pool
    assert mu == [2, 0, 0, 0]
    with pytest.raises(InfeasibleDrawError):
        take_half_edges([0, 0, 1, 1], 5, 6, draws)
    with pytest.raises(StateCorruptionError):
        take_half_edges([0, 0, 1, 1], 7, 6, draws)  # total overstates the levels


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
