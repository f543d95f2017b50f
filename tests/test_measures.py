"""Real measures of the limit, and the size-biased law of an integer
level-count measure as the simulator draws it."""

import numpy as np
import pytest
from scipy import stats

from sirnet.measures import RealMeasure
from sirnet.simulation import BlockDraws, pick_size_biased


def test_moment_order_bounds():
    nu = RealMeasure({2: 1.0})
    assert nu.moment(5) == 32
    with pytest.raises(ValueError):
        nu.moment(6)
    with pytest.raises(ValueError):
        nu.moment(-1)


def test_empty_measure():
    nu = RealMeasure({})
    assert nu.mass == 0
    assert nu.moment(3) == 0
    assert nu.kmax == 0


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        RealMeasure({1: -2.0})
    with pytest.raises(ValueError):
        RealMeasure([0.5, -0.5])


def test_size_biased_law_chi_square():
    # empirical frequencies over 1e6 draws vs k mu(k)/<mu,x> on a 3-atom measure
    mu = [0, 5, 0, 2, 0, 0, 0, 0, 1]
    first_moment = 19
    draws = BlockDraws(np.random.default_rng(2024))
    picks = np.array([pick_size_biased(mu, first_moment, draws) for _ in range(10**6)])
    levels = np.array([1, 3, 8])
    expected_p = levels * np.array([5, 2, 1]) / first_moment
    observed = np.array([(picks == k).sum() for k in levels])
    chi2, p = stats.chisquare(observed, expected_p * len(picks))
    assert p > 0.001


def test_size_biased_excludes_zero_level():
    draws = BlockDraws(np.random.default_rng(0))
    assert all(pick_size_biased([100, 0, 1], 2, draws) == 2 for _ in range(20))


def test_size_biased_needs_positive_first_moment():
    draws = BlockDraws(np.random.default_rng(0))
    with pytest.raises(ValueError):
        pick_size_biased([5], 0, draws)
    with pytest.raises(ValueError):
        pick_size_biased([], 0, draws)


def test_real_measure_basics():
    nu = RealMeasure({1: 0.25, 4: 0.75})
    assert nu.kmax == 4
    assert nu.mass == 1.0
    assert nu.moment(1) == pytest.approx(0.25 + 3.0)
    assert nu(2) == 0.0 and nu(99) == 0.0
    with pytest.raises(ValueError):
        RealMeasure({1: -0.5})
