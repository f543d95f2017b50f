"""Validation of the limit's initial measures, and the size-biased law of
an integer level-count measure as the simulator draws it."""

import numpy as np
import pytest
from scipy import stats

from sirnet.errors import ConfigurationError
from sirnet.limit import LimitInit
from sirnet.simulation import BlockDraws, pick_size_biased


def test_limit_init_basics():
    init = LimitInit(mu_S0=[0, 0.25, 0, 0, 0.75], mu_IS0=[0, 0.1])
    assert init.mu_S0.dtype == float and len(init.mu_S0) == 5
    assert init.S0 == 1.0 and init.I0 == pytest.approx(0.1)
    assert init.N_S0 == pytest.approx(0.25 + 3.0)
    assert init.pI0 == pytest.approx(0.1 / 3.25)


def test_empty_measure():
    # no susceptible mass, or mass at degree 0 only: zero mean degree
    for mu_S0 in ([], [0.0, 0.0], [1.0]):
        with pytest.raises(ConfigurationError, match="positive mean degree"):
            LimitInit(mu_S0=mu_S0, mu_IS0=[0.0, 0.1])


def test_negative_inputs_rejected():
    with pytest.raises(ConfigurationError, match="mu_S0 has a negative weight"):
        LimitInit(mu_S0=[0.5, 2.0, -0.5], mu_IS0=[0.0, 0.1])
    with pytest.raises(ConfigurationError, match="mu_IS0 has a negative weight"):
        LimitInit(mu_S0=[0.0, 1.0], mu_IS0=[0.0, -0.1])


@pytest.mark.parametrize("mu_S0,mu_IS0,message", [
    ([0.0, np.nan], [0.0, 0.1], "mu_S0 must be finite"),
    ([0.0, 1.0], [0.0, np.inf], "mu_IS0 must be finite"),
    ([[0.0, 1.0]], [0.0, 0.1], "mu_S0 must be a weight vector"),
    (0.5, [0.0, 0.1], "mu_S0 must be a weight vector"),
    ([0.0, 1.0], [0.0, 1.5], "exceeds 1"),
])
def test_limit_init_rejects(mu_S0, mu_IS0, message):
    with pytest.raises(ConfigurationError, match=message):
        LimitInit(mu_S0=mu_S0, mu_IS0=mu_IS0)


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
