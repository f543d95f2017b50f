import json

import numpy as np
import pytest

from sirnet.degrees import DegreeSpec
from sirnet.errors import ConfigurationError


def exact_poisson_pmf(lam, kmax):
    """The Poisson(lam) pmf truncated to 0..kmax and renormalised, each
    level rounded once from its exact rational value: with lam = a/b,
    p_k is proportional to the integer a^k b^(kmax-k) kmax!/k!."""
    a, b = float(lam).as_integer_ratio()
    weights, falling = [0] * (kmax + 1), 1  # falling = kmax!/k!
    for k in range(kmax, -1, -1):
        weights[k] = a ** k * b ** (kmax - k) * falling
        falling *= max(k, 1)
    total = sum(weights)
    return np.array([w / total for w in weights])  # int / int rounds correctly


def test_poisson_pmf_matches_exact():
    # lam**k and k! overflow float64 long before k = 2000
    for lam, kmax in ((5, 40), (800, 2000)):
        got = DegreeSpec.poisson(lam, kmax).limit_measure()
        exact = exact_poisson_pmf(lam, kmax)
        normal = exact >= np.finfo(float).tiny
        np.testing.assert_allclose(got[normal], exact[normal], rtol=1e-13, atol=0)
        np.testing.assert_allclose(got[~normal], exact[~normal], rtol=0,
                                   atol=np.finfo(float).tiny)
        assert got @ np.arange(kmax + 1) == pytest.approx(lam, rel=1e-12)


def test_geometric_mean():
    q = 0.5
    spec = DegreeSpec.geometric(q, 200)
    assert spec.mean() == pytest.approx(q / (1 - q), abs=1e-10)


def test_powerlaw_support():
    spec = DegreeSpec.powerlaw(2.5, 2, 50)
    assert spec.levels[0] == 2 and spec.kmax() == 50
    assert spec.probs[0] == max(spec.probs)


def test_explicit_and_r0():
    spec = DegreeSpec.explicit({3: 1.0})  # 3-regular
    assert spec.r0() == pytest.approx(2.0)
    assert DegreeSpec.poisson(5, 200).r0() == pytest.approx(5.0, abs=1e-9)


def test_r0_subcritical():
    assert DegreeSpec.explicit({1: 1.0}).r0() == 0.0


def test_from_string_grammar(tmp_path):
    assert DegreeSpec.from_string("poisson:5:30").kind == "poisson"
    assert DegreeSpec.from_string("geometric:0.5:50").kind == "geometric"
    assert DegreeSpec.from_string("powerlaw:2.5:1:100").kind == "powerlaw"
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"2": 0.5, "4": 0.5}))
    spec = DegreeSpec.from_string(f"file:{path}")
    assert spec.mean() == pytest.approx(3.0)


@pytest.mark.parametrize("bad", [
    "poisson:5", "poisson:-1:30", "poisson:5:-1", "nope:1:2",
    "file:/does/not/exist.json", "geometric:1.5:10", "powerlaw:2:0:10",
])
def test_from_string_rejects(bad):
    with pytest.raises(ConfigurationError):
        DegreeSpec.from_string(bad)


@pytest.mark.parametrize("weights,message", [
    ({2: -1.0, 3: 1.0}, "the weight of degree 2 must be nonnegative"),
    ({2: float("nan"), 3: 1.0}, "the weight of degree 2 must be finite"),
    ({2: float("inf"), 3: 1.0}, "the weight of degree 2 must be finite"),
    ({-2: 1.0, 3: 1.0}, "degree -2 is negative"),
])
def test_explicit_refuses_bad_entries(weights, message):
    # these used to be dropped silently, or to fail later inside numpy
    with pytest.raises(ConfigurationError, match=message):
        DegreeSpec.explicit(weights)


def test_zero_mean_rejected():
    with pytest.raises(ConfigurationError):
        DegreeSpec.explicit({0: 1.0})


def test_sampling_reproducible_and_distributed():
    # level counts over 0..kmax of n i.i.d. draws
    spec = DegreeSpec.poisson(5, 30)
    a = spec.sample(1000, np.random.default_rng(7))
    b = spec.sample(1000, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert len(a) == 31 and a.sum() == 1000 and a.min() >= 0
    big = spec.sample(200_000, np.random.default_rng(1))
    assert big.sum() == 200_000
    assert np.arange(31) @ big / 200_000 == pytest.approx(5.0, abs=0.05)


def test_limit_measure_mass():
    spec = DegreeSpec.poisson(5, 30)
    nu = spec.limit_measure(mass=0.99)
    assert nu.shape == (31,)
    assert nu.sum() == pytest.approx(0.99)
    assert np.arange(31) @ nu == pytest.approx(0.99 * spec.mean(), rel=1e-10)
