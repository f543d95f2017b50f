import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from sirnet.degrees import DegreeSpec
from sirnet.errors import ConfigurationError, SolverDiagnosticError
from sirnet.limit import (
    GeneratingFn,
    LimitInit,
    SolverConfig,
    edge_identities,
    horizon_bound,
    influx_vector,
    limit_initial,
    limit_initial_from_pI0,
    miller_theta,
    rk4_integrate,
    solve_measures,
    solve_volz,
)

from oracles import influx_uncollapsed


def test_influx_collapsed_equals_uncollapsed():
    rng = np.random.default_rng(42)
    for _ in range(25):
        kmax = int(rng.integers(2, 13))
        w = rng.random(kmax + 1)
        p = rng.dirichlet(np.ones(3))
        pS, pI, pR = p
        got = influx_vector(w, pS, pI, pR)
        want = influx_uncollapsed(w, pS, pI, pR, kmax)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-10)


def test_influx_degenerate_probabilities():
    w = np.array([0.0, 0.2, 0.3, 0.5])
    np.testing.assert_allclose(
        influx_vector(w, 1.0, 0.0, 0.0),
        influx_uncollapsed(w, 1.0, 0.0, 0.0, 3), atol=1e-14)
    np.testing.assert_allclose(
        influx_vector(w, 0.0, 1.0, 0.0),
        influx_uncollapsed(w, 0.0, 1.0, 0.0, 3), atol=1e-14)


def test_generating_fn_derivatives():
    g = GeneratingFn([0.2, 0.3, 0.0, 0.5])
    z = 0.7
    assert g(z) == pytest.approx(0.2 + 0.3 * z + 0.5 * z**3)
    assert g(z, order=1) == pytest.approx(0.3 + 1.5 * z**2)
    assert g(z, order=2) == pytest.approx(3.0 * z)
    assert type(g(z)) is float  # the scalar path stays a Python float
    zs = np.array([0.0, 0.5, z])
    np.testing.assert_allclose(g(zs, order=1), 0.3 + 1.5 * zs**2, rtol=1e-15)
    with pytest.raises(ValueError):
        g(z, order=3)


def test_initial_data_mappings():
    spec = DegreeSpec.poisson(5, 40)
    init = limit_initial(spec, 0.01)
    assert init.S0 == pytest.approx(0.99)
    assert init.I0 == pytest.approx(0.01)
    assert init.pI0 == pytest.approx(0.01 / 0.99)
    init2 = limit_initial_from_pI0(spec, init.pI0)
    assert init2.pI0 == pytest.approx(init.pI0, rel=1e-12)
    with pytest.raises(ConfigurationError):
        limit_initial(spec, 1.5)
    with pytest.raises(ConfigurationError):
        limit_initial_from_pI0(spec, 0.0)


def test_rk4_order_on_scalar_ode():
    # y' = -2y, y(0)=1; RK4 global error scales like dt^4
    rhs = lambda y: -2.0 * y
    errs = []
    for dt in (0.1, 0.05):
        ts, ys, _ = rk4_integrate(rhs, [1.0], SolverConfig(r=0.0, beta=0.0, t_max=1.0, dt=dt))
        errs.append(abs(ys[-1, 0] - math.exp(-2.0)))
    assert errs[0] / errs[1] == pytest.approx(16, rel=0.3)


def test_rk4_non_finite_state_names_dt():
    # the guard every solver shares: no NaN or inf row is ever returned
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=1.0, dt=0.25)
    with pytest.raises(SolverDiagnosticError, match=r"non-finite at t=0\.25; dt=0\.25"):
        rk4_integrate(lambda y: np.full_like(y, np.inf), [1.0, 0.0], cfg)


def standard_setup(kmax=40):
    spec = DegreeSpec.poisson(5, kmax)
    return limit_initial_from_pI0(spec, 0.05)


def test_volz_basic_course():
    init = standard_setup()
    sol = solve_volz(init, SolverConfig(r=1.0, beta=0.5, t_max=4.0, dt=1e-3))
    # theta nonincreasing in (0,1]; epidemic takes off then burns out
    assert np.all(np.diff(sol.theta) <= 1e-15)
    assert sol.theta[-1] > 0
    assert sol.S[0] > sol.S[-1]
    assert sol.R[-1] > 0.5
    # conservation S+I+R constant
    total = sol.S + sol.I + sol.R
    np.testing.assert_allclose(total, total[0], atol=1e-9)
    # probability simplex
    np.testing.assert_allclose(sol.pI + sol.pS + sol.pR, 1.0, atol=1e-9)


def test_volz_edge_identities_small():
    init = standard_setup()
    sol = solve_volz(init, SolverConfig(r=1.0, beta=0.5, t_max=3.0, dt=1e-3))
    res = edge_identities(sol)
    assert res["N_S"].max() < 1e-8
    assert res["N_IS"].max() < 1e-6
    assert res["N_RS"].max() < 1e-6


def test_volz_eps_stop():
    init = standard_setup()
    sol = solve_volz(init, SolverConfig(r=1.0, beta=0.5, t_max=500.0, dt=1e-2, eps_IS=1e-4))
    assert sol.terminal == "extinct"
    assert sol.N_IS[-1] < 1e-4
    assert sol.t[-1] < 500.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_volz_coarse_dt_trips_diagnostic():
    init = standard_setup()
    with pytest.raises(SolverDiagnosticError):
        solve_volz(init, SolverConfig(r=500.0, beta=0.5, t_max=10.0, dt=0.5))


def test_measures_clamp_budget_trips():
    init = standard_setup(kmax=20)
    with pytest.raises(SolverDiagnosticError):
        solve_measures(init, SolverConfig(r=80.0, beta=0.5, t_max=10.0, dt=0.5, eps_IS=0.0))


def test_measures_matches_volz():
    init = standard_setup(kmax=30)
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=2.0, dt=1e-3)
    vol = solve_volz(init, cfg)
    mea = solve_measures(init, cfg)
    m = min(len(vol.t), len(mea.t))
    assert np.abs(mea.I[:m] - vol.I[:m]).max() < 1e-6
    assert np.abs(mea.pI[:m] - vol.pI[:m]).max() < 1e-6
    assert np.abs(mea.S[:m] - vol.S[:m]).max() < 1e-6
    assert mea.clamped_mass <= 1e-10


def test_measures_mass_conservation():
    init = standard_setup(kmax=25)
    sol = solve_measures(init, SolverConfig(r=1.0, beta=0.5, t_max=2.0, dt=1e-3))
    total = sol.S + sol.I + sol.R
    np.testing.assert_allclose(total, total[0], atol=1e-8)
    assert np.all(sol.mu_IS >= 0) and np.all(sol.mu_RS >= 0)


def test_measures_track_every_level():
    # a light tail far beyond the infectious support: every level 0..60 is
    # tracked, without a warning, and the solve agrees with volz to round-off
    init = LimitInit(
        mu_S0=DegreeSpec.poisson(5, 60).limit_measure(0.99),
        mu_IS0=[0.0, 0.01],
    )
    assert len(init.mu_IS0) == len(init.mu_S0) == 61
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=2.0, dt=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mea = solve_measures(init, cfg)
    vol = solve_volz(init, cfg)
    assert mea.mu_IS.shape == (len(vol.t), 61) and mea.diagnostics["kmax"] == 60
    assert np.abs(mea.I - vol.I).max() <= 1e-12


def test_measures_mu_s_closed_form():
    init = standard_setup(kmax=20)
    sol = solve_measures(init, SolverConfig(r=1.0, beta=0.5, t_max=1.0, dt=1e-3))
    idx = len(sol.t) // 2
    k = np.arange(len(init.mu_S0))
    np.testing.assert_allclose(
        sol.mu_S(idx), init.mu_S0 * sol.theta[idx] ** k, rtol=1e-12)
    # S and N_S are the generating function of mu_S0 and its edge count
    np.testing.assert_allclose(sol.S, [sol.mu_S(i).sum() for i in range(len(sol.t))],
                               rtol=1e-12)
    np.testing.assert_allclose(sol.N_S, [k @ sol.mu_S(i) for i in range(len(sol.t))],
                               rtol=1e-12)


def test_miller_exact_when_ps0_matches():
    # pS0 = 1 - pI0 and S = g(theta) come from the same LimitInit as volz's
    spec = DegreeSpec.poisson(5, 40)
    init = limit_initial(spec, 0.02)
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=3.0, dt=1e-3)
    vol = solve_volz(init, cfg)
    mil = miller_theta(init, cfg)
    ts, theta, S, I, R = mil.t, mil.theta, mil.S, mil.I, mil.R
    m = min(len(ts), len(vol.t))
    np.testing.assert_allclose(ts[:m], vol.t[:m], rtol=0, atol=1e-12)
    for got, want in ((theta, vol.theta), (S, vol.S), (I, vol.I), (R, vol.R)):
        assert np.abs(got[:m] - want[:m]).max() < 1e-7
    assert I[0] == pytest.approx(0.02, abs=1e-15)


def _final_theta(init, r, beta):
    """Root in (0, 1) of the final-size relation
    ``theta (r + beta) = beta + r pS0 psi'(theta) / psi'(1)``, ``pS0 = 1 - pI0``
    (Volz 2008; Miller 2011), with psi the degree law's generating function."""
    dpsi = np.polynomial.polynomial.polyder(init.mu_S0)
    scale = np.polynomial.polynomial.polyval(1.0, dpsi)
    pS0 = 1.0 - init.pI0

    def f(theta):
        return (theta * (r + beta) - beta
                - r * pS0 * np.polynomial.polynomial.polyval(theta, dpsi) / scale)

    return brentq(f, 1e-12, 1.0 - 1e-12, xtol=1e-15, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("degree", ["poisson:5:30", "powerlaw:2.5:1:300"])
def test_final_size_oracle(degree):
    # volz's final theta carries the O(dt^4) error of the whole path (its
    # gap is 9e-11 on the power law at dt=5e-3); the root is a fixed point of
    # every RK4 step of the one-equation reduction, so any stable dt reaches it
    init = limit_initial(DegreeSpec.from_string(degree), 0.01)
    theta_inf = _final_theta(init, 1.0, 0.5)
    assert 0 < theta_inf < 1
    vol = solve_volz(init, SolverConfig(r=1.0, beta=0.5, t_max=60.0, dt=5e-3, eps_IS=0.0))
    assert abs(vol.theta[-1] - theta_inf) < 1e-9
    # eps_IS = 0 never stops early, however N_IS rounds near zero
    assert vol.terminal == "t_max" and vol.t[-1] == pytest.approx(60.0)
    theta = miller_theta(init, SolverConfig(r=1.0, beta=0.5, t_max=60.0, dt=2e-2)).theta
    assert abs(theta[-1] - theta_inf) < 1e-9


def test_horizon_bound_pinned_example():
    # <mu,x^2>=4, N_IS0=0.1, eps'=0.01, rates (2, 1) -> (ln 4.1 - ln 4.01)/2
    init = LimitInit(mu_S0=[0.0, 0.0, 1.0], mu_IS0=[0.0, 0.1])
    tau = horizon_bound(init, 2.0, 1.0, 0.01)
    assert tau == pytest.approx((math.log(4.1) - math.log(4.01)) / 2.0, rel=1e-9)
    assert tau == pytest.approx(0.011098, abs=5e-7)


def test_horizon_bound_structure():
    init = LimitInit(mu_S0=[0.0, 0.0, 1.0], mu_IS0=[0.0, 0.1])
    # eps' -> N_IS0 drives the bound to 0
    assert horizon_bound(init, 2.0, 1.0, 0.1) == pytest.approx(0.0, abs=1e-12)
    # doubling max(r, beta) halves the bound
    a = horizon_bound(init, 2.0, 1.0, 0.01)
    b = horizon_bound(init, 4.0, 1.0, 0.01)
    assert a == pytest.approx(2 * b, rel=1e-12)
    with pytest.raises(ConfigurationError):
        horizon_bound(init, 1.0, 1.0, 0.0)


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(r=1.0, beta=0.5, t_max=0.0, dt=1e-3)
    with pytest.raises(ConfigurationError):
        SolverConfig(r=1.0, beta=0.5, t_max=1.0, dt=0.0)
    with pytest.raises(ConfigurationError, match="r must be nonnegative"):
        SolverConfig(r=-1.0, beta=0.5, t_max=1.0)
    with pytest.raises(ConfigurationError, match="eps_IS must be finite"):
        SolverConfig(r=1.0, beta=0.5, t_max=1.0, eps_IS=float("nan"))
