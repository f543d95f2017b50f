import collections
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq

import sirnet.limit
from sirnet.degrees import DegreeSpec
from sirnet.errors import MAX_GRID_ROWS, ConfigurationError, SolverDiagnosticError
from sirnet.limit import (
    GeneratingFn,
    LimitInit,
    Solution,
    SolverConfig,
    check_measures_memory,
    edge_identities,
    horizon_bound,
    influx_kernel,
    influx_vector,
    limit_initial,
    limit_initial_from_pI0,
    miller_theta,
    rk4_integrate,
    solve_measures,
    solve_volz,
    susceptible_moments,
)

from oracles import (
    influx_exact,
    influx_kernel_full,
    influx_uncollapsed,
    measure_rhs_reference,
    solution_csv_lines,
    volz_rhs_moments,
    volz_rhs_polyval,
)


def test_influx_collapsed_equals_uncollapsed():
    rng = np.random.default_rng(42)
    for _ in range(25):
        kmax = int(rng.integers(2, 13))
        w = rng.random(kmax + 1)
        p = rng.dirichlet(np.ones(3))
        pS, pI, pR = p
        got = influx_vector(influx_kernel(w), pS, pI, pR)
        want = influx_uncollapsed(w, pS, pI, pR, kmax)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=1e-10)


def test_influx_degenerate_probabilities():
    w = np.array([0.0, 0.2, 0.3, 0.5])
    np.testing.assert_allclose(
        influx_vector(influx_kernel(w), 1.0, 0.0, 0.0),
        influx_uncollapsed(w, 1.0, 0.0, 0.0, 3), atol=1e-14)
    np.testing.assert_allclose(
        influx_vector(influx_kernel(w), 0.0, 1.0, 0.0),
        influx_uncollapsed(w, 0.0, 1.0, 0.0, 3), atol=1e-14)


@pytest.mark.parametrize("pS,pI,pR,theta", [
    (0.3, 0.2, 0.5, 0.8), (0.0, 0.4, 0.6, 0.9), (1.0, 0.0, 0.0, 0.7),
], ids=["interior", "pS=0", "q=0"])
def test_influx_matches_exact_across_blocks(pS, pI, pR, theta):
    # 150 levels span three 64-depth blocks of the influx table; every
    # level agrees with the exact rational sum, and is 0 exactly where it is
    w = DegreeSpec.powerlaw(2.5, 1, 150).limit_measure(mass=0.99)
    got = influx_vector(influx_kernel(w), pS, pI, pR, theta)
    want = np.array(influx_exact(w, pS, pI, pR, theta))
    pos = want > 0
    np.testing.assert_allclose(got[pos], want[pos], rtol=1e-12, atol=0)
    assert (got[~pos] == 0).all()


@pytest.mark.parametrize("pS,pI,pR", [(0.05, 0.05, 0.9), (0.08, 0.02, 0.9)])
def test_influx_finite_at_kmax_1100(pS, pI, pR):
    # C(k-1, i) (pI+pR)^(k-1-i) alone overflows a float here; the influx
    # stays finite, nonnegative and keeps both moments of the binomial law
    w = DegreeSpec.powerlaw(2.5, 1, 1100).limit_measure(mass=1.0)
    f = influx_vector(influx_kernel(w), pS, pI, pR)
    assert np.isfinite(f).all() and (f >= 0).all()
    k = np.arange(len(w))
    z = pS + pI + pR
    m0 = np.sum(k * w * np.float_power(z, np.maximum(k - 1, 0)))
    m1 = pS * np.sum(k * (k - 1) * w * np.float_power(z, np.maximum(k - 2, 0)))
    assert f.sum() == pytest.approx(m0, rel=1e-12, abs=0)
    assert (k * f).sum() == pytest.approx(m1, rel=1e-12, abs=0)


@pytest.mark.parametrize("kmax", [1, 30, 63, 64, 65, 150, 300])
def test_influx_kernel_equals_full_shape_build(kmax):
    # built one block at a time in place, the table holds the bits of the
    # full-shape build, at one, several and ragged blocks
    w = DegreeSpec.powerlaw(2.5, 1, kmax).limit_measure(mass=0.99)
    got, want = influx_kernel(w), influx_kernel_full(w)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _measure_rhs_args(init, r, beta):
    """The arguments after the state that :func:`solve_measures` hands
    :func:`measure_rhs`, as one step of a solve at ``r`` and ``beta``
    passes them."""
    seen = []
    real = sirnet.limit.measure_rhs

    def spy(y, *args):
        seen.append(args)
        return real(y, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sirnet.limit, "measure_rhs", spy)
        solve_measures(init, SolverConfig(r=r, beta=beta, t_max=1e-3, eps_IS=0.0))
    return seen[0]


def _edge_state(w, theta, pI, pR, seed=7):
    """A packed state ``[theta, mu_IS, mu_RS]`` over the levels of ``w``
    whose rows, of different shapes, make the edge fractions ``pI`` and
    ``pR`` of ``N_S = sum_k k w(k) theta^k``."""
    k = np.arange(len(w))
    N_S = float(k @ (w * theta ** k))
    rows = np.random.default_rng(seed).random((2, len(w))) * w
    scale = np.array([pI, pR]) * N_S / (rows @ k)
    return np.concatenate(([theta], (rows * scale[:, None]).ravel()))


def _all_infectious_state(w, theta):
    """A packed state in which every susceptible half-edge faces an
    infectious one: the I-S row holds ``N_S/4`` at level 4 alone, so
    ``N_IS = N_S`` and ``pS = 0`` exactly."""
    y = np.zeros(2 * len(w) + 1)
    y[0], y[5] = theta, susceptible_moments(w)(theta)[0] / 4
    return y


@pytest.mark.parametrize("degree,theta,pI,pR", [
    ("poisson:5:30", 0.8, 0.2, 0.3),
    ("poisson:5:30", 0.9, None, None),
    ("poisson:5:30", 0.9, 0.0, 0.0),
    ("poisson:5:30", 0.85, 0.7, 0.5),
    ("poisson:5:30", 0.0, 0.2, 0.3),
    ("poisson:5:30", 1e-13, 0.2, 0.3),
    ("powerlaw:2.5:1:150", 0.9, 0.2, 0.3),
], ids=["interior", "pS=0", "pI+pR=0", "pS<0", "theta=0", "N_S-floor", "kmax150"])
def test_measure_rhs_matches_reference(degree, theta, pI, pR):
    # the packed, in-place right-hand side is the paper's three equations,
    # level by level with the uncollapsed influx: at the levels of the last
    # block, at x = pS theta and y = (pI+pR) theta of 0, at signed powers of
    # a negative pS, and inert where N_S is at most DENOM_FLOOR
    init = limit_initial(DegreeSpec.from_string(degree), 0.01)
    r, beta = 1.3, 0.4
    args = _measure_rhs_args(init, r, beta)
    if pI is None:
        y = _all_infectious_state(init.mu_S0, theta)
    else:
        y = _edge_state(init.mu_S0, theta, pI, pR)
    y_before = y.copy()
    got = sirnet.limit.measure_rhs(y, *args)
    want = measure_rhs_reference(y, init.mu_S0, r, beta)
    assert got.shape == y.shape and np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13)
    if theta < 1e-12:
        assert not got.any()
    # each call returns a fresh array, since rk4 holds four at once
    again = sirnet.limit.measure_rhs(y, *args)
    assert again.tobytes() == got.tobytes() and y.tobytes() == y_before.tobytes()
    assert not np.shares_memory(again, got) and not np.shares_memory(got, y)


@pytest.mark.parametrize("t_max,eps_IS,terminal", [(0.05, 0.0, "t_max"), (60.0, 1e-3, "extinct")])
def test_solve_measures_calls_rhs_and_influx_by_name(monkeypatch, t_max, eps_IS, terminal):
    # the benchmark's limit.measure_rhs and limit.influx_vector spans wrap the
    # module globals, so a solve must look both up by name at every evaluation
    calls = collections.Counter()

    def counted(name):
        real = getattr(sirnet.limit, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("measure_rhs", "influx_vector"):
        monkeypatch.setattr(sirnet.limit, name, counted(name))
    init = limit_initial(DegreeSpec.poisson(5, 30), 0.01)
    sol = solve_measures(init, SolverConfig(r=1.0, beta=0.5, t_max=t_max, eps_IS=eps_IS))
    steps = len(sol.t) - 1
    assert sol.terminal == terminal and steps > 0
    assert calls == {"measure_rhs": 4 * steps, "influx_vector": 4 * steps}


def _traced_peak(build):
    """``build()`` and the peak bytes tracemalloc saw it take."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_influx_kernel_build_peaks_near_its_table():
    # no full-shape temporary: the full-shape build peaks at 3.1 times
    # the table at kmax 2000
    w = DegreeSpec.powerlaw(2.5, 1, 2000).limit_measure()
    (U, M, _, _), peak = _traced_peak(lambda: influx_kernel(w))
    assert peak <= 1.2 * (U.nbytes + M.nbytes), peak / (U.nbytes + M.nbytes)


def test_solve_measures_holds_its_rows_once():
    # the rows are stored once, not as row copies and a table stacked from
    # them (2.32 times rows and table)
    init = limit_initial(DegreeSpec.poisson(5, 30), 0.01)
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=2.0, eps_IS=0.0)
    U, M, _, _ = influx_kernel(init.mu_S0)
    arrays = U.nbytes + M.nbytes + 8 * (cfg.n_steps + 1) * (2 * len(init.mu_S0) + 1)
    del U, M
    sol, peak = _traced_peak(lambda: solve_measures(init, cfg))
    assert sol.terminal == "t_max" and len(sol.t) == cfg.n_steps + 1
    assert peak <= 1.3 * arrays, peak / arrays


@pytest.mark.parametrize("degree,t_max", [("poisson:5:30", 2.0), ("powerlaw:2.5:1:300", 0.5)])
def test_measures_memory_bound_covers_the_traced_peak(monkeypatch, degree, t_max):
    # the bound counts every array the solve holds, so a cap just below the
    # traced peak refuses the solve; the table and the rows alone came to 0.85
    # of the peak on poisson:5:30, which that cap admitted
    init = limit_initial(DegreeSpec.from_string(degree), 0.01)
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=t_max, eps_IS=0.0)
    sol, peak = _traced_peak(lambda: solve_measures(init, cfg))
    assert sol.terminal == "t_max" and len(sol.t) == cfg.n_steps + 1
    monkeypatch.setattr(sirnet.limit, "MAX_SOLVE_BYTES", peak - 1)
    with pytest.raises(ConfigurationError, match=f"t_max={t_max:g} and dt=0.001 make"):
        check_measures_memory(init, cfg)
    # and it counts no more than the peak and a fraction of it
    monkeypatch.setattr(sirnet.limit, "MAX_SOLVE_BYTES", int(1.3 * peak))
    check_measures_memory(init, cfg)


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


@given(
    weights=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=301),
    z=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    order=st.integers(min_value=0, max_value=2),
    as_numpy=st.booleans(),
)
def test_generating_fn_is_polyval_bit_for_bit(weights, z, order, as_numpy):
    g = GeneratingFn(weights)
    coef = P.polyder(np.asarray(weights, dtype=float), order)
    got = g(np.float64(z) if as_numpy else z, order=order)
    want = float(P.polyval(z, coef))
    assert type(got) is float
    assert got.hex() == want.hex()
    zs = np.array([z, 1.0 - z, 0.5])
    assert np.array_equal(g(zs, order=order), P.polyval(zs, coef))


@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
                     min_size=1, max_size=301),
    theta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
)
def test_susceptible_moments_match_exact_sums(weights, theta):
    # N_S and N_S rho against the exact sums of k w_k theta^k and
    # k(k-1) w_k theta^k over the same float inputs: every term is
    # nonnegative, so the power, the products and the sum of kmax+1 terms
    # keep each moment within (kmax+4) roundings of it, relative.  A power
    # or product below the normal range is rounded in absolute terms
    # instead, by at most 2^-1074 times its factor, hence the second slack.
    levels = len(weights)
    got = susceptible_moments(np.array(weights))(theta)
    assert type(got[0]) is type(got[1]) is float
    z = Fraction(theta)
    powers = [z ** k for k in range(levels)]
    for g, factors in zip(got, ([k * Fraction(w) for k, w in enumerate(weights)],
                                [k * (k - 1) * Fraction(w) for k, w in enumerate(weights)])):
        exact = sum(c * p for c, p in zip(factors, powers))
        subnormal = levels * (max(factors) + 1) * Fraction(2) ** -1074
        assert abs(Fraction(g) - exact) <= (levels + 3) * Fraction(2) ** -53 * exact + subnormal


@pytest.mark.parametrize("degree,t_max,dt,eps_IS", [
    pytest.param("poisson:5:30", 1.0, 1e-3, 0.0, id="poisson:5:30-1.0-0.001"),
    pytest.param("powerlaw:2.5:1:300", 0.5, 1e-3, 0.0, id="powerlaw:2.5:1:300-0.5-0.001"),
    pytest.param("powerlaw:2.5:1:300", 10.0, 0.05, 0.0, id="powerlaw:2.5:1:300-10.0-0.05"),
    # the default eps_IS ends this run extinct near t=10.7
    pytest.param("poisson:5:30", 20.0, 1e-3, 1e-6, id="poisson:5:30-20.0-0.001-extinct"),
])
def test_volz_states_equal_polyval_reference(degree, t_max, dt, eps_IS):
    # the float path changes no bit of the integrated states against the
    # same moments on rk4's array path, and the moments stay within
    # round-off of g' and g'' evaluated by polyval
    init = limit_initial(DegreeSpec.from_string(degree), 0.01)
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=t_max, dt=dt, eps_IS=eps_IS)
    pI0 = init.pI0
    y0 = [1.0, init.I0, 0.0, pI0, 1.0 - pI0, 0.0, init.N_IS0, 0.0, init.N_S0]
    ts, want, terminal = rk4_integrate(volz_rhs_moments(init.mu_S0, 1.0, 0.5), y0, cfg,
                                       n_IS=lambda y: y[6])
    _, near, near_terminal = rk4_integrate(volz_rhs_polyval(init.mu_S0, 1.0, 0.5), y0, cfg,
                                           n_IS=lambda y: y[6])
    sol = solve_volz(init, cfg)
    names = ("theta", "I", "R", "pI", "pS", "pR", "N_IS", "N_RS", "N_S_aux")
    assert len(near) == len(want)
    for i, name in enumerate(names):
        assert np.array_equal(sol.column(name), want[:, i]), name
        assert np.abs(near[:, i] - want[:, i]).max() <= 1e-12, name
    assert np.array_equal(sol.t, ts)
    assert sol.terminal == terminal == near_terminal == ("extinct" if eps_IS else "t_max")


def test_volz_overflowing_powers_name_dt():
    # r=1e300 drives theta to about -5e294 within the first step, whose
    # powers up to theta^30 overflow: the solve raises rk4's non-finite
    # state error naming dt, not numpy's overflow RuntimeWarning
    init = limit_initial(DegreeSpec.from_string("poisson:5:30"), 0.01)
    cfg = SolverConfig(r=1e300, beta=1.0, t_max=1.0, dt=1e-3)
    with pytest.raises(SolverDiagnosticError, match=r"non-finite .*dt=0\.001 is too large"):
        solve_volz(init, cfg)


@pytest.mark.parametrize("degree", ["poisson:5:30", "powerlaw:2.5:1:300"])
def test_miller_states_equal_array_path(degree):
    # miller's float path gives the bits of its formula on rk4's array path
    init = limit_initial(DegreeSpec.from_string(degree), 0.01)
    r, beta = 1.0, 0.5
    cfg = SolverConfig(r=r, beta=beta, t_max=10.0, dt=1e-2)
    gf = GeneratingFn(init.mu_S0)
    pS0, g1, total = 1.0 - init.pI0, gf(1.0, order=1), init.S0 + init.I0

    def rhs(y):
        theta, R = y.tolist()
        return np.array([
            -r * theta + beta * (1.0 - theta) + r * pS0 * gf(theta, order=1) / g1,
            beta * (total - gf(theta) - R),
        ])

    ts, want, _ = rk4_integrate(rhs, [1.0, 0.0], cfg)
    sol = miller_theta(init, cfg)
    assert np.array_equal(sol.t, ts)
    assert np.array_equal(np.column_stack([sol.column("theta"), sol.column("R")]), want)


SOLVER_CSV = ("t", "S", "I", "R", "N_S", "N_IS", "N_RS", "theta", "pI", "pS", "pR")


@pytest.mark.parametrize("solver,names,t_max", [
    (solve_volz, SOLVER_CSV, 2.0),
    (solve_measures, SOLVER_CSV, 0.2),
    (miller_theta, ("t", "S", "I", "R", "theta"), 2.0),
], ids=["volz", "measures", "miller"])
@pytest.mark.parametrize("degree", ["poisson:5:30", "powerlaw:2.5:1:300"])
def test_solution_csv_lines_equal_per_column_format(degree, solver, names, t_max):
    # the CSV bytes: the header, then every named column at %.12g, in order
    init = limit_initial(DegreeSpec.from_string(degree), 0.01)
    sol = solver(init, SolverConfig(r=1.0, beta=0.5, t_max=t_max))
    assert list(sol.to_csv_lines()) == list(solution_csv_lines(sol, names))


def test_solution_csv_is_written_in_bounded_memory():
    # each column turned into one Python list before the first row took
    # 32 B a row and column: 10.2 MB for these 80,001 rows of t, S, I, R
    rows = 80_001
    rng = np.random.default_rng(0)
    sol = Solution(t=np.arange(rows) * 1e-3,
                   columns={c: rng.random(rows) for c in ("S", "I", "R")},
                   terminal="t_max", diagnostics={})
    _, peak = _traced_peak(lambda: collections.deque(sol.to_csv_lines(), maxlen=0))
    assert peak < 1_000_000, peak


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


def test_rk4_float_path_non_finite_state_names_dt():
    # a tuple state runs the float path, whose guard also catches an
    # overflow of finite values
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=1.0, dt=0.25)
    with pytest.raises(SolverDiagnosticError, match=r"non-finite at t=0\.25; dt=0\.25"):
        rk4_integrate(lambda y: (1e308, 0.0), (1.0, 0.0), cfg)


def test_measures_coarse_dt_names_dt():
    # a step this coarse drives an RK stage's pI+pR below 0, which has no
    # power (pI+pR)^j; the influx is NaN and the shared guard names dt
    init = limit_initial(DegreeSpec.powerlaw(2.5, 1, 100), 0.01)
    cfg = SolverConfig(r=10.0, beta=0.5, t_max=2.0, dt=0.2, eps_IS=0.0)
    with pytest.raises(SolverDiagnosticError, match=r"non-finite at t=0\.2; dt=0\.2"):
        solve_measures(init, cfg)


def standard_setup(kmax=40):
    spec = DegreeSpec.poisson(5, kmax)
    return limit_initial_from_pI0(spec, 0.05)


def test_volz_basic_course():
    init = standard_setup()
    sol = solve_volz(init, SolverConfig(r=1.0, beta=0.5, t_max=4.0, dt=1e-3))
    col = sol.column
    # theta nonincreasing in (0,1]; epidemic takes off then burns out
    assert np.all(np.diff(col("theta")) <= 1e-15)
    assert col("theta")[-1] > 0
    assert col("S")[0] > col("S")[-1]
    assert col("R")[-1] > 0.5
    # conservation S+I+R constant
    total = col("S") + col("I") + col("R")
    np.testing.assert_allclose(total, total[0], atol=1e-9)
    # probability simplex
    np.testing.assert_allclose(col("pI") + col("pS") + col("pR"), 1.0, atol=1e-9)


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
    assert sol.column("N_IS")[-1] < 1e-4
    assert sol.t[-1] < 500.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_volz_coarse_dt_trips_diagnostic():
    init = standard_setup()
    with pytest.raises(SolverDiagnosticError):
        solve_volz(init, SolverConfig(r=500.0, beta=0.5, t_max=10.0, dt=0.5))


def test_measures_clamp_budget_trips():
    init = standard_setup(kmax=20)
    with pytest.raises(SolverDiagnosticError, match="dt=0.5"):
        solve_measures(init, SolverConfig(r=80.0, beta=0.5, t_max=10.0, dt=0.5, eps_IS=0.0))


def test_measures_matches_volz():
    init = standard_setup(kmax=30)
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=2.0, dt=1e-3)
    vol = solve_volz(init, cfg)
    mea = solve_measures(init, cfg)
    m = min(len(vol.t), len(mea.t))
    assert np.abs(mea.column("I")[:m] - vol.column("I")[:m]).max() < 1e-6
    assert np.abs(mea.column("pI")[:m] - vol.column("pI")[:m]).max() < 1e-6
    assert np.abs(mea.column("S")[:m] - vol.column("S")[:m]).max() < 1e-6
    assert mea.clamped_mass <= 1e-10


def test_measures_mass_conservation():
    init = standard_setup(kmax=25)
    sol = solve_measures(init, SolverConfig(r=1.0, beta=0.5, t_max=2.0, dt=1e-3))
    total = sol.column("S") + sol.column("I") + sol.column("R")
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
    assert np.abs(mea.column("I") - vol.column("I")).max() <= 1e-12


def test_measures_mu_s_closed_form():
    init = standard_setup(kmax=20)
    sol = solve_measures(init, SolverConfig(r=1.0, beta=0.5, t_max=1.0, dt=1e-3))
    idx = len(sol.t) // 2
    k = np.arange(len(init.mu_S0))
    np.testing.assert_allclose(
        sol.mu_S(idx), init.mu_S0 * sol.column("theta")[idx] ** k, rtol=1e-12)
    # S and N_S are the generating function of mu_S0 and its edge count
    np.testing.assert_allclose(sol.column("S"),
                               [sol.mu_S(i).sum() for i in range(len(sol.t))], rtol=1e-12)
    np.testing.assert_allclose(sol.column("N_S"),
                               [k @ sol.mu_S(i) for i in range(len(sol.t))], rtol=1e-12)


def test_miller_exact_when_ps0_matches():
    # pS0 = 1 - pI0 and S = g(theta) come from the same LimitInit as volz's
    spec = DegreeSpec.poisson(5, 40)
    init = limit_initial(spec, 0.02)
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=3.0, dt=1e-3)
    vol = solve_volz(init, cfg)
    mil = miller_theta(init, cfg)
    m = min(len(mil.t), len(vol.t))
    np.testing.assert_allclose(mil.t[:m], vol.t[:m], rtol=0, atol=1e-12)
    for name in ("theta", "S", "I", "R"):
        assert np.abs(mil.column(name)[:m] - vol.column(name)[:m]).max() < 1e-7
    assert mil.column("I")[0] == pytest.approx(0.02, abs=1e-15)


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
    assert abs(vol.column("theta")[-1] - theta_inf) < 1e-9
    # eps_IS = 0 never stops early, however N_IS rounds near zero
    assert vol.terminal == "t_max" and vol.t[-1] == pytest.approx(60.0)
    theta = miller_theta(init, SolverConfig(r=1.0, beta=0.5, t_max=60.0, dt=2e-2)).column("theta")
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


@pytest.mark.parametrize("r,beta,message", [
    (math.nan, 1.0, "r must be finite"),
    (-3.0, 1.0, "r must be nonnegative"),
    (1.0, math.nan, "beta must be finite"),
    (1.0, -0.5, "beta must be nonnegative"),
])
def test_horizon_bound_refuses_bad_rates(r, beta, message):
    # max(r, beta) would pick the other rate, or give a NaN bound
    init = LimitInit(mu_S0=[0.0, 0.0, 1.0], mu_IS0=[0.0, 0.1])
    with pytest.raises(ConfigurationError, match=message):
        horizon_bound(init, r, beta, 0.01)


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(r=1.0, beta=0.5, t_max=0.0, dt=1e-3)
    with pytest.raises(ConfigurationError):
        SolverConfig(r=1.0, beta=0.5, t_max=1.0, dt=0.0)
    with pytest.raises(ConfigurationError, match="r must be nonnegative"):
        SolverConfig(r=-1.0, beta=0.5, t_max=1.0)
    with pytest.raises(ConfigurationError, match="eps_IS must be finite"):
        SolverConfig(r=1.0, beta=0.5, t_max=1.0, eps_IS=float("nan"))


def test_solver_config_refuses_too_many_rows():
    # one stored row per step, t=0 included, at most MAX_GRID_ROWS of them
    assert SolverConfig(r=1.0, beta=0.5, t_max=MAX_GRID_ROWS - 1.0, dt=1.0).n_steps \
        == MAX_GRID_ROWS - 1
    for t_max, dt, steps in ((MAX_GRID_ROWS, 1.0, "10000000"), (1e7, 1e-3, "10000000000"),
                             (1e300, 1e-300, "inf")):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"t_max={t_max:g} and dt={dt:g} make {steps} steps")):
            SolverConfig(r=1.0, beta=0.5, t_max=t_max, dt=dt)
