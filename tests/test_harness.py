import numpy as np
import pytest

from sirnet.degrees import DegreeSpec
from sirnet.errors import ConfigurationError
from sirnet.harness import (
    ConvergenceReport,
    convergence_report,
    manifest_json,
    run_convergence_study,
    run_replicas,
    sup_distance,
)
from sirnet.limit import SolverConfig, horizon_bound, limit_initial, solve_volz
from sirnet.simulation import SimParams


def test_sup_distance_examples():
    t = np.arange(6) * 0.1
    a = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert sup_distance(t, a, t, a, 0.5) == 0.0
    assert sup_distance(t, a + 0.25, t, a, 0.5) == pytest.approx(0.25)
    # one-grid-step shift of a monotone path -> max single-step increment
    shifted = np.concatenate([[a[0]], a[:-1]])
    assert sup_distance(t, a, t, shifted, 0.5) == pytest.approx(np.diff(a).max())


def test_sup_distance_on_subgrid():
    # trajectory grid is a coarsening of the solver grid
    tb = np.arange(0, 101) * 0.01
    vb = tb ** 2
    ta = np.arange(0, 11) * 0.1
    va = ta ** 2 + 0.5
    assert sup_distance(ta, va, tb, vb, 1.0) == pytest.approx(0.5)


def test_sup_distance_grid_mismatch():
    ta = np.array([0.0, 0.13])
    tb = np.array([0.0, 0.1, 0.2])
    with pytest.raises(ConfigurationError):
        sup_distance(ta, np.zeros(2), tb, np.zeros(3), 0.2)
    with pytest.raises(ConfigurationError):
        sup_distance(tb, np.zeros(3), tb, np.zeros(3), -1.0)


def small_batch(reps=3, n_values=(200,), seed=5):
    spec = DegreeSpec.poisson(5, 30)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    return run_replicas(spec, params, list(n_values), reps, seed, 0.02)


def test_run_replicas_shape_and_tagging():
    out = small_batch(reps=4, n_values=(200, 400))
    assert len(out) == 8
    assert sorted({tr.n for tr in out}) == [200, 400]
    assert sorted(tr.rep for tr in out if tr.n == 200) == [0, 1, 2, 3]
    for tr in out:
        assert 0.0 <= tr.columns["S"][0] <= 1.0
        assert tr.columns["I"][0] == pytest.approx(np.ceil(0.02 * tr.n) / tr.n)


def test_run_replicas_reproducible():
    a = small_batch()
    b = small_batch()
    for x, y in zip(a, b):
        assert x.seed_words == y.seed_words
        for col in x.columns:
            np.testing.assert_array_equal(x.columns[col], y.columns[col])


def test_run_replicas_workers_match_serial():
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    serial = run_replicas(spec, params, [100], 4, 11, 0.02, workers=1)
    parallel = run_replicas(spec, params, [100], 4, 11, 0.02, workers=2)
    for x, y in zip(serial, parallel):
        np.testing.assert_array_equal(x.columns["I"], y.columns["I"])


def test_run_replicas_validation():
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    with pytest.raises(ConfigurationError):
        run_replicas(spec, params, [100], 0, 1, 0.02)
    with pytest.raises(ConfigurationError):
        run_replicas(spec, params, [], 1, 1, 0.02)


class _FakeLimit:
    """Deterministic 'limit' path on a grid, for synthetic report tests."""

    def __init__(self, t, value=0.5):
        self.t = t
        self._v = np.full(len(t), value)

    def column(self, name):
        return self._v


class _FakeTraj:
    def __init__(self, n, rep, times, offset, tau):
        self.n = n
        self.rep = rep
        self.times = times
        self.columns = {c: np.full(len(times), 0.5 + offset)
                        for c in ("S", "I", "R", "N_S", "N_IS", "N_RS")}
        self.tau_eps = tau

    def column(self, name):
        return self.columns[name]


def test_convergence_report_zero_when_equal():
    t = np.arange(5) * 0.1
    trajs = [_FakeTraj(100, rep, t, 0.0, np.inf) for rep in range(3)]
    rep = convergence_report(trajs, _FakeLimit(t), 0.01, tau_bar=0.3, t_max=0.4)
    for row in rep.rows:
        assert row["mean_sup_dist"] == 0.0
        assert row["frac_tau_ge_bound"] == 1.0
        assert 0.0 <= row["frac_tau_ge_bound"] <= 1.0


def test_convergence_report_synthetic_sqrt_n_scaling():
    # inject noise of amplitude a/sqrt(n): report means must scale ~ n^{-1/2}
    t = np.arange(5) * 0.1
    rng = np.random.default_rng(0)
    base = np.abs(rng.normal(size=40))
    trajs = []
    for n in (100, 10_000):
        for rep in range(40):
            amp = base[rep] / np.sqrt(n)
            trajs.append(_FakeTraj(n, rep, t, amp, np.inf))
    rep = convergence_report(trajs, _FakeLimit(t), 0.01, tau_bar=1.0, t_max=0.4)
    m100 = rep.row(100, "I")["mean_sup_dist"]
    m10k = rep.row(10_000, "I")["mean_sup_dist"]
    assert m100 / m10k == pytest.approx(10.0, rel=1e-9)


def test_convergence_report_fraction_counts_tau():
    t = np.arange(3) * 0.1
    trajs = [_FakeTraj(50, 0, t, 0.0, 0.05), _FakeTraj(50, 1, t, 0.0, 10.0)]
    rep = convergence_report(trajs, _FakeLimit(t), 0.01, tau_bar=0.2, t_max=0.2)
    assert rep.row(50, "S")["frac_tau_ge_bound"] == 0.5


def test_report_csv_deterministic_bytes():
    def build():
        out = small_batch(reps=2)
        lim = _FakeLimit(out[0].times)
        rep = convergence_report(out, lim, 0.01, tau_bar=0.01, t_max=0.02)
        return "\n".join(rep.to_csv_lines())

    assert build() == build()


def test_run_convergence_study_end_to_end():
    spec = DegreeSpec.poisson(5, 30)
    report = run_convergence_study(
        spec, 1.0, 0.5, 0.01, [300], 5, 21, t_max=0.002, grid=2e-4)
    assert report.tau_bar > 0
    header = next(iter(report.to_csv_lines()))
    assert header == "n,reps,col,mean_sup_dist,stderr,frac_tau_ge_bound"
    assert {row["col"] for row in report.rows} == {"S", "I", "R", "N_S", "N_IS", "N_RS"}
    manifest = manifest_json(report)
    assert '"base_seed": 21' in manifest
    assert manifest.count('"rep"') == 5


def test_study_report_equals_full_horizon_report():
    # the study simulates and solves only up to its comparison window, so
    # its report must equal the one built from replicas run to t_max
    spec = DegreeSpec.poisson(5, 30)
    r, beta, i0, eps_prime, t_max, grid = 1.0, 0.5, 0.01, 0.01, 0.05, 1e-4
    study = run_convergence_study(spec, r, beta, i0, [200, 500], 4, 3,
                                  t_max=t_max, grid=grid, eps_prime=eps_prime)
    init = limit_initial(spec, i0)
    tau_bar = horizon_bound(init, r, beta, eps_prime)
    assert grid < study.t_end == tau_bar < t_max / 10
    full = run_replicas(spec, SimParams(r=r, beta=beta, t_max=t_max, record_grid=grid),
                        [200, 500], 4, 3, i0, eps_prime=eps_prime)
    assert full[0].times[-1] == pytest.approx(t_max)
    sol = solve_volz(init, SolverConfig(r=r, beta=beta, t_max=t_max, dt=grid, eps_IS=0.0))
    expected = convergence_report(full, sol, eps_prime, tau_bar, t_max)
    assert study.rows == expected.rows
    assert list(study.to_csv_lines()) == list(expected.to_csv_lines())
