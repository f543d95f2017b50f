import json
import os
import pickle
import signal
import time

import numpy as np
import pytest
from oracles import convergence_rows_reference

from sirnet import cli, harness
from sirnet.degrees import DegreeSpec
from sirnet.errors import ConfigurationError
from sirnet.harness import (
    COMPARED,
    ConvergenceReport,
    ScaledTrajectory,
    convergence_report,
    manifest_json,
    run_convergence_study,
    run_replicas,
    sup_distance,
)
from sirnet.limit import SolverConfig, horizon_bound, limit_initial, solve_volz
from sirnet.simulation import SimParams, next_row


def test_sup_distance_examples():
    a = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert sup_distance(a, a) == 0.0
    assert sup_distance(a + 0.25, a) == pytest.approx(0.25)
    # one-grid-step shift of a monotone path -> max single-step increment
    shifted = np.concatenate([[a[0]], a[:-1]])
    assert sup_distance(a, shifted) == pytest.approx(np.diff(a).max())


def test_sup_distance_refuses_unequal_or_empty_shapes():
    with pytest.raises(ConfigurationError, match="do not share a grid"):
        sup_distance(np.zeros(2), np.zeros(3))
    with pytest.raises(ConfigurationError, match="do not share a grid"):
        sup_distance(np.zeros((6, 0)), np.zeros((6, 0)))
    with pytest.raises(ConfigurationError, match="do not share a grid"):
        sup_distance(np.float64(1.0), np.float64(1.0))


def test_sup_distance_stacked_rows():
    # six paths stacked along a leading axis: one sup per row
    rng = np.random.default_rng(3)
    va = rng.normal(size=(6, 11))
    vb = rng.normal(size=(6, 11))
    sups = sup_distance(va, vb)
    assert isinstance(sups, np.ndarray) and sups.shape == (6,)
    rows = [sup_distance(a, b) for a, b in zip(va, vb)]
    assert all(type(x) is float for x in rows)
    assert sups.tolist() == rows
    with pytest.raises(ConfigurationError):
        sup_distance(va, vb[:, :-1])


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
        assert tr.values.shape == (len(COMPARED), len(tr.times))
        assert 0.0 <= tr.column("S")[0] <= 1.0
        assert tr.column("I")[0] == pytest.approx(np.ceil(0.02 * tr.n) / tr.n)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_run_replicas_reproducible():
    a = small_batch()
    b = small_batch()
    for x, y in zip(a, b):
        assert (x.n, x.rep) == (y.n, y.rep)
        assert _same_bits(x.values, y.values)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_run_replicas_workers_match_serial(monkeypatch, workers):
    # 6 replicas over 2, 3 or 4 processes: uneven strides at 4, and as
    # many processes on a host with fewer CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    serial = run_replicas(spec, params, [100, 200], 3, 11, 0.02, workers=1)
    parallel = run_replicas(spec, params, [100, 200], 3, 11, 0.02, workers=workers)
    assert [(y.n, y.rep) for y in parallel] == [(x.n, x.rep) for x in serial]
    for x, y in zip(serial, parallel):
        assert _same_bits(x.times, y.times)
        assert _same_bits(x.values, y.values)
        assert x.terminal == y.terminal


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test here leaves no child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fails a test still running after 30 s, where a fork could hang it."""
    def expire(signum, frame):
        raise TimeoutError("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def pools_made(monkeypatch):
    """The number of workers each :func:`run_replicas` call that forks
    starts.  A stand-in for the fork runs the worker's share in this
    process and writes its message into a real pipe, and a child that
    exits at once stands in for the worker, so the caller reads and reaps
    as it does a worker's."""
    sizes = []

    def inline_share(jobs, s, w):
        if s == 1:
            sizes.append(w - 1)
        read_fd, write_fd = os.pipe()
        with open(write_fd, "wb") as fh:  # a few replicas: within the pipe's buffer
            fh.write(pickle.dumps((True, harness._run_many(jobs[s::w]))))
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        return pid, read_fd

    monkeypatch.setattr(harness, "_fork_share", inline_share)
    return sizes


@pytest.mark.parametrize("workers, reps, pool_sizes", [(64, 3, [2]), (8, 1, [])])
def test_run_replicas_forks_no_idle_worker(monkeypatch, pools_made, workers, reps,
                                           pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    out = run_replicas(spec, params, [100], reps, 11, 0.02, workers=workers)
    assert pools_made == pool_sizes
    serial = run_replicas(spec, params, [100], reps, 11, 0.02, workers=1)
    assert [(x.n, x.rep) for x in out] == [(x.n, x.rep) for x in serial]
    assert all(_same_bits(x.values, y.values) for x, y in zip(out, serial))


@pytest.mark.parametrize("cpus, pool_sizes", [(2, [1]), (None, [])])
def test_run_replicas_forks_no_more_workers_than_cpus(monkeypatch, pools_made, cpus,
                                                      pool_sizes):
    # 100000 workers asked for 3 replicas: one process per CPU, the caller
    # included, and none beside it when the CPU count is unknown
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    out = run_replicas(spec, params, [100], 3, 11, 0.02, workers=100_000)
    assert pools_made == pool_sizes
    serial = run_replicas(spec, params, [100], 3, 11, 0.02, workers=1)
    assert [(x.n, x.rep) for x in out] == [(x.n, x.rep) for x in serial]
    assert all(_same_bits(x.values, y.values) for x, y in zip(out, serial))


CONVERGE = ["converge", "--degree", "poisson:5:30", "--n", "200", "--reps", "2",
            "--r", "1", "--beta", "0.5", "--i0", "0.01", "--seed", "1",
            "--t-max", "0.002", "--grid", "1e-4"]


@pytest.mark.usefixtures("deadline")
def test_worker_configuration_error_exits_2_as_serial(tmp_path, capsys, monkeypatch):
    # two replicas on two processes: replica 1 is the worker's share, and
    # its refusal reaches the command as it does when the caller runs it
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent, run_here = os.getpid(), []
    run_one = harness._run_one

    def refuse_replica_1(job):
        if os.getpid() == parent:
            run_here.append(job[3])
        if job[3] == 1:
            raise ConfigurationError("replica 1 refused")
        return run_one(job)

    monkeypatch.setattr(harness, "_run_one", refuse_replica_1)
    ends = []
    for workers in ("1", "2"):
        run_here.clear()
        out = tmp_path / f"w{workers}.csv"
        code = cli.main(CONVERGE + ["--workers", workers, "--out", str(out)])
        ends.append((code, capsys.readouterr().err, out.exists()))
    assert run_here == [0]  # replica 1 ran in the worker
    assert ends == [(2, "configuration error: replica 1 refused\n", False)] * 2


@pytest.mark.usefixtures("deadline")
def test_worker_killed_exits_1_naming_its_status(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parent, run_one = os.getpid(), harness._run_one

    def worker_dies(job):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_one(job)

    monkeypatch.setattr(harness, "_run_one", worker_dies)
    out = tmp_path / "x.csv"
    code = cli.main(CONVERGE + ["--workers", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert "ended without a result" in err and "killed by signal 9" in err
    assert not out.exists()


@pytest.mark.usefixtures("deadline")
@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
def test_caller_failure_kills_and_reaps_every_worker(monkeypatch, failure):
    # the caller's share fails at once while its two workers would run a
    # minute: each is killed and reaped, none waited out past the deadline
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    parent, run_one, fork_share = os.getpid(), harness._run_one, harness._fork_share
    started = []

    def caller_fails(job):
        if os.getpid() == parent:
            raise failure("the caller's share failed")
        time.sleep(60)
        return run_one(job)

    def recorded(jobs, s, w):
        pid, read_fd = fork_share(jobs, s, w)
        started.append(pid)
        return pid, read_fd

    monkeypatch.setattr(harness, "_run_one", caller_fails)
    monkeypatch.setattr(harness, "_fork_share", recorded)
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    with pytest.raises(failure, match="the caller's share failed"):
        run_replicas(spec, params, [100], 3, 11, 0.02, workers=3)
    assert len(started) == 2
    for pid in started:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_run_replicas_validation():
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    with pytest.raises(ConfigurationError):
        run_replicas(spec, params, [100], 0, 1, 0.02)
    with pytest.raises(ConfigurationError):
        run_replicas(spec, params, [], 1, 1, 0.02)
    with pytest.raises(ConfigurationError, match="distinct, got n=100,200,100"):
        run_replicas(spec, params, [100, 200, 100], 1, 1, 0.02)
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        run_replicas(spec, params, [100], 1, -1, 0.02)


def _fake_limit(t):
    """A 'limit' at 0.5 in every column on the grid ``t``, for synthetic
    report tests."""
    return np.full((len(COMPARED), len(t)), 0.5)


def _fake_traj(n, rep, times, offset, n_IS=None):
    """A replica at ``0.5 + offset`` in every column, with ``n_IS`` as its
    ``N_IS`` row when given."""
    values = np.full((len(COMPARED), len(times)), 0.5 + offset)
    if n_IS is not None:
        values[COMPARED.index("N_IS")] = n_IS
    return ScaledTrajectory(n=n, rep=rep, times=times, values=values,
                            terminal="t_max")


def test_convergence_report_zero_when_equal():
    # equal sup distances have no spread: stderr is 0 exactly, whatever the
    # round-off of their float mean (10 replicas at 0.3 gave 1.85e-17)
    t = np.arange(5) * 0.1
    for reps, offset in ((3, 0.0), (10, 0.3)):
        trajs = [_fake_traj(100, rep, t, offset) for rep in range(reps)]
        rep = convergence_report(trajs, _fake_limit(t), 0.01, tau_bar=0.3, t_max=0.4)
        for row in rep.rows:
            assert row["mean_sup_dist"] == pytest.approx(offset, abs=0.0)
            assert row["stderr"] == 0.0
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
            trajs.append(_fake_traj(n, rep, t, amp))
    rep = convergence_report(trajs, _fake_limit(t), 0.01, tau_bar=1.0, t_max=0.4)
    m100 = rep.row(100, "I")["mean_sup_dist"]
    m10k = rep.row(10_000, "I")["mean_sup_dist"]
    assert m100 / m10k == pytest.approx(10.0, rel=1e-9)


def _crossing_trajs():
    # at eps_prime=0.01 and tau_bar=0.2: N_IS falls below eps_prime at t=0.1
    # (before tau_bar), at t=0.2 (exactly tau_bar, which counts) and never
    # (equal to eps_prime is not below it)
    t = np.arange(3) * 0.1
    rows = ([0.5, 0.005, 0.0], [0.5, 0.02, 0.005], [0.5, 0.01, 0.01])
    return [_fake_traj(50, rep, t, 0.0, row) for rep, row in enumerate(rows)], t


def test_convergence_report_fraction_counts_tau():
    trajs, t = _crossing_trajs()
    rep = convergence_report(trajs, _fake_limit(t), 0.01, tau_bar=0.2, t_max=0.2)
    for col in COMPARED:
        assert rep.row(50, col)["frac_tau_ge_bound"] == 2 / 3
    # every replica crosses before tau_bar=0.25 bar the one that never does
    rep = convergence_report(trajs, _fake_limit(t), 0.01, tau_bar=0.25, t_max=0.2)
    assert rep.row(50, "S")["frac_tau_ge_bound"] == 1 / 3


def test_convergence_report_refuses_limit_shorter_than_window():
    trajs, t = _crossing_trajs()
    with pytest.raises(ConfigurationError, match="do not share a grid"):
        convergence_report(trajs, _fake_limit(t[:-1]), 0.01, tau_bar=0.2, t_max=0.2)
    # rows past the window need no limit
    rep = convergence_report(trajs, _fake_limit(t[:-1]), 0.01, tau_bar=0.15, t_max=0.2)
    assert rep.row(50, "S")["mean_sup_dist"] == 0.0


@pytest.mark.parametrize("eps_prime", [float("nan"), 0.0, -1.0])
def test_convergence_report_refuses_bad_eps_prime(eps_prime):
    # each used to make every tau^n infinite and report frac_tau_ge_bound 1.0
    trajs, t = _crossing_trajs()
    with pytest.raises(ConfigurationError, match="eps_prime must be"):
        convergence_report(trajs, _fake_limit(t), eps_prime, tau_bar=0.2, t_max=0.2)


def _window_traj(n, rep, t, shift, infections, removals):
    """A replica ``shift`` above the fake limit in every column at every
    time, whose S falls by ``infections`` and R rises by ``removals`` at
    t=0.1, and whose S falls once more at t=0.4, after a window ending at
    0.3."""
    values = np.full((len(COMPARED), len(t)), 0.5 + shift)
    values[COMPARED.index("S"), 1:] -= infections / n
    values[COMPARED.index("R"), 1:] += removals / n
    values[COMPARED.index("S"), 4:] -= 1 / n
    return ScaledTrajectory(n=n, rep=rep, times=t, values=values,
                            terminal="t_max")


def test_convergence_report_window_counts_events_and_initial_shift():
    t = np.arange(5) * 0.1
    trajs = [_window_traj(100, rep, t, shift, inf, rem) for rep, (shift, inf, rem) in
             enumerate([(0.01, 0, 0), (0.02, 1, 0), (0.03, 2, 1), (0.04, 0, 0)])]
    trajs += [_window_traj(1000, rep, t, -0.001, 0, 0) for rep in range(3)]
    trajs[1].terminal = "extinct"
    report = convergence_report(trajs, _fake_limit(t), 0.01, tau_bar=0.3, t_max=0.4)
    small, large = report.manifest["window"]
    assert small["n"] == 100 and large["n"] == 1000
    # the rows at t = 0, 0.1, 0.2 and 0.3, and each reason's count, sorted by reason
    assert small["rows"] == large["rows"] == 4
    assert list(small["terminals"].items()) == [("extinct", 1), ("t_max", 3)]
    assert large["terminals"] == {"t_max": 3}
    # 0, 1, 3 and 0 events; the S step at t=0.4 lies past the window
    assert small["mean_events"] == 1.0 and small["frac_no_events"] == 0.5
    assert large["mean_events"] == 0.0 and large["frac_no_events"] == 1.0
    assert set(small["mean_dist_t0"]) == set(COMPARED)
    for col in COMPARED:
        assert small["mean_dist_t0"][col] == pytest.approx(0.025, abs=1e-15)
        assert large["mean_dist_t0"][col] == pytest.approx(0.001, abs=1e-15)


def test_run_convergence_study_writes_window_to_manifest():
    spec = DegreeSpec.poisson(5, 30)

    def study():
        return run_convergence_study(spec, 1.0, 0.5, 0.01, [300, 600], 3, 21,
                                     t_max=0.002, grid=2e-4)

    report = study()
    text = manifest_json(report)
    window = json.loads(text)["window"]
    assert [w["n"] for w in window] == [300, 600]
    for w in window:
        assert w["mean_events"] >= 0 and 0 <= w["frac_no_events"] <= 1
        assert w["mean_events"] * 3 == round(w["mean_events"] * 3)  # whole events per replica
        assert w["rows"] == next_row(report.t_end, 2e-4) == 7  # t = 0, ..., 0.0012 < tau_bar
        assert sum(w["terminals"].values()) == 3
        assert list(w["terminals"]) == sorted(w["terminals"])
    # the manifest is deterministic: a repeat writes the same bytes
    assert manifest_json(study()) == text


def _limit_rows(sol, stride):
    """The limit table of a solve whose ``stride``-th rows are the grid times."""
    return np.stack([sol.column(col)[::stride] for col in COMPARED])


def _real_batch():
    # grid 0.005 over solver steps of 1e-3
    spec = DegreeSpec.poisson(5, 30)
    sol = solve_volz(limit_initial(spec, 0.02),
                     SolverConfig(r=1.0, beta=0.5, t_max=0.02, dt=1e-3, eps_IS=0.0))
    return small_batch(reps=3, n_values=(200, 400)), _limit_rows(sol, 5), 0.01, 0.02


def _shorter_replica_batch():
    # the real batch and a replica of 2 rows, shorter than the window's 3:
    # each replica is compared on the window rows it holds
    batch, limit, tau_bar, t_max = _real_batch()
    tr = batch[0]
    batch.append(ScaledTrajectory(n=tr.n, rep=3, times=tr.times[:2], values=tr.values[:, :2],
                                  terminal="t_max"))
    return batch, limit, tau_bar, t_max


def _fake_equal():
    t = np.arange(5) * 0.1
    return [_fake_traj(100, rep, t, 0.3) for rep in range(10)], _fake_limit(t), 0.3, 0.4


def _fake_noise():
    t = np.arange(5) * 0.1
    base = np.abs(np.random.default_rng(0).normal(size=40))
    trajs = [_fake_traj(n, rep, t, base[rep] / np.sqrt(n))
             for n in (100, 10_000) for rep in range(40)]
    return trajs, _fake_limit(t), 1.0, 0.4


def _fake_tau():
    trajs, t = _crossing_trajs()
    return trajs, _fake_limit(t), 0.2, 0.2


@pytest.mark.parametrize("case", [_real_batch, _shorter_replica_batch, _fake_equal,
                                  _fake_noise, _fake_tau],
                         ids=["real-batch", "shorter-replica", "fake-equal",
                              "fake-noise", "fake-tau"])
def test_convergence_report_rows_equal_reference(case):
    trajectories, limit, tau_bar, t_max = case()
    report = convergence_report(trajectories, limit, 0.01, tau_bar, t_max)
    assert report.rows == convergence_rows_reference(trajectories, limit, 0.01,
                                                     tau_bar, min(t_max, tau_bar))


def test_report_csv_deterministic_bytes():
    def build():
        out = small_batch(reps=2)
        lim = _fake_limit(out[0].times)
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
    assert report.manifest["replica_seeds"] == [
        {"n": 300, "rep": rep,
         "state_words": harness.replica_seed(21, 300, rep).generate_state(4).tolist()}
        for rep in range(5)]


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
                        [200, 500], 4, 3, i0)
    assert full[0].times[-1] == pytest.approx(t_max)
    sol = solve_volz(init, SolverConfig(r=r, beta=beta, t_max=t_max, dt=grid, eps_IS=0.0))
    expected = convergence_report(full, _limit_rows(sol, 1), eps_prime, tau_bar, t_max)
    assert study.rows == expected.rows
    assert list(study.to_csv_lines()) == list(expected.to_csv_lines())
