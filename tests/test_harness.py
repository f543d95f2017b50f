import json
import math
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
    convergence_report,
    manifest_json,
    replica_record,
    replica_seed,
    run_convergence_study,
    run_replicas,
    sup_distance,
)
from sirnet.limit import SolverConfig, horizon_bound, limit_initial, solve_volz
from sirnet.simulation import SimParams, Trajectory, initialize_state, next_row, simulate


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


def simulated(spec, params, n_values, reps, seed, i0):
    """``(n, rep, trajectory)`` of each replica that :func:`run_replicas`
    runs with these arguments, simulated from the replica's seed as it is."""
    out = []
    for n in n_values:
        for rep in range(reps):
            rng = np.random.Generator(np.random.PCG64(replica_seed(seed, n, rep)))
            state = initialize_state(spec.sample(n, rng), i0, rng=rng)
            out.append((n, rep, simulate(state, params, rng=rng)))
    return out


def reduced(replicas, limit, eps_prime, t_end):
    """The records of ``(n, rep, trajectory)`` replicas on ``[0, t_end]``."""
    return [replica_record(traj, n, rep, limit, eps_prime, t_end)
            for n, rep, traj in replicas]


SMALL = (DegreeSpec.poisson(5, 30), SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005))
ZERO_LIMIT = np.zeros((len(COMPARED), 5))  # a record's distances are then its own values


def small_batch(reps=3, n_values=(200,), seed=5):
    return run_replicas(*SMALL, list(n_values), reps, seed, 0.02, ZERO_LIMIT, 0.01)


def test_run_replicas_shape_and_tagging():
    out = small_batch(reps=4, n_values=(200, 400))
    assert len(out) == 8
    assert sorted({rec.n for rec in out}) == [200, 400]
    assert sorted(rec.rep for rec in out if rec.n == 200) == [0, 1, 2, 3]
    for rec in out:
        assert rec.rows == 5 and rec.sups.shape == rec.dist_t0.shape == (len(COMPARED),)
        assert 0.0 <= rec.dist_t0[COMPARED.index("S")] <= 1.0
        assert rec.dist_t0[COMPARED.index("I")] == pytest.approx(np.ceil(0.02 * rec.n) / rec.n)
    # each record reduces its replica's run, simulated from its seed, on [0, t_max]
    expected = reduced(simulated(*SMALL, (200, 400), 4, 5, 0.02), ZERO_LIMIT, 0.01, 0.02)
    assert all(_same_record(x, y) for x, y in zip(out, expected))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_record(x, y):
    """Every field of two records equal, the distances bit for bit."""
    return ((x.n, x.rep) == (y.n, y.rep) and _same_bits(x.sups, y.sups)
            and _same_bits(x.dist_t0, y.dist_t0)
            and (x.tau, x.events, x.rows, x.terminal) == (y.tau, y.events, y.rows, y.terminal))


def test_run_replicas_reproducible():
    a = small_batch()
    b = small_batch()
    assert len(a) == len(b) == 3
    assert all(_same_record(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_run_replicas_workers_match_serial(monkeypatch, workers):
    # 6 replicas over 2, 3 or 4 processes: uneven strides at 4, and as
    # many processes on a host with fewer CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    serial = run_replicas(spec, params, [100, 200], 3, 11, 0.02, ZERO_LIMIT, 0.01, workers=1)
    parallel = run_replicas(spec, params, [100, 200], 3, 11, 0.02, ZERO_LIMIT, 0.01,
                            workers=workers)
    assert [(y.n, y.rep) for y in parallel] == [(x.n, x.rep) for x in serial]
    for x, y in zip(serial, parallel):
        assert _same_record(x, y)


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
    out = run_replicas(spec, params, [100], reps, 11, 0.02, ZERO_LIMIT, 0.01, workers=workers)
    assert pools_made == pool_sizes
    serial = run_replicas(spec, params, [100], reps, 11, 0.02, ZERO_LIMIT, 0.01, workers=1)
    assert [(x.n, x.rep) for x in out] == [(x.n, x.rep) for x in serial]
    assert all(_same_record(x, y) for x, y in zip(out, serial))


@pytest.mark.parametrize("cpus, pool_sizes", [(2, [1]), (None, [])])
def test_run_replicas_forks_no_more_workers_than_cpus(monkeypatch, pools_made, cpus,
                                                      pool_sizes):
    # 100000 workers asked for 3 replicas: one process per CPU, the caller
    # included, and none beside it when the CPU count is unknown
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    out = run_replicas(spec, params, [100], 3, 11, 0.02, ZERO_LIMIT, 0.01, workers=100_000)
    assert pools_made == pool_sizes
    serial = run_replicas(spec, params, [100], 3, 11, 0.02, ZERO_LIMIT, 0.01, workers=1)
    assert [(x.n, x.rep) for x in out] == [(x.n, x.rep) for x in serial]
    assert all(_same_record(x, y) for x, y in zip(out, serial))


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
        run_replicas(spec, params, [100], 3, 11, 0.02, ZERO_LIMIT, 0.01, workers=3)
    assert len(started) == 2
    for pid in started:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_run_replicas_validation():
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    with pytest.raises(ConfigurationError):
        run_replicas(spec, params, [100], 0, 1, 0.02, ZERO_LIMIT, 0.01)
    with pytest.raises(ConfigurationError):
        run_replicas(spec, params, [], 1, 1, 0.02, ZERO_LIMIT, 0.01)
    with pytest.raises(ConfigurationError, match="distinct, got n=100,200,100"):
        run_replicas(spec, params, [100, 200, 100], 1, 1, 0.02, ZERO_LIMIT, 0.01)
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        run_replicas(spec, params, [100], 1, -1, 0.02, ZERO_LIMIT, 0.01)


@pytest.mark.parametrize("eps_prime", [float("nan"), 0.0, -1.0])
def test_run_replicas_refuses_bad_eps_prime(monkeypatch, eps_prime):
    # each used to make every tau^n infinite and report frac_tau_ge_bound 1.0;
    # refused before any replica runs
    monkeypatch.setattr(harness, "_run_one", None)
    spec = DegreeSpec.poisson(5, 20)
    params = SimParams(r=1.0, beta=0.5, t_max=0.02, record_grid=0.005)
    with pytest.raises(ConfigurationError, match="eps_prime must be"):
        run_replicas(spec, params, [100], 2, 1, 0.02, ZERO_LIMIT, eps_prime)


def _fake_limit(rows):
    """A 'limit' at 0.5 in every column on ``rows`` grid rows, for synthetic
    report tests."""
    return np.full((len(COMPARED), rows), 0.5)


def _fake_traj(table, terminal="t_max"):
    """A run on the grid 0.1 whose ``(T, 6)`` integer ``table`` holds one
    row per grid row, its columns in ``COMPARED`` order."""
    table = np.array(table, dtype=np.int64)
    return Trajectory(grid=0.1, rows=table, runs=[1] * len(table), terminal=terminal)


def _flat(n, rep, rows, count, n_IS=None):
    """``(n, rep, trajectory)`` of a replica at ``count`` in every column on
    ``rows`` grid rows, with ``n_IS`` as its ``N_IS`` counts when given."""
    table = np.full((rows, len(COMPARED)), count)
    if n_IS is not None:
        table[:, COMPARED.index("N_IS")] = n_IS
    return n, rep, _fake_traj(table)


def test_convergence_report_zero_when_equal():
    # equal sup distances have no spread: stderr is 0 exactly, whatever the
    # round-off of their float mean (10 replicas at 0.3 gave 1.85e-17)
    for reps, count, offset in ((3, 50, 0.0), (10, 80, 0.3)):
        replicas = [_flat(100, rep, 5, count) for rep in range(reps)]
        rep = convergence_report(reduced(replicas, _fake_limit(5), 0.01, 0.3),
                                 tau_bar=0.3, t_max=0.4)
        for row in rep.rows:
            assert row["mean_sup_dist"] == pytest.approx(offset, abs=0.0)
            assert row["stderr"] == 0.0
            assert row["frac_tau_ge_bound"] == 1.0
            assert 0.0 <= row["frac_tau_ge_bound"] <= 1.0


def _noise_replicas():
    """Replicas whose counts sit ``a sqrt(n)`` above n/2, so a distance of
    ``a/sqrt(n)`` from the fake limit, ``a`` one decimal place of a normal
    draw's size, so its count at n=10^4 is ten times its count at n=100."""
    base = np.round(np.abs(np.random.default_rng(0).normal(size=40)), 1)
    return [_flat(n, rep, 5, n // 2 + int(round(float(base[rep] * np.sqrt(n)))))
            for n in (100, 10_000) for rep in range(40)]


def test_convergence_report_synthetic_sqrt_n_scaling():
    # noise of amplitude a/sqrt(n): report means must scale ~ n^{-1/2}
    records = reduced(_noise_replicas(), _fake_limit(5), 0.01, 0.4)
    rep = convergence_report(records, tau_bar=1.0, t_max=0.4)
    m100 = rep.row(100, "I")["mean_sup_dist"]
    m10k = rep.row(10_000, "I")["mean_sup_dist"]
    assert m100 / m10k == pytest.approx(10.0, rel=1e-9)


def _crossing_replicas():
    # at eps_prime=0.01 and tau_bar=0.2: N_IS/n falls below eps_prime at t=0.1
    # (before tau_bar), at t=0.2 (exactly tau_bar, which counts) and never
    # (equal to eps_prime is not below it)
    n_IS = ([500, 5, 0], [500, 20, 5], [500, 10, 10])
    return [_flat(1000, rep, 3, 500, row) for rep, row in enumerate(n_IS)]


def test_convergence_report_fraction_counts_tau():
    records = reduced(_crossing_replicas(), _fake_limit(3), 0.01, 0.2)
    rep = convergence_report(records, tau_bar=0.2, t_max=0.2)
    for col in COMPARED:
        assert rep.row(1000, col)["frac_tau_ge_bound"] == 2 / 3
    # every replica crosses before tau_bar=0.25 bar the one that never does
    rep = convergence_report(records, tau_bar=0.25, t_max=0.2)
    assert rep.row(1000, "S")["frac_tau_ge_bound"] == 1 / 3


def test_replica_record_refuses_limit_shorter_than_window():
    replicas = _crossing_replicas()
    with pytest.raises(ConfigurationError, match="do not share a grid"):
        reduced(replicas, _fake_limit(2), 0.01, 0.2)
    # rows past the window need no limit
    rep = convergence_report(reduced(replicas, _fake_limit(2), 0.01, 0.15),
                             tau_bar=0.15, t_max=0.2)
    assert rep.row(1000, "S")["mean_sup_dist"] == 0.0


def _window_replica(n, rep, count, infections, removals, terminal="t_max"):
    """A replica at ``count`` in every column at every time, whose S falls
    by ``infections`` and R rises by ``removals`` at t=0.1, and whose S
    falls once more at t=0.4, after a window ending at 0.3."""
    table = np.full((5, len(COMPARED)), count)
    table[1:, COMPARED.index("S")] -= infections
    table[1:, COMPARED.index("R")] += removals
    table[4:, COMPARED.index("S")] -= 1
    return n, rep, _fake_traj(table, terminal)


def test_convergence_report_window_counts_events_and_initial_shift():
    # 0.01 to 0.04 above the fake limit at n=100, 0.001 below it at n=1000
    replicas = [_window_replica(100, rep, count, inf, rem, terminal)
                for rep, (count, inf, rem, terminal) in
                enumerate([(51, 0, 0, "t_max"), (52, 1, 0, "extinct"), (53, 2, 1, "t_max"),
                           (54, 0, 0, "t_max")])]
    replicas += [_window_replica(1000, rep, 499, 0, 0) for rep in range(3)]
    report = convergence_report(reduced(replicas, _fake_limit(5), 0.01, 0.3),
                                tau_bar=0.3, t_max=0.4)
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
    spec, params = SMALL
    sol = solve_volz(limit_initial(spec, 0.02),
                     SolverConfig(r=1.0, beta=0.5, t_max=0.02, dt=1e-3, eps_IS=0.0))
    return simulated(spec, params, (200, 400), 3, 5, 0.02), _limit_rows(sol, 5), 0.01, 0.02


def _shorter_replica_batch():
    # the real batch and a replica of 2 rows, shorter than the window's 3:
    # each replica is compared on the window rows it holds
    batch, limit, tau_bar, t_max = _real_batch()
    n, _, traj = batch[0]
    batch.append((n, 3, Trajectory(grid=traj.grid, rows=traj.counts[:2], runs=[1, 1])))
    return batch, limit, tau_bar, t_max


def _fake_equal():
    return [_flat(100, rep, 5, 80) for rep in range(10)], _fake_limit(5), 0.3, 0.4


def _fake_noise():
    return _noise_replicas(), _fake_limit(5), 1.0, 0.4


def _fake_tau():
    return _crossing_replicas(), _fake_limit(3), 0.2, 0.2


@pytest.mark.parametrize("case", [_real_batch, _shorter_replica_batch, _fake_equal,
                                  _fake_noise, _fake_tau],
                         ids=["real-batch", "shorter-replica", "fake-equal",
                              "fake-noise", "fake-tau"])
def test_convergence_report_rows_equal_reference(case):
    replicas, limit, tau_bar, t_max = case()
    t_end = min(t_max, tau_bar)
    report = convergence_report(reduced(replicas, limit, 0.01, t_end), tau_bar, t_max)
    assert report.rows == convergence_rows_reference(replicas, limit, 0.01, tau_bar, t_end)


def test_report_csv_deterministic_bytes():
    def build():
        rep = convergence_report(small_batch(reps=2), tau_bar=0.03, t_max=0.02)
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
    # its report must equal the one built from replicas run to t_max and
    # reduced at the window's end
    spec = DegreeSpec.poisson(5, 30)
    r, beta, i0, eps_prime, t_max, grid = 1.0, 0.5, 0.01, 0.01, 0.05, 1e-4
    study = run_convergence_study(spec, r, beta, i0, [200, 500], 4, 3,
                                  t_max=t_max, grid=grid, eps_prime=eps_prime)
    init = limit_initial(spec, i0)
    tau_bar = horizon_bound(init, r, beta, eps_prime)
    assert grid < study.t_end == tau_bar < t_max / 10
    full = simulated(spec, SimParams(r=r, beta=beta, t_max=t_max, record_grid=grid),
                     [200, 500], 4, 3, i0)
    assert full[0][2].times[-1] == pytest.approx(t_max)
    sol = solve_volz(init, SolverConfig(r=r, beta=beta, t_max=t_max, dt=grid, eps_IS=0.0))
    records = reduced(full, _limit_rows(sol, 1), eps_prime, tau_bar)
    expected = convergence_report(records, tau_bar, t_max)
    assert study.rows == expected.rows
    assert list(study.to_csv_lines()) == list(expected.to_csv_lines())


@pytest.mark.parametrize("crossing", ["after", "in"])
def test_record_of_run_past_window_equals_record_of_run_to_its_end(crossing):
    # the study runs each replica only to its window's end: a run past it,
    # reduced there, gives the same record, also where N_IS/n first falls
    # below eps_prime after the window (eps_prime the window's least N_IS/n)
    # and not in it
    spec, i0, grid = DegreeSpec.poisson(5, 30), 0.01, 1e-4
    t_end = horizon_bound(limit_initial(spec, i0), 1.0, 0.5, 0.01)
    (n, rep, past), = simulated(spec, SimParams(r=1.0, beta=0.5, t_max=0.05, record_grid=grid),
                                [500], 1, 3, i0)
    (_, _, to_end), = simulated(spec, SimParams(r=1.0, beta=0.5, t_max=t_end, record_grid=grid),
                                [500], 1, 3, i0)
    w = to_end.n_rows
    assert w == next_row(t_end, grid) < past.n_rows
    n_IS = past.column("N_IS") / n
    eps_prime = n_IS[:w].min()
    if crossing == "in":
        eps_prime = np.nextafter(eps_prime, np.inf)
    below = np.flatnonzero(n_IS < eps_prime)
    assert (below[0] >= w) == (crossing == "after")
    sol = solve_volz(limit_initial(spec, i0),
                     SolverConfig(r=1.0, beta=0.5, t_max=0.05, dt=grid, eps_IS=0.0))
    a = replica_record(past, n, rep, _limit_rows(sol, 1), eps_prime, t_end)
    b = replica_record(to_end, n, rep, _limit_rows(sol, 1), eps_prime, t_end)
    assert _same_record(a, b)
    assert (a.tau == math.inf) == (crossing == "after")
