"""Monte-Carlo replica orchestration and convergence reporting.

Runs batches of simulations at increasing population sizes n, rescales the
trajectories by 1/n, and measures their sup-distance on a common grid to the
deterministic limit.  The comparison is restricted to the horizon
``min(t_max, tau_bar(eps_prime))`` within which the per-capita count of
infectious-to-susceptible edges provably stays above ``eps_prime`` in the
limit; beyond it the limit approximation carries no guarantee.  The
report also counts the replicas whose own per-capita ``N_IS`` stays at or
above ``eps_prime`` at every grid time before ``tau_bar``.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from sirnet.errors import ConfigurationError, check_nonnegative, check_positive
from sirnet.limit import SolverConfig, horizon_bound, limit_initial, solve_volz
from sirnet.simulation import (
    GRID_TIE,
    SimParams,
    Trajectory,
    initial_infective_count,
    initialize_state,
    simulate,
)

REPORT_COLUMNS = ("n", "reps", "col", "mean_sup_dist", "stderr", "frac_tau_ge_bound")
COMPARED = Trajectory.COLUMNS[1:]


@dataclass
class ScaledTrajectory:
    """One replica: its grid times, its :class:`Trajectory` count table
    transposed and divided by the population size (one row per ``COMPARED``
    column, so ``column(name)`` is a row) and its terminal reason.  Its
    seed is :func:`replica_seed` of ``(n, rep)``."""

    n: int
    rep: int
    times: np.ndarray
    values: np.ndarray  # (6, T): the COMPARED columns, per capita, on the grid
    terminal: str

    def column(self, name):
        return self.values[COMPARED.index(name)]


def replica_seed(base_seed, n, rep):
    """Deterministic per-replica seed stream, independent across (n, rep)."""
    return np.random.SeedSequence(base_seed, spawn_key=(n, rep))


def _run_one(args):
    spec, params, n, rep, base_seed, i0 = args
    rng = np.random.Generator(np.random.PCG64(replica_seed(base_seed, n, rep)))
    state = initialize_state(spec.sample(n, rng), i0, rng=rng)
    traj = simulate(state, params, rng=rng)
    return ScaledTrajectory(n=n, rep=rep, times=traj.times, values=traj.counts.T / n,
                            terminal=traj.terminal)


def _check_batch(n_values, reps, base_seed, workers):
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    if not n_values:
        raise ConfigurationError("need at least one population size")
    if len(set(n_values)) < len(n_values):
        raise ConfigurationError("population sizes must be distinct, got n="
                                 + ",".join(map(str, n_values)))
    check_nonnegative(seed=base_seed)
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")


def _run_many(jobs):
    """Run one worker's share of the jobs.  Calls :func:`_run_one` through
    the module global, so a wrapper set on that name runs in the worker."""
    return [_run_one(job) for job in jobs]


def _fork_share(jobs, s, w):
    """Fork the worker of share ``s`` of ``w``: it runs
    ``_run_many(jobs[s::w])`` and pickles ``(True, result)`` or
    ``(False, exception)`` into a pipe once.  Returns the worker's pid and
    the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, _run_many(jobs[s::w])),
                                       pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _share_result(pid, data, status):
    """The jobs' results from a worker's pipe ``data`` and wait ``status``;
    re-raises the worker's exception."""
    if status != 0 or not data:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        raise RuntimeError(f"replica worker {pid} ended without a result "
                           f"(wait status {status}: {how})")
    ok, result = pickle.loads(data)
    if not ok:
        raise result
    return result


def run_replicas(spec, params, n_values, reps, base_seed, i0, workers=None):
    """``reps`` independent scaled simulations for every n in ``n_values``.

    Each replica draws its own degree counts, infects a uniform ``i0``
    fraction of its individuals (the selection :func:`limit_initial`
    models), and runs on a private RNG stream derived from
    ``(base_seed, n, rep)``, so outputs
    are reproducible and independent of worker scheduling.  Returns a flat
    list of :class:`ScaledTrajectory` ordered by (n, rep).

    ``workers`` processes share the replicas, the calling one included:
    with ``w = min(workers, replicas, CPUs)``, share ``s`` is every
    ``w``-th job from job ``s``.  The caller forks one worker and one pipe
    for each share ``s >= 1``, runs share 0 itself, then reads each pipe
    to its end and reaps its worker.  A worker pickles its results, or the
    exception its share raised, into its pipe once and exits; the caller
    re-raises that exception as it is.  A worker that ends without a
    result (killed, say, or out of memory) raises :class:`RuntimeError`
    naming its wait status.  On any failure, the caller's own included,
    every worker not yet reaped is killed and reaped.
    """
    _check_batch(n_values, reps, base_seed, workers)
    jobs = [
        (spec, params, int(n), rep, base_seed, i0)
        for n in n_values
        for rep in range(reps)
    ]
    w = min(workers or 1, len(jobs), os.cpu_count() or 1)
    if w == 1:
        return _run_many(jobs)
    out = [None] * len(jobs)
    running = []  # (pid, read end) of each worker not yet reaped, in share order
    try:
        for s in range(1, w):
            running.append(_fork_share(jobs, s, w))
        out[0::w] = _run_many(jobs[0::w])
        for s in range(1, w):
            pid, read_fd = running[0]
            with open(read_fd, "rb", closefd=False) as fh:
                data = fh.read()
            _, status = os.waitpid(pid, 0)
            del running[0]
            os.close(read_fd)
            out[s::w] = _share_result(pid, data, status)
    finally:
        for pid, read_fd in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    return out


def sup_distance(values_a, values_b):
    """Max of |a - b| over the last axis of two paths of equal shape, whose
    entries at one index are the same time.  Paths may be stacked along a
    leading axis, one per row (say, one row per column of a trajectory):
    an array then holds one sup per row.  A single path gives a Python
    ``float``.  Unequal or empty shapes are refused."""
    if values_a.shape != values_b.shape or values_a.ndim == 0 or values_a.size == 0:
        raise ConfigurationError(
            f"paths of shapes {values_a.shape} and {values_b.shape} do not share a grid")
    sup = np.abs(values_a - values_b).max(axis=-1)
    return float(sup) if sup.ndim == 0 else sup


@dataclass
class ConvergenceReport:
    rows: list  # dicts keyed by REPORT_COLUMNS
    tau_bar: float
    t_end: float
    manifest: dict = field(default_factory=dict)

    def to_csv_lines(self):
        yield ",".join(REPORT_COLUMNS)
        for row in self.rows:
            yield (
                f"{row['n']},{row['reps']},{row['col']},"
                f"{row['mean_sup_dist']:.10g},{row['stderr']:.10g},"
                f"{row['frac_tau_ge_bound']:.10g}"
            )

    def row(self, n, col):
        for r in self.rows:
            if r["n"] == n and r["col"] == col:
                return r
        raise KeyError((n, col))


def convergence_report(trajectories, limit, eps_prime, tau_bar, t_max):
    """Aggregate sup-distances of scaled replicas against the limit.

    ``limit`` is the ``(6, T)`` table of the limit's ``COMPARED`` columns
    at the replicas' grid times: column ``i`` is the time of every
    replica's row ``i``, so rows are compared by index.  Per (n, column):
    the mean and standard error of the sup-distance over each replica's
    ``w`` window rows, those on ``[0, min(t_max, tau_bar)]``, plus the
    fraction of replicas whose exit time ``tau^n`` is at least ``tau_bar``;
    ``tau^n`` is the first grid time at which the replica's per-capita
    ``N_IS`` is below ``eps_prime``, and ``inf`` if there is none.  A
    ``limit`` with fewer than ``w`` columns is refused.  Pure function:
    identical inputs give identical rows.

    The manifest's ``window`` says, per n, what the window holds:
    ``mean_events``, the mean over replicas of the events between t=0 and
    the last window row, ``n (S(0) - S(t_end)) + n (R(t_end) - R(0))``
    rounded to an integer per replica; ``frac_no_events``, the fraction of
    replicas with none; and ``mean_dist_t0``, per column, the mean
    ``|replica - limit|`` at t=0, the part of the distance that the
    sampled initial state holds before any event.
    """
    check_positive(eps_prime=eps_prime)
    t_end = min(t_max, tau_bar)
    by_n = {}
    for traj in trajectories:
        by_n.setdefault(traj.n, []).append(traj)
    S, R = COMPARED.index("S"), COMPARED.index("R")
    rows, window = [], []
    for n in sorted(by_n):
        group = sorted(by_n[n], key=lambda tr: tr.rep)
        taus, first, last, sups = [], [], [], []
        for tr in group:
            below = np.flatnonzero(tr.column("N_IS") < eps_prime)
            taus.append(tr.times[below[0]] if len(below) else math.inf)
            # the window rows, as simulate records [0, t_end]
            w = int(np.count_nonzero(tr.times <= t_end + GRID_TIE))
            sups.append(sup_distance(tr.values[:, :w], limit[:, :w]))
            first.append(tr.values[:, 0])
            last.append(tr.values[:, w - 1])
        frac = float(np.mean([tau >= tau_bar for tau in taus]))
        # each column's distances contiguous, as the mean and std saw them per column
        for col, dists in zip(COMPARED, np.array(sups).T.copy()):
            rows.append({
                "n": n,
                "reps": len(group),
                "col": col,
                "mean_sup_dist": float(dists.mean()),
                # equal distances have no spread, whatever the round-off of their mean
                "stderr": (float(dists.std(ddof=1) / np.sqrt(len(dists)))
                           if (dists != dists[0]).any() else 0.0),
                "frac_tau_ge_bound": frac,
            })
        first, last = np.array(first), np.array(last)
        events = np.rint(n * (first[:, S] - last[:, S]) + n * (last[:, R] - first[:, R]))
        window.append({
            "n": n,
            "mean_events": float(events.mean()),
            "frac_no_events": float(np.mean(events == 0)),
            "mean_dist_t0": dict(zip(COMPARED,
                                     np.abs(first - limit[:, 0]).mean(axis=0).tolist())),
        })
    return ConvergenceReport(rows=rows, tau_bar=tau_bar, t_end=t_end,
                             manifest={"window": window})


def plan_study(spec, r, beta, i0, n_values, reps, base_seed, t_max, grid,
               eps_prime=0.01, workers=None):
    """Every refusal of :func:`run_convergence_study`, made before anything
    is solved or simulated; returns ``(params, init, tau_bar, t_end)``, where
    ``params`` runs the replicas to ``t_end``.

    Besides invalid parameters, refuses fewer than two replicas per
    population size, which leave the report's standard error undefined, a
    population size that ``i0`` leaves without susceptibles, and a
    comparison window ``[0, min(t_max, tau_bar)]`` that holds fewer than
    two grid points.  The replicas' row cap counts the grid on that
    window, the rows they record, not on ``[0, t_max]``.
    """
    check_positive(t_max=t_max, record_grid=grid)
    if reps < 2:
        raise ConfigurationError(
            f"reps={reps}: a standard error needs at least 2 replicas per population size")
    _check_batch(n_values, reps, base_seed, workers)
    init = limit_initial(spec, i0)
    for n in n_values:
        initial_infective_count(n, i0)
    tau_bar = horizon_bound(init, r, beta, eps_prime)
    if tau_bar <= 0:
        raise ConfigurationError(
            f"eps_prime={eps_prime:.6g} is not below the initial infectious edge "
            f"density N_IS0={init.N_IS0:.6g}, so the comparison window is empty"
        )
    t_end = min(t_max, tau_bar)
    compared = math.floor(t_end / grid + 1e-9) + 1
    if compared < 2:
        raise ConfigurationError(
            f"grid={grid:.6g} leaves {compared} grid point in the comparison window "
            f"[0, min(t_max, tau_bar={tau_bar:.6g})] = [0, {t_end:.6g}]; "
            "at least 2 are needed"
        )
    return SimParams(r=r, beta=beta, t_max=t_end, record_grid=grid), init, tau_bar, t_end


def run_convergence_study(spec, r, beta, i0, n_values, reps, base_seed,
                          t_max, grid, eps_prime=0.01, workers=None):
    """End-to-end study: limit solve, replica batch, report with manifest.
    Inputs are validated first by :func:`plan_study`.

    Replicas simulate to ``t_end = min(t_max, tau_bar)`` and the limit is
    solved to the last grid point of ``[0, t_end]``: nothing beyond reaches
    the report, which equals the one built from full-``t_max`` runs.  The
    solver takes ``stride = ceil(grid/1e-3)`` steps per grid step, so its
    every ``stride``-th row is the replicas' row of the same index, and
    those rows are the ``limit`` table the report compares."""
    params, init, tau_bar, t_end = plan_study(
        spec, r, beta, i0, n_values, reps, base_seed, t_max, grid,
        eps_prime=eps_prime, workers=workers,
    )
    stride = max(math.ceil(grid / 1e-3), 1)
    dt = grid / stride
    t_last = params.grid_steps * grid
    sol = solve_volz(init, SolverConfig(r=r, beta=beta, t_max=t_last, dt=dt, eps_IS=0.0))
    limit = np.stack([sol.column(col)[::stride] for col in COMPARED])
    trajectories = run_replicas(spec, params, n_values, reps, base_seed, i0,
                                workers=workers)
    report = convergence_report(trajectories, limit, eps_prime, tau_bar, t_max)
    report.manifest.update({
        "degree": spec.describe(),
        "r": r, "beta": beta, "i0": i0,
        "n_values": [int(n) for n in n_values], "reps": reps,
        "base_seed": base_seed, "rng": "PCG64",
        "t_max": t_max, "grid": grid, "solver_dt": dt,
        "eps_prime": eps_prime, "tau_bar": tau_bar, "t_end": t_end,
        "replica_seeds": [
            {"n": tr.n, "rep": tr.rep,
             "state_words": replica_seed(base_seed, tr.n, tr.rep).generate_state(4).tolist()}
            for tr in trajectories
        ],
    })
    return report


def manifest_json(report):
    return json.dumps(report.manifest, indent=2, sort_keys=True)
