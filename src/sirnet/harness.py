"""Monte-Carlo replica orchestration and convergence reporting.

Runs batches of simulations at increasing population sizes n and reduces
each, in the process that ran it, to a small record: its sup-distances,
rescaled by 1/n, to the deterministic limit on a common grid, its exit
time and what its window holds.  The comparison is restricted to the
window ``[0, min(t_max, tau_bar(eps_prime))]`` within which the per-capita
count of infectious-to-susceptible edges provably stays above
``eps_prime`` in the limit; beyond it the limit approximation carries no
guarantee.  The report aggregates the records per n, and also counts the
replicas whose own per-capita ``N_IS`` stays at or above ``eps_prime`` at
every grid time before ``tau_bar``.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from sirnet.errors import (
    MAX_GRID_ROWS,
    MAX_REPLICAS,
    ConfigurationError,
    check_nonnegative,
    check_positive,
)
from sirnet.limit import (
    SolverConfig,
    horizon_bound,
    limit_initial,
    plan_solve,
    solve_volz,
)
from sirnet.simulation import (
    SimParams,
    Trajectory,
    initial_infective_count,
    next_row,
    plan_simulate,
    simulate,
)

REPORT_COLUMNS = ("n", "reps", "col", "mean_sup_dist", "stderr", "frac_tau_ge_bound")
COMPARED = Trajectory.COLUMNS[1:]


@dataclass
class ReplicaRecord:
    """One replica of population size ``n`` reduced against the limit on
    its window, by :func:`replica_record`.  Its seed is
    :func:`replica_seed` of ``(n, rep)``."""

    n: int
    rep: int
    terminal: str  # the run's terminal reason
    sups: np.ndarray  # per COMPARED column, the sup over the window of |replica/n - limit|
    dist_t0: np.ndarray  # per COMPARED column, |replica/n - limit| at t=0
    tau: float  # the first window time with N_IS/n < eps_prime, inf if there is none
    rows: int  # the window's grid rows
    events: int  # (S(0) - S(t_w)) + (R(t_w) - R(0)) at the last window row t_w


def replica_record(traj, n, rep, limit, eps_prime, t_end):
    """The :class:`ReplicaRecord` of the simulated run ``traj`` of
    population size ``n`` against the ``(6, T)`` ``limit`` table of the
    ``COMPARED`` columns, whose column ``i`` is at the time of row ``i``.
    The window is the rows of ``traj`` on ``[0, t_end]`` by
    :func:`next_row`; rows past it are not read, so a run past ``t_end``
    gives the record of the run to ``t_end`` but for its terminal reason.
    A ``limit`` with fewer columns than the window has rows is refused."""
    counts = traj.counts[:min(next_row(t_end, traj.grid), traj.n_rows)]
    scaled = counts / n
    below = np.flatnonzero(scaled[:, COMPARED.index("N_IS")] < eps_prime)
    S, R = COMPARED.index("S"), COMPARED.index("R")
    return ReplicaRecord(
        n=n, rep=rep, terminal=traj.terminal,
        sups=sup_distance(scaled.T, limit[:, :len(counts)]),
        dist_t0=np.abs(scaled[0] - limit[:, 0]),
        tau=float(below[0] * traj.grid) if len(below) else math.inf,
        rows=len(counts),
        events=int((counts[0, S] - counts[-1, S]) + (counts[-1, R] - counts[0, R])),
    )


def replica_seed(base_seed, n, rep):
    """Deterministic per-replica seed stream, independent across (n, rep)."""
    return np.random.SeedSequence(base_seed, spawn_key=(n, rep))


def _run_one(args):
    spec, params, n, rep, base_seed, i0, limit, eps_prime = args
    state, rng = plan_simulate(spec, n, i0, params, replica_seed(base_seed, n, rep))
    traj = simulate(state, params, rng=rng)
    return replica_record(traj, n, rep, limit, eps_prime, params.t_max)


def _check_batch(n_values, reps, base_seed, workers):
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    if not n_values:
        raise ConfigurationError("need at least one population size")
    if len(set(n_values)) < len(n_values):
        raise ConfigurationError("population sizes must be distinct, got n="
                                 + ",".join(map(str, n_values)))
    if reps * len(n_values) > MAX_REPLICAS:
        raise ConfigurationError(
            f"reps={reps} on {len(n_values)} population size(s) makes "
            f"{reps * len(n_values)} replicas; a study runs at most {MAX_REPLICAS}")
    check_nonnegative(seed=base_seed)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")


def _run_many(jobs):
    """Run one worker's share of the jobs.  Calls :func:`_run_one` through
    the module global, so a wrapper set on that name runs in the worker."""
    return [_run_one(job) for job in jobs]


def _fork_share(jobs, s, w):
    """Fork the worker of share ``s`` of ``w``: it runs
    ``_run_many(jobs[s::w])`` and pickles ``(True, result)`` or
    ``(False, exception)`` into a pipe once.  Returns the worker's pid and
    the pipe's read end.  The worker reads the jobs, ``limit`` table
    included, from the memory it shares with the caller at the fork."""
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


def run_replicas(spec, params, n_values, reps, base_seed, i0, limit, eps_prime,
                 workers=1):
    """``reps`` independent simulations for every n in ``n_values``, each
    reduced against ``limit`` on the window ``[0, params.t_max]``.

    Each replica draws its own degree counts, infects a uniform ``i0``
    fraction of its individuals (the selection :func:`limit_initial`
    models), and runs on a private RNG stream derived from
    ``(base_seed, n, rep)``, so outputs
    are reproducible and independent of worker scheduling.  The process
    that runs a replica reduces it by :func:`replica_record`, with
    ``limit`` and ``eps_prime``, so only its small record leaves it.
    Returns a flat list of :class:`ReplicaRecord` ordered by (n, rep).
    A nonpositive or non-finite ``eps_prime`` is refused before any run.

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
    check_positive(eps_prime=eps_prime)
    jobs = [
        (spec, params, int(n), rep, base_seed, i0, limit, eps_prime)
        for n in n_values
        for rep in range(reps)
    ]
    w = min(workers, len(jobs), os.cpu_count() or 1)
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


def convergence_report(records, tau_bar, t_max):
    """Aggregate the :class:`ReplicaRecord` of each replica, each reduced
    against the limit on the window ``[0, min(t_max, tau_bar)]``.

    Per (n, column): the mean and standard error of the replicas'
    sup-distances, plus the fraction of replicas whose exit time
    ``tau^n`` is at least ``tau_bar``.  Pure function: identical inputs
    give identical rows.

    The manifest's ``window`` says, per n, what the window holds:
    ``rows``, its grid rows, the most that any replica holds;
    ``terminals``, the replicas' terminal reasons and how many ended by
    each, sorted by reason; ``mean_events``, the mean over replicas of the
    events between t=0 and the last window row; ``frac_no_events``, the
    fraction of replicas with none; and ``mean_dist_t0``, per column, the
    mean ``|replica - limit|`` at t=0, the part of the distance that the
    sampled initial state holds before any event.
    """
    by_n = {}
    for rec in records:
        by_n.setdefault(rec.n, []).append(rec)
    rows, window = [], []
    for n in sorted(by_n):
        group = sorted(by_n[n], key=lambda rec: rec.rep)
        frac = float(np.mean([rec.tau >= tau_bar for rec in group]))
        # each column's distances contiguous, as the mean and std saw them per column
        for col, dists in zip(COMPARED, np.array([rec.sups for rec in group]).T.copy()):
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
        terminals = Counter(rec.terminal for rec in group)
        events = np.array([rec.events for rec in group])
        dist_t0 = np.array([rec.dist_t0 for rec in group]).mean(axis=0)
        window.append({
            "n": n,
            "rows": max(rec.rows for rec in group),
            "terminals": dict(sorted(terminals.items())),
            "mean_events": float(events.mean()),
            "frac_no_events": float(np.mean(events == 0)),
            "mean_dist_t0": dict(zip(COMPARED, dist_t0.tolist())),
        })
    return ConvergenceReport(rows=rows, tau_bar=tau_bar, t_end=min(t_max, tau_bar),
                             manifest={"window": window})


def plan_study(spec, r, beta, i0, n_values, reps, base_seed, t_max, grid,
               eps_prime=0.01, workers=1):
    """Every refusal of :func:`run_convergence_study`, made before anything
    is solved or simulated; returns the plan it runs, ``(params, init,
    config, stride, tau_bar)``: ``params`` runs the replicas to ``t_end =
    min(t_max, tau_bar)``, and ``config`` solves the limit from ``init`` to
    their last row in ``stride`` steps a grid step.  Besides invalid
    parameters, refuses fewer than two replicas per population size (no
    standard error), more than ``MAX_REPLICAS`` replicas in all, a
    population size that ``i0`` leaves without susceptibles or that
    :meth:`DegreeSpec.check_even_total` refuses, a window ``[0, t_end]``
    of fewer than two rows by :func:`next_row`, which the replicas' row
    cap also counts, and a solve that :class:`SolverConfig` or
    :func:`plan_solve` refuses for ``volz``.  Each replica's own start,
    drawn from its seed, is planned by :func:`plan_simulate` as it runs."""
    check_positive(t_max=t_max, record_grid=grid)
    if reps < 2:
        raise ConfigurationError(
            f"reps={reps}: a standard error needs at least 2 replicas per population size")
    _check_batch(n_values, reps, base_seed, workers)
    init = limit_initial(spec, i0)
    for n in n_values:
        initial_infective_count(n, i0)
        spec.check_even_total(n)
    tau_bar = horizon_bound(init, r, beta, eps_prime)
    if tau_bar <= 0:
        raise ConfigurationError(
            f"eps_prime={eps_prime:.6g} is not below the initial infectious edge "
            f"density N_IS0={init.N_IS0:.6g}, so the comparison window is empty"
        )
    t_end = min(t_max, tau_bar)
    if next_row(t_end, grid) < 2:  # the window's rows, as simulate records them
        raise ConfigurationError(
            f"grid={grid:.6g} leaves 1 grid point in the comparison window [0, min(t_max, "
            f"tau_bar={tau_bar:.6g})] = [0, {t_end!r}]; at least 2 are needed")
    params = SimParams(r=r, beta=beta, t_max=t_end, record_grid=grid)
    # a stride at the row cap, as where grid / dt overflows, makes SolverConfig refuse
    stride = math.ceil(min(grid / SolverConfig.dt, MAX_GRID_ROWS))
    config = SolverConfig(r=r, beta=beta, t_max=params.grid_steps * grid,
                          dt=grid / stride, eps_IS=0.0)
    plan_solve("volz", init, config)
    return params, init, config, stride, tau_bar


def run_convergence_study(spec, r, beta, i0, n_values, reps, base_seed,
                          t_max, grid, eps_prime=0.01, workers=1):
    """End-to-end study: limit solve, replica batch, report with manifest,
    by the plan of :func:`plan_study`, which makes every refusal first.
    Replicas simulate to ``t_end = min(t_max, tau_bar)``, the end of
    their window, and the limit is solved to their last row: nothing
    beyond reaches the report, which equals the one built from
    full-``t_max`` runs reduced at ``t_end``.  The solve's every
    ``stride``-th row, the replicas' row of the same index, makes the
    ``limit`` table each replica is reduced against."""
    params, init, config, stride, tau_bar = plan_study(
        spec, r, beta, i0, n_values, reps, base_seed, t_max, grid, eps_prime, workers)
    sol = solve_volz(init, config)
    limit = np.stack([sol.column(col)[::stride] for col in COMPARED])
    records = run_replicas(spec, params, n_values, reps, base_seed, i0, limit, eps_prime,
                           workers=workers)
    report = convergence_report(records, tau_bar, t_max)
    report.manifest.update({
        "degree": spec.describe(),
        "r": r, "beta": beta, "i0": i0,
        "n_values": [int(n) for n in n_values], "reps": reps,
        "base_seed": base_seed, "rng": "PCG64",
        "t_max": t_max, "grid": grid, "solver_dt": config.dt,
        "eps_prime": eps_prime, "tau_bar": tau_bar, "t_end": params.t_max,
        "replica_seeds": [
            {"n": rec.n, "rep": rec.rep,
             "state_words": replica_seed(base_seed, rec.n, rec.rep).generate_state(4).tolist()}
            for rec in records
        ],
    })
    return report


def manifest_json(report):
    return json.dumps(report.manifest, indent=2, sort_keys=True)
