"""Monte-Carlo replica orchestration and convergence reporting.

Runs batches of simulations at increasing population sizes n, rescales the
trajectories by 1/n, and measures their sup-distance on a common grid to the
deterministic limit.  The comparison is restricted to the horizon
``min(t_max, tau_bar(eps_prime))`` within which the per-capita count of
infectious-to-susceptible edges provably stays above ``eps_prime`` in the
limit; beyond it the limit approximation carries no guarantee.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from sirnet.errors import ConfigurationError
from sirnet.limit import SolverConfig, horizon_bound, limit_initial, solve_volz
from sirnet.simulation import (
    SimParams,
    initial_infective_count,
    initialize_state,
    simulate,
    stopping_time,
)

REPORT_COLUMNS = ("n", "reps", "col", "mean_sup_dist", "stderr", "frac_tau_ge_bound")
COMPARED = ("S", "I", "R", "N_S", "N_IS", "N_RS")


@dataclass
class ScaledTrajectory:
    """A simulated trajectory with all counts divided by the population size."""

    n: int
    rep: int
    seed_words: tuple
    times: np.ndarray
    columns: dict  # name -> per-capita array on the grid
    tau_eps: float  # first grid time with N_IS/n < eps_prime
    terminal: str

    def column(self, name):
        return self.columns[name]


def replica_seed(base_seed, n, rep):
    """Deterministic per-replica seed stream, independent across (n, rep)."""
    return np.random.SeedSequence(base_seed, spawn_key=(n, rep))


def _run_one(args):
    spec, params, n, rep, base_seed, i0, eps_prime = args
    ss = replica_seed(base_seed, n, rep)
    rng = np.random.Generator(np.random.PCG64(ss))
    degrees = spec.sample(n, rng)
    state = initialize_state(degrees, i0, rng=rng)
    traj = simulate(state, params, rng=rng)
    tau = stopping_time(traj, eps_prime, n)
    columns = {
        "S": traj.S / n,
        "I": traj.I / n,
        "R": traj.R / n,
        "N_S": traj.N_S / n,
        "N_IS": traj.N_IS / n,
        "N_RS": traj.N_RS / n,
    }
    return ScaledTrajectory(
        n=n, rep=rep, seed_words=tuple(ss.generate_state(4).tolist()),
        times=traj.times, columns=columns, tau_eps=tau, terminal=traj.terminal,
    )


def _check_batch(n_values, reps, workers):
    if reps < 1:
        raise ConfigurationError("reps must be >= 1")
    if not n_values:
        raise ConfigurationError("need at least one population size")
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")


def run_replicas(spec, params, n_values, reps, base_seed, i0,
                 eps_prime=0.01, workers=None):
    """``reps`` independent scaled simulations for every n in ``n_values``.

    Each replica draws its own degree sequence, infects a uniform ``i0``
    fraction of it (the selection :func:`limit_initial` models), and runs on
    a private RNG stream derived from ``(base_seed, n, rep)``, so outputs
    are reproducible and independent of worker scheduling.  Returns a flat
    list ordered by (n, rep).
    """
    _check_batch(n_values, reps, workers)
    jobs = [
        (spec, params, int(n), rep, base_seed, i0, eps_prime)
        for n in n_values
        for rep in range(reps)
    ]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            out = list(pool.map(_run_one, jobs, chunksize=1))
    else:
        out = [_run_one(j) for j in jobs]
    return out


def sup_distance(times_a, values_a, times_b, values_b, t_end):
    """Max of |a - b| over the shared grid points up to ``t_end``.

    Both paths must be sampled on the same grid; a mismatch raises rather
    than silently interpolating."""
    keep = times_a <= t_end + 1e-12
    if not keep.any():
        raise ConfigurationError("t_end precedes the first grid point")
    ta = times_a[keep]
    idx = np.searchsorted(times_b, ta - 1e-9)
    if idx.max(initial=0) >= len(times_b) or not np.allclose(times_b[idx], ta, atol=1e-9):
        raise ConfigurationError("trajectory grids do not match")
    return float(np.abs(values_a[keep] - values_b[idx]).max())


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


def convergence_report(trajectories, limit_sol, eps_prime, tau_bar, t_max):
    """Aggregate sup-distances of scaled replicas against the limit.

    ``limit_sol`` must be solved on a grid covering the simulation grid.
    Per (n, column): the mean and standard error of the sup-distance on
    ``[0, min(t_max, tau_bar)]``, plus the fraction of replicas whose
    empirical exit time ``tau^n`` is at least ``tau_bar``.  Pure function:
    identical inputs give identical rows.
    """
    t_end = min(t_max, tau_bar)
    by_n = {}
    for traj in trajectories:
        by_n.setdefault(traj.n, []).append(traj)
    rows = []
    for n in sorted(by_n):
        group = sorted(by_n[n], key=lambda tr: tr.rep)
        frac = float(np.mean([tr.tau_eps >= tau_bar for tr in group]))
        for col in COMPARED:
            dists = np.array([
                sup_distance(tr.times, tr.column(col),
                             limit_sol.t, limit_sol.column(col), t_end)
                for tr in group
            ])
            rows.append({
                "n": n,
                "reps": len(group),
                "col": col,
                "mean_sup_dist": float(dists.mean()),
                "stderr": float(dists.std(ddof=1) / np.sqrt(len(dists))) if len(dists) > 1 else 0.0,
                "frac_tau_ge_bound": frac,
            })
    return ConvergenceReport(rows=rows, tau_bar=tau_bar, t_end=t_end)


def plan_study(spec, r, beta, i0, n_values, reps, t_max, grid,
               eps_prime=0.01, workers=None):
    """Every refusal of :func:`run_convergence_study`, made before anything
    is solved or simulated; returns ``(params, init, tau_bar, t_end)``, where
    ``params`` runs the replicas to ``t_end``.

    Besides invalid parameters, refuses a population size that ``i0``
    leaves without susceptibles, and a comparison window
    ``[0, min(t_max, tau_bar)]`` that holds fewer than two grid points.
    """
    params = SimParams(r=r, beta=beta, t_max=t_max, record_grid=grid)
    _check_batch(n_values, reps, workers)
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
    return replace(params, t_max=t_end), init, tau_bar, t_end


def run_convergence_study(spec, r, beta, i0, n_values, reps, base_seed,
                          t_max, grid, eps_prime=0.01, workers=None):
    """End-to-end study: limit solve, replica batch, report with manifest.
    Inputs are validated first by :func:`plan_study`.

    Replicas simulate to ``t_end = min(t_max, tau_bar)`` and the limit is
    solved to the last grid point of ``[0, t_end]``: nothing beyond reaches
    the report, which equals the one built from full-``t_max`` runs."""
    params, init, tau_bar, t_end = plan_study(
        spec, r, beta, i0, n_values, reps, t_max, grid,
        eps_prime=eps_prime, workers=workers,
    )
    # the solver grid must contain every simulation grid point
    dt = grid / max(int(np.ceil(grid / 1e-3)), 1)
    t_last = math.floor(t_end / grid + 1e-9) * grid
    sol = solve_volz(init, SolverConfig(r=r, beta=beta, t_max=t_last, dt=dt, eps_IS=0.0))
    trajectories = run_replicas(
        spec, params, n_values, reps, base_seed, i0,
        eps_prime=eps_prime, workers=workers,
    )
    report = convergence_report(trajectories, sol, eps_prime, tau_bar, t_max)
    report.manifest = {
        "degree": spec.describe(),
        "r": r, "beta": beta, "i0": i0,
        "n_values": [int(n) for n in n_values], "reps": reps,
        "base_seed": base_seed, "rng": "PCG64",
        "t_max": t_max, "grid": grid, "solver_dt": dt,
        "eps_prime": eps_prime, "tau_bar": tau_bar, "t_end": t_end,
        "replica_seeds": [
            {"n": tr.n, "rep": tr.rep, "state_words": list(tr.seed_words)}
            for tr in trajectories
        ],
    }
    return report


def manifest_json(report):
    return json.dumps(report.manifest, indent=2, sort_keys=True)
