"""Output checks for the benchmark's CLI commands.

Each check reads the files a command wrote and returns a list of problems;
an empty list means the output is correct.  The checks use nothing from
``sirnet``: the degree law is rebuilt here from its CLI spelling.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIM_COLUMNS = ["t", "S", "I", "R", "N_S", "N_IS", "N_RS"]
SOLVE_COLUMNS = ["t", "S", "I", "R", "N_S", "N_IS", "N_RS", "theta", "pI", "pS", "pR"]
REPORT_COLUMNS = ["n", "reps", "col", "mean_sup_dist", "stderr", "frac_tau_ge_bound"]
COMPARED = 6  # report rows per population size
SOLVER_AGREEMENT = 1e-3  # acceptance criterion 3: sup |volz - measures| on S, I, R
SUM_TOL = 1e-8  # pI + pS + pR = 1, at the CSV's 12 significant digits
MILLER_TOL = 1e-6  # residual of the edge-based identity behind the final-size relation


def _read_csv(path, columns):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header != columns:
        raise ValueError(f"{path}: header {header} is not {columns}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _terminal(meta_path):
    with open(meta_path) as fh:
        return json.load(fh).get("terminal")


def degree_pmf(spec):
    """Probabilities p_0..p_kmax of a ``poisson:<mean>:<kmax>`` or
    ``powerlaw:<alpha>:<kmin>:<kmax>`` degree law."""
    kind, *params = spec.split(":")
    if kind == "poisson":
        lam, kmax = float(params[0]), int(params[1])
        p = np.array([math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
                      for k in range(kmax + 1)])
    elif kind == "powerlaw":
        alpha, kmin, kmax = float(params[0]), int(params[1]), int(params[2])
        k = np.arange(kmax + 1, dtype=float)
        p = np.where(k >= kmin, np.maximum(k, 1.0) ** -alpha, 0.0)
    else:
        raise ValueError(f"no reference law for degree spec {spec!r}")
    return p / p.sum()


def check_simulate(outputs, n):
    """Population conservation, pool feasibility, monotone S and R, the
    terminal reason, and (with snapshots) measures that match each row."""
    rows = _read_csv(outputs["out"], SIM_COLUMNS)
    t, S, I, R, N_S, N_IS, N_RS = rows.T
    problems = []
    if not np.all(S + I + R == n):
        problems.append("S+I+R != n on some row")
    if not np.all(N_IS + N_RS <= N_S):
        problems.append("N_IS+N_RS > N_S on some row")
    if np.any(np.diff(S) > 0):
        problems.append("S increases")
    if np.any(np.diff(R) < 0):
        problems.append("R decreases")
    terminal = _terminal(outputs["meta"])
    if terminal not in ("t_max", "extinct"):
        problems.append(f"terminal reason {terminal!r}")
    if "snapshots" in outputs:
        problems += _check_snapshots(outputs["snapshots"], rows)
    return problems


def _check_snapshots(path, rows):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) != len(rows):
        return [f"{len(lines)} snapshots for {len(rows)} rows"]
    for line, (t, S, I, R, N_S, N_IS, N_RS) in zip(lines, rows):
        snap = json.loads(line)
        for key, mass, edges in (("mu_S", S, N_S), ("mu_IS", I, N_IS), ("mu_RS", R, N_RS)):
            mu = {int(k): v for k, v in snap[key].items()}
            if sum(mu.values()) != mass or sum(k * v for k, v in mu.items()) != edges:
                return [f"snapshot {key} at t={snap['t']} disagrees with the CSV row"]
        if abs(snap["t"] - t) > 1e-9:
            return [f"snapshot time {snap['t']} is not row time {t}"]
    return []


def _final_theta(r, beta, pS0, dpsi):
    """Root in (0, 1) of the final-size relation
    ``theta (r + beta) = beta + r pS0 psi'(theta) / psi'(1)`` (Miller 2011)."""
    lo, hi = 0.0, 1.0
    scale = np.polynomial.polynomial.polyval(1.0, dpsi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f = mid * (r + beta) - beta - r * pS0 * np.polynomial.polynomial.polyval(mid, dpsi) / scale
        lo, hi = (mid, hi) if f < 0 else (lo, mid)
    return lo


def check_solve(volz_outputs, measures_outputs, degree, r, beta, i0):
    """Both solvers: pI+pS+pR = 1 and agreement on S, I, R over shared
    times.  Volz alone: the edge-based identity
    ``r pI theta = r theta - beta (1 - theta) - r pS0 psi'(theta)/psi'(1)``
    holds on every row, theta never increases and never passes the root of
    the final-size relation."""
    volz = _read_csv(volz_outputs["out"], SOLVE_COLUMNS)
    meas = _read_csv(measures_outputs["out"], SOLVE_COLUMNS)
    col = {c: i for i, c in enumerate(SOLVE_COLUMNS)}
    problems = []
    for label, sol in (("volz", volz), ("measures", meas)):
        drift = np.abs(sol[:, col["pI"]] + sol[:, col["pS"]] + sol[:, col["pR"]] - 1.0).max()
        if not drift <= SUM_TOL:
            problems.append(f"{label}: pI+pS+pR drifts from 1 by {drift:.3e}")
    m = min(len(volz), len(meas))
    if not np.allclose(volz[:m, 0], meas[:m, 0], rtol=0, atol=1e-9):
        problems.append("volz and measures time grids differ")
    else:
        for c in ("S", "I", "R"):
            gap = np.abs(volz[:m, col[c]] - meas[:m, col[c]]).max()
            if not gap <= SOLVER_AGREEMENT:
                problems.append(f"volz and measures differ on {c} by {gap:.3e}")
    dpsi = np.polynomial.polynomial.polyder(degree_pmf(degree))
    pS0 = 1.0 - i0 / (1.0 - i0)
    theta, pI = volz[:, col["theta"]], volz[:, col["pI"]]
    ratio = np.polynomial.polynomial.polyval(theta, dpsi) / np.polynomial.polynomial.polyval(1.0, dpsi)
    residual = np.abs(r * pI * theta - (r * theta - beta * (1.0 - theta) - r * pS0 * ratio)).max()
    if not residual <= MILLER_TOL:
        problems.append(f"volz: edge-based identity residual {residual:.3e}")
    if np.any(np.diff(theta) > 1e-12):
        problems.append("volz: theta increases")
    theta_inf = _final_theta(r, beta, pS0, dpsi)
    if theta[-1] < theta_inf - 1e-9:
        problems.append(f"volz: theta {theta[-1]:.9g} below its final size {theta_inf:.9g}")
    return problems


def check_converge(outputs, n_values):
    """Finite report rows for every (n, column) and more than one compared
    grid point, counted from the manifest's ``t_end`` and ``grid``."""
    with open(outputs["out"]) as fh:
        header = fh.readline().strip().split(",")
        lines = fh.read().splitlines()
    problems = []
    if header != REPORT_COLUMNS:
        problems.append(f"report header {header}")
    if len(lines) != COMPARED * len(n_values):
        problems.append(f"{len(lines)} report rows, expected {COMPARED * len(n_values)}")
    for line in lines:
        fields = line.split(",")
        numbers = [float(x) for i, x in enumerate(fields) if i != 2]
        if not all(math.isfinite(x) for x in numbers):
            problems.append(f"non-finite report row {line!r}")
    with open(outputs["manifest"]) as fh:
        manifest = json.load(fh)
    compared = math.floor(manifest["t_end"] / manifest["grid"] + 1e-9) + 1
    if compared <= 1:
        problems.append(f"only {compared} grid point compared "
                        f"(t_end {manifest['t_end']:.3g}, grid {manifest['grid']:.3g})")
    return problems
