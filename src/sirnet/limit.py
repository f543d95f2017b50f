"""Deterministic large-population limits of the network SIR dynamics.

Three solvers for the same limit object:

* :func:`solve_measures` integrates the countable system of degree measures
  (susceptible degrees in closed form ``mu_S(k) = mu_S0(k) * theta^k``,
  plus the edges-to-S measures of the infectious and removed classes);
* :func:`solve_volz` integrates the low-dimensional edge-based ODEs in
  ``(theta, pI, pS, pR)`` driven by the generating function of the initial
  susceptible degree measure;
* :func:`miller_theta` integrates their exact one-equation reduction.

All three take a validated :class:`LimitInit` and :class:`SolverConfig`,
share one fixed-step classical Runge-Kutta (RK4) loop,
:func:`rk4_integrate`, and return a :class:`Solution`: the time grid and
a dict of named columns, which each solver builds once from the arrays it
computes; :class:`MeasureSolution` adds the measures at every time.  The
loop has two arithmetic paths that give the same bits: the
low-dimensional volz and miller states run in Python floats, the measure
system on numpy arrays.
An a-priori horizon bound for when the per-capita infectious edge count
stays above a level ``eps`` (:func:`horizon_bound`) rounds out the module.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from sirnet.errors import (
    MAX_GRID_ROWS,
    MAX_SOLVE_BYTES,
    ConfigurationError,
    SolverDiagnosticError,
    check_nonnegative,
    check_positive,
    check_rate_bound,
)

DENOM_FLOOR = 1e-12
CLAMP_BUDGET = 1e-6  # allowed cumulative negative mass, relative to initial
SIMPLEX_TOL = 1e-11  # allowed drift of pI+pS+pR from 1, which RK4 keeps to round-off
MASS_TOL = 1e-6  # allowed drift of S+I+R from S0+I0, relative to S0+I0
INFLUX_BLOCK = 64  # depth levels d = k-1-i per block of the influx table
CSV_BLOCK = 1024  # rows that Solution.to_csv_lines holds as Python floats at once
_DEPTHS = np.arange(float(INFLUX_BLOCK))  # the powers of y within a block


# ---------------------------------------------------------------------------
# Generating function of a finite measure
# ---------------------------------------------------------------------------


class GeneratingFn:
    """``g(z) = sum_k w_k z^k`` for a finite nonnegative weight vector,
    with first and second derivatives; the one polynomial evaluation of a
    measure in this module.

    Every ``z`` is evaluated by one Horner loop, ``v = v*z + c`` from
    ``v = 0.0`` over the coefficients of ``g``, ``g'`` or ``g''``, kept
    once, highest degree first, as Python lists.  The derivative
    coefficients are ``numpy.polynomial.polynomial.polyder``'s own
    products ``j * c_j`` in its order, and the loop gives the same bits as
    its ``polyval``: both start from ``0*z + c_n`` and then compute
    ``v*z + c_k`` for ``k = n-1..0``, the same IEEE multiplications and
    additions in the same order, and neither fuses a multiply-add.  A
    scalar ``z`` runs the loop over Python floats, which skips polyval's
    numpy-scalar dispatch, the bulk of the cost of the limit solvers'
    right-hand sides; an array ``z`` runs it elementwise.
    :meth:`slopes` runs the loops of ``g'`` and ``g''`` as one."""

    __slots__ = ("_horner", "_pairs")

    def __init__(self, weights):
        coef = np.asarray(weights, dtype=float)
        d1 = np.arange(1, len(coef)) * coef[1:]
        d2 = np.arange(1, len(d1)) * d1[1:]
        # polyder leaves the zero polynomial [0.0] where no term survives
        self._horner = (coef[::-1].tolist() or [0.0], d1[::-1].tolist() or [0.0],
                        d2[::-1].tolist() or [0.0])
        h1, h2 = self._horner[1:]
        # a leading 0.0 pads g'' to the length of g'; from v = 0.0 its step
        # 0.0*z + 0.0 gives 0.0 at a finite z and NaN at an infinite or NaN z,
        # as the first step of the unpadded loop then does too
        self._pairs = tuple(zip(h1, [0.0] * (len(h1) - len(h2)) + h2))

    def __call__(self, z, order=0):
        """``g``, ``g'`` or ``g''`` at ``z``: a float at a scalar, an array
        at an array."""
        if order not in (0, 1, 2):
            raise ValueError("only derivatives of order 0, 1, 2 are provided")
        if isinstance(z, float):
            z = float(z)  # a numpy float64 would keep the loop in numpy scalars
        else:
            z = np.asarray(z, dtype=float)
            if z.ndim == 0:
                z = float(z)
        v = 0.0
        for c in self._horner[order]:
            v = v * z + c
        return v

    def slopes(self, z):
        """``(g'(z), g''(z))`` at a Python float ``z``, the same bits as
        ``__call__`` gives for each, from one pass over the coefficients."""
        v1 = v2 = 0.0
        for c1, c2 in self._pairs:
            v1 = v1 * z + c1
            v2 = v2 * z + c2
        return v1, v2


# ---------------------------------------------------------------------------
# Configuration and initial data
# ---------------------------------------------------------------------------


@dataclass
class SolverConfig:
    """Rates, horizon, step and early-stop level of one limit solve,
    checked here and nowhere else."""

    r: float  # infection rate per I-S edge
    beta: float  # removal rate per infectious node
    t_max: float  # a whole number of steps dt
    dt: float = 1e-3
    eps_IS: float = 1e-6  # stop once per-capita N_IS falls below this; 0 never stops

    def __post_init__(self):
        check_nonnegative(r=self.r, beta=self.beta, eps_IS=self.eps_IS)
        check_positive(t_max=self.t_max, dt=self.dt)
        steps = self.t_max / self.dt
        if steps + 1 > MAX_GRID_ROWS:  # also when the ratio overflows to inf
            raise ConfigurationError(
                f"t_max={self.t_max:g} and dt={self.dt:g} make {steps:.12g} steps; a "
                f"solve stores at most {MAX_GRID_ROWS} rows, t=0 included"
            )
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9):
            raise ConfigurationError(
                f"dt={self.dt:g} does not divide t_max={self.t_max:g} into a whole "
                f"number of steps (t_max/dt = {steps:.9g})"
            )

    @property
    def n_steps(self):
        return round(self.t_max / self.dt)


@dataclass
class LimitInit:
    """Per-capita initial data for the limit solvers: the susceptible degree
    measure ``mu_S0`` and the infectious edges-to-S measure ``mu_IS0``, as
    weight vectors over one level range ``0..kmax``; the shorter vector is
    padded with zeros, so ``kmax`` is the top level of either.

    Every solver input passes the checks here and nowhere else: 1-D,
    finite, nonnegative weights, a positive mean degree of ``mu_S0``, and
    an initial infectious edge fraction ``pI0 <= 1``."""

    mu_S0: np.ndarray
    mu_IS0: np.ndarray

    def __post_init__(self):
        for name in ("mu_S0", "mu_IS0"):
            w = np.array(getattr(self, name), dtype=float)
            if w.ndim != 1:
                raise ConfigurationError(f"{name} must be a weight vector over levels 0..kmax")
            if not np.isfinite(w).all():
                raise ConfigurationError(f"{name} must be finite")
            if (w < 0).any():
                raise ConfigurationError(f"{name} has a negative weight")
            setattr(self, name, w)
        levels = max(len(self.mu_S0), len(self.mu_IS0))
        self.mu_S0 = np.pad(self.mu_S0, (0, levels - len(self.mu_S0)))
        self.mu_IS0 = np.pad(self.mu_IS0, (0, levels - len(self.mu_IS0)))
        if not self.N_S0 > 0:
            raise ConfigurationError("mu_S0 needs positive mean degree")
        if self.pI0 > 1:
            raise ConfigurationError(f"initial pI={self.pI0} exceeds 1")

    @property
    def N_S0(self):
        return float(np.arange(len(self.mu_S0)) @ self.mu_S0)

    @property
    def N_IS0(self):
        return float(np.arange(len(self.mu_IS0)) @ self.mu_IS0)

    @property
    def pI0(self):
        return self.N_IS0 / self.N_S0

    @property
    def I0(self):
        return float(self.mu_IS0.sum())

    @property
    def S0(self):
        return float(self.mu_S0.sum())


def limit_initial(spec, i0):
    """Initial data matching a finite population where a uniform fraction
    ``i0`` of nodes starts infectious with all half-edges pointing to S:
    ``mu_S0 = (1-i0) * pmf`` and ``mu_IS0 = i0 * pmf``, so
    ``pI0 = i0 / (1-i0)``, which must not exceed 1."""
    if not 0 < i0 < 1:
        raise ConfigurationError("initial infected fraction must lie in (0,1)")
    if i0 > 0.5:
        raise ConfigurationError(
            f"i0={i0} gives more infectious than susceptible half-edges "
            f"(pI0 = i0/(1-i0) = {i0 / (1 - i0):.6g} > 1)"
        )
    return LimitInit(
        mu_S0=spec.limit_measure(mass=1.0 - i0),
        mu_IS0=spec.limit_measure(mass=i0),
    )


def limit_initial_from_pI0(spec, pI0):
    """Same mapping, parametrized by the initial infectious edge fraction
    ``pI0 = N_IS0 / N_S0`` instead of the node fraction: ``i0 = pI0/(1+pI0)``."""
    if not 0 < pI0 < 1:
        raise ConfigurationError("pI0 must lie in (0,1)")
    return limit_initial(spec, pI0 / (1.0 + pI0))


def check_solve_rate(init, config):
    """Refuse rates whose per-capita total event rate can overflow
    (:func:`check_rate_bound` at ``N_S0`` and ``S0 + I0``): no step is then
    small enough for them.  Every solver checks this before integrating."""
    check_rate_bound(config.r, config.beta, init.N_S0, init.S0 + init.I0)


def reproduction_number(spec, r, beta):
    """The epidemic's reproduction number ``T <k(k-1)>/<k>``: the degree
    law's branching factor (:meth:`DegreeSpec.r0`) times the
    transmissibility ``T = r/(r+beta)``, the chance that an I-S edge fires
    before its infective is removed (Newman 2002, Phys. Rev. E 66, 016128).
    Above 1 a small outbreak grows in the limit, below 1 it dies out."""
    check_nonnegative(r=r, beta=beta)
    if r + beta == 0:
        raise ConfigurationError("r and beta are both 0, so T = r/(r+beta) is undefined")
    if math.isinf(r + beta):  # halving both is exact and leaves T as it is
        r, beta = r * 0.5, beta * 0.5
    return r / (r + beta) * spec.r0()


# ---------------------------------------------------------------------------
# Fixed-step RK4 and the solution type
# ---------------------------------------------------------------------------


def _too_coarse(what, dt):
    """The error of a solve whose step ``dt`` is too coarse, as ``what`` shows."""
    return SolverDiagnosticError(f"{what}; dt={dt:g} is too large for these rates")


def _check_mass(S, I, R, total, dt):
    """Refuse a finished solve whose population mass ``S + I + R`` drifts
    from ``total = S0 + I0`` by more than ``MASS_TOL`` of it, naming
    ``dt``."""
    mass = float(np.abs(S + I + R - total).max())
    if mass > MASS_TOL * total:
        raise _too_coarse(f"S+I+R drifted from S0+I0 by {mass:.3e}, over the budget "
                          f"{MASS_TOL * total:.3e}", dt)


def _check_floor(I, total, dt):
    """Refuse a finished solve whose ``I`` falls below ``-MASS_TOL`` of
    ``total = S0 + I0``, naming ``dt``: a mass rule relative to ``total``
    misses a small ``I`` gone negative."""
    low = float(I.min())
    if low < -MASS_TOL * total:
        raise _too_coarse(f"I fell to {low:.3e}, below the floor {-MASS_TOL * total:.3e}", dt)


def rk4_integrate(rhs, y0, config, n_IS=None, repair=None):
    """Classical 4th-order Runge-Kutta with the constant step ``config.dt``
    up to ``config.t_max``.

    Each step evaluates ``rhs`` at ``y``, ``y + (0.5*dt)*k1``,
    ``y + (0.5*dt)*k2`` and ``y + dt*k3``, moves to
    ``y + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4)`` and stamps it
    ``(step+1)*dt``.  The type of ``y0`` picks one of two arithmetic paths
    for these sums:

    * a tuple runs them in Python floats, and ``rhs`` takes a list of
      floats and returns a sequence of them: a step then makes no numpy
      call, whose per-call overhead is most of the cost of a step on a
      state of a few floats;
    * anything else runs them on numpy arrays, and ``rhs`` takes and
      returns an array.

    Both paths make the same IEEE multiplications and additions in the
    same order, and neither fuses a multiply-add, so the same ``rhs`` gives
    the same bits on either.

    A step that leaves the state non-finite raises
    :class:`SolverDiagnosticError`; ``repair(y)`` then checks or repairs
    the state in place.  ``n_IS(y)`` reads the per-capita infectious edge
    count off the state: the run ends ``extinct`` once it falls below
    ``config.eps_IS``, and never early when ``eps_IS`` is 0 or there is no
    read-out.  Returns ``(times, states, terminal)``, where ``states``
    views the one packed ``array("d")`` that holds each row once.
    """
    dt = config.dt
    stop_below = config.eps_IS if n_IS is not None else 0.0
    rows = array("d")
    floats = isinstance(y0, tuple)
    if floats:
        h, w = 0.5 * dt, dt / 6.0
        y = [float(v) for v in y0]
        store = rows.fromlist
    else:
        y = np.array(y0, dtype=float)
        store = lambda y: rows.frombytes(y.tobytes())  # noqa: E731
    store(y)
    terminal = "t_max"
    for step in range(config.n_steps):
        if floats:
            k1 = rhs(y)
            k2 = rhs([a + h * b for a, b in zip(y, k1)])
            k3 = rhs([a + h * b for a, b in zip(y, k2)])
            k4 = rhs([a + dt * b for a, b in zip(y, k3)])
            y = [a + w * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            finite = all(map(math.isfinite, y))
        else:
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            finite = np.isfinite(y).all()
        if not finite:
            raise _too_coarse(f"state became non-finite at t={(step + 1) * dt:.6g}", dt)
        if repair is not None:
            repair(y)
        store(y)
        if stop_below > 0 and n_IS(y) < stop_below:
            terminal = "extinct"
            break
    states = np.frombuffer(rows).reshape(-1, len(y))
    # i * dt is the time (step+1)*dt gave row i, bit for bit
    return np.arange(len(states)) * dt, states, terminal


@dataclass
class Solution:
    """What every solver returns: the time grid ``t``, its named
    ``columns``, each a 1-D array with one value per time, the
    ``terminal`` reason (``t_max`` or ``extinct``) and the solver's
    ``diagnostics``, the extra fields of its ``.meta.json``."""

    CSV_COLUMNS = ("S", "I", "R", "N_S", "N_IS", "N_RS", "theta", "pI", "pS", "pR")

    t: np.ndarray
    columns: dict = field(repr=False)
    terminal: str
    diagnostics: dict

    def column(self, name):
        return self.t if name == "t" else self.columns[name]

    def to_csv_lines(self):
        """The header ``t`` and the ``CSV_COLUMNS`` this solve holds, in
        that order, then one row per time with 12 significant digits."""
        names = ["t"] + [c for c in self.CSV_COLUMNS if c in self.columns]
        yield ",".join(names)
        cols = [self.column(c) for c in names]
        fmt = ",".join(["%.12g"] * len(cols))
        # a block of rows at a time, so no column is ever a whole Python list
        for lo in range(0, len(self.t), CSV_BLOCK):
            for row in zip(*(col[lo:lo + CSV_BLOCK].tolist() for col in cols)):
                yield fmt % row


# ---------------------------------------------------------------------------
# Edge-based (Volz) system
# ---------------------------------------------------------------------------


# the columns of the state that volz_rhs integrates, in its order
_VOLZ_STATE = ("theta", "I", "R", "pI", "pS", "pR", "N_IS", "N_RS", "N_S_aux")


def _susceptible_columns(gf, theta):
    """``S = g(theta)`` and ``N_S = theta g'(theta)`` over a ``theta``
    column, where ``gf`` generates ``mu_S0``."""
    return gf(theta), theta * gf(theta, order=1)


def volz_rhs(y, r, beta, gf):
    """Right-hand side of the edge-based system.

    ``pS`` and the edge counts ``N_IS``, ``N_RS``, ``N_S_aux`` carry their
    own equations even though each equals an algebraic function of
    ``(theta, pI, pR)``; integrating them independently lets
    :func:`edge_identities` measure the solver's internal consistency.
    ``y`` is a sequence of floats and the derivative a tuple of them, as
    :func:`rk4_integrate`'s float path runs it.
    """
    theta, I, R, pI, pS, pR, N_IS, N_RS, N_S_aux = y
    g1, g2 = gf.slopes(theta)
    ratio = theta * g2 / g1 if g1 > DENOM_FLOOR else 0.0
    return (
        -r * pI * theta,
        r * pI * theta * g1 - beta * I,
        beta * I,
        r * pI * pS * ratio - r * pI * (1.0 - pI) - beta * pI,
        r * pI * pS * (1.0 - ratio),
        beta * pI + r * pI * pR,
        r * pI * ((pS - pI) * theta * theta * g2 - theta * g1) - beta * N_IS,
        beta * N_IS - r * pR * pI * theta * theta * g2,
        -r * theta * pI * (g1 + theta * g2),
    )


def solve_volz(init, config):
    """Integrate the edge-based system from :class:`LimitInit` data.

    The susceptible share is reported as ``S = g(theta)`` where g generates
    ``mu_S0``.  The finished run is checked once: ``pI + pS + pR`` may
    drift from 1 by at most ``SIMPLEX_TOL``, the population mass
    ``S + I + R`` from ``S0 + I0`` by at most ``MASS_TOL`` of it, and
    ``I`` may fall below 0 by at most that much too.  The first sum is a
    linear invariant that RK4 keeps to round-off at any ``dt``; the
    others are not, since ``S`` is read off ``theta`` while ``I`` and
    ``R`` are integrated, so they catch a step too coarse for the rates.
    A run failing any raises :class:`SolverDiagnosticError`.
    Rates that :func:`check_solve_rate` refuses are refused first.
    """
    check_solve_rate(init, config)
    gf = GeneratingFn(init.mu_S0)
    pI0 = init.pI0
    y0 = (1.0, init.I0, 0.0, pI0, 1.0 - pI0, 0.0, init.N_IS0, 0.0, init.N_S0)
    r, beta = config.r, config.beta
    ts, ys, terminal = rk4_integrate(
        lambda y: volz_rhs(y, r, beta, gf), y0, config, n_IS=itemgetter(6),
    )
    cols = dict(zip(_VOLZ_STATE, ys.T))
    cols["S"], cols["N_S"] = _susceptible_columns(gf, cols["theta"])
    drift = float(np.abs(cols["pI"] + cols["pS"] + cols["pR"] - 1.0).max())
    if drift > SIMPLEX_TOL:
        raise _too_coarse(
            f"pI+pS+pR drifted from 1 by {drift:.3e} (tolerance {SIMPLEX_TOL:.0e})", config.dt)
    _check_mass(cols["S"], cols["I"], cols["R"], init.S0 + init.I0, config.dt)
    _check_floor(cols["I"], init.S0 + init.I0, config.dt)
    return Solution(t=ts, columns=cols, terminal=terminal, diagnostics={})


def edge_identities(sol):
    """Residuals of the algebraic identities tying the independently
    integrated edge counts to ``(theta, pI, pR)``:

    ``N_S = theta g'(theta)``, ``N_IS = pI theta g'(theta)``,
    ``N_RS = pR theta g'(theta)``.

    Small residuals mean the redundant equations agree; growth flags
    integration error."""
    col = sol.column
    return {
        "N_S": np.abs(col("N_S_aux") - col("N_S")),
        "N_IS": np.abs(col("N_IS") - col("pI") * col("N_S")),
        "N_RS": np.abs(col("N_RS") - col("pR") * col("N_S")),
    }


# ---------------------------------------------------------------------------
# Measure-valued system
# ---------------------------------------------------------------------------


@dataclass
class MeasureSolution(Solution):
    """A measures solve: the :class:`Solution` columns, plus the level
    vectors at every time, one row each, over the levels of ``mu_S0``."""

    mu_S0: np.ndarray = field(repr=False)
    mu_IS: np.ndarray = field(repr=False)  # shape (T, kmax+1)
    mu_RS: np.ndarray = field(repr=False)

    @property
    def clamped_mass(self):
        return self.diagnostics["clamped_mass"]

    def mu_S(self, idx):
        """Susceptible degree measure at time index ``idx`` (closed form)."""
        return self.mu_S0 * self.columns["theta"][idx] ** np.arange(len(self.mu_S0))

    @property
    def snapshots(self):
        """``(t, {"mu_S", "mu_IS", "mu_RS": level vector})`` at every time."""
        for i, t in enumerate(self.t):
            yield float(t), {"mu_S": self.mu_S(i), "mu_IS": self.mu_IS[i],
                             "mu_RS": self.mu_RS[i]}


def check_measures_memory(init, config):
    """Refuse, before anything is allocated, a measures solve whose arrays,
    counted together, would take more than ``MAX_SOLVE_BYTES``:
    :func:`influx_kernel`'s table ``U`` and block maxima ``M``, plus one
    block's build temporaries, naming ``kmax`` if these alone are over;
    else with the rows :func:`rk4_integrate` stores, ``2*kmax + 3`` floats
    each, and all the solve holds beside them, naming ``t_max`` and
    ``dt``.  Every step is counted, as :class:`SolverConfig`'s row cap
    counts them, since an early stop is not known in advance."""
    levels = len(init.mu_S0)
    kmax = levels - 1
    blocks = -(-kmax // INFLUX_BLOCK)
    # one block's int64 depths, bool mask and float gather: 17 bytes an entry
    table = 8 * (INFLUX_BLOCK + 1) * blocks * levels + 17 * INFLUX_BLOCK * levels
    if table > MAX_SOLVE_BYTES:
        raise ConfigurationError(
            f"kmax={kmax} makes the measures solve's influx table peak at "
            f"{table / 1e9:.4g} GB, over the {MAX_SOLVE_BYTES / 1e9:g} GB a solve may take"
        )
    rows, width = config.n_steps + 1, 2 * levels + 1
    stored = 8 * rows * width
    # beside the table and the rows, as tracemalloc measured at kmax 1 to 8000
    # and up to 100001 rows: their array("d")'s growth slack, up to 1/16; one
    # RK4 step's arrays, 24 to 40 bytes per entry of influx_vector's (blocks,
    # kmax+1) arrays and about 140 bytes a level, bounded by 32 and 256; the
    # finished solve's grid, nine derived columns and alive mask, 81 bytes a
    # row, whose temporaries are freed before its last columns are taken; and
    # numpy's ufunc buffers, 8192 floats for each of three operands, which
    # the table's build takes on its strided blocks.  The sum was above
    # every solve's traced peak.
    total = (table + stored + stored // 16 + 81 * rows
             + (32 * blocks + 256) * levels + 3 * 8 * 8192)
    if total > MAX_SOLVE_BYTES:
        raise ConfigurationError(
            f"t_max={config.t_max:g} and dt={config.dt:g} make {rows} rows of {width} "
            f"floats at kmax={kmax}, which with the influx table take {total / 1e9:.4g} "
            f"GB, over the {MAX_SOLVE_BYTES / 1e9:g} GB a solve may take"
        )


def influx_kernel(mu_S0_weights):
    """:func:`influx_vector`'s table, built once per solve from ``mu_S0``
    alone.

    With ``mu_S(k) = mu_S0(k) theta^k``, ``x = pS theta``,
    ``y = (pI+pR) theta`` and the depth ``d = k-1-i``, the influx is
    ``theta x^i sum_d y^d T[d, i]`` with
    ``T[d, i] = C(i+d, i) (i+d+1) mu_S0(i+d+1)``, which no call changes.
    ``C(i+d, i)`` overflows a float above kmax of about 1030, so ``T`` is
    kept in blocks of ``INFLUX_BLOCK`` depths: per block ``b`` and level
    ``i`` the log-maximum ``M[b, i]`` of ``log T`` over the block (``-inf``
    where the block holds no mass), and ``exp(log T - M)`` in ``[0, 1]``,
    built in log space from one ``math.lgamma`` table.  A call then scales
    each block by ``exp(M + i log x + 64 b log y)``, one exponent over a
    ``(blocks, kmax+1)`` array, so no factor overflows at any kmax.  Each
    block is built in place in ``U``, so no temporary has ``U``'s shape.

    Returns ``(U, M, i, b)``: ``U`` of shape
    ``(INFLUX_BLOCK, blocks*(kmax+1))``, the rows being the depth ``r``
    within a block; ``M`` of shape ``(blocks, kmax+1)``; and the powers a
    call raises ``x`` and ``y`` to, the levels ``i`` and, as a column, the
    first depth ``64 b`` of each block."""
    w = np.asarray(mu_S0_weights, dtype=float)
    kmax = len(w) - 1
    blocks = -(-kmax // INFLUX_BLOCK)
    i = np.arange(kmax + 1)
    log_fact = np.array([math.lgamma(m + 1) for m in range(kmax + 1)])  # log m!
    with np.errstate(divide="ignore"):
        log_kw = np.log(i * w)  # log(k mu_S0(k)), -inf at 0
    # depth d = r + 64 b laid out (r, b), so U needs no transposed copy
    U = np.empty((INFLUX_BLOCK, blocks, kmax + 1))
    M = np.empty((blocks, kmax + 1))
    for blk in range(blocks):
        d = INFLUX_BLOCK * blk + np.arange(INFLUX_BLOCK)[:, None]
        n = i + d  # k - 1
        outside = n >= kmax
        np.minimum(n, kmax - 1, out=n)
        log_T = np.subtract(log_fact[n], log_fact, out=U[:, blk])
        log_T -= log_fact[np.minimum(d, kmax)]
        n += 1
        log_T += log_kw[n]
        log_T[outside] = -np.inf
        M[blk] = log_T.max(axis=0)
        log_T -= np.where(np.isfinite(M[blk]), M[blk], 0.0)
        np.exp(log_T, out=log_T)
    return (U.reshape(INFLUX_BLOCK, -1), M,
            np.arange(kmax + 1.0), INFLUX_BLOCK * np.arange(blocks + 0.0)[:, None])


def _log_powers(z, j):
    """``log z^j`` elementwise over the powers ``j >= 0``, for ``z >= 0``,
    with ``0^0 = 1`` and ``0^j = 0``; NaN throughout for a negative ``z``."""
    if z > 0:
        return j * math.log(z)
    if z == 0:
        return np.where(j > 0, -np.inf, 0.0)
    return np.full(j.shape, np.nan)


def influx_vector(table, pS, pI, pR, theta=1.0):
    """Rate profile of new infectives entering with ``i`` edges-to-S, over
    the levels ``i = 0..kmax`` of ``mu_S0``, at the susceptible degree
    measure ``mu_S(k) = mu_S0(k) theta^k`` (``theta >= 0``); ``table`` is
    :func:`influx_kernel` of ``mu_S0``, built once per solve.

    A size-biased degree-k susceptible keeps each of its k-1 remaining
    half-edges susceptible-facing with probability pS, independently in the
    large-population limit, giving the binomial profile
    ``influx(i) = sum_{k >= i+1} k mu_S(k) C(k-1, i) pS^i (pI+pR)^(k-1-i)``.

    A call costs one matvec against ``table`` and one ``exp`` per block
    and level.  ``x^i`` and ``y^(64 b)`` go inside the exponent with the
    block maxima, so a level whose terms are each too large or too small
    for a float still comes out finite.  ``0^0 = 1`` and ``0^j = 0``; a negative ``pI+pR`` has no
    power and gives NaN, which rk4's finite check reports; a negative
    ``pS`` gives the signed powers ``pS^i``."""
    U, M, i, b = table
    x = pS * theta
    y = (pI + pR) * theta
    exponent = M + _log_powers(abs(x), i) + _log_powers(y, b)
    inner = (y ** _DEPTHS) @ U
    out = theta * (np.exp(exponent) * inner.reshape(M.shape)).sum(axis=0)
    if x < 0:
        out[1::2] *= -1.0
    return out


def measure_rhs(y, r, beta, moments, table, k):
    """Right-hand side of the paper's measure system in the packed state
    ``y = [theta, mu_IS(0..kmax), mu_RS(0..kmax)]``: ``theta`` and the
    edge block ``mu = y[1:].reshape(2, kmax+1)``, I-S in row 0 and R-S in
    row 1.  ``moments`` holds ``k mu_S0(k)`` and ``k(k-1) mu_S0(k)``, whose
    products with ``theta^k`` give ``N_S`` and ``N_S rho``, with
    :func:`volz_rhs`'s ``rho = theta g''(theta)/g'(theta)``; ``table`` is
    :func:`influx_kernel` of ``mu_S0`` and ``k`` the levels as floats, all
    built once per solve.  An I-S edge loses its susceptible end at rate
    ``r (1 + pI rho)`` and an R-S edge at rate ``r pI rho``, and each loss
    moves its owner one level down (``shift``)::

        theta' = -r pI theta
        mu_IS' = r pI influx + r (1 + pI rho) shift(mu_IS) - beta mu_IS
        mu_RS' = beta mu_IS + r pI rho shift(mu_RS)

    With ``N_S`` at most ``DENOM_FLOOR`` the system is inert."""
    theta = y[0]
    theta_S = max(theta, 0.0)
    N_S, m2m1 = (moments @ np.float_power(theta_S, k)).tolist()
    if N_S <= DENOM_FLOOR:
        return np.zeros_like(y)
    mu = y[1:].reshape(2, -1)
    N_IS, N_RS = (mu @ k).tolist()
    pI = N_IS / N_S
    pR = N_RS / N_S
    pS = (N_S - N_IS - N_RS) / N_S
    rho = m2m1 / N_S
    # mass at level i drifts to level i-1 in proportion to i, in both rows
    flux = k * mu
    shift = -flux
    shift[:, :-1] += flux[:, 1:]
    d_IS = (r * pI * influx_vector(table, pS, pI, pR, theta_S)
            + r * (1.0 + pI * rho) * shift[0] - beta * mu[0])
    d_RS = beta * mu[0] + r * pI * rho * shift[1]
    return np.concatenate(([-r * pI * theta], d_IS, d_RS))


def solve_measures(init, config):
    """Integrate the measure system; returns a :class:`MeasureSolution`.

    Every edges-to-S level ``0..kmax`` of the initial data is tracked: a
    node enters I with at most its degree of edges-to-S, and those counts
    never grow, so no level is ever cut off.  Small negative weights
    produced by the integrator are clamped to zero; the run aborts if the
    clamped mass exceeds a fixed budget relative to the initial population
    mass.  Rates that :func:`check_solve_rate` refuses, and then a solve
    whose arrays together would outgrow ``MAX_SOLVE_BYTES``
    (:func:`check_measures_memory`), are refused first.
    """
    check_solve_rate(init, config)
    check_measures_memory(init, config)
    w0 = init.mu_S0
    levels = len(w0)
    k = np.arange(levels, dtype=float)
    moments = np.stack((k * w0, k * (k - 1) * w0))
    table = influx_kernel(w0)
    y0 = np.concatenate(([1.0], init.mu_IS0, np.zeros(levels)))
    r, beta = config.r, config.beta
    budget = CLAMP_BUDGET * (init.S0 + init.I0)
    clamped = [0.0]

    def clamp(y):
        neg = y[1:] < 0
        if neg.any():
            clamped[0] += float(-y[1:][neg].sum())
            y[1:][neg] = 0.0
            if clamped[0] > budget:
                raise _too_coarse(f"clamped {clamped[0]:.3e} of negative measure mass, "
                                  f"over the budget {budget:.3e}", config.dt)

    ts, ys, terminal = rk4_integrate(
        lambda y: measure_rhs(y, r, beta, moments, table, k), y0, config,
        n_IS=lambda y: float(k @ y[1 : levels + 1]), repair=clamp,
    )
    theta = ys[:, 0]
    mu_IS = ys[:, 1 : levels + 1]
    mu_RS = ys[:, levels + 1 :]
    S, N_S = _susceptible_columns(GeneratingFn(w0), theta)
    N_IS = mu_IS @ k
    N_RS = mu_RS @ k
    alive = N_S > DENOM_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        pI = np.where(alive, N_IS / N_S, 0.0)
        pR = np.where(alive, N_RS / N_S, 0.0)
        pS = np.where(alive, (N_S - N_IS - N_RS) / N_S, 0.0)
    cols = {"S": S, "I": mu_IS.sum(axis=1), "R": mu_RS.sum(axis=1),
            "N_S": N_S, "N_IS": N_IS, "N_RS": N_RS,
            "theta": theta, "pI": pI, "pS": pS, "pR": pR}
    return MeasureSolution(
        t=ts, columns=cols, terminal=terminal,
        diagnostics={"kmax": levels - 1, "clamped_mass": clamped[0]},
        mu_S0=w0, mu_IS=mu_IS, mu_RS=mu_RS,
    )


# ---------------------------------------------------------------------------
# One-equation reduction and horizon bound
# ---------------------------------------------------------------------------


def miller_theta(init, config):
    """Integrate the one-equation reduction

        dtheta/dt = -r theta + beta (1 - theta) + r pS0 g'(theta) / g'(1)

    where g generates ``mu_S0`` and ``pS0 = 1 - pI0`` is the initial
    susceptible edge fraction; with it the reduction is exact (Miller
    2011).  Returns a :class:`Solution` of ``theta``, ``S = g(theta)``,
    ``dR/dt = beta I`` and ``I = S0 + I0 - S - R``.  The reduction reads
    no infectious edge count, so ``eps_IS`` never stops it early.

    That ``I`` keeps ``S + I + R`` exact by construction, so the solve
    also integrates a redundant ``I' = -g'(theta) theta' - beta I``, which
    is not written out, and checks the finished run as :func:`solve_volz`
    does: an ``S + I + R`` with that ``I`` that drifts from ``S0 + I0`` by
    more than ``MASS_TOL`` of it shows a step too coarse for the rates and
    raises :class:`SolverDiagnosticError`.  Rates that
    :func:`check_solve_rate` refuses are refused first."""
    check_solve_rate(init, config)
    gf = GeneratingFn(init.mu_S0)
    r, beta = config.r, config.beta
    pS0 = 1.0 - init.pI0
    g1 = gf(1.0, order=1)
    total = init.S0 + init.I0

    def rhs(y):
        theta, R, I = y
        slope = gf(theta, order=1)
        d_theta = -r * theta + beta * (1.0 - theta) + r * pS0 * slope / g1
        return d_theta, beta * (total - gf(theta) - R), -slope * d_theta - beta * I

    ts, ys, terminal = rk4_integrate(rhs, (1.0, 0.0, init.I0), config)
    theta = ys[:, 0]
    S = gf(theta)
    R = ys[:, 1]
    _check_mass(S, ys[:, 2], R, total, config.dt)
    I = total - S - R
    _check_floor(I, total, config.dt)
    return Solution(t=ts, columns={"S": S, "I": I, "R": R, "theta": theta},
                    terminal=terminal, diagnostics={})


def horizon_bound(init, r, beta, eps_prime):
    """Time horizon below which the per-capita infectious edge count
    provably stays above ``eps_prime``, given it starts above it:

        tau = [log(<mu_S0, x^2> + N_IS0) - log(<mu_S0, x^2> + eps')] / max(r, beta)

    Guarantees nothing beyond the returned time; returns a nonpositive
    value when ``eps_prime >= N_IS0``."""
    check_nonnegative(r=r, beta=beta)
    check_positive(eps_prime=eps_prime)
    if max(r, beta) <= 0:
        raise ConfigurationError(
            f"r={r:g} and beta={beta:g}: at least one rate must be positive")
    k = np.arange(len(init.mu_S0))
    m2 = float((k ** 2) @ init.mu_S0)
    return (math.log(m2 + init.N_IS0) - math.log(m2 + eps_prime)) / max(r, beta)
