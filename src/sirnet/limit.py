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
share one fixed-step classical Runge-Kutta (RK4) path,
:func:`rk4_integrate`, and return a :class:`Solution`.  An a-priori
horizon bound for when the per-capita infectious edge count stays above a
level ``eps`` (:func:`horizon_bound`) rounds out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sirnet.errors import (
    ConfigurationError,
    SolverDiagnosticError,
    check_finite,
    check_nonnegative,
)

DENOM_FLOOR = 1e-12
CLAMP_BUDGET = 1e-6  # allowed cumulative negative mass, relative to initial
SIMPLEX_TOL = 1e-11  # allowed drift of pI+pS+pR from 1, which RK4 keeps to round-off
MASS_TOL = 1e-6  # allowed drift of S+I+R from S0+I0, relative to S0+I0
INFLUX_BLOCK = 64  # depth levels d = k-1-i per block of the influx table
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
    right-hand sides; an array ``z`` runs it elementwise."""

    __slots__ = ("_horner",)

    def __init__(self, weights):
        coef = np.asarray(weights, dtype=float)
        d1 = np.arange(1, len(coef)) * coef[1:]
        d2 = np.arange(1, len(d1)) * d1[1:]
        # polyder leaves the zero polynomial [0.0] where no term survives
        self._horner = tuple(c[::-1].tolist() or [0.0] for c in (coef, d1, d2))

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
        check_finite(t_max=self.t_max, dt=self.dt)
        if not self.t_max > 0 or not self.dt > 0:
            raise ConfigurationError("t_max and dt must be positive")
        steps = self.t_max / self.dt
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


def reproduction_number(spec, r, beta):
    """The epidemic's reproduction number ``T <k(k-1)>/<k>``: the degree
    law's branching factor (:meth:`DegreeSpec.r0`) times the
    transmissibility ``T = r/(r+beta)``, the chance that an I-S edge fires
    before its infective is removed (Newman 2002, Phys. Rev. E 66, 016128).
    Above 1 a small outbreak grows in the limit, below 1 it dies out."""
    check_nonnegative(r=r, beta=beta)
    if r + beta == 0:
        raise ConfigurationError("r and beta are both 0, so T = r/(r+beta) is undefined")
    return r / (r + beta) * spec.r0()


# ---------------------------------------------------------------------------
# Fixed-step RK4 and the solution type
# ---------------------------------------------------------------------------


def rk4_integrate(rhs, y0, config, n_IS=None, repair=None):
    """Classical 4th-order Runge-Kutta with the constant step ``config.dt``
    up to ``config.t_max``.

    A step that leaves the state non-finite raises
    :class:`SolverDiagnosticError`; ``repair(y)`` then checks or repairs
    the state in place.  ``n_IS(y)`` reads the per-capita infectious edge
    count off the state: the run ends ``extinct`` once it falls below
    ``config.eps_IS``, and never early when ``eps_IS`` is 0 or there is no
    read-out.  Returns ``(times, states, terminal)``.
    """
    dt = config.dt
    stop_below = config.eps_IS if n_IS is not None else 0.0
    y = np.array(y0, dtype=float)
    ys = [y.copy()]
    ts = [0.0]
    for step in range(config.n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = (step + 1) * dt
        if not np.isfinite(y).all():
            raise SolverDiagnosticError(
                f"state became non-finite at t={t:.6g}; dt={dt:g} is too large "
                "for these rates"
            )
        if repair is not None:
            repair(y)
        ts.append(t)
        ys.append(y.copy())
        if stop_below > 0 and n_IS(y) < stop_below:
            return np.asarray(ts), np.asarray(ys), "extinct"
    return np.asarray(ts), np.asarray(ys), "t_max"


class Solution:
    """What every solver returns: the time grid ``t``, the columns named in
    ``COLUMNS``, the ``terminal`` reason (``t_max`` or ``extinct``) and the
    solver's ``diagnostics``."""

    COLUMNS = ("t", "S", "I", "R", "N_S", "N_IS", "N_RS", "theta", "pI", "pS", "pR")

    @property
    def diagnostics(self):
        return {}

    def column(self, name):
        return getattr(self, name)

    def to_csv_lines(self):
        """The header, then one row per time with 12 significant digits."""
        yield ",".join(self.COLUMNS)
        cols = [self.column(c).tolist() for c in self.COLUMNS]
        for row in zip(*cols):
            yield ",".join(f"{v:.12g}" for v in row)


# ---------------------------------------------------------------------------
# Edge-based (Volz) system
# ---------------------------------------------------------------------------


@dataclass
class VolzSolution(Solution):
    t: np.ndarray
    states: np.ndarray = field(repr=False)  # per time: theta, I, R, pI, pS, pR, N_IS, N_RS, N_S_aux
    gf: GeneratingFn = field(repr=False)
    terminal: str = "t_max"

    def __post_init__(self):
        (self.theta, self.I, self.R, self.pI, self.pS, self.pR,
         self.N_IS, self.N_RS, self.N_S_aux) = self.states.T
        self.S = self.gf(self.theta)
        self.N_S = self.theta * self.gf(self.theta, order=1)


def volz_rhs(y, r, beta, gf):
    """Right-hand side of the edge-based system.

    ``pS`` and the edge counts ``N_IS``, ``N_RS``, ``N_S_aux`` carry their
    own equations even though each equals an algebraic function of
    ``(theta, pI, pR)``; integrating them independently lets
    :func:`edge_identities` measure the solver's internal consistency.
    """
    theta, I, R, pI, pS, pR, N_IS, N_RS, N_S_aux = y.tolist()
    g1 = gf(theta, order=1)
    g2 = gf(theta, order=2)
    ratio = theta * g2 / g1 if g1 > DENOM_FLOOR else 0.0
    return np.array((
        -r * pI * theta,
        r * pI * theta * g1 - beta * I,
        beta * I,
        r * pI * pS * ratio - r * pI * (1.0 - pI) - beta * pI,
        r * pI * pS * (1.0 - ratio),
        beta * pI + r * pI * pR,
        r * pI * ((pS - pI) * theta * theta * g2 - theta * g1) - beta * N_IS,
        beta * N_IS - r * pR * pI * theta * theta * g2,
        -r * theta * pI * (g1 + theta * g2),
    ))


def solve_volz(init, config):
    """Integrate the edge-based system from :class:`LimitInit` data.

    The susceptible share is reported as ``S = g(theta)`` where g generates
    ``mu_S0``.  The finished run is checked once: ``pI + pS + pR`` may
    drift from 1 by at most ``SIMPLEX_TOL``, and the population mass
    ``S + I + R`` from ``S0 + I0`` by at most ``MASS_TOL`` of it.  The
    first sum is a linear invariant that RK4 keeps to round-off at any
    ``dt``; the second is not, since ``S`` is read off ``theta`` while
    ``I`` and ``R`` are integrated, so it catches a step too coarse for
    the rates.  A run failing either raises :class:`SolverDiagnosticError`.
    """
    gf = GeneratingFn(init.mu_S0)
    pI0 = init.pI0
    y0 = [1.0, init.I0, 0.0, pI0, 1.0 - pI0, 0.0, init.N_IS0, 0.0, init.N_S0]
    r, beta = config.r, config.beta
    ts, ys, terminal = rk4_integrate(
        lambda y: volz_rhs(y, r, beta, gf), y0, config, n_IS=lambda y: y[6],
    )
    sol = VolzSolution(t=ts, states=ys, gf=gf, terminal=terminal)
    drift = float(np.abs(sol.pI + sol.pS + sol.pR - 1.0).max())
    if drift > SIMPLEX_TOL:
        raise SolverDiagnosticError(
            f"pI+pS+pR drifted from 1 by {drift:.3e} (tolerance {SIMPLEX_TOL:.0e}); "
            f"dt={config.dt:g} is too large for these rates"
        )
    total = init.S0 + init.I0
    mass = float(np.abs(sol.S + sol.I + sol.R - total).max())
    if mass > MASS_TOL * total:
        raise SolverDiagnosticError(
            f"S+I+R drifted from S0+I0 by {mass:.3e}, over the budget "
            f"{MASS_TOL * total:.3e}; dt={config.dt:g} is too large for these rates"
        )
    return sol


def edge_identities(sol):
    """Residuals of the algebraic identities tying the independently
    integrated edge counts to ``(theta, pI, pR)``:

    ``N_S = theta g'(theta)``, ``N_IS = pI theta g'(theta)``,
    ``N_RS = pR theta g'(theta)``.

    Small residuals mean the redundant equations agree; growth flags
    integration error."""
    return {
        "N_S": np.abs(sol.N_S_aux - sol.N_S),
        "N_IS": np.abs(sol.N_IS - sol.pI * sol.N_S),
        "N_RS": np.abs(sol.N_RS - sol.pR * sol.N_S),
    }


# ---------------------------------------------------------------------------
# Measure-valued system
# ---------------------------------------------------------------------------


@dataclass
class MeasureSolution(Solution):
    t: np.ndarray
    theta: np.ndarray
    mu_IS: np.ndarray  # shape (T, kmax+1)
    mu_RS: np.ndarray
    mu_S0: np.ndarray = field(repr=False)
    clamped_mass: float = 0.0
    terminal: str = "t_max"

    def __post_init__(self):
        gf = GeneratingFn(self.mu_S0)
        self.S = gf(self.theta)
        self.I = self.mu_IS.sum(axis=1)
        self.R = self.mu_RS.sum(axis=1)
        self.N_S = self.theta * gf(self.theta, order=1)
        self.N_IS = self.mu_IS @ np.arange(self.mu_IS.shape[1])
        self.N_RS = self.mu_RS @ np.arange(self.mu_RS.shape[1])
        alive = self.N_S > DENOM_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            self.pI = np.where(alive, self.N_IS / self.N_S, 0.0)
            self.pR = np.where(alive, self.N_RS / self.N_S, 0.0)
            self.pS = np.where(alive, (self.N_S - self.N_IS - self.N_RS) / self.N_S, 0.0)

    @property
    def diagnostics(self):
        return {"kmax": self.mu_IS.shape[1] - 1, "clamped_mass": self.clamped_mass}

    def mu_S(self, idx):
        """Susceptible degree measure at time index ``idx`` (closed form)."""
        return self.mu_S0 * self.theta[idx] ** np.arange(len(self.mu_S0))

    @property
    def snapshots(self):
        """``(t, {"mu_S", "mu_IS", "mu_RS": level vector})`` at every time."""
        for i, t in enumerate(self.t):
            yield float(t), {"mu_S": self.mu_S(i), "mu_IS": self.mu_IS[i],
                             "mu_RS": self.mu_RS[i]}


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
    ``(blocks, kmax+1)`` array, so no factor overflows at any kmax.

    Returns ``(U, M, i, b)``: ``U`` of shape
    ``(INFLUX_BLOCK, blocks*(kmax+1))``, the rows being the depth ``r``
    within a block; ``M`` of shape ``(blocks, kmax+1)``; and the powers a
    call raises ``x`` and ``y`` to, the levels ``i`` and, as a column, the
    first depth ``64 b`` of each block."""
    w = np.asarray(mu_S0_weights, dtype=float)
    kmax = len(w) - 1
    blocks = -(-kmax // INFLUX_BLOCK)
    i = np.arange(kmax + 1)
    # depth d = r + 64 b laid out (r, b), so U needs no transposed copy
    d = (np.arange(INFLUX_BLOCK)[:, None] + INFLUX_BLOCK * np.arange(blocks))[:, :, None]
    n = i + d  # k - 1
    outside = n >= kmax
    np.minimum(n, kmax - 1, out=n)
    log_fact = np.array([math.lgamma(m + 1) for m in range(kmax + 1)])  # log m!
    with np.errstate(divide="ignore"):
        log_kw = np.log(np.arange(kmax + 1) * w)  # log(k mu_S0(k)), -inf at 0
    log_T = log_fact[n]
    log_T -= log_fact[i]
    log_T -= log_fact[np.minimum(d, kmax)]
    n += 1
    log_T += log_kw[n]
    log_T[outside] = -np.inf
    M = log_T.max(axis=0)
    log_T -= np.where(np.isfinite(M), M, 0.0)
    U = np.exp(log_T, out=log_T)
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


def influx_vector(mu_S0_weights, pS, pI, pR, theta=1.0, table=None):
    """Rate profile of new infectives entering with ``i`` edges-to-S, over
    the levels ``i`` of ``mu_S0_weights``, at the susceptible degree
    measure ``mu_S(k) = mu_S0(k) theta^k`` (``theta >= 0``).

    A size-biased degree-k susceptible keeps each of its k-1 remaining
    half-edges susceptible-facing with probability pS, independently in the
    large-population limit, giving the binomial profile
    ``influx(i) = sum_{k >= i+1} k mu_S(k) C(k-1, i) pS^i (pI+pR)^(k-1-i)``.

    ``table`` is :func:`influx_kernel` of ``mu_S0_weights``; a call costs
    one matvec against it and one ``exp`` per block and level.  ``x^i`` and
    ``y^(64 b)`` go inside the exponent with the block maxima, so a level
    whose terms are each too large or too small for a float still comes
    out finite.  ``0^0 = 1`` and ``0^j = 0``; a negative ``pI+pR`` has no
    power and gives NaN, which rk4's finite check reports; a negative
    ``pS`` gives the signed powers ``pS^i``."""
    if table is None:
        table = influx_kernel(mu_S0_weights)
    U, M, i, b = table
    x = pS * theta
    y = (pI + pR) * theta
    exponent = M + _log_powers(abs(x), i) + _log_powers(y, b)
    inner = (y ** _DEPTHS) @ U
    out = theta * (np.exp(exponent) * inner.reshape(M.shape)).sum(axis=0)
    if x < 0:
        out[1::2] *= -1.0
    return out


def measure_rhs(y, r, beta, mu_S0_weights, table, k, k_k1):
    """Right-hand side of the measure system in the packed state
    ``y = [theta, mu_IS(0..kmax), mu_RS(0..kmax)]``, over the levels of
    ``mu_S0_weights``.  ``table`` is :func:`influx_kernel` of
    ``mu_S0_weights``, and ``k`` and ``k_k1`` are the levels ``0..kmax``
    and ``k(k-1)``, all built once per solve.

    Drift terms divide by the total edges-to-S of the class they act on;
    when that total is numerically zero the class is inert and the term is
    dropped."""
    levels = len(k)
    theta = y[0]
    mu_IS = y[1 : levels + 1]
    mu_RS = y[levels + 1 :]
    theta_S = max(theta, 0.0)
    mu_S = mu_S0_weights * np.float_power(theta_S, k)
    N_S = float(k @ mu_S)
    m2m1 = float(k_k1 @ mu_S)
    N_IS = float(k @ mu_IS)
    N_RS = float(k @ mu_RS)

    d = np.zeros_like(y)
    if N_S <= DENOM_FLOOR:
        return d
    pI = N_IS / N_S
    pR = N_RS / N_S
    pS = (N_S - N_IS - N_RS) / N_S

    d[0] = -r * pI * theta

    # mass at level i drifts to level i-1 in proportion to i
    flux_IS = k * mu_IS
    shift_IS = -flux_IS
    shift_IS[:-1] += flux_IS[1:]
    flux_RS = k * mu_RS
    shift_RS = -flux_RS
    shift_RS[:-1] += flux_RS[1:]

    c_IS = (r * pI * pI * m2m1 + r * pI * N_S) / N_IS if N_IS > DENOM_FLOOR else 0.0
    c_RS = (r * pI * m2m1 * pR) / N_RS if N_RS > DENOM_FLOOR else 0.0

    d[1 : levels + 1] = (
        r * pI * influx_vector(mu_S0_weights, pS, pI, pR, theta_S, table)
        + c_IS * shift_IS
        - beta * mu_IS
    )
    d[levels + 1 :] = beta * mu_IS + c_RS * shift_RS
    return d


def solve_measures(init, config):
    """Integrate the measure system; returns a :class:`MeasureSolution`.

    Every edges-to-S level ``0..kmax`` of the initial data is tracked: a
    node enters I with at most its degree of edges-to-S, and those counts
    never grow, so no level is ever cut off.  Small negative weights
    produced by the integrator are clamped to zero; the run aborts if the
    clamped mass exceeds a fixed budget relative to the initial population
    mass.
    """
    w0 = init.mu_S0
    k = np.arange(len(w0))
    k_k1 = k * (k - 1)
    table = influx_kernel(w0)
    y0 = np.concatenate(([1.0], init.mu_IS0, np.zeros(len(k))))
    r, beta = config.r, config.beta
    budget = CLAMP_BUDGET * (init.S0 + init.I0)
    clamped = [0.0]

    def clamp(y):
        neg = y[1:] < 0
        if neg.any():
            clamped[0] += float(-y[1:][neg].sum())
            y[1:][neg] = 0.0
            if clamped[0] > budget:
                raise SolverDiagnosticError(
                    f"clamped {clamped[0]:.3e} of negative measure mass, over the "
                    f"budget {budget:.3e}; dt={config.dt:g} is too large for these rates"
                )

    ts, ys, terminal = rk4_integrate(
        lambda y: measure_rhs(y, r, beta, w0, table, k, k_k1), y0, config,
        n_IS=lambda y: float(k @ y[1 : len(k) + 1]), repair=clamp,
    )
    return MeasureSolution(
        t=ts,
        theta=ys[:, 0],
        mu_IS=ys[:, 1 : len(k) + 1],
        mu_RS=ys[:, len(k) + 1 :],
        mu_S0=init.mu_S0,
        clamped_mass=clamped[0],
        terminal=terminal,
    )


# ---------------------------------------------------------------------------
# One-equation reduction and horizon bound
# ---------------------------------------------------------------------------


@dataclass
class MillerSolution(Solution):
    t: np.ndarray
    theta: np.ndarray
    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    terminal: str = "t_max"

    COLUMNS = ("t", "S", "I", "R", "theta")


def miller_theta(init, config):
    """Integrate the one-equation reduction

        dtheta/dt = -r theta + beta (1 - theta) + r pS0 g'(theta) / g'(1)

    where g generates ``mu_S0`` and ``pS0 = 1 - pI0`` is the initial
    susceptible edge fraction; with it the reduction is exact (Miller
    2011).  Returns a :class:`MillerSolution` with ``S = g(theta)``,
    ``dR/dt = beta I`` and ``I = S0 + I0 - S - R``.  The reduction reads
    no infectious edge count, so ``eps_IS`` never stops it early.

    ``I`` keeps ``S + I + R`` exact by construction, so a step too coarse
    for the rates shows as a negative ``I`` instead: the finished run is
    checked once, and an ``I`` below ``-MASS_TOL`` of ``S0 + I0`` raises
    :class:`SolverDiagnosticError`."""
    gf = GeneratingFn(init.mu_S0)
    r, beta = config.r, config.beta
    pS0 = 1.0 - init.pI0
    g1 = gf(1.0, order=1)
    total = init.S0 + init.I0

    def rhs(y):
        theta, R = y.tolist()
        return np.array([
            -r * theta + beta * (1.0 - theta) + r * pS0 * gf(theta, order=1) / g1,
            beta * (total - gf(theta) - R),
        ])

    ts, ys, terminal = rk4_integrate(rhs, [1.0, 0.0], config)
    theta = ys[:, 0]
    S = gf(theta)
    R = ys[:, 1]
    I = total - S - R
    low = float(I.min())
    if low < -MASS_TOL * total:
        raise SolverDiagnosticError(
            f"I fell to {low:.3e}, below the floor {-MASS_TOL * total:.3e}; "
            f"dt={config.dt:g} is too large for these rates"
        )
    return MillerSolution(t=ts, theta=theta, S=S, I=I, R=R, terminal=terminal)


def horizon_bound(init, r, beta, eps_prime):
    """Time horizon below which the per-capita infectious edge count
    provably stays above ``eps_prime``, given it starts above it:

        tau = [log(<mu_S0, x^2> + N_IS0) - log(<mu_S0, x^2> + eps')] / max(r, beta)

    Guarantees nothing beyond the returned time; returns a nonpositive
    value when ``eps_prime >= N_IS0``."""
    if eps_prime <= 0:
        raise ConfigurationError("eps_prime must be positive")
    if max(r, beta) <= 0:
        raise ConfigurationError("at least one rate must be positive")
    k = np.arange(len(init.mu_S0))
    m2 = float((k ** 2) @ init.mu_S0)
    return (math.log(m2 + init.N_IS0) - math.log(m2 + eps_prime)) / max(r, beta)
