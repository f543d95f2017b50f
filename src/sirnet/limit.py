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
from scipy.special import gammaln, xlogy

from sirnet.errors import (
    ConfigurationError,
    SolverDiagnosticError,
    check_finite,
    check_nonnegative,
)

DENOM_FLOOR = 1e-12
CLAMP_BUDGET = 1e-6  # allowed cumulative negative mass, relative to initial


# ---------------------------------------------------------------------------
# Generating function of a finite measure
# ---------------------------------------------------------------------------


class GeneratingFn:
    """``g(z) = sum_k w_k z^k`` for a finite nonnegative weight vector,
    with first and second derivatives; the one polynomial evaluation of a
    measure in this module."""

    __slots__ = ("coef", "d1", "d2")

    def __init__(self, weights):
        self.coef = np.asarray(weights, dtype=float)
        self.d1 = np.polynomial.polynomial.polyder(self.coef, 1)
        self.d2 = np.polynomial.polynomial.polyder(self.coef, 2)

    def __call__(self, z, order=0):
        """``g``, ``g'`` or ``g''`` at ``z``: a float at a scalar, an array
        at an array."""
        if order == 0:
            coef = self.coef
        elif order == 1:
            coef = self.d1
        elif order == 2:
            coef = self.d2
        else:
            raise ValueError("only derivatives of order 0, 1, 2 are provided")
        value = np.polynomial.polynomial.polyval(z, coef)
        return float(value) if value.ndim == 0 else value


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
    ``mu_S0 = (1-i0) * pmf`` and ``mu_IS0 = i0 * pmf``."""
    if not 0 < i0 < 1:
        raise ConfigurationError("initial infected fraction must lie in (0,1)")
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
    theta, I, R, pI, pS, pR, N_IS, N_RS, N_S_aux = y
    g1 = gf(theta, order=1)
    g2 = gf(theta, order=2)
    ratio = theta * g2 / g1 if g1 > DENOM_FLOOR else 0.0
    d = np.empty(9)
    d[0] = -r * pI * theta
    d[1] = r * pI * theta * g1 - beta * I
    d[2] = beta * I
    d[3] = r * pI * pS * ratio - r * pI * (1.0 - pI) - beta * pI
    d[4] = r * pI * pS * (1.0 - ratio)
    d[5] = beta * pI + r * pI * pR
    d[6] = r * pI * ((pS - pI) * theta * theta * g2 - theta * g1) - beta * N_IS
    d[7] = beta * N_IS - r * pR * pI * theta * theta * g2
    d[8] = -r * theta * pI * (g1 + theta * g2)
    return d


def solve_volz(init, config):
    """Integrate the edge-based system from :class:`LimitInit` data.

    The susceptible share is reported as ``S = g(theta)`` where g generates
    ``mu_S0``.  Probability conservation ``pI + pS + pR = 1`` is checked at
    every step within an O(dt^4) tolerance.
    """
    gf = GeneratingFn(init.mu_S0)
    pI0 = init.pI0
    y0 = [1.0, init.I0, 0.0, pI0, 1.0 - pI0, 0.0, init.N_IS0, 0.0, init.N_S0]
    r, beta = config.r, config.beta
    tol = max(100.0 * config.dt ** 4, 1e-11)

    def check_drift(y):
        drift = abs(y[3] + y[4] + y[5] - 1.0)
        if drift > tol:
            raise SolverDiagnosticError(
                f"pI+pS+pR drifted from 1 by {drift:.3e} (tolerance {tol:.3e}); "
                "reduce dt"
            )

    ts, ys, terminal = rk4_integrate(
        lambda y: volz_rhs(y, r, beta, gf), y0, config,
        n_IS=lambda y: y[6], repair=check_drift,
    )
    return VolzSolution(t=ts, states=ys, gf=gf, terminal=terminal)


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


def influx_kernel(kmax):
    """:func:`influx_vector`'s binomial weights in log space, built once
    per solve: ``log C(k-1, i)`` over levels ``i`` and degrees ``k`` in
    ``0..kmax`` (``-inf`` where ``i > k-1``), and the exponent ``k-1-i``
    of ``pI+pR`` (0 there).  Kept apart, ``C(k-1, i)`` overflows and
    ``(pI+pR)^(k-1-i)`` underflows above kmax of about 1000."""
    i = np.arange(kmax + 1)[:, None]
    k = np.arange(kmax + 1)[None, :]
    expo = np.maximum(k - 1 - i, 0).astype(float)
    log_binom = gammaln(expo + i + 1) - gammaln(i + 1) - gammaln(expo + 1)
    return np.where(k - 1 >= i, log_binom, -np.inf), expo


def influx_vector(mu_S_weights, pS, pI, pR, kernel=None):
    """Rate profile of new infectives entering with ``i`` edges-to-S, over
    the levels ``i`` of ``mu_S_weights``.

    A size-biased degree-k susceptible keeps each of its k-1 remaining
    half-edges susceptible-facing with probability pS, independently in the
    large-population limit, giving the binomial profile
    ``influx(i) = sum_{k >= i+1} k mu_S(k) C(k-1, i) pS^i (pI+pR)^(k-1-i)``.
    ``kernel`` is :func:`influx_kernel` of the top level.
    """
    k = np.arange(len(mu_S_weights))
    if kernel is None:
        kernel = influx_kernel(len(k) - 1)
    log_binom, expo = kernel
    out = np.exp(log_binom + xlogy(expo, pI + pR)) @ (k * mu_S_weights)
    return np.float_power(pS, k) * out


def measure_rhs(y, r, beta, mu_S0_weights, kernel):
    """Right-hand side of the measure system in the packed state
    ``y = [theta, mu_IS(0..kmax), mu_RS(0..kmax)]``, over the levels of
    ``mu_S0_weights``.

    Drift terms divide by the total edges-to-S of the class they act on;
    when that total is numerically zero the class is inert and the term is
    dropped."""
    k = np.arange(len(mu_S0_weights))
    theta = y[0]
    mu_IS = y[1 : len(k) + 1]
    mu_RS = y[len(k) + 1 :]
    theta_pow = np.float_power(max(theta, 0.0), k)
    mu_S = mu_S0_weights * theta_pow
    N_S = float(k @ mu_S)
    m2m1 = float((k * (k - 1)) @ mu_S)
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
    shift_IS = np.append(flux_IS[1:], 0.0) - flux_IS
    flux_RS = k * mu_RS
    shift_RS = np.append(flux_RS[1:], 0.0) - flux_RS

    c_IS = (r * pI * pI * m2m1 + r * pI * N_S) / N_IS if N_IS > DENOM_FLOOR else 0.0
    c_RS = (r * pI * m2m1 * pR) / N_RS if N_RS > DENOM_FLOOR else 0.0

    d[1 : len(k) + 1] = (
        r * pI * influx_vector(mu_S, pS, pI, pR, kernel)
        + c_IS * shift_IS
        - beta * mu_IS
    )
    d[len(k) + 1 :] = beta * mu_IS + c_RS * shift_RS
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
    kernel = influx_kernel(len(k) - 1)
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
                    f"budget {budget:.3e}; reduce dt"
                )

    ts, ys, terminal = rk4_integrate(
        lambda y: measure_rhs(y, r, beta, w0, kernel), y0, config,
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
    no infectious edge count, so ``eps_IS`` never stops it early."""
    gf = GeneratingFn(init.mu_S0)
    r, beta = config.r, config.beta
    pS0 = 1.0 - init.pI0
    g1 = gf(1.0, order=1)
    total = init.S0 + init.I0

    def rhs(y):
        theta, R = y
        return np.array([
            -r * theta + beta * (1.0 - theta) + r * pS0 * gf(theta, order=1) / g1,
            beta * (total - gf(theta) - R),
        ])

    ts, ys, terminal = rk4_integrate(rhs, [1.0, 0.0], config)
    theta = ys[:, 0]
    S = gf(theta)
    R = ys[:, 1]
    return MillerSolution(t=ts, theta=theta, S=S, I=total - S - R, R=R, terminal=terminal)


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
