"""Deterministic large-population limits of the network SIR dynamics.

Two solvers for the same limit object:

* :func:`solve_measures` integrates the countable system of degree measures
  (susceptible degrees in closed form ``mu_S(k) = mu_S0(k) * theta^k``,
  plus the edges-to-S measures of the infectious and removed classes);
* :func:`solve_volz` integrates the low-dimensional edge-based ODEs in
  ``(theta, pI, pS, pR)`` driven by the generating function of the initial
  susceptible degree measure.

Both use a fixed-step classical Runge-Kutta (RK4) integrator.  A further
one-dimensional reduction (:func:`miller_theta`) and an a-priori horizon
bound for when the per-capita infectious edge count stays above a level
``eps`` (:func:`horizon_bound`) round out the module.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import comb

from sirnet.errors import ConfigurationError, SolverDiagnosticError, check_finite
from sirnet.measures import RealMeasure

DENOM_FLOOR = 1e-12
CLAMP_BUDGET = 1e-6  # allowed cumulative negative mass, relative to initial


# ---------------------------------------------------------------------------
# Generating function of a finite measure
# ---------------------------------------------------------------------------


class GeneratingFn:
    """``g(z) = sum_k w_k z^k`` for a finite nonnegative weight vector,
    with first and second derivatives."""

    __slots__ = ("coef", "d1", "d2")

    def __init__(self, weights):
        if isinstance(weights, RealMeasure):
            weights = weights.weights
        self.coef = np.asarray(weights, dtype=float)
        self.d1 = np.polynomial.polynomial.polyder(self.coef, 1)
        self.d2 = np.polynomial.polynomial.polyder(self.coef, 2)

    def __call__(self, z, order=0):
        if order == 0:
            return float(np.polynomial.polynomial.polyval(z, self.coef))
        if order == 1:
            return float(np.polynomial.polynomial.polyval(z, self.d1))
        if order == 2:
            return float(np.polynomial.polynomial.polyval(z, self.d2))
        raise ValueError("only derivatives of order 0, 1, 2 are provided")

    @property
    def mass(self):
        return float(self.coef.sum())


def gf_from_measure(mu):
    return GeneratingFn(mu)


# ---------------------------------------------------------------------------
# Configuration and initial data
# ---------------------------------------------------------------------------


@dataclass
class SolverConfig:
    t_max: float
    dt: float = 1e-3
    eps_IS: float = 1e-6  # stop once per-capita N_IS falls below this

    def __post_init__(self):
        check_finite(t_max=self.t_max, dt=self.dt)
        if not self.t_max > 0 or not self.dt > 0:
            raise ConfigurationError("t_max and dt must be positive")
        if self.eps_IS < 0:
            raise ConfigurationError("eps_IS must be nonnegative")

    @property
    def n_steps(self):
        return max(int(round(self.t_max / self.dt)), 1)


@dataclass
class LimitInit:
    """Per-capita initial data for the limit solvers."""

    mu_S0: RealMeasure
    mu_IS0: RealMeasure

    @property
    def N_S0(self):
        return self.mu_S0.moment(1)

    @property
    def N_IS0(self):
        return self.mu_IS0.moment(1)

    @property
    def pI0(self):
        return self.N_IS0 / self.N_S0

    @property
    def I0(self):
        return self.mu_IS0.mass

    @property
    def S0(self):
        return self.mu_S0.mass


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
# Fixed-step RK4
# ---------------------------------------------------------------------------


def rk4_integrate(rhs, y0, dt, n_steps, post_step=None, stop=None):
    """Classical 4th-order Runge-Kutta with constant step.

    ``post_step(y)`` may repair the state in place after each step and
    return a diagnostic value; ``stop(y)`` truthy ends the run early.
    Returns (times, states, stopped_early).
    """
    y = np.array(y0, dtype=float)
    ys = [y.copy()]
    ts = [0.0]
    for step in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if post_step is not None:
            post_step(y)
        ts.append((step + 1) * dt)
        ys.append(y.copy())
        if stop is not None and stop(y):
            return np.asarray(ts), np.asarray(ys), True
    return np.asarray(ts), np.asarray(ys), False


# ---------------------------------------------------------------------------
# Edge-based (Volz) system
# ---------------------------------------------------------------------------

_VOLZ_NAMES = ("theta", "I", "R", "pI", "pS", "pR", "N_IS", "N_RS", "N_S_aux")


@dataclass
class VolzSolution:
    t: np.ndarray
    theta: np.ndarray
    S: np.ndarray
    I: np.ndarray
    R: np.ndarray
    pI: np.ndarray
    pS: np.ndarray
    pR: np.ndarray
    N_S: np.ndarray
    N_IS: np.ndarray
    N_RS: np.ndarray
    N_S_aux: np.ndarray
    gf: GeneratingFn = field(repr=False, default=None)
    terminal: str = "t_max"

    COLUMNS = ("t", "S", "I", "R", "N_S", "N_IS", "N_RS", "theta", "pI", "pS", "pR")

    def column(self, name):
        return getattr(self, name)

    def to_csv_lines(self):
        yield ",".join(self.COLUMNS)
        for i in range(len(self.t)):
            yield ",".join(f"{self.column(c)[i]:.12g}" for c in self.COLUMNS)


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


def solve_volz(init, r, beta, config):
    """Integrate the edge-based system from :class:`LimitInit` data.

    The susceptible share is reported as ``S = g(theta)`` where g generates
    ``mu_S0``.  Probability conservation ``pI + pS + pR = 1`` is checked at
    every step within an O(dt^4) tolerance.
    """
    check_finite(r=r, beta=beta)
    if r < 0 or beta < 0:
        raise ConfigurationError("rates must be nonnegative")
    gf = gf_from_measure(init.mu_S0)
    if gf(1.0, order=1) <= 0:
        raise ConfigurationError("initial susceptible measure needs positive mean degree")
    pI0 = init.pI0
    if not 0 <= pI0 <= 1:
        raise ConfigurationError(f"initial pI={pI0} outside [0,1]")
    y0 = [1.0, init.I0, 0.0, pI0, 1.0 - pI0, 0.0, init.N_IS0, 0.0, init.N_S0]

    tol = max(100.0 * config.dt ** 4, 1e-11)

    def post(y):
        if not np.isfinite(y).all():
            raise SolverDiagnosticError(
                "state became non-finite; dt is too large for these rates"
            )
        drift = abs(y[3] + y[4] + y[5] - 1.0)
        if drift > tol:
            raise SolverDiagnosticError(
                f"pI+pS+pR drifted from 1 by {drift:.3e} (tolerance {tol:.3e}); "
                "reduce dt"
            )

    def stop(y):
        return y[6] < config.eps_IS

    ts, ys, early = rk4_integrate(
        lambda y: volz_rhs(y, r, beta, gf), y0, config.dt, config.n_steps,
        post_step=post, stop=stop,
    )
    theta = ys[:, 0]
    return VolzSolution(
        t=ts,
        theta=theta,
        S=np.polynomial.polynomial.polyval(theta, gf.coef),
        I=ys[:, 1],
        R=ys[:, 2],
        pI=ys[:, 3],
        pS=ys[:, 4],
        pR=ys[:, 5],
        N_S=theta * np.polynomial.polynomial.polyval(theta, gf.d1),
        N_IS=ys[:, 6],
        N_RS=ys[:, 7],
        N_S_aux=ys[:, 8],
        gf=gf,
        terminal="extinct" if early else "t_max",
    )


def edge_identities(sol):
    """Residuals of the algebraic identities tying the independently
    integrated edge counts to ``(theta, pI, pR)``:

    ``N_S = theta g'(theta)``, ``N_IS = pI theta g'(theta)``,
    ``N_RS = pR theta g'(theta)``.

    Small residuals mean the redundant equations agree; growth flags
    integration error."""
    NS_alg = sol.theta * np.polynomial.polynomial.polyval(sol.theta, sol.gf.d1)
    return {
        "N_S": np.abs(sol.N_S_aux - NS_alg),
        "N_IS": np.abs(sol.N_IS - sol.pI * NS_alg),
        "N_RS": np.abs(sol.N_RS - sol.pR * NS_alg),
    }


# ---------------------------------------------------------------------------
# Measure-valued system
# ---------------------------------------------------------------------------


@dataclass
class MeasureSolution:
    t: np.ndarray
    theta: np.ndarray
    mu_IS: np.ndarray  # shape (T, K+1)
    mu_RS: np.ndarray
    mu_S0: RealMeasure = field(repr=False, default=None)
    clamped_mass: float = 0.0
    terminal: str = "t_max"

    def mu_S(self, idx):
        """Susceptible degree measure at time index ``idx`` (closed form)."""
        k = np.arange(self.mu_S0.kmax + 1)
        return RealMeasure(self.mu_S0.weights * self.theta[idx] ** k)

    def mu_IS_measure(self, idx):
        return RealMeasure(self.mu_IS[idx])

    def mu_RS_measure(self, idx):
        return RealMeasure(self.mu_RS[idx])

    @property
    def S(self):
        k = np.arange(self.mu_S0.kmax + 1)
        return (self.theta[:, None] ** k[None, :]) @ self.mu_S0.weights

    @property
    def I(self):
        return self.mu_IS.sum(axis=1)

    @property
    def R(self):
        return self.mu_RS.sum(axis=1)

    @property
    def N_S(self):
        k = np.arange(self.mu_S0.kmax + 1)
        return (self.theta[:, None] ** k[None, :]) @ (k * self.mu_S0.weights)

    @property
    def N_IS(self):
        return self.mu_IS @ np.arange(self.mu_IS.shape[1])

    @property
    def N_RS(self):
        return self.mu_RS @ np.arange(self.mu_RS.shape[1])

    @property
    def pI(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.N_S > DENOM_FLOOR, self.N_IS / self.N_S, 0.0)

    @property
    def pR(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.N_S > DENOM_FLOOR, self.N_RS / self.N_S, 0.0)

    @property
    def pS(self):
        N_S = self.N_S
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(N_S > DENOM_FLOOR, (N_S - self.N_IS - self.N_RS) / N_S, 0.0)

    COLUMNS = ("t", "S", "I", "R", "N_S", "N_IS", "N_RS", "theta", "pI", "pS", "pR")

    def column(self, name):
        return getattr(self, name)

    def to_csv_lines(self):
        yield ",".join(self.COLUMNS)
        cols = [self.column(c) for c in self.COLUMNS]
        for i in range(len(self.t)):
            yield ",".join(f"{c[i]:.12g}" for c in cols)

    def snapshot_json_lines(self):
        for i in range(len(self.t)):
            yield json.dumps({
                "t": float(self.t[i]),
                "mu_S": {str(k): w for k, w in enumerate(self.mu_S(i).weights) if w},
                "mu_IS": {str(k): w for k, w in enumerate(self.mu_IS[i]) if w},
                "mu_RS": {str(k): w for k, w in enumerate(self.mu_RS[i]) if w},
            })


def influx_vector(mu_S_weights, pS, pI, pR, K, binom=None):
    """Rate profile of new infectives entering with ``i`` edges-to-S.

    A size-biased degree-k susceptible keeps each of her k-1 remaining
    half-edges susceptible-facing with probability pS, independently in the
    large-population limit, giving the binomial profile
    ``influx(i) = sum_{k >= i+1} k mu_S(k) C(k-1, i) pS^i (pI+pR)^(k-1-i)``.
    """
    kmax = len(mu_S_weights) - 1
    if binom is None:
        binom = _binom_matrix(K, kmax)
    k = np.arange(kmax + 1)
    vec = k * mu_S_weights
    b = pI + pR
    expo = k[None, :] - 1 - np.arange(K + 1)[:, None]
    with np.errstate(invalid="ignore"):
        bpow = np.where(expo >= 0, np.float_power(b, np.maximum(expo, 0)), 0.0)
    out = (binom * bpow) @ vec
    return np.float_power(pS, np.arange(K + 1)) * out


def _binom_matrix(K, kmax):
    ii = np.arange(K + 1)[:, None]
    kk = np.arange(kmax + 1)[None, :]
    return comb(kk - 1, ii)  # zero where i > k-1


def measure_rhs(y, r, beta, mu_S0_weights, K, binom):
    """Right-hand side of the measure system in the packed state
    ``y = [theta, mu_IS(0..K), mu_RS(0..K)]``.

    Drift terms divide by the total edges-to-S of the class they act on;
    when that total is numerically zero the class is inert and the term is
    dropped."""
    theta = y[0]
    mu_IS = y[1 : K + 2]
    mu_RS = y[K + 2 :]
    kmax = len(mu_S0_weights) - 1
    k = np.arange(kmax + 1)
    theta_pow = np.float_power(max(theta, 0.0), k)
    mu_S = mu_S0_weights * theta_pow
    N_S = float(k @ mu_S)
    m2m1 = float((k * (k - 1)) @ mu_S)
    i_arr = np.arange(K + 1)
    N_IS = float(i_arr @ mu_IS)
    N_RS = float(i_arr @ mu_RS)

    d = np.zeros_like(y)
    if N_S <= DENOM_FLOOR:
        return d
    pI = N_IS / N_S
    pR = N_RS / N_S
    pS = (N_S - N_IS - N_RS) / N_S

    d[0] = -r * pI * theta

    shift_IS = np.zeros(K + 1)
    shift_IS[:-1] = i_arr[1:] * mu_IS[1:]
    shift_IS -= i_arr * mu_IS
    shift_RS = np.zeros(K + 1)
    shift_RS[:-1] = i_arr[1:] * mu_RS[1:]
    shift_RS -= i_arr * mu_RS

    c_IS = (r * pI * pI * m2m1 + r * pI * N_S) / N_IS if N_IS > DENOM_FLOOR else 0.0
    c_RS = (r * pI * m2m1 * pR) / N_RS if N_RS > DENOM_FLOOR else 0.0

    d[1 : K + 2] = (
        r * pI * influx_vector(mu_S0_weights * theta_pow, pS, pI, pR, K, binom)
        + c_IS * shift_IS
        - beta * mu_IS
    )
    d[K + 2 :] = beta * mu_IS + c_RS * shift_RS
    return d


def solve_measures(init, r, beta, config, K=None):
    """Integrate the measure system; returns a :class:`MeasureSolution`.

    ``K`` caps the tracked edges-to-S levels.  It defaults to the smallest
    level leaving tail mass of ``mu_S0`` below 1e-10, which for a
    finite-support law is its largest degree; edges-to-S counts never grow,
    so the cap is then exact.  Any discarded tail mass triggers a warning.
    Small negative weights produced by the integrator are clamped to zero;
    the run aborts if the clamped mass exceeds a fixed budget relative to
    the initial population mass.
    """
    check_finite(r=r, beta=beta)
    if r < 0 or beta < 0:
        raise ConfigurationError("rates must be nonnegative")
    kmax = init.mu_S0.kmax
    if K is None:
        tail = np.cumsum(init.mu_S0.weights[::-1])[::-1]  # tail[k] = mass at >= k
        above = np.flatnonzero(tail < 1e-10)
        K = int(above[0]) - 1 if len(above) else kmax
        K = max(K, init.mu_IS0.kmax, 1)
        discarded = float(init.mu_S0.weights[K + 1 :].sum())
        if discarded > 0:
            warnings.warn(
                f"measure solver truncated at K={K}, discarding susceptible "
                f"tail mass {discarded:.3e}"
            )
    if init.mu_IS0.kmax > K:
        raise ConfigurationError("K smaller than the initial infectious support")
    w0 = init.mu_S0.weights
    binom = _binom_matrix(K, kmax)
    y0 = np.zeros(1 + 2 * (K + 1))
    y0[0] = 1.0
    y0[1 : init.mu_IS0.kmax + 2] = init.mu_IS0.weights

    total0 = init.mu_S0.mass + init.mu_IS0.mass
    clamped = [0.0]

    def post(y):
        neg = y[1:] < 0
        if neg.any():
            clamped[0] += float(-y[1:][neg].sum())
            y[1:][neg] = 0.0
            if clamped[0] > CLAMP_BUDGET * total0:
                raise SolverDiagnosticError(
                    f"clamped {clamped[0]:.3e} of negative measure mass, over the "
                    f"budget {CLAMP_BUDGET * total0:.3e}; reduce dt"
                )

    i_arr = np.arange(K + 1)

    def stop(y):
        return float(i_arr @ y[1 : K + 2]) < config.eps_IS

    ts, ys, early = rk4_integrate(
        lambda y: measure_rhs(y, r, beta, w0, K, binom),
        y0, config.dt, config.n_steps, post_step=post, stop=stop,
    )
    return MeasureSolution(
        t=ts,
        theta=ys[:, 0],
        mu_IS=ys[:, 1 : K + 2],
        mu_RS=ys[:, K + 2 :],
        mu_S0=init.mu_S0,
        clamped_mass=clamped[0],
        terminal="extinct" if early else "t_max",
    )


# ---------------------------------------------------------------------------
# One-equation reduction and horizon bound
# ---------------------------------------------------------------------------


def miller_theta(psi, r, beta, config, pS0=1.0):
    """Integrate the one-equation reduction

        dtheta/dt = -r theta + beta (1 - theta) + r pS0 psi'(theta) / psi'(1)

    where ``psi`` generates the degree law (unit mass).  With ``pS0 = 1``
    this is the classical negligible-initial-infection form; it coincides
    with the edge-based system only when ``pS0`` equals the true initial
    susceptible edge fraction, so for a finite initial infected share pass
    ``pS0 = 1 - pI0``.  Returns (t, theta, S, I, R) with ``S = psi(theta)``,
    ``dR/dt = beta I`` and ``I = 1 - S - R``."""
    check_finite(r=r, beta=beta)
    if isinstance(psi, RealMeasure):
        psi = GeneratingFn(psi)
    dpsi1 = psi(1.0, order=1)
    if dpsi1 <= 0:
        raise ConfigurationError("degree law needs positive mean")
    if not 0 < pS0 <= 1:
        raise ConfigurationError("pS0 must lie in (0, 1]")

    def rhs(y):
        theta, R = y
        S = psi(theta)
        I = 1.0 - S - R
        return np.array([
            -r * theta + beta * (1.0 - theta) + r * pS0 * psi(theta, order=1) / dpsi1,
            beta * I,
        ])

    ts, ys, _ = rk4_integrate(rhs, [1.0, 0.0], config.dt, config.n_steps)
    theta = ys[:, 0]
    S = np.polynomial.polynomial.polyval(theta, psi.coef)
    R = ys[:, 1]
    return ts, theta, S, 1.0 - S - R, R


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
    m2 = init.mu_S0.moment(2)
    return (math.log(m2 + init.N_IS0) - math.log(m2 + eps_prime)) / max(r, beta)
