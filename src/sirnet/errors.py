"""Exception types shared across the package, and the input checks that
raise one."""

import math

# populations must stay below this; numpy's multivariate hypergeometric
# 'marginals' method, which draws the initial infectives, is exact only for
# fewer individuals
MAX_POPULATION = 10**9

# degrees, and so kmax, must not exceed this; a run's setup (the degree law,
# its sample, the initial state and the limit's initial measures and
# generating function) holds O(kmax) floats and ints, and at 10**6 levels
# it peaks at about 240 MB, while a kmax of 10**9 asks for gigabytes
MAX_DEGREE = 10**6

# grid rows, t=0 included, that one simulated trajectory or one limit solve
# may have.  A trajectory holds six counts, a run length and, with
# snapshots, one snapshot per run of grid rows, so it grows with its events;
# at the cap only its per-row views, built when read (as the harness's
# replica table reads them), take 0.56 GB.  A volz solve's 9-float states
# take 0.72 GB, and a measures solve keeps 2*kmax + 3 floats a row beside
# its influx table, so MAX_SOLVE_BYTES bounds it further
MAX_GRID_ROWS = 10**7

# bytes that a measures solve's arrays may take together
# (sirnet.limit.check_measures_memory): its influx table of about
# 8 * kmax**2 bytes, its stored rows of 8 * (2*kmax + 3) bytes each with
# their growth slack, one step's working arrays, and the grid and derived
# columns of the finished solve, 81 bytes a row; about what a volz solve
# stores at MAX_GRID_ROWS.  The table alone fits up to kmax 11008 and a
# solve of two rows up to kmax 10684; it admits 1621645 rows at kmax = 30
# and 191792 at kmax = 300
MAX_SOLVE_BYTES = 10**9


class ConfigurationError(ValueError):
    """Invalid model or run configuration (degenerate degree law, bad i0, ...)."""


class InfeasibleDrawError(ValueError):
    """A requested random draw is impossible for the current edge pools."""


class StateCorruptionError(RuntimeError):
    """An event update would drive a level count negative, or cached totals drifted."""


class SolverDiagnosticError(RuntimeError):
    """A deterministic solver violated an invariant beyond its tolerance."""


def check_finite(**values):
    """Raise :class:`ConfigurationError` naming the first value that is NaN
    or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")


def check_population(n):
    """Raise :class:`ConfigurationError` naming ``n`` unless the population
    size lies in ``1..MAX_POPULATION - 1``."""
    if n < 1:
        raise ConfigurationError(f"population size n={n} must be >= 1")
    if n >= MAX_POPULATION:
        raise ConfigurationError(
            f"population size n={n} must be below {MAX_POPULATION}, the most "
            "the initial-infective draw takes exactly")


def check_nonnegative(**values):
    """Raise :class:`ConfigurationError` naming the first value that is not
    finite and nonnegative, such as a rate."""
    check_finite(**values)
    for name, value in values.items():
        if value < 0:
            raise ConfigurationError(f"{name} must be nonnegative, got {value}")


def check_positive(**values):
    """Raise :class:`ConfigurationError` naming the first value that is not
    finite and positive, such as a tolerance."""
    check_finite(**values)
    for name, value in values.items():
        if not value > 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def check_rate_bound(r, beta, N_S, n):
    """Raise :class:`ConfigurationError` naming ``r`` and ``beta`` when the
    largest total event rate of a run, ``r N_S + beta n``, is not finite;
    ``N_S`` is its susceptible half-edges and ``n`` its population at the
    start, both counts or both per capita.  While a run goes on,
    ``N_IS <= N_S`` and ``I <= n``, so its rate ``r N_IS + beta I`` stays
    below that bound."""
    if not math.isfinite(r * N_S + beta * n):
        raise ConfigurationError(
            f"r={r:g} and beta={beta:g} overflow the total event rate r*N_S + beta*n "
            f"at N_S={N_S:.6g} and n={n:.6g}")


def check_degree(**values):
    """Raise :class:`ConfigurationError` naming the first degree above
    ``MAX_DEGREE``."""
    for name, value in values.items():
        if value > MAX_DEGREE:
            raise ConfigurationError(
                f"{name} must be at most {MAX_DEGREE}, the largest degree a run "
                f"holds, got {value}")
