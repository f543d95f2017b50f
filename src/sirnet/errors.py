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

# rows, t=0 included, that one simulated trajectory or one limit solve may
# store; at the cap a trajectory's six counts and time take 0.56 GB and a
# volz solve's 9-float states 0.72 GB; a measures solve keeps 2*kmax + 3
# floats a row beside its influx table, so MAX_SOLVE_BYTES bounds it further
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


def check_degree(**values):
    """Raise :class:`ConfigurationError` naming the first degree above
    ``MAX_DEGREE``."""
    for name, value in values.items():
        if value > MAX_DEGREE:
            raise ConfigurationError(
                f"{name} must be at most {MAX_DEGREE}, the largest degree a run "
                f"holds, got {value}")
