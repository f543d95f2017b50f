"""Exception types shared across the package, and the input checks that
raise one."""

import math


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


def check_rates(r, beta):
    """Raise :class:`ConfigurationError` naming an infection rate ``r`` or a
    removal rate ``beta`` that is not finite and nonnegative."""
    check_finite(r=r, beta=beta)
    for name, value in (("r", r), ("beta", beta)):
        if value < 0:
            raise ConfigurationError(f"{name} must be nonnegative, got {value}")
