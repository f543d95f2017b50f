"""SIR epidemics on configuration-model networks.

Exact event-driven simulation over half-edge pools, deterministic
large-population limits (measure-valued system and its edge-based ODE
reduction), and a Monte-Carlo harness for checking that scaled stochastic
trajectories converge to the limit.

The simulated chain is SIR on a configuration model, a uniform pairing
of half-edges whose pairings are revealed as the epidemic reaches them:
degree counts are drawn conditioned on an even total, and a new
infective's open half-edges may pair with each other.
"""

__version__ = "0.1.0"

# numpy 2 loads numpy.random on first use; load it with the package, so a
# command does not pay for the import inside its own run
import numpy.random  # noqa: F401

from sirnet.degrees import DegreeSpec
from sirnet.errors import (
    ConfigurationError,
    InfeasibleDrawError,
    SolverDiagnosticError,
    StateCorruptionError,
)
from sirnet.harness import (
    ConvergenceReport,
    convergence_report,
    run_convergence_study,
    run_replicas,
    sup_distance,
)
from sirnet.limit import (
    LimitInit,
    MeasureSolution,
    Solution,
    SolverConfig,
    edge_identities,
    horizon_bound,
    limit_initial,
    limit_initial_from_pI0,
    miller_theta,
    reproduction_number,
    solve_measures,
    solve_volz,
)
from sirnet.simulation import (
    PopulationState,
    SimParams,
    Trajectory,
    initialize_state,
    simulate,
)

__all__ = [
    "__version__",
    "ConfigurationError", "InfeasibleDrawError", "SolverDiagnosticError",
    "StateCorruptionError",
    "DegreeSpec",
    "PopulationState", "SimParams", "Trajectory", "initialize_state",
    "simulate",
    "LimitInit", "SolverConfig", "Solution",
    "MeasureSolution", "solve_volz", "solve_measures", "edge_identities",
    "miller_theta", "horizon_bound", "limit_initial", "limit_initial_from_pI0",
    "reproduction_number",
    "ConvergenceReport", "run_replicas", "sup_distance",
    "convergence_report", "run_convergence_study",
]
