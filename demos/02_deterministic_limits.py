"""The deterministic large-population limit, solved three ways.

For a Poisson(5) degree law with 2% initially infected we solve

1. the measure-valued system, which tracks the whole degree distribution
   of susceptibles and the edge-to-susceptible distributions of the
   infectious and removed classes;
2. the edge-based ODE reduction (theta and the edge-type fractions
   pS, pI, pR), which should reproduce the same per-capita S/I/R curves;
3. the one-equation reduction for theta alone, which takes the initial
   susceptible edge fraction pS0 = 1 - pI0 from the same initial data and
   is exact.

It then checks the algebraic identities tying the edge counts to theta,
and evaluates the horizon up to which scaled finite-n simulations are
guaranteed to track these curves.

Run with:  python3 demos/02_deterministic_limits.py
"""

import numpy as np

from sirnet import (
    DegreeSpec,
    SolverConfig,
    edge_identities,
    horizon_bound,
    limit_initial,
    miller_theta,
    solve_measures,
    solve_volz,
)

R_RATE, BETA, I0 = 1.0, 0.5, 0.02

spec = DegreeSpec.poisson(5, 40)
init = limit_initial(spec, I0)
cfg = SolverConfig(r=R_RATE, beta=BETA, t_max=6.0, dt=1e-3)

vol = solve_volz(init, cfg)
mea = solve_measures(init, cfg)

m = min(len(vol.t), len(mea.t))
print("edge-based vs measure-valued solver, max per-capita differences:")
for col in ("S", "I", "R"):
    diff = np.abs(vol.column(col)[:m] - mea.column(col)[:m]).max()
    print(f"  {col}: {diff:.3e}")

res = edge_identities(vol)
print("\nedge-count identities (residuals should be at solver accuracy):")
for name, r in res.items():
    print(f"  {name}: max residual {r.max():.3e}")

mil = miller_theta(init, cfg)
k = min(len(mil.t), len(vol.t))
print("\none-equation reduction vs edge-based solver, max differences:")
for col in mil.columns:
    diff = np.abs(mil.column(col)[:k] - vol.column(col)[:k]).max()
    print(f"  {col}: {diff:.3e}")

tau = horizon_bound(init, R_RATE, BETA, eps_prime=0.01)
print(f"\nconvergence horizon (edge density stays above 0.01): tau_bar = {tau:.6g}")
I = vol.column("I")
print(f"peak per-capita infection: {I.max():.4f} at t = {vol.t[np.argmax(I)]:.2f}")
