"""One stochastic SIR epidemic on a configuration-model network.

Samples a Poisson(5) degree sequence on 5000 nodes, infects 1% of the
population uniformly at random, and runs the event-driven dynamics
(infection rate r per infectious-susceptible edge, removal rate beta per
infectious node) until extinction.  Prints the recorded trajectory head,
the final attack rate, and the measure of half-edge pool sizes along the
way.

Run with:  python3 demos/01_single_epidemic.py
"""

import numpy as np

from sirnet import DegreeSpec, SimParams, initialize_state, reproduction_number, simulate

N = 5000
R_RATE = 1.0      # infection rate per I-S edge
BETA = 0.5        # removal rate per infectious node
I0 = 0.01         # initial infected fraction

spec = DegreeSpec.poisson(5, 30)
print(f"degree law: {spec.describe()},  "
      f"r0 = {reproduction_number(spec, R_RATE, BETA):.3f}")

rng = np.random.default_rng(2026)
degrees = spec.sample(N, rng)
state = initialize_state(degrees, I0, rng=rng)
print(f"initial pools: N_S={state.N_S}  N_IS={state.N_IS}  N_RS={state.N_RS}")

params = SimParams(r=R_RATE, beta=BETA, t_max=15.0, record_grid=0.25)
traj = simulate(state, params, rng=rng)

print(f"\n{'t':>6} {'S':>6} {'I':>6} {'R':>6} {'N_IS':>7}")
for i in range(0, len(traj.times), 4):
    print(f"{traj.times[i]:6.2f} {traj.column('S')[i]:6.0f} "
          f"{traj.column('I')[i]:6.0f} {traj.column('R')[i]:6.0f} "
          f"{traj.column('N_IS')[i]:7.0f}")

final_R = traj.column("R")[-1]
print(f"\nterminal: {traj.terminal} after {traj.n_infections} infections "
      f"and {traj.n_removals} removals")
print(f"attack rate: {final_R / N:.3f} of the population was ever infected")
