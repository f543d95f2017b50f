"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete; without ``-s`` pytest still shows them for any
failing criterion.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from oracles import (
    aggregate_to_levels,
    allocation_oracle_pmf,
    influx_uncollapsed,
    jl_oracle_pmf,
    jl_pool_configurations,
    level_counts,
    level_pick_chain_pmf,
    replay_law,
    small_rosters,
)
from sirnet.cli import main as cli_main
from sirnet.degrees import DegreeSpec
from sirnet.harness import convergence_report, run_replicas
from sirnet.limit import (
    SolverConfig,
    edge_identities,
    horizon_bound,
    influx_vector,
    limit_initial,
    limit_initial_from_pI0,
    solve_measures,
    solve_volz,
)
from sirnet.simulation import (
    BlockDraws,
    PopulationState,
    SimParams,
    initialize_state,
    sample_jl,
    simulate,
    take_half_edges,
)


def report(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def pooled_chi2(observed, expected):
    """Chi-square statistic after pooling cells with expected count < 5.

    Returns (statistic, dof); dof = 0 means the law is degenerate after
    pooling and contributes nothing."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    order = np.argsort(expected)
    obs, exp = observed[order].tolist(), expected[order].tolist()
    while len(exp) > 1 and exp[0] < 5:
        exp[1] += exp[0]
        obs[1] += obs[0]
        del exp[0], obs[0]
        # keep the list sorted after the merge
        k = 0
        while k + 1 < len(exp) and exp[k] > exp[k + 1]:
            exp[k], exp[k + 1] = exp[k + 1], exp[k]
            obs[k], obs[k + 1] = obs[k + 1], obs[k]
            k += 1
    if len(exp) < 2:
        return 0.0, 0
    obs, exp = np.asarray(obs), np.asarray(exp)
    return float(((obs - exp) ** 2 / exp).sum()), len(exp) - 1


def _take(mu, total, n, draws):
    """Level measure left after ``take_half_edges`` draws ``n`` half-edges."""
    levels = list(mu)
    take_half_edges(levels, total, n, draws)
    return tuple(levels)


def test_criterion_1_sampler_exactness():
    t0 = time.time()
    rng = np.random.default_rng(20240817)

    # (j, l) matching law: the exact law of sample_jl, the sampler simulate
    # runs, replayed on every sequence of integer draws, equals the
    # enumerated combinatorial pmf to 1e-12 for every pool configuration
    # with N_S <= 8
    configs = jl_pool_configurations(8)
    jl_err = 0.0
    for config in configs:
        oracle = jl_oracle_pmf(*config)
        law = replay_law(lambda d: sample_jl(*config, d))
        assert set(law) == set(oracle), config
        for key, p in oracle.items():
            assert abs(law[key] - p) < 1e-12, (config, key)
            jl_err = max(jl_err, abs(law[key] - p))
    jl_msg = (f"(j,l) law: sample_jl replayed on every draw sequence in "
              f"{len(configs)} configs, max error {jl_err:.1e} < 1e-12")

    # allocation law: a roster is a level measure, and the simulator keeps
    # only the level measure, so the per-individual oracle is aggregated to
    # level counts.  The level-pick chain's analytic law equals it to 1e-12
    # for every roster with <= 4 individuals (counts 1..4) at every feasible
    # draw size ...
    rosters = small_rosters(4, 4)
    replayed = 0
    for counts in rosters:
        mu, total = level_counts(counts), sum(counts)
        for n in range(total + 1):
            oracle = aggregate_to_levels(counts, allocation_oracle_pmf(list(counts), n))
            chain = level_pick_chain_pmf(mu, n)
            assert set(oracle) == set(chain), (counts, n)
            for key, p in oracle.items():
                assert abs(chain[key] - p) < 1e-12, (counts, n, key)
            # ... and so does the exact law of take_half_edges, the sampler
            # simulate runs, replayed on every sequence of integer draws
            # wherever there are at most 5000 such sequences ...
            if math.perm(total, n) <= 5000:
                law = replay_law(lambda d: _take(mu, total, n, d))
                assert set(law) == set(oracle), (counts, n)
                for key, p in oracle.items():
                    assert abs(law[key] - p) < 1e-12, (counts, n, key)
                replayed += 1

    # ... plus a chi-square per roster at its richest draw size, on draws of
    # take_half_edges fed by the simulator's block draw source
    draws = BlockDraws(rng)
    alloc_draws = 20_000
    total_stat, total_dof, tested = 0.0, 0, 0
    for counts in rosters:
        mu, total = level_counts(counts), sum(counts)
        n = total // 2
        oracle = aggregate_to_levels(counts, allocation_oracle_pmf(list(counts), n))
        if len(oracle) < 2:
            continue
        hits = {}
        for _ in range(alloc_draws):
            key = _take(mu, total, n, draws)
            hits[key] = hits.get(key, 0) + 1
        assert set(hits) <= set(oracle)  # nothing outside support
        keys = sorted(oracle)
        observed = np.array([hits.get(key, 0) for key in keys])
        expected = np.array([oracle[key] for key in keys]) * alloc_draws
        stat, dof = pooled_chi2(observed, expected)
        total_stat += stat
        total_dof += dof
        tested += 1
    alloc_threshold = stats.chi2.ppf(1 - 0.001, total_dof)
    alloc_ok = total_stat < alloc_threshold
    elapsed = time.time() - t0
    detail = (f"{jl_msg}; allocation: {len(rosters)} rosters exact to 1e-12 "
              f"(level-pick chain; take_half_edges replayed at {replayed} draw "
              f"sizes), aggregated chi2 {total_stat:.1f} < {alloc_threshold:.1f} "
              f"({tested} rosters x {alloc_draws} take_half_edges draws); "
              f"runtime {elapsed:.1f}s < 60s")
    report(1, alloc_ok and elapsed < 60, detail)


def test_criterion_2_event_bookkeeping(checked_events):
    # checked_events re-derives every per-event delta on the production
    # event loop and raises on violation: dN_IS = k-2-2j-l / -d(S),
    # dN_RS = -l / +d(S), S+I+R constant, totals from the level vectors,
    # mu_S <= mu_S0 pointwise; N_IS+N_RS <= N_S is checked on the rows
    mixes = [
        (DegreeSpec.poisson(5, 30), 1.0, 0.5),
        (DegreeSpec.poisson(8, 40), 1.0, 1.0),
        (DegreeSpec.geometric(0.6, 40), 0.7, 0.3),
        (DegreeSpec.powerlaw(2.5, 1, 30), 3.0, 0.5),
        (DegreeSpec.explicit({3: 1.0}), 1.5, 1.5),
    ]
    total_events = 0
    run = 0
    edge_violations = 0
    depleted = 0
    while total_events < 100_000:
        spec, r, beta = mixes[run % len(mixes)]
        rng = np.random.default_rng(1000 + run)
        st = initialize_state(spec.sample(4000, rng), 0.02, rng=rng)
        traj = simulate(st, SimParams(r=r, beta=beta, t_max=50.0), rng=rng)
        total_events += traj.n_infections + traj.n_removals
        edge_violations += int(np.sum(traj.N_IS + traj.N_RS > traj.N_S))
        depleted += int(traj.terminal == "depleted")
        run += 1
    ok = edge_violations == 0 and depleted == 0 and checked_events.count == total_events
    report(2, ok, f"{total_events} events across {run} mixed-parameter runs; "
                  "per-event deltas, population conservation and mu_S "
                  f"domination re-checked on {checked_events.count} events "
                  "(raises on violation); "
                  f"N_IS+N_RS <= N_S violations: {edge_violations}, "
                  f"pool-depleted runs: {depleted}")


def test_criterion_3_dual_solver_equivalence():
    t0 = time.time()
    spec = DegreeSpec.poisson(5, 60)
    init = limit_initial_from_pI0(spec, 0.05)
    cfg = SolverConfig(r=1.0, beta=0.5, t_max=5.0, dt=1e-3)
    vol = solve_volz(init, cfg)
    mea = solve_measures(init, cfg)
    m = min(len(vol.t), len(mea.t))
    d_I = float(np.abs(mea.I[:m] - vol.I[:m]).max())
    d_pI = float(np.abs(mea.pI[:m] - vol.pI[:m]).max())
    elapsed = time.time() - t0
    ok = d_I <= 1e-3 and d_pI <= 1e-3 and elapsed < 10
    report(3, ok, f"sup|I_meas - I_volz| = {d_I:.2e} <= 1e-3, "
                  f"sup|pI_meas - pI_volz| = {d_pI:.2e} <= 1e-3; "
                  f"runtime {elapsed:.1f}s < 10s")


def test_criterion_4_edge_count_identities():
    t0 = time.time()
    worst = {"N_S": 0.0, "N_IS": 0.0, "N_RS": 0.0}
    for (r, beta) in [(1.0, 0.5), (2.0, 1.0), (0.5, 1.5)]:
        init = limit_initial_from_pI0(DegreeSpec.poisson(5, 40), 0.05)
        sol = solve_volz(init, SolverConfig(r=r, beta=beta, t_max=3.0, dt=1e-3))
        res = edge_identities(sol)
        for key in worst:
            worst[key] = max(worst[key], float(res[key].max()))
    elapsed = time.time() - t0
    ok = (worst["N_S"] <= 1e-8 and worst["N_IS"] <= 1e-6
          and worst["N_RS"] <= 1e-6 and elapsed < 5)
    report(4, ok, f"|N_S - theta g'(theta)| = {worst['N_S']:.2e} <= 1e-8, "
                  f"N_IS residual {worst['N_IS']:.2e} <= 1e-6, "
                  f"N_RS residual {worst['N_RS']:.2e} <= 1e-6; "
                  f"runtime {elapsed:.1f}s < 5s")


def test_criterion_5_influx_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        kmax = int(rng.integers(2, 13))
        w = rng.random(kmax + 1) * rng.uniform(0.1, 2.0)
        pS, pI, pR = rng.dirichlet(np.ones(3))
        got = influx_vector(w, pS, pI, pR)
        want = np.array(influx_uncollapsed(w, pS, pI, pR, kmax))
        worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-12
    report(5, ok, f"collapsed vs uncollapsed influx on 100 random instances "
                  f"(K <= 12): max abs diff {worst:.2e} <= 1e-12")


def test_criterion_6_rk_order():
    spec = DegreeSpec.poisson(5, 25)
    init = limit_initial_from_pI0(spec, 0.05)
    t_max = 0.4
    ratios = {}
    for name, solver in (("volz", solve_volz), ("measures", solve_measures)):
        ref = solver(init, SolverConfig(r=1.0, beta=0.5, t_max=t_max, dt=1e-5, eps_IS=0.0))
        errs = []
        for dt in (4e-3, 2e-3):
            sol = solver(init, SolverConfig(r=1.0, beta=0.5, t_max=t_max, dt=dt, eps_IS=0.0))
            stride = int(round(dt / 1e-5))
            idx = np.arange(len(sol.t)) * stride
            errs.append(float(np.abs(sol.I - ref.I[idx]).max()))
        ratios[name] = errs[0] / errs[1]
    ok = all(12 <= v <= 20 for v in ratios.values())
    report(6, ok, "step-halving error ratios (expect ~2^4 in [12,20]): "
                  f"volz {ratios['volz']:.2f}, measures {ratios['measures']:.2f}")


# shared setup for criteria 7 and 8 (computed once)
_study_cache = {}


def _desk_study():
    if _study_cache:
        return _study_cache
    spec = DegreeSpec.poisson(5, 30)
    r, beta, i0, eps_prime = 1.0, 0.5, 0.01, 0.01
    init = limit_initial(spec, i0)
    tau_bar = horizon_bound(init, r, beta, eps_prime)
    grid = 1e-4
    t_max = math.ceil(tau_bar / grid + 1) * grid
    sol = solve_volz(init, SolverConfig(r=r, beta=beta, t_max=t_max, dt=grid, eps_IS=0.0))
    params = SimParams(r=r, beta=beta, t_max=t_max, record_grid=grid)
    small = run_replicas(spec, params, [1000], 200, 7, i0, eps_prime=eps_prime)
    large = run_replicas(spec, params, [10000], 100, 7, i0, eps_prime=eps_prime)
    _study_cache.update(
        tau_bar=tau_bar, t_max=t_max, sol=sol, small=small, large=large,
        eps_prime=eps_prime)
    return _study_cache


def test_criterion_7_scaled_convergence():
    s = _desk_study()
    rep = convergence_report(s["small"] + s["large"][:50], s["sol"],
                             s["eps_prime"], s["tau_bar"], s["t_max"])
    m_small = rep.row(1000, "I")["mean_sup_dist"]
    m_large = rep.row(10000, "I")["mean_sup_dist"]
    ok = m_large < m_small and m_large <= 0.02
    report(7, ok, f"mean sup|I^n/n - I| on [0, tau_bar={s['tau_bar']:.4g}]: "
                  f"n=1e3 (200 reps) {m_small:.3e} > n=1e4 (50 reps) "
                  f"{m_large:.3e}, and {m_large:.3e} <= 0.02")


def test_criterion_8_horizon_bound_holds():
    s = _desk_study()
    frac = float(np.mean([tr.tau_eps >= s["tau_bar"] for tr in s["large"]]))
    ok = frac >= 0.99
    report(8, ok, f"tau^n_eps >= tau_bar in {frac:.0%} of 100 runs at n=1e4 "
                  f"(need >= 99%)")


def test_criterion_9_pure_death_oracle():
    # r=0, beta=1, I0=100: removals by t=1 are Binomial(100, 1 - e^-1)
    reps = 1000
    outcomes = np.zeros(reps, dtype=int)
    params = SimParams(r=0.0, beta=1.0, t_max=1.0, record_grid=1.0)
    for rep in range(reps):
        st = PopulationState([], [0] * 100)
        traj = simulate(st, params, rng=np.random.default_rng(5000 + rep))
        outcomes[rep] = traj.R[-1]
    p = 1.0 - math.exp(-1.0)
    observed = np.bincount(outcomes, minlength=101)
    expected = stats.binom.pmf(np.arange(101), 100, p) * reps
    stat, dof = pooled_chi2(observed, expected)
    pval = stats.chi2.sf(stat, dof)
    ok = pval > 0.001
    report(9, ok, f"removals by t=1 over {reps} reps vs Binomial(100, 1-e^-1): "
                  f"chi2 {stat:.1f} (dof {dof}), p = {pval:.3f} > 0.001")


def test_criterion_10_reproducibility(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        args_sets = [
            ["simulate", "--degree", "poisson:5:30", "--n", "400", "--r", "1",
             "--beta", "0.5", "--i0", "0.02", "--seed", "11", "--t-max", "2",
             "--out", str(d / "traj.csv")],
            ["solve", "volz", "--degree", "poisson:5:30", "--r", "1",
             "--beta", "0.5", "--pI0", "0.05", "--t-max", "1",
             "--out", str(d / "volz.csv")],
            ["converge", "--degree", "poisson:5:25", "--n", "200", "--reps", "3",
             "--r", "1", "--beta", "0.5", "--i0", "0.01", "--seed", "5",
             "--t-max", "0.002", "--grid", "0.0002", "--out", str(d / "rep.csv")],
        ]
        for args in args_sets:
            assert cli_main(args) == 0
        outputs.append(tuple((d / f).read_bytes()
                             for f in ("traj.csv", "volz.csv", "rep.csv")))
    ok = outputs[0] == outputs[1]
    report(10, ok, "two consecutive runs of simulate/solve/converge with "
                   "identical seeds produced byte-identical CSVs")
