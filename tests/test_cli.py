import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sirnet
from sirnet.cli import _snapshot_lines, build_parser, main
from sirnet.degrees import DegreeSpec
from sirnet.limit import SolverConfig, limit_initial, solve_measures, solve_volz
from sirnet.simulation import SimParams, initialize_state, simulate


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


R0 = ["r0", "--degree", "poisson:5:30", "--r", "1", "--beta", "1"]


def test_r0_poisson(capsys):
    # beta = 0: every I-S edge fires, so r0 is the degree law's <k(k-1)>/<k>
    code, out, _ = run(["r0", "--degree", "poisson:5:200", "--r", "1", "--beta", "0"], capsys)
    assert code == 0
    assert "r0 = 5" in out
    assert "supercritical" in out


def test_r0_subcritical(capsys):
    # T = 0.2/1.2 thins the branching factor 5 (up to the kmax=30 cut) below 1
    code, out, _ = run(_with(R0, "--r", "0.2"), capsys)
    assert code == 0
    r0 = 0.2 / 1.2 * DegreeSpec.poisson(5, 30).r0()
    assert out == f"r0 = {r0:.6g} (subcritical)\n"
    assert 0.83 < r0 < 0.84


def test_r0_critical_at_exactly_one(tmp_path, capsys):
    # T = 1/2 halves the branching factor 2 of the 3-regular law: r0 is 1, the
    # threshold itself, which printed "(subcritical)"
    path = tmp_path / "w.json"
    path.write_text('{"3": 1}')
    assert run(_with(R0, "--degree", f"file:{path}"), capsys) == (0, "r0 = 1 (critical)\n", "")


def test_r0_unknown_degree_exits_2(capsys):
    code, _, err = run(_with(R0, "--degree", "explicit"), capsys)
    assert code == 2  # unknown spec kind -> validation failure
    assert "unknown degree spec kind 'explicit'" in err


@pytest.mark.parametrize("r,verdict", [("0.2", "subcritical"), ("0.3", "supercritical")])
def test_r0_verdict_matches_limit_early_growth(capsys, r, verdict):
    # on either side of the threshold the limit's I from i0 = 0.001 falls
    # (subcritical) or grows (supercritical) over its first 10 time units
    code, out, _ = run(_with(R0, "--r", r), capsys)
    assert code == 0
    assert out.endswith(f"({verdict})\n")
    spec = DegreeSpec.poisson(5, 30)
    sol = solve_volz(limit_initial(spec, 0.001),
                     SolverConfig(r=float(r), beta=1.0, t_max=10.0, dt=0.01, eps_IS=0.0))
    assert (sol.column("I")[-1] > sol.column("I")[0]) == (verdict == "supercritical")


@pytest.mark.parametrize("r,beta,message", [
    ("nan", "1", "r must be finite"),
    ("1", "inf", "beta must be finite"),
    ("-0.5", "1", "r must be nonnegative"),
    ("1", "-1", "beta must be nonnegative"),
    ("0", "0", "r and beta are both 0"),  # T = r/(r+beta) undefined
])
def test_r0_bad_rates_exit_2(capsys, r, beta, message):
    code, out, err = run(_with(_with(R0, "--r", r), "--beta", beta), capsys)
    assert code == 2
    assert message in err
    assert out == ""


def test_r0_rates_whose_sum_overflows(capsys):
    # r + beta overflowed to inf, so T = r/(r+beta) read 0: "r0 = 0 (subcritical)"
    code, out, _ = run(_with(_with(R0, "--r", "1e308"), "--beta", "1e308"), capsys)
    assert (code, out) == (0, "r0 = 2.5 (supercritical)\n")


@pytest.mark.parametrize("degree", ["poisson:5:30", "powerlaw:2.5:1:10"])
def test_simulate_rates_whose_total_overflows_exit_2(tmp_path, capsys, degree):
    # the event rate r*N_IS + beta*I read inf, so every event was an
    # infection: poisson exited 0 with one `depleted` row, powerlaw exited 1
    args = ["simulate", "--degree", degree, "--n", "100", "--r", "1e308", "--beta", "1e308",
            "--i0", "0.05", "--t-max", "1", "--out", str(tmp_path / "x.csv")]
    for dry in ([], ["--dry-run"]):
        code, out, err = run(args + dry, capsys)
        assert (code, out) == (2, "")
        assert "r=1e+308 and beta=1e+308 overflow the total event rate" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("which", ["volz", "measures", "miller"])
def test_solve_rates_whose_total_overflows_exit_2(tmp_path, capsys, which):
    # the per-capita rate r*N_S0 + beta*(S0+I0) overflows, so no step is
    # small enough: volz and miller exited 1 with a non-finite state at the
    # first step, measures with its clamp budget, each naming dt
    args = ["solve", which, "--degree", "poisson:5:30", "--i0", "0.01", "--t-max", "1",
            "--out", str(tmp_path / "x.csv")]
    for dry in ([], ["--dry-run"]):
        code, out, err = run(args + ["--r", "1e308", "--beta", "1e308"] + dry, capsys)
        assert (code, out) == (2, "")
        assert "r=1e+308 and beta=1e+308 overflow the total event rate" in err
    assert not (tmp_path / "x.csv").exists()
    # finite rates too large for the step still fail the solve, naming dt
    code, _, err = run(args + ["--r", "1e300", "--beta", "1"], capsys)
    assert code == 1 and "dt=0.001 is too large for these rates" in err


def test_simulate_writes_files(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    args = ["simulate", "--degree", "poisson:5:30", "--n", "500",
            "--r", "1", "--beta", "0.5", "--i0", "0.01", "--seed", "42",
            "--t-max", "1", "--grid", "0.1", "--out", str(out_csv)]
    code, _, _ = run(args, capsys)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,S,I,R,N_S,N_IS,N_RS"
    assert len(lines) == 12  # header + t=0 + 10 grid rows
    meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
    assert meta["seed"] == 42 and meta["rng"] == "PCG64"
    assert meta["degree"]["kind"] == "poisson"
    first, last = lines[1].split(","), lines[-1].split(",")
    assert meta["n_infections"] == int(first[1]) - int(last[1]) > 0  # drop in S
    assert meta["n_removals"] == int(last[3]) - int(first[3]) > 0  # rise in R


@pytest.mark.parametrize("extra", [[], ["--grid", "1e-3", "--snapshots"]],
                         ids=["default-grid", "fine-grid-snapshots"])
def test_simulate_reproducible_bytes(tmp_path, capsys, extra):
    # a 1e-3 grid repeats most rows, so their runs are formatted once
    outs = []
    for name in ("a", "b"):
        files = [tmp_path / f"{name}.csv"]
        args = ["--out", str(files[0])]
        if extra:  # ends in --snapshots, which takes the path
            files.append(tmp_path / f"{name}.jsonl")
            args += extra + [str(files[1])]
        code, _, _ = run(["simulate", "--degree", "poisson:5:30", "--n", "300",
                          "--r", "1", "--beta", "0.5", "--i0", "0.02",
                          "--seed", "7", "--t-max", "2"] + args, capsys)
        assert code == 0
        outs.append([f.read_bytes() for f in files])
    assert outs[0] == outs[1]


def test_simulate_rejects_bad_i0(tmp_path, capsys):
    code, _, err = run(["simulate", "--degree", "poisson:5:30", "--n", "500",
                        "--r", "1", "--beta", "0.5", "--i0", "0",
                        "--t-max", "1", "--out", str(tmp_path / "x.csv")],
                       capsys)
    assert code == 2
    assert "i0" in err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_dry_run(tmp_path, capsys):
    code, out, _ = run(["simulate", "--degree", "poisson:5:30", "--n", "500",
                        "--r", "1", "--beta", "0.5", "--i0", "0.01",
                        "--t-max", "1", "--out", str(tmp_path / "x.csv"),
                        "--dry-run"], capsys)
    assert code == 0
    assert "dry run" in out
    assert not (tmp_path / "x.csv").exists()


def test_solve_volz_csv(tmp_path, capsys):
    path = tmp_path / "volz.csv"
    code, _, _ = run(["solve", "volz", "--degree", "poisson:5:40",
                      "--r", "1", "--beta", "0.5", "--pI0", "0.05",
                      "--t-max", "1", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,S,I,R,N_S,N_IS,N_RS,theta,pI,pS,pR"
    assert len(lines) == 1002


def test_solve_measures_and_volz_agree(tmp_path, capsys):
    paths = {}
    for which in ("volz", "measures"):
        paths[which] = tmp_path / f"{which}.csv"
        code, _, _ = run(["solve", which, "--degree", "poisson:5:25",
                          "--r", "1", "--beta", "0.5", "--pI0", "0.05",
                          "--t-max", "1", "--out", str(paths[which])], capsys)
        assert code == 0

    def col(path, name):
        lines = path.read_text().splitlines()
        idx = lines[0].split(",").index(name)
        return [float(x.split(",")[idx]) for x in lines[1:]]

    for name in ("I", "pI"):
        a, b = col(paths["volz"], name), col(paths["measures"], name)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-3


def test_solve_measures_snapshots(tmp_path, capsys):
    path = tmp_path / "m.csv"
    snaps = tmp_path / "m.jsonl"
    code, _, _ = run(["solve", "measures", "--degree", "poisson:4:20",
                      "--r", "1", "--beta", "0.5", "--i0", "0.05",
                      "--t-max", "0.1", "--out", str(path),
                      "--snapshots", str(snaps)], capsys)
    assert code == 0
    first = json.loads(snaps.read_text().splitlines()[0])
    assert first["t"] == 0.0
    assert set(first) == {"t", "mu_S", "mu_IS", "mu_RS"}


def test_snapshot_lines_equal_per_row_json():
    # a simulated run's rows share snapshots, whose maps are formatted once;
    # a solve's snapshots are all distinct
    rng = np.random.default_rng(7)
    state = initialize_state(DegreeSpec.poisson(5, 30).sample(300, rng), 0.02, rng=rng)
    traj = simulate(state, SimParams(r=1.0, beta=0.5, t_max=2.0, record_grid=1e-3,
                                     snapshot_measures=True), rng=rng)
    sol = solve_measures(limit_initial(DegreeSpec.poisson(4, 20), 0.05),
                         SolverConfig(r=1.0, beta=0.5, t_max=0.1))
    for snapshots in (list(traj.snapshots), list(sol.snapshots)):
        expected = [
            json.dumps({"t": t, **{name: {str(k): w for k, w in enumerate(snap[name]) if w}
                                   for name in ("mu_S", "mu_IS", "mu_RS")}})
            for t, snap in snapshots
        ]
        assert list(_snapshot_lines(snapshots)) == expected


def test_solve_miller_matches_volz(tmp_path, capsys):
    # the one-equation reduction is exact: it takes pS0 = 1 - pI0 and
    # S = g(theta) from the same initial data as volz
    paths = {}
    for which in ("volz", "miller"):
        paths[which] = tmp_path / f"{which}.csv"
        code, out, _ = run(["solve", which, "--degree", "poisson:5:30",
                            "--r", "1", "--beta", "0.5", "--i0", "0.05",
                            "--t-max", "2", "--out", str(paths[which])], capsys)
        assert code == 0 and out == f"wrote {paths[which]} ({which})\n"

    def cols(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}

    volz, miller = cols(paths["volz"]), cols(paths["miller"])
    assert list(miller) == ["t", "S", "I", "R", "theta"]
    assert len(miller["t"]) == len(volz["t"]) == 2001
    for name in miller:
        assert max(abs(a - b) for a, b in zip(miller[name], volz[name])) < 1e-7
    assert miller["I"][0] == pytest.approx(0.05, abs=1e-12)
    meta = json.loads((tmp_path / "miller.csv.meta.json").read_text())
    assert "pS0" not in meta and "eps_IS" not in meta and meta["terminal"] == "t_max"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "miller", "--help"])
    assert "--pS0" not in capsys.readouterr().out


def test_solve_measures_heavy_tail_matches_volz(tmp_path, capsys):
    # at kmax = 1100 the binomial C(k-1, i) alone overflows a float, so the
    # influx table keeps it in blocks scaled by their log-maxima: the rows
    # stay finite and agree with volz
    paths = {}
    for which in ("volz", "measures"):
        paths[which] = tmp_path / f"{which}.csv"
        code, _, _ = run(["solve", which, "--degree", "powerlaw:2.5:1:1100",
                          "--r", "1", "--beta", "0.5", "--i0", "0.01",
                          "--t-max", "0.003", "--out", str(paths[which])], capsys)
        assert code == 0
    header = paths["volz"].read_text().splitlines()[0].split(",")
    volz, meas = (np.loadtxt(paths[w], delimiter=",", skiprows=1) for w in ("volz", "measures"))
    assert len(meas) == len(volz) == 4 and np.isfinite(meas).all()
    for name in ("S", "I", "R"):
        i = header.index(name)
        assert np.abs(meas[:, i] - volz[:, i]).max() < 1e-3
    meta = json.loads((tmp_path / "measures.csv.meta.json").read_text())
    assert meta["terminal"] == "t_max" and meta["kmax"] == 1100


def test_converge_report(tmp_path, capsys):
    path = tmp_path / "rep.csv"
    code, _, _ = run(["converge", "--degree", "poisson:5:25",
                      "--n", "200,400", "--reps", "3", "--r", "1",
                      "--beta", "0.5", "--i0", "0.01", "--seed", "3",
                      "--t-max", "0.002", "--grid", "0.0002",
                      "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n,reps,col,mean_sup_dist,stderr,frac_tau_ge_bound"
    assert sum(1 for x in lines[1:] if x.startswith("200,")) == 6
    assert sum(1 for x in lines[1:] if x.startswith("400,")) == 6
    manifest = json.loads((tmp_path / "rep.csv.manifest.json").read_text())
    assert len(manifest["replica_seeds"]) == 6


def test_converge_rejects_zero_reps(tmp_path, capsys):
    code, _, _ = run(["converge", "--degree", "poisson:5:25", "--n", "200",
                      "--reps", "0", "--r", "1", "--beta", "0.5",
                      "--i0", "0.01", "--t-max", "0.01",
                      "--out", str(tmp_path / "r.csv")], capsys)
    assert code == 2


def test_outdir_env_var(tmp_path, capsys, monkeypatch):
    # every output of a relative --out lands in $SIRNET_OUTDIR, whether
    # that is absolute or itself relative to the working directory
    monkeypatch.chdir(tmp_path)
    commands = {
        "simulate": ["simulate", "--degree", "poisson:5:20", "--n", "200", "--r", "1",
                     "--beta", "0.5", "--i0", "0.05", "--t-max", "0.1"],
        "solve": ["solve", "volz", "--degree", "poisson:5:20", "--r", "1",
                  "--beta", "0.5", "--pI0", "0.05", "--t-max", "0.1"],
        "converge": ["converge", "--degree", "poisson:5:25", "--n", "200", "--reps", "2",
                     "--r", "1", "--beta", "0.5", "--i0", "0.01", "--t-max", "0.002",
                     "--grid", "0.0002"],
    }
    written = {f"{name}.csv{ext}" for name in commands for ext in ("", ".meta.json")}
    for outdir in (str(tmp_path / "abs"), "rel"):
        monkeypatch.setenv("SIRNET_OUTDIR", outdir)
        for name, args in commands.items():
            code, out, _ = run(args + ["--out", f"{name}.csv"], capsys)
            assert code == 0
            assert out.startswith(f"wrote {os.path.join(outdir, name)}.csv")
        assert {p.name for p in (tmp_path / outdir).iterdir()} == (
            written | {"converge.csv.manifest.json"})


@pytest.mark.parametrize("args,message", [
    (["converge", "--degree", "poisson:5:25", "--n", "200", "--reps", "2", "--r", "1",
      "--beta", "0.5", "--i0", "0.01", "--t-max", "0.002", "--grid", "0.0002",
      "--out", "c.csv", "--manifest", "c.csv"], "--manifest and --out both name c.csv"),
    (["converge", "--degree", "poisson:5:25", "--n", "200", "--reps", "2", "--r", "1",
      "--beta", "0.5", "--i0", "0.01", "--t-max", "0.002", "--grid", "0.0002",
      "--out", "c.csv", "--manifest", "./c.csv.meta.json"],
     "--manifest and the .meta.json of --out both name ./c.csv.meta.json"),
    (["simulate", "--degree", "poisson:5:20", "--n", "200", "--r", "1", "--beta", "0.5",
      "--i0", "0.05", "--t-max", "0.1", "--snapshots", "s.csv", "--out", "s.csv"],
     "--snapshots and --out both name s.csv"),
    (["simulate", "--degree", "poisson:5:20", "--n", "200", "--r", "1", "--beta", "0.5",
      "--i0", "0.05", "--t-max", "0.1", "--out", "s.csv", "--snapshots", "s.csv.meta.json"],
     "--snapshots and the .meta.json of --out both name s.csv.meta.json"),
    (["solve", "measures", "--degree", "poisson:5:20", "--r", "1", "--beta", "0.5",
      "--pI0", "0.05", "--t-max", "0.1", "--out", "m.csv", "--snapshots", "sub/../m.csv"],
     "--snapshots and --out both name sub/../m.csv"),
], ids=["converge-manifest-out", "converge-manifest-meta", "simulate-snapshots-out",
        "simulate-snapshots-meta", "measures-snapshots-out"])
def test_colliding_output_paths_exit_2(tmp_path, capsys, monkeypatch, args, message):
    # one output used to overwrite another and the run exited 0; the paths
    # are compared as resolved, in the dry run too, before anything is written
    monkeypatch.chdir(tmp_path)
    for dry in ([], ["--dry-run"]):
        assert run(args + dry, capsys) == (2, "", f"configuration error: {message}; "
                                           "each output needs its own file\n")
    assert list(tmp_path.iterdir()) == []


def test_colliding_output_paths_under_outdir_exit_2(tmp_path, capsys, monkeypatch):
    # a relative --out resolves under $SIRNET_OUTDIR, so it names the same
    # file as an absolute --snapshots there
    monkeypatch.setenv("SIRNET_OUTDIR", str(tmp_path))
    snapshots = str(tmp_path / "s.csv")
    args = ["simulate", "--degree", "poisson:5:20", "--n", "200", "--r", "1",
            "--beta", "0.5", "--i0", "0.05", "--t-max", "0.1", "--out", "s.csv",
            "--snapshots", snapshots]
    assert run(args, capsys) == (
        2, "", f"configuration error: --snapshots and --out both name {snapshots}; "
        "each output needs its own file\n")
    assert list(tmp_path.iterdir()) == []


def test_unknown_degree_exits_2(tmp_path, capsys):
    code, _, _ = run(["solve", "volz", "--degree", "weird:1",
                      "--r", "1", "--beta", "0.5", "--pI0", "0.05",
                      "--t-max", "0.1", "--out", str(tmp_path / "x.csv")],
                     capsys)
    assert code == 2


SIM = ["simulate", "--degree", "poisson:5:30", "--n", "300", "--r", "1",
       "--beta", "0.5", "--i0", "0.02", "--t-max", "1"]
VOLZ = ["solve", "volz", "--degree", "poisson:5:30", "--r", "1",
        "--beta", "0.5", "--pI0", "0.05", "--t-max", "1"]
MILLER = ["solve", "miller"] + VOLZ[2:]
CONVERGE = ["converge", "--degree", "poisson:5:30", "--n", "200", "--reps", "2",
            "--r", "1", "--beta", "0.5", "--seed", "1", "--t-max", "1"]
# the refusal of a degree one above the largest a run holds
DEGREE_BOUND = f"must be at most {10**6}, the largest degree a run holds, got {10**6 + 1}"


def _with(args, option, value):
    if option in args:
        i = args.index(option)
        return args[:i + 1] + [value] + args[i + 2:]
    return args + [option, value]


@pytest.mark.parametrize("base,option,value,field", [
    (SIM, "--r", "nan", "r"),
    (SIM, "--beta", "nan", "beta"),
    (SIM, "--t-max", "inf", "t_max"),
    (SIM, "--grid", "nan", "record_grid"),
    (VOLZ, "--r", "nan", "r"),
    (VOLZ, "--t-max", "inf", "t_max"),
    (VOLZ, "--dt", "inf", "dt"),
    (["solve", "measures"] + VOLZ[2:], "--beta", "inf", "beta"),
    (MILLER, "--r", "nan", "r"),
    (SIM + ["--dry-run"], "--r", "nan", "r"),
    (VOLZ + ["--dry-run"], "--r", "nan", "r"),
    (CONVERGE + ["--i0", "0.01", "--dry-run"], "--r", "nan", "r"),
    # 1**nan == 1: a non-finite exponent used to leave a silent degree-1 law
    (SIM, "--degree", "powerlaw:nan:1:10", "alpha"),
    (VOLZ, "--degree", "powerlaw:inf:1:10", "alpha"),
    (SIM, "--degree", "poisson:inf:30", "lam"),
    (VOLZ, "--degree", "poisson:nan:30", "lam"),
    (CONVERGE + ["--i0", "0.01", "--dry-run"], "--degree", "geometric:nan:50", "q"),
    # a NaN eps_prime used to make tau_bar NaN and compare all of [0, t_max]
    (CONVERGE + ["--i0", "0.01", "--grid", "0.0001"], "--eps-prime", "nan", "eps_prime"),
    (CONVERGE + ["--i0", "0.01", "--dry-run"], "--eps-prime", "inf", "eps_prime"),
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, base, option, value, field):
    out = tmp_path / "x.csv"
    code, _, err = run(_with(base, option, value) + ["--out", str(out)], capsys)
    assert code == 2
    assert f"{field} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("base,weights,message", [
    # r0 printed "nan (subcritical)" and exited 0; simulate failed inside numpy
    (R0, '{"2": Infinity, "3": 1}', "the weight of degree 2 must be finite, got inf"),
    (SIM, '{"-2": 1, "3": 1}', "degree -2 is negative"),
    # "02" overwrote "2", and r0 printed 1.33333, the law {2: 3, 3: 1}
    (R0, '{"2": 1, "02": 3, "3": 1}',
     "degree 2 is given twice in the degree file, as '2' and '02'"),
    # a JSON array is no degree-to-weight map
    (R0, '[1, 0.5]', "a degree file must hold a JSON object mapping degree to weight"),
    (SIM, f'{{"3": 1, "{10**6 + 1}": 1e-9}}', "degree " + DEGREE_BOUND),
    # a weight that is no JSON number: float() failed in the parser (exit 1), and
    # true was taken as the weight 1
    (R0, '{"3": null, "4": 1}', "the weight of degree 3 must be a number, got null"),
    (SIM, '{"3": [1], "4": 1}', "the weight of degree 3 must be a number, got [1]"),
    (R0, '{"3": {}, "4": 1}', "the weight of degree 3 must be a number, got {}"),
    (R0, '{"3": true}', "the weight of degree 3 must be a number, got true"),
    # the object's own key was parsed as a degree: "invalid literal for int() ... 'a'"
    (R0, '{"3": {"a": 1}, "4": 1}', 'the weight of degree 3 must be a number, got {"a": 1}'),
    # "int too large to convert to float", naming no degree
    (R0, '{"3": 1' + "0" * 400 + '}',
     "the weight of degree 3 must be finite, got an integer too large for a float"),
    # finite weights whose total overflows: "must have positive mean degree"
    (R0, '{"3": 1e308, "4": 1e308}',
     "the explicit degree law needs weights with a finite total, got inf"),
], ids=["r0-infinite-weight", "simulate-negative-degree", "r0-duplicate-degree",
        "r0-array", "simulate-degree-too-large", "r0-null-weight", "simulate-list-weight",
        "r0-object-weight", "r0-boolean-weight", "r0-nested-object-weight",
        "r0-integer-weight-overflows", "r0-total-overflows"])
def test_degree_file_bad_entries_exit_2(tmp_path, capsys, base, weights, message):
    path = tmp_path / "w.json"
    path.write_text(weights)
    out = tmp_path / "x.csv"
    args = _with(base, "--degree", f"file:{path}")
    if base is SIM:
        args += ["--out", str(out)]
    assert run(args, capsys) == (2, "", f"configuration error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("degree", [f"poisson:5:{10**6 + 1}", f"powerlaw:2.5:1:{10**6 + 1}"])
def test_r0_degree_above_bound_exits_2(capsys, degree):
    assert run(_with(R0, "--degree", degree), capsys) == (
        2, "", f"configuration error: kmax {DEGREE_BOUND}\n")


def test_r0_weights_overflowing_a_float_exit_2(capsys):
    # 100**400 overflows: r0 printed "nan (subcritical)" and exited 0
    assert run(_with(R0, "--degree", "powerlaw:-400:1:100"), capsys) == (
        2, "", "configuration error: the powerlaw:-400:1:100 degree law needs weights "
        "with a finite total, got inf\n")


@pytest.mark.parametrize("degree,field", [
    ("powerlaw:nan:1:10", "alpha"), ("powerlaw:inf:1:10", "alpha"),
    ("poisson:inf:30", "lam"), ("geometric:nan:50", "q"),
])
def test_r0_non_finite_degree_exits_2(capsys, degree, field):
    code, out, err = run(_with(R0, "--degree", degree), capsys)
    assert code == 2
    assert f"{field} must be finite" in err
    assert out == ""


@pytest.mark.parametrize("args", [
    _with(_with(SIM, "--n", "100"), "--t-max", "5"),
    ["solve", "volz", "--degree", "poisson:5:30", "--r", "1", "--beta", "0.5",
     "--t-max", "1"],
    CONVERGE + ["--grid", "0.0001"],
    CONVERGE + ["--grid", "0.0001", "--dry-run"],
], ids=["simulate", "solve", "converge", "converge-dry-run"])
def test_infeasible_i0_exits_2(tmp_path, capsys, args):
    # i0 = 0.6 starts more infective than susceptible half-edges, which no
    # pairing can match; refused before anything runs, naming i0
    out = tmp_path / "x.csv"
    code, _, err = run(_with(args, "--i0", "0.6") + ["--out", str(out)], capsys)
    assert code == 2
    assert "i0=0.6 gives " in err
    assert not out.exists()


@pytest.mark.parametrize("base,option", [
    (SIM, "--r"), (VOLZ, "--beta"), (["solve", "measures"] + VOLZ[2:], "--r"),
    (MILLER, "--r"), (MILLER + ["--dry-run"], "--beta"),
])
def test_negative_rates_exit_2(tmp_path, capsys, base, option):
    out = tmp_path / "x.csv"
    code, _, err = run(_with(base, option, "-1") + ["--out", str(out)], capsys)
    assert code == 2
    assert f"{option[2:]} must be nonnegative" in err
    assert not out.exists()


@pytest.mark.parametrize("args,option", [
    (VOLZ + ["--snapshots", "v.jsonl"], "--snapshots"),
    (MILLER + ["--kmax", "3"], "--kmax"),
    (["solve", "measures"] + VOLZ[2:] + ["--kmax", "30"], "--kmax"),
    (MILLER + ["--eps-is", "0"], "--eps-is"),
    (CONVERGE + ["--i0", "0.01", "--selection", "size_biased"], "--selection"),
], ids=["volz-snapshots", "miller-kmax", "measures-kmax", "miller-eps-is",
        "converge-selection"])
def test_option_of_another_command_exits_2(tmp_path, capsys, args, option):
    out = tmp_path / "x.csv"
    code, _, err = run(args + ["--out", str(out)], capsys)
    assert code == 2
    assert f"unrecognized arguments: {option}" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--help"], ["simulat"], [], ["simulate", "--help"], ["solve", "miller", "--help"],
    ["r0", "--degree", "poisson:5:30", "--bogus"], ["converge", "--n", "x"],
], ids=["help", "typo", "empty", "simulate-help", "miller-help", "r0-unknown",
        "converge-bad-n"])
def test_parser_of_one_command_says_what_the_full_parser_says(capsys, args):
    # main builds only the parser of the command named first; what reaches
    # the user, "invalid choice" and the full --help included, is unchanged
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(args)
    full = capsys.readouterr()
    code, out, err = run(args, capsys)
    assert (code, out, err) == (exc.value.code, full.out, full.err)
    if args in (["--help"], ["simulat"]):
        assert "{r0,simulate,solve,converge}" in out + err


@pytest.mark.parametrize("args,message", [
    (VOLZ + ["--dt", "3"], "dt=3 does not divide t_max=1 "),  # a row past t_max
    (VOLZ + ["--dt", "0.3"], "dt=0.3 does not divide t_max=1 "),  # an end at 0.9
    (MILLER + ["--dt", "0.7"], "dt=0.7 does not divide t_max=1 "),  # an end at 0.7
    (SIM + ["--grid", "5"], "record_grid=5 is coarser than t_max=1"),  # t=0 only
], ids=["volz-dt-3", "volz-dt-0.3", "miller-dt-0.7", "simulate-grid-5"])
def test_horizon_not_a_whole_number_of_steps_exits_2(tmp_path, capsys, args, message):
    out = tmp_path / "x.csv"
    code, _, err = run(args + ["--out", str(out)], capsys)
    assert code == 2
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    _with(SIM, "--t-max", "10") + ["--grid", "1e-9"],
    # rates of 1e-6 make tau_bar 1345, so the replicas would record all of [0, 10]
    _with(_with(_with(CONVERGE, "--t-max", "10"), "--r", "1e-6"), "--beta", "1e-6")
    + ["--i0", "0.01", "--grid", "1e-9"],
], ids=["simulate", "converge"])
def test_grid_too_fine_to_store_exits_2(tmp_path, capsys, args):
    # refused by the dry run, so no run that would record 1e10 rows starts
    out = tmp_path / "x.csv"
    code, _, err = run(args + ["--dry-run", "--out", str(out)], capsys)
    assert code == 2
    assert "record_grid=1e-09 puts 10000000001 rows" in err
    assert not out.exists()


def test_converge_counts_rows_on_its_window(tmp_path, capsys, monkeypatch):
    # a grid of 1e-5 puts 2e7 rows on [0, t_max=200], but the replicas
    # record only the 135 of [0, tau_bar = 0.00134544]; refused before
    args = ["converge", "--degree", "poisson:5:30", "--n", "1000,2000", "--reps", "4",
            "--r", "1", "--beta", "0.5", "--i0", "0.01", "--t-max", "200",
            "--grid", "1e-5"]
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out", "c.csv", "--dry-run"], capsys) == (
        0, "config ok (dry run)\n", "")
    args = _with(_with(args, "--n", "200,400"), "--reps", "2")
    code, out, err = run(args + ["--out", "c.csv"], capsys)
    assert (code, err) == (0, "")
    assert out == "wrote c.csv and c.csv.manifest.json (horizon 0.00134544)\n"
    assert len((tmp_path / "c.csv").read_text().splitlines()) == 1 + 2 * 6


@pytest.mark.parametrize("args", [
    _with(VOLZ, "--t-max", "1e7") + ["--eps-is", "0"],
    _with(MILLER, "--t-max", "1e7"),
], ids=["volz", "miller"])
def test_solve_too_many_steps_to_store_exits_2(tmp_path, capsys, monkeypatch, args):
    # refused by the dry run, so no solve of 1e10 steps starts
    import sirnet.cli

    def forbidden(*_, **__):
        raise AssertionError("solved a run that should be refused")

    for name in ("solve_volz", "miller_theta"):
        monkeypatch.setattr(sirnet.cli, name, forbidden)
    out = tmp_path / "x.csv"
    code, _, err = run(args + ["--dry-run", "--out", str(out)], capsys)
    assert code == 2
    assert "t_max=1e+07 and dt=0.001 make 10000000000 steps" in err
    assert not out.exists()


MEASURES = ["solve", "measures"] + VOLZ[2:]


@pytest.mark.parametrize("args,message", [
    # the influx table alone, about 8 kmax**2 bytes: 81.39 GB
    (_with(MEASURES, "--degree", "powerlaw:2.5:1:100000"),
     "kmax=100000 makes the measures solve's influx table peak at 81.39 GB"),
    # 9999001 rows of 63 floats, their growth slack and derived columns: 6.165 GB
    (_with(MEASURES, "--t-max", "9999") + ["--eps-is", "0"],
     "t_max=9999 and dt=0.001 make 9999001 rows of 63 floats at kmax=30, "
     "which with the influx table take 6.165 GB"),
], ids=["influx-table", "stored-rows"])
@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
def test_solve_measures_over_memory_cap_exits_2(tmp_path, capsys, monkeypatch, args,
                                                 message, dry_run):
    # refused before anything is allocated: neither the influx table nor a
    # step is built, in the dry run or the real one
    import sirnet.limit

    def forbidden(*_, **__):
        raise AssertionError("allocated a solve that should be refused")

    for name in ("influx_kernel", "rk4_integrate"):
        monkeypatch.setattr(sirnet.limit, name, forbidden)
    out = tmp_path / "x.csv"
    code, _, err = run(args + ["--dry-run"] * dry_run + ["--out", str(out)], capsys)
    assert code == 2
    assert message in err and "over the 1 GB a solve may take" in err
    assert not out.exists()


def test_solve_measures_admits_kmax_8000(tmp_path, capsys):
    # its 0.51 GB table and two rows fit the cap; the 25 bytes a table entry
    # of the full-shape build counted made it 1.6 GB
    args = _with(_with(MEASURES, "--degree", "powerlaw:2.5:1:8000"), "--t-max", "0.001")
    assert run(args + ["--dry-run", "--out", str(tmp_path / "x.csv")], capsys) == (
        0, "config ok (dry run)\n", "")


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
def test_solve_measures_table_and_rows_together_over_cap_exit_2(tmp_path, capsys,
                                                               monkeypatch, dry_run):
    # the 0.80 GB table fits alone and so do 2001 rows of 20003 floats
    # (0.32 GB), but both are held at once: the refusal names t_max and dt
    import sirnet.limit

    def forbidden(*_, **__):
        raise AssertionError("allocated a solve that should be refused")

    for name in ("influx_kernel", "rk4_integrate"):
        monkeypatch.setattr(sirnet.limit, name, forbidden)
    args = _with(_with(MEASURES, "--degree", "powerlaw:2.5:1:10000"), "--t-max", "2")
    out = tmp_path / "x.csv"
    assert run(args + ["--dry-run"] * dry_run + ["--out", str(out)], capsys) == (
        2, "", "configuration error: t_max=2 and dt=0.001 make 2001 rows of 20003 floats "
        "at kmax=10000, which with the influx table take 1.221 GB, over the 1 GB a solve "
        "may take\n")
    assert not out.exists()


COARSE_VOLZ = ["solve", "volz", "--degree", "powerlaw:2.5:1:300", "--r", "1",
               "--beta", "0.5", "--i0", "0.01", "--t-max", "60", "--eps-is", "0"]
COARSE_MILLER = ["solve", "miller", "--degree", "poisson:5:30", "--r", "1",
                 "--beta", "0.5", "--i0", "0.01", "--t-max", "60"]


@pytest.mark.parametrize("args,coarse,sound", [
    # at dt=2 every step stays finite and pI+pS+pR stays 1 to round-off,
    # but S+I+R ends near 1.085 against S0+I0 = 1; sound at dt=0.1
    (COARSE_VOLZ, "2", "0.1"),
    # miller's written I = S0+I0-S-R keeps S+I+R exact by construction, but
    # its redundant I drifts 4.9e-6 from it at dt=0.1, where the written I
    # is off the dt=1e-3 solve by 4.1e-5; sound at dt=0.05, a drift of 3.3e-7
    (COARSE_MILLER, "0.1", "0.05"),
], ids=["volz", "miller"])
def test_volz_coarse_dt_refuses_unsound_mass(tmp_path, capsys, args, coarse, sound):
    # refused at the coarse step, naming dt; sound at the finer one
    out = tmp_path / "x.csv"
    code, _, err = run(args + ["--dt", coarse, "--out", str(out)], capsys)
    assert code == 1
    assert "S+I+R drifted" in err and f"dt={coarse} is too large" in err
    assert not out.exists()
    code, _, _ = run(args + ["--dt", sound, "--out", str(out)], capsys)
    assert code == 0
    assert out.exists()


SMALL_I = ["--degree", "poisson:2:10", "--r", "1", "--beta", "5", "--i0", "0.001",
           "--t-max", "60"]


@pytest.mark.parametrize("args", [["solve", "volz"] + SMALL_I + ["--eps-is", "0"],
                                  ["solve", "miller"] + SMALL_I], ids=["volz", "miller"])
def test_solve_refuses_negative_I(tmp_path, capsys, args):
    # at dt=0.5 I falls to -2e-4 from I0 = 1e-3 while S+I+R drifts only
    # 1.2e-7, inside the mass rule: the floor on I refuses both solvers
    # alike, naming dt; sound at dt=0.1
    out = tmp_path / "x.csv"
    code, _, err = run(args + ["--dt", "0.5", "--out", str(out)], capsys)
    assert code == 1
    assert "I fell to -1.99" in err and "below the floor -1.000e-06" in err
    assert "dt=0.5 is too large" in err
    assert not out.exists()
    assert run(args + ["--dt", "0.1", "--out", str(out)], capsys)[0] == 0


@pytest.mark.parametrize("extra,field", [
    (["--i0", "0.001", "--eps-prime", "0.01", "--grid", "0.0001"], "eps_prime"),
    (["--i0", "0.01"], "grid"),  # default grid 0.05 against tau_bar 0.0013
    (["--i0", "0.001", "--eps-prime", "0.01", "--grid", "0.0001", "--dry-run"],
     "eps_prime"),
    (["--i0", "0.01", "--grid", "5", "--dry-run"], "grid"),
])
def test_converge_refuses_empty_window(tmp_path, capsys, monkeypatch, extra, field):
    import sirnet.harness

    def no_replicas(*args, **kwargs):
        raise AssertionError("simulated before refusing the window")

    monkeypatch.setattr(sirnet.harness, "run_replicas", no_replicas)
    out = tmp_path / "rep.csv"
    code, _, err = run(CONVERGE + extra + ["--out", str(out)], capsys)
    assert code == 2
    assert f"{field}=" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--reps", "0"], ["--workers", "-3"], ["--n", "1"],
                                   ["--reps", "1"]])
def test_converge_dry_run_validates_batch(tmp_path, capsys, extra):
    code, _, err = run(_with(CONVERGE, *extra)
                       + ["--i0", "0.01", "--grid", "0.0001", "--dry-run",
                          "--out", str(tmp_path / "rep.csv")], capsys)
    assert code == 2
    assert extra[0][2:] in err


POPULATION_BOUND = (f"population size n={10**9} must be below {10**9}, "
                    "the most the initial-infective draw takes exactly")


@pytest.mark.parametrize("args,message", [
    (CONVERGE + ["--n", "1", "--i0", "0.01", "--grid", "0.0001"],
     "i0=0.01 on n=1 nodes leaves no susceptibles"),
    (_with(CONVERGE, "--seed", "-3") + ["--i0", "0.01", "--grid", "0.0001"],
     "seed must be nonnegative, got -3"),
    (_with(SIM, "--seed", "-3"), "seed must be nonnegative, got -3"),
    # each n once: a repeated size ran the same seeds twice as more replicas
    (CONVERGE + ["--n", "200,200", "--i0", "0.01", "--grid", "0.0001"],
     "population sizes must be distinct, got n=200,200"),
    # the initial-infective draw is exact below 10**9 individuals
    (_with(SIM, "--n", str(10**9)), POPULATION_BOUND),
    (CONVERGE + ["--n", f"200,{10**9}", "--i0", "0.01", "--grid", "0.0001"],
     POPULATION_BOUND),
    # a run's setup holds O(kmax) levels: refused above 10**6, before any is built
    (_with(SIM, "--degree", f"poisson:5:{10**6 + 1}"), "kmax " + DEGREE_BOUND),
    (_with(SIM, "--degree", f"geometric:0.5:{10**6 + 1}"), "kmax " + DEGREE_BOUND),
    (_with(CONVERGE, "--degree", f"powerlaw:2.5:1:{10**6 + 1}")
     + ["--i0", "0.01", "--grid", "0.0001"], "kmax " + DEGREE_BOUND),
    # one replica per size has no standard error to report
    (_with(CONVERGE, "--reps", "1") + ["--i0", "0.01", "--grid", "0.0001"],
     "reps=1: a standard error needs at least 2 replicas per population size"),
    # no rate, no horizon: the refusal names both rates
    (_with(_with(CONVERGE, "--r", "0"), "--beta", "0") + ["--i0", "0.01", "--grid", "0.0001"],
     "r=0 and beta=0: at least one rate must be positive"),
], ids=["converge-n-1", "converge-negative-seed", "simulate-negative-seed",
        "converge-repeated-n", "simulate-n-too-large", "converge-n-too-large",
        "simulate-poisson-kmax-too-large", "simulate-geometric-kmax-too-large",
        "converge-powerlaw-kmax-too-large",
        "converge-reps-1", "converge-zero-rates"])
def test_dry_run_refuses_as_real_run(tmp_path, capsys, monkeypatch, args, message):
    import sirnet.harness

    def forbidden(*_, **__):
        raise AssertionError("solved before refusing")

    monkeypatch.setattr(sirnet.harness, "solve_volz", forbidden)
    out = tmp_path / "x.csv"
    errs = []
    for dry in ([], ["--dry-run"]):
        code, _, err = run(args + dry + ["--out", str(out)], capsys)
        assert code == 2
        errs.append(err)
    assert errs[0] == errs[1] == f"configuration error: {message}\n"
    assert not out.exists()


def test_converge_dry_run_neither_solves_nor_simulates(tmp_path, capsys, monkeypatch):
    import sirnet.harness

    def forbidden(*args, **kwargs):
        raise AssertionError("a dry run solved or simulated")

    monkeypatch.setattr(sirnet.harness, "solve_volz", forbidden)
    monkeypatch.setattr(sirnet.harness, "run_replicas", forbidden)
    out = tmp_path / "rep.csv"
    code, stdout, _ = run(CONVERGE + ["--i0", "0.01", "--grid", "0.0001",
                                      "--dry-run", "--out", str(out)], capsys)
    assert code == 0
    assert "dry run" in stdout
    assert not out.exists()


LEAN_CHECK = """
import contextlib, io, json, sys
import sirnet, sirnet.cli
scipy = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not scipy, f"{len(scipy)} scipy modules, such as {sorted(scipy)[:3]}"
def pool_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "multiprocessing"
                  or m == "concurrent.futures" or m.startswith("concurrent.futures."))
assert not pool_modules(), pool_modules()
missing = [n for n in sirnet.__all__ if not hasattr(sirnet, n)]
assert not missing, missing
loaded = set(sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert sirnet.cli.main(argv) == 0, argv
    late = sorted(m for m in set(sys.modules) - loaded if m.startswith("numpy."))
    assert not late, (argv[:2], late)
    assert not pool_modules(), (argv[:2], pool_modules())
"""


def test_cli_import_is_lean(tmp_path):
    # a fresh interpreter: importing the CLI loads no scipy module and no
    # process pool module (multiprocessing, concurrent.futures), every
    # exported name resolves, and no command imports a numpy submodule of
    # its own (numpy 2 loads numpy.random and numpy.polynomial lazily)
    out = str(tmp_path / "x.csv")
    converge = _with(CONVERGE, "--t-max", "0.002") + ["--i0", "0.01", "--grid", "1e-4"]
    commands = [base + ["--out", out] for base in (
        SIM, VOLZ, _with(["solve", "measures"] + VOLZ[2:], "--t-max", "0.1"), MILLER,
        _with(converge, "--workers", "1"), _with(converge, "--workers", "2"))]
    src = str(Path(sirnet.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", LEAN_CHECK, json.dumps(commands)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
