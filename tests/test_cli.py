import json

import pytest

from sirnet.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_r0_poisson(capsys):
    code, out, _ = run(["r0", "--degree", "poisson:5:200"], capsys)
    assert code == 0
    assert "r0 = 5" in out
    assert "supercritical" in out


def test_r0_subcritical(capsys):
    code, out, _ = run(["r0", "--degree", "explicit"], capsys)
    assert code == 2  # unknown spec kind -> validation failure


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


def test_simulate_reproducible_bytes(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run(["simulate", "--degree", "poisson:5:30", "--n", "300",
                          "--r", "1", "--beta", "0.5", "--i0", "0.02",
                          "--seed", "7", "--t-max", "2", "--out", str(path)],
                         capsys)
        assert code == 0
        outs.append(path.read_bytes())
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


def test_solve_miller_caveat(tmp_path, capsys):
    path = tmp_path / "mil.csv"
    code, out, _ = run(["solve", "miller", "--degree", "poisson:5:30",
                        "--r", "1", "--beta", "0.5", "--i0", "0.05",
                        "--t-max", "0.5", "--out", str(path)], capsys)
    assert code == 0
    assert "caveat:" in out
    # passing the exact pS0 silences the caveat
    code, out, _ = run(["solve", "miller", "--degree", "poisson:5:30",
                        "--r", "1", "--beta", "0.5", "--i0", "0.05",
                        "--t-max", "0.5", "--pS0", str(1 - 0.05 / 0.95),
                        "--out", str(path)], capsys)
    assert code == 0
    assert "caveat:" not in out


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
    monkeypatch.setenv("SIRNET_OUTDIR", str(tmp_path))
    code, _, _ = run(["solve", "volz", "--degree", "poisson:5:20",
                      "--r", "1", "--beta", "0.5", "--pI0", "0.05",
                      "--t-max", "0.1", "--out", "rel.csv"], capsys)
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


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
    (["solve", "miller"] + VOLZ[2:], "--r", "nan", "r"),
])
def test_non_finite_inputs_exit_2(tmp_path, capsys, base, option, value, field):
    out = tmp_path / "x.csv"
    code, _, err = run(_with(base, option, value) + ["--out", str(out)], capsys)
    assert code == 2
    assert f"{field} must be finite" in err
    assert not out.exists()


CONVERGE = ["converge", "--degree", "poisson:5:30", "--n", "200", "--reps", "2",
            "--r", "1", "--beta", "0.5", "--seed", "1", "--t-max", "1"]


@pytest.mark.parametrize("extra,field", [
    (["--i0", "0.001", "--eps-prime", "0.01", "--grid", "0.0001"], "eps_prime"),
    (["--i0", "0.01"], "grid"),  # default grid 0.05 against tau_bar 0.0013
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
