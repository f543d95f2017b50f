"""Command-line front end.

Subcommands:

* ``r0``        the epidemic's reproduction number and criticality verdict;
* ``simulate``  one stochastic epidemic on sampled degree counts;
* ``solve``     deterministic limit via ``volz``, ``measures``, or ``miller``;
* ``converge``  Monte-Carlo comparison of scaled simulations to the limit.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration.  Output
files are written atomically (temp file then rename) and every run also
writes a ``<out>.meta.json`` embedding the resolved configuration, so a
result file is always traceable to the exact inputs that produced it.
Relative output paths resolve against ``$SIRNET_OUTDIR`` when set, and
two outputs of one run that name one file are refused (exit 2).  What a
command refuses before its work starts is its plan's to say:
``plan_simulate``, ``plan_solve`` or ``plan_study``, which ``--dry-run``
calls alone and the real run calls first, so this module checks nothing
of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import sirnet
from sirnet.degrees import DegreeSpec
from sirnet.errors import ConfigurationError
from sirnet.harness import manifest_json, plan_study, run_convergence_study
from sirnet.limit import (
    SolverConfig,
    limit_initial,
    limit_initial_from_pI0,
    miller_theta,
    plan_solve,
    reproduction_number,
    solve_measures,
    solve_volz,
)
from sirnet.simulation import SimParams, plan_simulate, simulate

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _output_paths(out, **options):
    """The files a command writes, each resolved once and keyed by name:
    ``out``, its ``meta`` (``<out>.meta.json``) and each of the ``options``
    given a path.  A relative path resolves against ``$SIRNET_OUTDIR`` when
    set, here and nowhere else.  Two that name one file are refused, naming
    both options."""
    base = os.environ.get("SIRNET_OUTDIR")
    paths, seen = {}, {}
    for name, path in {"out": out, "meta": out + ".meta.json", **options}.items():
        if not path:
            continue
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        key = os.path.realpath(path)
        option = "the .meta.json of --out" if name == "meta" else "--" + name
        if key in seen:
            raise ConfigurationError(
                f"{option} and {seen[key]} both name {path}; each output needs its own file")
        seen[key] = option
        paths[name] = path
    return paths


def _atomic_write(path, lines):
    """Write ``lines`` to ``path`` by a temp file and a rename."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_metadata(path, config):
    """Write ``config`` with the package version and the RNG to the
    ``.meta.json`` at ``path``."""
    meta = dict(config)
    meta["package_version"] = sirnet.__version__
    meta["rng"] = "PCG64"
    _atomic_write(path, [json.dumps(meta, indent=2, sort_keys=True)])


def _level_map(levels):
    """Nonzero entries of a level vector as a ``{level: weight}`` map in
    level order, the JSON form of a measure snapshot."""
    return {str(k): weight for k, weight in enumerate(levels) if weight}


def _snapshot_lines(snapshots):
    """One JSON line per ``(t, {name: level vector})`` snapshot, holding
    ``t`` and the ``mu_S``, ``mu_IS`` and ``mu_RS`` level maps: the bytes of
    ``json.dumps({"t": t, "mu_S": ..., "mu_IS": ..., "mu_RS": ...})``.
    Consecutive rows that share one snapshot object format its maps once."""
    last = None
    for t, snap in snapshots:
        if snap is not last:
            last = snap
            maps = json.dumps({name: _level_map(snap[name])
                               for name in ("mu_S", "mu_IS", "mu_RS")})[1:]
        yield '{"t": ' + json.dumps(t) + ", " + maps


def _int_list(text):
    try:
        values = [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _add_degree(sp):
    sp.add_argument("--degree", required=True,
                    help="degree law, e.g. poisson:5:30, geometric:0.5:50, "
                         "powerlaw:2.5:1:100, file:weights.json")


def _add_r0(sub):
    sp = sub.add_parser("r0", help="reproduction number of an epidemic")
    _add_degree(sp)
    sp.add_argument("--r", type=float, required=True, help="infection rate per I-S edge")
    sp.add_argument("--beta", type=float, required=True, help="removal rate per node")


def _add_simulate(sub):
    sp = sub.add_parser("simulate", help="run one stochastic epidemic")
    _add_degree(sp)
    sp.add_argument("--n", type=int, required=True, help="population size")
    sp.add_argument("--r", type=float, required=True, help="infection rate per I-S edge")
    sp.add_argument("--beta", type=float, required=True, help="removal rate per node")
    sp.add_argument("--i0", type=float, required=True, help="initial infected fraction")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--t-max", type=float, required=True)
    sp.add_argument("--grid", type=float, default=0.05, help="recording grid step")
    sp.add_argument("--out", required=True, help="trajectory CSV path")
    sp.add_argument("--snapshots", help="optional measure snapshots JSON-lines path")
    sp.add_argument("--dry-run", action="store_true", help="validate config and exit")


def _add_solve(sub):
    common = argparse.ArgumentParser(add_help=False)  # what every solver takes
    _add_degree(common)
    common.add_argument("--r", type=float, required=True)
    common.add_argument("--beta", type=float, required=True)
    group = common.add_mutually_exclusive_group(required=True)
    group.add_argument("--i0", type=float, help="initial infected node fraction")
    group.add_argument("--pI0", type=float, help="initial infectious edge fraction")
    common.add_argument("--t-max", type=float, required=True)
    common.add_argument("--dt", type=float, default=SolverConfig.dt,
                        help="RK4 step; must divide --t-max")
    common.add_argument("--out", required=True)
    common.add_argument("--dry-run", action="store_true")
    sp = sub.add_parser("solve", help="solve the deterministic limit")
    solvers = sp.add_subparsers(dest="which", required=True)
    volz = solvers.add_parser("volz", parents=[common], help="edge-based ODEs")
    measures = solvers.add_parser("measures", parents=[common], help="measure-valued system")
    measures.add_argument("--snapshots", help="snapshots JSON-lines path")
    solvers.add_parser("miller", parents=[common], help="one-equation reduction for theta")
    for sp in (volz, measures):  # miller reads no N_IS to stop on
        sp.add_argument("--eps-is", type=float, default=1e-6,
                        help="stop once per-capita N_IS falls below this (0: never)")


def _add_converge(sub):
    sp = sub.add_parser("converge", help="compare scaled simulations to the limit")
    _add_degree(sp)
    sp.add_argument("--n", type=_int_list, required=True,
                    help="comma-separated population sizes, e.g. 1000,10000")
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--i0", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--t-max", type=float, required=True)
    sp.add_argument("--grid", type=float, default=0.05)
    sp.add_argument("--eps-prime", type=float, default=0.01,
                    help="edge-density level defining the comparison horizon")
    sp.add_argument("--workers", type=int, default=1,
                    help="processes sharing the replicas, this one included")
    sp.add_argument("--out", required=True, help="report CSV path")
    sp.add_argument("--manifest", help="run manifest JSON path (default <out>.manifest.json)")
    sp.add_argument("--dry-run", action="store_true")


_SUBPARSERS = {
    "r0": _add_r0,
    "simulate": _add_simulate,
    "solve": _add_solve,
    "converge": _add_converge,
}


def build_parser(command=None):
    """The ``sirnet`` parser.  Given a known ``command``, only that
    subcommand's parser is built, and the command list keeps its usage
    form ``{r0,simulate,solve,converge}``; anything else (``None``,
    ``--help``, a typo) builds them all, for the full help and the
    "invalid choice" error."""
    p = argparse.ArgumentParser(
        prog="sirnet",
        description="SIR epidemics on configuration-model networks: "
                    "simulation, deterministic limits, convergence checks.",
    )
    if command in _SUBPARSERS:
        sub = p.add_subparsers(dest="command", required=True,
                               metavar="{" + ",".join(_SUBPARSERS) + "}")
        _SUBPARSERS[command](sub)
    else:
        sub = p.add_subparsers(dest="command", required=True)
        for add in _SUBPARSERS.values():
            add(sub)
    return p


# -- subcommand bodies --------------------------------------------------------


def cmd_r0(args):
    spec = DegreeSpec.from_string(args.degree)
    value = reproduction_number(spec, args.r, args.beta)
    verdict = "supercritical" if value > 1 else "critical" if value == 1 else "subcritical"
    print(f"r0 = {value:.6g} ({verdict})")
    return EXIT_OK


def cmd_simulate(args):
    paths = _output_paths(args.out, snapshots=args.snapshots)
    spec = DegreeSpec.from_string(args.degree)
    params = SimParams(r=args.r, beta=args.beta, t_max=args.t_max,
                       record_grid=args.grid,
                       snapshot_measures=bool(args.snapshots))
    state, rng = plan_simulate(spec, args.n, args.i0, params, args.seed)
    if args.dry_run:
        print("config ok (dry run)")
        return EXIT_OK
    config = {
        "command": "simulate", "degree": spec.describe(), "n": args.n,
        "r": args.r, "beta": args.beta, "i0": args.i0,
        "seed": args.seed,
        "t_max": args.t_max, "grid": args.grid,
    }
    traj = simulate(state, params, rng=rng)
    _atomic_write(paths["out"], traj.to_csv_lines())
    _write_metadata(paths["meta"], {**config, "terminal": traj.terminal,
                                    "n_infections": traj.n_infections,
                                    "n_removals": traj.n_removals})
    if "snapshots" in paths:
        _atomic_write(paths["snapshots"], _snapshot_lines(traj.snapshots))
    print(f"wrote {paths['out']} ({traj.n_rows} rows, terminal={traj.terminal})")
    return EXIT_OK


def cmd_solve(args):
    paths = _output_paths(args.out, snapshots=getattr(args, "snapshots", None))
    spec = DegreeSpec.from_string(args.degree)
    if args.i0 is not None:
        init = limit_initial(spec, args.i0)
    else:
        init = limit_initial_from_pI0(spec, args.pI0)
    stop = {"eps_IS": args.eps_is} if "eps_is" in args else {}
    config = SolverConfig(r=args.r, beta=args.beta, t_max=args.t_max,
                          dt=args.dt, **stop)
    if args.dry_run:
        plan_solve(args.which, init, config)
        print("config ok (dry run)")
        return EXIT_OK
    # looked up per call, so a wrapper set on a module-level name sees the call
    solver = {"volz": solve_volz, "measures": solve_measures, "miller": miller_theta}
    sol = solver[args.which](init, config)
    _atomic_write(paths["out"], sol.to_csv_lines())
    _write_metadata(paths["meta"], {
        "command": f"solve {args.which}", "degree": spec.describe(),
        "r": args.r, "beta": args.beta,
        "i0": args.i0, "pI0": init.pI0,
        "t_max": args.t_max, "dt": args.dt, **stop,
        "terminal": sol.terminal, **sol.diagnostics,
    })
    if "snapshots" in paths:
        _atomic_write(paths["snapshots"], _snapshot_lines(sol.snapshots))
    print(f"wrote {paths['out']} ({args.which})")
    return EXIT_OK


def cmd_converge(args):
    paths = _output_paths(args.out, manifest=args.manifest or args.out + ".manifest.json")
    spec = DegreeSpec.from_string(args.degree)
    if args.dry_run:
        plan_study(spec, args.r, args.beta, args.i0, args.n, args.reps,
                   args.seed, args.t_max, args.grid, eps_prime=args.eps_prime,
                   workers=args.workers)
        print("config ok (dry run)")
        return EXIT_OK
    report = run_convergence_study(
        spec, args.r, args.beta, args.i0, args.n, args.reps, args.seed,
        args.t_max, args.grid, eps_prime=args.eps_prime,
        workers=args.workers,
    )
    _atomic_write(paths["out"], report.to_csv_lines())
    _atomic_write(paths["manifest"], [manifest_json(report)])
    _write_metadata(paths["meta"], {
        "command": "converge", "degree": spec.describe(),
        "n": args.n, "reps": args.reps, "r": args.r, "beta": args.beta,
        "i0": args.i0, "seed": args.seed,
        "t_max": args.t_max, "grid": args.grid, "eps_prime": args.eps_prime,
        "tau_bar": report.tau_bar,
    })
    print(f"wrote {paths['out']} and {paths['manifest']} (horizon {report.t_end:.6g})")
    return EXIT_OK


_COMMANDS = {
    "r0": cmd_r0,
    "simulate": cmd_simulate,
    "solve": cmd_solve,
    "converge": cmd_converge,
}


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; preserve 0 for --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
