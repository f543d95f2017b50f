"""The benchmark's workloads: the sirnet CLI commands each one runs.

Every workload runs all four command kinds, so each run reports every
end-to-end metric; what sets the workloads apart is which command and which
layer dominates.  Sizes come in two scales: ``full`` for measuring and
``tiny`` for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

R, BETA, I0 = 1.0, 0.5, 0.01

METRIC_OF = {
    "simulate": "simulate_events_per_s",
    "volz": "solve_volz_s",
    "measures": "solve_measures_s",
    "converge": "converge_s",
}


@dataclass(frozen=True)
class Command:
    kind: str  # simulate | volz | measures | converge
    size: dict  # CLI options that set the amount of work
    repeat: int = 1  # timed executions per pass, for short commands

    @property
    def metric(self):
        return METRIC_OF[self.kind]

    @property
    def pool(self):
        """Whether the command runs a pool of several worker processes."""
        return int(self.size.get("--workers", 1)) > 1


@dataclass(frozen=True)
class Workload:
    name: str
    degree: str
    full: tuple
    tiny: tuple = field(default=())

    def commands(self, tiny=False):
        return self.tiny if tiny else self.full


def _simulate(n, t_max, grid=None, snapshots=False, repeat=1):
    size = {"--n": str(n), "--t-max": str(t_max)}
    if grid is not None:
        size["--grid"] = str(grid)
    if snapshots:
        size["--snapshots"] = True
    return Command("simulate", size, repeat)


def _solve(which, t_max, dt=None):
    size = {"--t-max": str(t_max)}
    if dt is not None:
        size["--dt"] = str(dt)
    return Command(which, size)


def _converge(ns, reps, t_max, grid, workers=2):
    return Command("converge", {
        "--n": ",".join(str(n) for n in ns), "--reps": str(reps),
        "--t-max": str(t_max), "--grid": str(grid), "--workers": str(workers),
    })


_TINY_SOLVES = (_solve("volz", 0.5), _solve("measures", 0.2))
_TINY_CONVERGE = _converge((200, 400), 2, 0.002, 1e-4)

WORKLOADS = {
    w.name: w for w in (
        # ROADMAP baseline traffic, 31 degree levels: event-loop roster updates,
        # scalar RNG calls and per-RHS solver overhead at small K
        Workload(
            name="thin-tail",
            degree="poisson:5:30",
            full=(
                _simulate(15000, 10),
                _solve("volz", 3),
                _solve("measures", 2),
                _converge((1000, 10000), 10, 0.1, 1e-4, workers=1),
            ),
            tiny=(_simulate(2000, 2), *_TINY_SOLVES, _TINY_CONVERGE),
        ),
        # 301 degree levels, so per-level costs dominate: size-biased draw,
        # K x kmax influx matrix, GeneratingFn polyval, O(n) measure snapshots
        Workload(
            name="heavy-tail",
            degree="powerlaw:2.5:1:300",
            full=(
                _simulate(20000, 10, snapshots=True),
                _solve("volz", 1),
                _solve("measures", 0.06),
                _converge((1000, 10000), 5, 0.1, 1e-4, workers=1),
            ),
            tiny=(_simulate(2000, 2, snapshots=True), *_TINY_SOLVES, _TINY_CONVERGE),
        ),
        # the README convergence study: 40 short replicas on a two-worker pool,
        # each with its own setup and 5001 grid rows, of which 14 are compared
        Workload(
            name="converge-study",
            degree="poisson:5:30",
            full=(
                _converge((1000, 10000), 20, 0.5, 1e-4),
                _simulate(10000, 1, grid=1e-4, repeat=2),
                _solve("volz", 0.3, dt=1e-4),
                _solve("measures", 0.1, dt=1e-4),
            ),
            tiny=(_TINY_CONVERGE, _simulate(400, 0.05, grid=1e-4),
                  _solve("volz", 0.05, dt=1e-4), _solve("measures", 0.02, dt=1e-4)),
        ),
    )
}


def argv(workload, cmd, seed, stem):
    """CLI arguments of ``cmd``; outputs go to paths starting with ``stem``.

    Returns the argument list and the output paths by role."""
    outputs = {"out": stem + ".csv"}
    args = ["solve", cmd.kind] if cmd.kind in ("volz", "measures") else [cmd.kind]
    args += ["--degree", workload.degree, "--r", str(R), "--beta", str(BETA), "--i0", str(I0)]
    for opt, value in cmd.size.items():
        if opt == "--snapshots":
            outputs["snapshots"] = stem + ".jsonl"
            args += [opt, outputs["snapshots"]]
        else:
            args += [opt, value]
    if cmd.kind in ("simulate", "converge"):
        args += ["--seed", str(seed)]
    if cmd.kind == "converge":
        outputs["manifest"] = stem + ".csv.manifest.json"
    args += ["--out", outputs["out"]]
    outputs["meta"] = outputs["out"] + ".meta.json"
    return args, outputs
