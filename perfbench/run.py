"""Benchmark of the sirnet command line: simulate, solve and converge.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload thin-tail --seed 1 --seconds 30 --trace 0

Each workload (see ``workloads.py``) is a list of CLI commands, each run by
calling ``sirnet.cli.main`` in a child forked from this process once
``sirnet`` is imported.  Every command thus starts from the state a fresh
``sirnet`` process has after its imports, as it does for a user, and leaves
nothing behind for the next one; run back to back in one process, repeats of
a command run up to a third faster than its first run.

A run times set-up in fresh interpreters, runs one untimed warm-up pass
over the commands, then repeats timed passes for ``--seconds`` seconds (at
least two, so the byte-identity check of ``simulate`` always applies).  A
pass runs each command once, and the commands are sized so that a pass takes
a few seconds: every command then runs ten times or more, spread over the
whole run.  Each timing is scaled to a reference host speed
(``hostspeed.py``), because the host this was built on runs each vCPU in
fast and slow phases about 1.4 times apart that can outlast a run.  Each
metric is taken over the whole run (events per second over all of its
``simulate`` runs, or mean seconds per command) and set-up as the median of
its fresh interpreters.  Every command's output is checked (``checks.py``);
a command fails if it exits nonzero or fails its check.

With ``--trace 1`` the run alternates untraced and traced passes and reports
the per-layer metrics of ``tracing.py`` from the traced ones, plus the
tracing overhead against the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of the run
(every sample, check and span summary) go to ``perfbench/out/``.
``--tiny`` shrinks every command for a quick self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pickle
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 120

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
import hostspeed
before = hostspeed.reference()
import contextlib, io, json
from sirnet.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv + ["--dry-run"]) for argv in json.loads(sys.argv[3])]
after = hostspeed.reference()
print(json.dumps([before, after]))
sys.exit(max(codes))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every command (self-test)")
    return p.parse_args(argv)


def forked(fn, *args, timeout=CHILD_TIMEOUT_S):
    """Return ``fn(*args)`` computed in a child forked from this process.

    The benchmark starts no threads of its own; numpy's BLAS pool, the only
    other threads, is fork-safe, as sirnet's own forked replica pool relies on.
    A child that runs past ``timeout`` seconds is killed.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            result = pickle.dumps(fn(*args))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(result)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    with os.fdopen(read_fd, "rb", buffering=0) as fh:
        while True:
            if not select.select([fh], [], [], max(deadline - time.monotonic(), 0.0))[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise RuntimeError(f"child for {fn.__name__} killed after {timeout} s")
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"child for {fn.__name__} ended with status {status}")
    return pickle.loads(data)


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _events(csv_path):
    """Infections plus removals: the drop in S plus the rise in R."""
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    first, last = lines[1].split(","), lines[-1].split(",")
    return (int(first[1]) - int(last[1])) + (int(last[3]) - int(first[3]))


def execute(cmd, argv, outputs, tracer, spans_path):
    """Child side of one command: run it, time it, check what it wrote."""
    from sirnet.cli import main

    err = io.StringIO()
    before = hostspeed.reference()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
    refs = [before, hostspeed.reference()]
    out = {"code": code, "elapsed": elapsed, "refs": refs, "problems": [], "work": 1}
    if code != 0:
        out["problems"].append(f"exit {code}: {err.getvalue().strip()[-500:]}")
        return out
    if tracer is not None:
        out["trace"] = tracing.payload(tracer)
        tracing.save_spans(tracer, spans_path)
    try:
        if cmd.kind == "simulate":
            out["problems"] += checks.check_simulate(outputs, int(cmd.size["--n"]))
            out["digest"] = _digest([outputs["out"]] + ([outputs["snapshots"]]
                                                        if "snapshots" in outputs else []))
            out["work"] = _events(outputs["out"])
        elif cmd.kind == "converge":
            out["problems"] += checks.check_converge(outputs, cmd.size["--n"].split(","))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out["problems"].append(f"unreadable output: {exc}")
    return out


def check_solvers(workload, volz_outputs, measures_outputs):
    try:
        return checks.check_solve(volz_outputs, measures_outputs, workload.degree,
                                  workloads.R, workloads.BETA, workloads.I0)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]


class Runner:
    """Runs passes over a workload's commands and keeps samples and failures."""

    def __init__(self, workload, seed, label):
        self.workload = workload
        self.seed = seed
        self.label = label
        self.workdir = OUT / f"work-{label}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = defaultdict(list)  # end-to-end metric -> one value per pass
        self.work = defaultdict(float)  # end-to-end metric -> events or commands, whole run
        self.spent = defaultdict(float)  # end-to-end metric -> scaled seconds, whole run
        self.pool_spent = defaultdict(float)  # the same for pool commands, unscaled
        self.refs = []  # mean reference seconds of every timed command
        self.durations = defaultdict(list)  # end-to-end metric -> command seconds
        self.scales = defaultdict(list)  # end-to-end metric -> host speed scale per command
        self.digests = {}  # simulate command index -> output digest

    def run_pass(self, tiny, timed, tracer=None):
        """Run every command once (``repeat`` times for short ones).  If
        ``timed``, add one sample per metric; with an installed ``tracer``,
        merge the commands' trace payloads.  Returns the commands' wall
        seconds, the same scaled to the reference host speed, and the
        merged payload."""
        wall = scaled = 0.0
        work, spent, pool_spent = defaultdict(float), defaultdict(float), defaultdict(float)
        refs = []
        merged = tracing.empty_payload()
        outcome = []  # [label, problems] per execution
        solved = {}
        for i, cmd in enumerate(self.workload.commands(tiny)):
            argv, outputs = workloads.argv(self.workload, cmd, self.seed,
                                           str(self.workdir / f"{i}-{cmd.kind}"))
            for rep in range(cmd.repeat):
                self.attempted += 1
                spans_path = OUT / f"{self.label}-spans-{i}-{rep}.npz"
                try:
                    res = forked(execute, cmd, argv, outputs, tracer, spans_path)
                except (RuntimeError, pickle.UnpicklingError, EOFError) as exc:
                    res = {"code": None, "problems": [str(exc)]}
                problems = res["problems"]
                if "digest" in res and self.digests.setdefault(i, res["digest"]) != res["digest"]:
                    problems.append("output differs between repeats of one seed")
                if res["code"] == 0:
                    scale = hostspeed.scale(*res["refs"])
                    wall += res["elapsed"]
                    scaled += res["elapsed"] * scale
                    if "trace" in res:
                        tracing.merge(merged, res["trace"])
                if not problems:
                    self.durations[cmd.metric].append(res["elapsed"])
                    self.scales[cmd.metric].append(scale)
                    refs.append(0.5 * sum(res["refs"]))
                    work[cmd.metric] += res["work"]
                    if cmd.pool:
                        pool_spent[cmd.metric] += res["elapsed"]
                    else:
                        spent[cmd.metric] += res["elapsed"] * scale
                outcome.append([f"{cmd.kind} #{i}", problems])
                if cmd.kind in ("volz", "measures"):
                    solved[cmd.kind] = (outputs, outcome[-1])
        if len(solved) == 2 and not solved["volz"][1][1] and not solved["measures"][1][1]:
            try:
                pair = forked(check_solvers, self.workload, solved["volz"][0], solved["measures"][0])
            except (RuntimeError, pickle.UnpicklingError, EOFError) as exc:
                pair = [str(exc)]
            for _, row in solved.values():
                row[1] += pair
        for label, problems in outcome:
            if problems:
                self.failed += 1
                self.problems.append(f"{label}: {'; '.join(problems)}")
        if timed and refs:
            pool_scale = hostspeed.REFERENCE_S / statistics.mean(refs)
            for metric in work:
                seconds = spent[metric] + pool_spent[metric] * pool_scale
                self.samples[metric].append(_value(metric, work[metric], seconds))
                self.work[metric] += work[metric]
                self.spent[metric] += spent[metric]
                self.pool_spent[metric] += pool_spent[metric]
            self.refs += refs
        return wall, scaled, merged

    def value(self, metric):
        """The metric over every timed pass of the run.  Pool commands are
        scaled by the mean reference time of all the run's commands."""
        if not self.work[metric]:
            return 0.0
        pool_scale = hostspeed.REFERENCE_S / statistics.mean(self.refs)
        seconds = self.spent[metric] + self.pool_spent[metric] * pool_scale
        return _value(metric, self.work[metric], seconds)


def _value(metric, work, seconds):
    """Events per second for ``simulate``, else mean seconds per command."""
    return work / seconds if metric == workloads.METRIC_OF["simulate"] else seconds / work


def measure_setup(workload, seed, workdir, runs):
    """Median wall time of a fresh interpreter importing sirnet and
    dry-run-validating the workload's commands, less the interpreter's two
    reference times and scaled by them; returns (median, failures)."""
    cmds = [workloads.argv(workload, cmd, seed, str(workdir / f"setup-{i}"))[0]
            for i, cmd in enumerate(workload.commands())]
    times, failures = [], []
    for _ in range(runs):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                                   json.dumps(cmds)],
                                  capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"setup killed after {SETUP_TIMEOUT_S} s")
            continue
        elapsed = time.perf_counter() - t0
        if proc.returncode == 0:
            before, after = json.loads(proc.stdout.splitlines()[-1])
            times.append((elapsed - before - after) * hostspeed.scale(before, after))
        else:
            failures.append(f"setup exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return (statistics.median(times) if times else 0.0), failures


def peak_rss_mb():
    """Largest resident set of this process and of every process it waited
    for: the command children and, through them, the replica pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _quartiles(values):
    if len(values) < 2:
        return list(values) * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_untraced(runner, args, setup_runs):
    setup_s, failures = measure_setup(runner.workload, runner.seed, runner.workdir, setup_runs)
    runner.attempted += setup_runs
    runner.failed += len(failures)
    runner.problems += failures
    runner.run_pass(tiny=args.tiny, timed=False)  # warm-up: checked, not timed
    walls = []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start + walls[-1] <= args.seconds:
        walls.append(runner.run_pass(tiny=args.tiny, timed=True)[0])

    metrics = {
        "setup_s": (setup_s, "s"),
        "simulate_events_per_s": (runner.value("simulate_events_per_s"), "1/s"),
        "solve_volz_s": (runner.value("solve_volz_s"), "s"),
        "solve_measures_s": (runner.value("solve_measures_s"), "s"),
        "converge_s": (runner.value("converge_s"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "pass_walls_s": walls,
        "samples": {k: {"values": v, "quartiles": _quartiles(v), "command_s": runner.durations[k],
                        "host_scale": runner.scales[k]}
                    for k, v in runner.samples.items()},
    }
    return metrics, detail


def run_traced(runner, args):
    tracer = tracing.Tracer()
    plain, traced, per_pass, replicas = [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(tiny=args.tiny, timed=False)[1])
        tracer.install(tracing.TARGETS)
        try:
            _, wall, merged = runner.run_pass(tiny=args.tiny, timed=False, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        per_pass.append(tracing.pass_metrics(merged))
        replicas += merged["replicas"]
        if time.perf_counter() - start + plain[-1] + traced[-1] > args.seconds:
            break
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in tracing.PASS_METRICS}
    replica_values, replica_detail = tracing.replica_metrics(replicas)
    metrics.update(replica_values)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    units = {name: spec[0] for name, spec in {**tracing.PASS_METRICS, **tracing.RUN_METRICS}.items()}
    absent = tracing.absent_metrics(tracer)
    for name in absent:
        print(f"trace: {name} is absent (its target no longer exists)")
    detail = {
        "untraced_pass_scaled_s": plain,
        "traced_pass_scaled_s": traced,
        "per_pass": per_pass,
        "replicas": replica_detail,
        "terminal_reasons": dict(Counter(rep[2] for rep in replicas)),
        "absent_targets": tracer.absent,
        "absent_metrics": absent,
        "spans_last_pass": merged["spans"],
    }
    return {name: (value, units[name]) for name, value in metrics.items()}, detail


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sirnet" / "__init__.py").is_file():
        print(f"perfbench: no sirnet sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sirnet.cli

    if Path(sirnet.cli.__file__).resolve().parent != SRC / "sirnet":
        print(f"perfbench: imported sirnet from {sirnet.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    runner = Runner(workload, args.seed, label)
    shutil.rmtree(runner.workdir, ignore_errors=True)
    runner.workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, detail = run_traced(runner, args)
        else:
            metrics, detail = run_untraced(runner, args, 1 if args.tiny else SETUP_RUNS)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    correct = runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{label}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "tiny": args.tiny, "environment": environment(), "result": result,
                   "problems": runner.problems, **detail}, fh, indent=1)
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
