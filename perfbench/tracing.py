"""In-memory span tracing of the sirnet layers, installed from outside the package.

The tracer replaces public functions and methods of the ``sirnet`` modules
with thin wrappers that record one span per call (name, start, end, parent
span) plus counts read from arguments and results at the same boundary.
Nothing under ``src/`` is edited: the wrappers are module attributes set at
run time and put back by :meth:`Tracer.uninstall`.

A target that no longer exists (a later refactor may delete ``Roster`` or
rename a function) is listed in :attr:`Tracer.absent` and skipped.  Every
hook that reads arguments or results swallows its own errors, so a changed
signature loses a count but never breaks the traced run.

Replicas of ``converge`` run in forked pool workers.  The wrapper around
``harness._run_one`` records the replica's spans into a private buffer and
attaches them to the returned trajectory; the wrapper around
``harness.run_replicas`` takes them off again in the parent and files them
under its own span.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_ATTACHED = "_perfbench_trace"


class SpanBuffer:
    """Spans and counts of one process, spans stored column-wise."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(float)
        self.replicas = []  # (n, seconds, terminal, grid rows) per replica

    def __len__(self):
        return len(self.name)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.buf = SpanBuffer()
        self.absent = []
        self._installed = []  # (owner, attribute, original)

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        buf = self.buf
        idx = len(buf.name)
        buf.name.append(name_id)
        buf.parent.append(buf.stack[-1])
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        buf = self.buf
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()

    def duration(self, idx):
        return self.buf.end[idx] - self.buf.start[idx]

    def export(self):
        """Picklable copy of the current buffer with span names spelled out."""
        buf = self.buf
        return {
            "names": [self.names[i] for i in buf.name],
            "parent": buf.parent.tolist(),
            "start": buf.start.tolist(),
            "end": buf.end.tolist(),
            "counts": dict(buf.counts),
            "replicas": list(buf.replicas),
        }

    def adopt(self, exported, parent_idx):
        """File spans exported by another buffer under span ``parent_idx``."""
        buf = self.buf
        offset = len(buf.name)
        for name, parent, start, end in zip(exported["names"], exported["parent"],
                                            exported["start"], exported["end"]):
            buf.name.append(self.intern(name))
            buf.parent.append(parent_idx if parent < 0 else parent + offset)
            buf.start.append(start)
            buf.end.append(end)
        for key, value in exported["counts"].items():
            buf.counts[key] += value
        buf.replicas.extend(exported["replicas"])

    def install(self, targets):
        """Wrap every ``(span, module, qualname, factory)`` target that exists.

        A module-level function is replaced in every ``sirnet`` module that
        imported it by name, so calls through any of them are traced."""
        self.absent = []
        for span, module_name, qualname, factory in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                original = None
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = factory(self, span, original)
            if path:
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] == "sirnet":
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, name, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []


def spanned(hook=None):
    """Factory of a wrapper that records one span per call, then runs ``hook``."""

    def factory(tracer, span, fn):
        name_id = tracer.intern(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                try:
                    hook(tracer.buf.counts, args, kwargs, result)
                except Exception:  # a changed signature loses a count, not the run
                    pass
            return result

        return wrapper

    return factory


def _replica(tracer, span, fn):
    """Run one replica into a private buffer and attach its spans to the result.

    Pickled by reference (``sirnet.harness._run_one``), so a forked worker runs
    this wrapper too."""
    name_id = tracer.intern(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        saved = tracer.buf
        tracer.buf = SpanBuffer()
        try:
            idx = tracer.open(name_id)
            try:
                traj = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            try:
                tracer.buf.replicas.append((int(traj.n), tracer.duration(idx),
                                            str(traj.terminal), len(traj.times)))
                setattr(traj, _ATTACHED, tracer.export())
            except Exception:  # a changed trajectory type loses the spans, not the run
                pass
        finally:
            tracer.buf = saved
        return traj

    return wrapper


def _replica_pool(tracer, span, fn):
    """Collect in the parent the spans that the replicas attached."""
    name_id = tracer.intern(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        try:
            busy = 0.0
            for traj in out:
                exported = vars(traj).pop(_ATTACHED, None)
                if exported is not None:
                    busy += sum(rep[1] for rep in exported["replicas"])
                    tracer.adopt(exported, idx)
            workers = max(int(kwargs.get("workers") or 1), 1)
            tracer.buf.counts["harness.busy_s"] += busy
            tracer.buf.counts["harness.capacity_s"] += tracer.duration(idx) * workers
        except Exception:  # a changed result type loses the replica spans, not the run
            pass
        return out

    return wrapper


def _on_simulate(counts, args, kwargs, traj):
    counts["simulation.infections"] += traj.n_infections
    counts["simulation.removals"] += traj.n_removals
    counts["simulation.grid_rows"] += len(traj.times)


def _on_sample_half_edges(counts, args, kwargs, result):
    counts["simulation.Roster.sample_half_edges.draws"] += int(args[1])


def _on_apply_edits(counts, args, kwargs, result):
    counts["measures.apply_edits.edits"] += len(args[1])


def _on_rk4(counts, args, kwargs, result):
    counts["limit.rk4_integrate.steps"] += len(result[0]) - 1


def _on_solve_measures(counts, args, kwargs, sol):
    counts["limit.solve_measures.K"] = max(counts["limit.solve_measures.K"],
                                           sol.mu_IS.shape[1] - 1)
    counts["limit.solve_measures.clamped_mass"] = max(
        counts["limit.solve_measures.clamped_mass"], float(sol.clamped_mass))


def _on_convergence_report(counts, args, kwargs, report):
    trajectories, _, _, tau_bar, t_max = args[:5]
    t_end = min(t_max, tau_bar)
    for tr in trajectories:
        counts["harness.grid_points_simulated"] += len(tr.times)
        counts["harness.grid_points_compared"] += int(np.count_nonzero(tr.times <= t_end + 1e-12))


def _on_write(counts, args, kwargs, path):
    counts["cli.bytes_written"] += os.path.getsize(path)


# (span name, module, qualname, wrapper factory); span names prefix the metrics
TARGETS = [
    ("simulation.simulate", "sirnet.simulation", "simulate", spanned(_on_simulate)),
    ("simulation.sample_jl", "sirnet.simulation", "sample_jl", spanned()),
    ("simulation.Roster.sample_half_edges", "sirnet.simulation",
     "Roster.sample_half_edges", spanned(_on_sample_half_edges)),
    ("simulation.apply_infection", "sirnet.simulation", "apply_infection", spanned()),
    ("simulation.apply_removal", "sirnet.simulation", "apply_removal", spanned()),
    ("simulation.measure_snapshot", "sirnet.simulation",
     "PopulationState.measure_snapshot", spanned()),
    ("simulation.initialize_state", "sirnet.simulation", "initialize_state", spanned()),
    ("measures.sample_size_biased", "sirnet.measures",
     "CountMeasure.sample_size_biased", spanned()),
    ("measures.apply_edits", "sirnet.measures", "CountMeasure.apply_edits",
     spanned(_on_apply_edits)),
    ("degrees.sample", "sirnet.degrees", "DegreeSpec.sample", spanned()),
    ("limit.rk4_integrate", "sirnet.limit", "rk4_integrate", spanned(_on_rk4)),
    ("limit.volz_rhs", "sirnet.limit", "volz_rhs", spanned()),
    ("limit.GeneratingFn", "sirnet.limit", "GeneratingFn.__call__", spanned()),
    ("limit.GeneratingFn.__init__", "sirnet.limit", "GeneratingFn.__init__", spanned()),
    ("limit.measure_rhs", "sirnet.limit", "measure_rhs", spanned()),
    ("limit.influx_vector", "sirnet.limit", "influx_vector", spanned()),
    ("limit.solve_measures", "sirnet.limit", "solve_measures", spanned(_on_solve_measures)),
    ("harness._run_one", "sirnet.harness", "_run_one", _replica),
    ("harness.run_replicas", "sirnet.harness", "run_replicas", _replica_pool),
    ("harness.sup_distance", "sirnet.harness", "sup_distance", spanned()),
    ("harness.convergence_report", "sirnet.harness", "convergence_report",
     spanned(_on_convergence_report)),
    ("cli.write", "sirnet.cli", "_atomic_write", spanned(_on_write)),
]


def summarize(tracer):
    """Per span name of the current buffer: calls, total seconds and self
    seconds (duration minus the durations of direct children)."""
    buf = tracer.buf
    if len(buf) == 0:
        return {}
    name = np.frombuffer(buf.name, dtype=np.int32)
    parent = np.frombuffer(buf.parent, dtype=np.int32)
    dur = np.frombuffer(buf.end, dtype=np.float64) - np.frombuffer(buf.start, dtype=np.float64)
    child = np.zeros(len(buf))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    n_names = len(tracer.names)
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=dur - child, minlength=n_names)
    return {
        tracer.names[i]: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
        for i in range(n_names) if calls[i]
    }


def payload(tracer):
    """What one traced command reports: span summary, counts and replicas."""
    return {"spans": summarize(tracer), "counts": dict(tracer.buf.counts),
            "replicas": list(tracer.buf.replicas)}


def save_spans(tracer, path):
    """Write the raw spans of the current buffer to an ``.npz`` file."""
    buf = tracer.buf
    np.savez(path, names=np.array(tracer.names), name=np.frombuffer(buf.name, dtype=np.int32),
             parent=np.frombuffer(buf.parent, dtype=np.int32),
             start=np.frombuffer(buf.start), end=np.frombuffer(buf.end))


# counts that hold the largest value seen rather than a sum
_MAX_COUNTS = ("limit.solve_measures.K", "limit.solve_measures.clamped_mass")


def merge(total, part):
    """Add the payload ``part`` of one command into ``total`` (one pass)."""
    for name, stats in part["spans"].items():
        acc = total["spans"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for key in acc:
            acc[key] += stats[key]
    for key, value in part["counts"].items():
        old = total["counts"].get(key, 0.0)
        total["counts"][key] = max(old, value) if key in _MAX_COUNTS else old + value
    total["replicas"] += part["replicas"]
    return total


def empty_payload():
    return {"spans": {}, "counts": {}, "replicas": []}


# -- per-layer metrics ---------------------------------------------------------

# name -> (unit, better, (source, key)); a source reads one traced pass:
# "self"/"total"/"calls" of a span, or a "count" recorded by a hook
PASS_METRICS = {
    "simulation.infections": ("count", "higher", ("count", "simulation.infections")),
    "simulation.removals": ("count", "higher", ("count", "simulation.removals")),
    "simulation.simulate.self_s": ("s", "lower", ("self", "simulation.simulate")),
    "simulation.sample_jl.self_s": ("s", "lower", ("self", "simulation.sample_jl")),
    "simulation.Roster.sample_half_edges.self_s": (
        "s", "lower", ("self", "simulation.Roster.sample_half_edges")),
    "simulation.Roster.sample_half_edges.draws": (
        "count", "lower", ("count", "simulation.Roster.sample_half_edges.draws")),
    "simulation.apply_infection.self_s": ("s", "lower", ("self", "simulation.apply_infection")),
    "simulation.apply_removal.self_s": ("s", "lower", ("self", "simulation.apply_removal")),
    "simulation.measure_snapshot.calls": ("count", "lower", ("calls", "simulation.measure_snapshot")),
    "simulation.measure_snapshot.self_s": ("s", "lower", ("self", "simulation.measure_snapshot")),
    "simulation.initialize_state.s": ("s", "lower", ("total", "simulation.initialize_state")),
    "simulation.grid_rows": ("count", "lower", ("count", "simulation.grid_rows")),
    "measures.sample_size_biased.self_s": ("s", "lower", ("self", "measures.sample_size_biased")),
    "measures.apply_edits.self_s": ("s", "lower", ("self", "measures.apply_edits")),
    "measures.apply_edits.edits": ("count", "lower", ("count", "measures.apply_edits.edits")),
    "degrees.sample.s": ("s", "lower", ("total", "degrees.sample")),
    "limit.rk4_integrate.steps": ("count", "lower", ("count", "limit.rk4_integrate.steps")),
    "limit.rk4_integrate.self_s": ("s", "lower", ("self", "limit.rk4_integrate")),
    "limit.volz_rhs.calls": ("count", "lower", ("calls", "limit.volz_rhs")),
    "limit.volz_rhs.self_s": ("s", "lower", ("self", "limit.volz_rhs")),
    "limit.GeneratingFn.self_s": ("s", "lower", ("self", "limit.GeneratingFn")),
    "limit.measure_rhs.self_s": ("s", "lower", ("self", "limit.measure_rhs")),
    "limit.influx_vector.self_s": ("s", "lower", ("self", "limit.influx_vector")),
    "limit.solve_measures.K": ("count", "lower", ("count", "limit.solve_measures.K")),
    "limit.solve_measures.clamped_mass": (
        "mass", "lower", ("count", "limit.solve_measures.clamped_mass")),
    "harness.run_replicas.s": ("s", "lower", ("total", "harness.run_replicas")),
    "harness.pool_busy_frac": ("frac", "higher", ("ratio", ("harness.busy_s", "harness.capacity_s"))),
    "harness.grid_points_simulated": ("count", "lower", ("count", "harness.grid_points_simulated")),
    "harness.grid_points_compared": ("count", "higher", ("count", "harness.grid_points_compared")),
    "harness.useful_grid_frac": ("frac", "higher", (
        "ratio", ("harness.grid_points_compared", "harness.grid_points_simulated"))),
    "harness.sup_distance.self_s": ("s", "lower", ("self", "harness.sup_distance")),
    "harness.convergence_report.self_s": ("s", "lower", ("self", "harness.convergence_report")),
    "harness.depleted_replicas": ("count", "lower", ("count", "harness.depleted_replicas")),
    "cli.write.s": ("s", "lower", ("total", "cli.write")),
    "cli.bytes_written": ("bytes", "lower", ("count", "cli.bytes_written")),
}

# metrics over the replicas of all traced passes, and the tracing overhead
RUN_METRICS = {
    "harness.replica_s.n_small.p50": ("s", "lower"),
    "harness.replica_s.n_small.tail": ("s", "lower"),
    "harness.replica_s.n_large.p50": ("s", "lower"),
    "harness.replica_s.n_large.tail": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

# span whose absence makes a metric absent, for metrics that read a count
_COUNT_SPAN = {
    "simulation.infections": "simulation.simulate",
    "simulation.removals": "simulation.simulate",
    "simulation.grid_rows": "simulation.simulate",
    "simulation.Roster.sample_half_edges.draws": "simulation.Roster.sample_half_edges",
    "measures.apply_edits.edits": "measures.apply_edits",
    "limit.rk4_integrate.steps": "limit.rk4_integrate",
    "limit.solve_measures.K": "limit.solve_measures",
    "limit.solve_measures.clamped_mass": "limit.solve_measures",
    "harness.pool_busy_frac": "harness._run_one",
    "harness.grid_points_simulated": "harness.convergence_report",
    "harness.grid_points_compared": "harness.convergence_report",
    "harness.useful_grid_frac": "harness.convergence_report",
    "harness.depleted_replicas": "harness._run_one",
    "cli.bytes_written": "cli.write",
}


def pass_metrics(merged):
    """Per-layer values of one traced pass from its merged payload."""
    spans, counts = merged["spans"], dict(merged["counts"])
    counts["harness.depleted_replicas"] = sum(
        1 for rep in merged["replicas"] if rep[2] == "depleted")
    out = {}
    for name, (_, _, (source, key)) in PASS_METRICS.items():
        if source == "count":
            out[name] = float(counts.get(key, 0.0))
        elif source == "ratio":
            num, den = (counts.get(k, 0.0) for k in key)
            out[name] = num / den if den else 0.0
        else:
            field = {"self": "self_s", "total": "s", "calls": "calls"}[source]
            out[name] = float(spans.get(key, {}).get(field, 0.0))
    out["limit.GeneratingFn.self_s"] += spans.get("limit.GeneratingFn.__init__", {}).get("self_s", 0.0)
    return out


def absent_metrics(tracer):
    """Metrics whose span target could not be wrapped."""
    missing = set(tracer.absent)
    out = []
    for name, (_, _, (source, key)) in PASS_METRICS.items():
        span = key if source in ("self", "total", "calls") else _COUNT_SPAN.get(name)
        if span in missing:
            out.append(name)
    if "harness._run_one" in missing:
        out += [m for m in RUN_METRICS if m.startswith("harness.replica_s")]
    return out


def replica_metrics(replicas):
    """Median and tail of per-replica wall time for the smallest and the
    largest population size.  The tail is the highest sample with ten samples
    beyond it (the maximum when there are fewer than eleven)."""
    by_n = defaultdict(list)
    for n, seconds, _, _ in replicas:
        by_n[n].append(seconds)
    out, detail = {}, {}
    if not by_n:
        return {m: 0.0 for m in RUN_METRICS if m.startswith("harness.replica_s")}, detail
    for label, n in (("n_small", min(by_n)), ("n_large", max(by_n))):
        samples = sorted(by_n[n])
        rank = len(samples) - 11 if len(samples) >= 11 else len(samples) - 1
        out[f"harness.replica_s.{label}.p50"] = statistics.median(samples)
        out[f"harness.replica_s.{label}.tail"] = samples[rank]
        detail[label] = {"n": n, "samples": len(samples),
                         "tail_percentile": round(100.0 * (rank + 1) / len(samples), 1)}
    return out, detail
