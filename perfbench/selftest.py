"""Self-test of the benchmark; never asserts a timing.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` follows the benchmark's schema and names the
workloads and metrics the code produces; runs every workload at tiny size,
untraced and traced, and checks the schema of each result line; checks that
a missing trace target is reported as absent without raising; and checks
that the benchmark refuses to run, printing no result, in a directory that
holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END = ["setup_s", "simulate_events_per_s", "solve_volz_s", "solve_measures_s",
              "converge_s", "peak_rss_mb"]
RUN_TIMEOUT_S = 300


def check_spec(spec):
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)} are not {sorted(keys)}")
        return errors
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number in 1..60")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"bad workload entry {w}")
        names.append(w["name"])
    if names != list(workloads.WORKLOADS):
        errors.append(f"workloads {names} are not {list(workloads.WORKLOADS)}")
    for section, expected, keys in (
        ("end_to_end", END_TO_END, {"name", "unit", "better", "bound"}),
        ("per_layer", [*tracing.PASS_METRICS, *tracing.RUN_METRICS], {"name", "unit", "better"}),
    ):
        got = [m.get("name") for m in spec[section]]
        if got != expected:
            errors.append(f"{section} names {got} are not {expected}")
        for m in spec[section]:
            if set(m) != keys or m["better"] not in ("higher", "lower"):
                errors.append(f"bad {section} entry {m}")
            elif "bound" in m and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound of {m['name']} outside (0, 0.25]")
            if not NAME.match(str(m.get("name"))) or not UNIT.match(str(m.get("unit"))):
                errors.append(f"bad name or unit in {m}")
    all_names = names + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(all_names)) != len(all_names):
        errors.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must have the largest bound")
    return errors


def check_result(line, expected):
    """Schema of one result line; ``expected`` maps metric name to unit."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True:
        errors.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    if result["failed"] != 0 or not isinstance(result["failed"], int):
        errors.append(f"failed is {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            errors.append(f"bad metric entry {name}: {m}")
        elif isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            errors.append(f"{name} value {m['value']!r} is not a finite number")
    return errors


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def check_absent_target():
    sys.path.insert(0, str(ROOT / "src"))
    tracer = tracing.Tracer()
    tracer.install([
        ("simulation.Gone", "sirnet.simulation", "Gone.method", tracing.spanned()),
        ("simulation.gone", "sirnet.simulation", "gone", tracing.spanned()),
        ("nowhere.gone", "sirnet.nowhere", "gone", tracing.spanned()),
    ])
    tracer.uninstall()
    want = ["simulation.Gone", "simulation.gone", "nowhere.gone"]
    return [] if tracer.absent == want else [f"absent targets {tracer.absent}, expected {want}"]


def check_bare_directory():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run_bench(bare, next(iter(workloads.WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["the benchmark ran without the sirnet sources"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = check_spec(spec)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            errors = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"] if proc.returncode else []
            errors += check_result(lines[-1] if lines else "", units[trace])
            failures += [f"{workload} trace {trace}: {e}" for e in errors]
            print(f"{workload:16s} trace {trace}: {'ok' if not errors else 'FAILED'}")
    failures += check_absent_target()
    failures += check_bare_directory()
    for failure in failures:
        print(f"FAILED {failure}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
