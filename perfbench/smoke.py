"""Smoke check of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs one short pass of every workload declared in BENCHMARK.json, untraced
and traced, and checks that the last output line is the result object with
exactly the declared metric names and units, that every operation passed
its output checks, and that the traced counts the workloads are built on
hold.  It also checks that perfbench/layers.json maps exactly the declared
per-layer metrics, and that the harness fails without printing a result
when the program's sources are absent.  Exits non-zero on any problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Counts that repeat exactly on the default seed.
EXPECTED = {
    ("trajectory", "kernels.apply_generator.calls"): 800,
    ("trajectory", "observables.measure.calls"): 201,
    ("scan", "kernels.apply_generator.calls"): 2304,
    ("scan", "dispersion.build_report.calls"): 36,
    ("model", "meanfield.tau_of_t.calls"): 1600,
    ("model", "kernels.apply_generator.calls"): 0,
}
MIN_COVERAGE = {"trajectory": 0.9}


def run_harness(root, workload, trace, seconds="1"):
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace, proc):
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))} "
                        f"or their units")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            problems.append(f"{name} is not a number: {m['value']!r}")
    for (wl, name), count in EXPECTED.items():
        if trace and wl == workload and result["metrics"][name]["value"] != count:
            problems.append(f"{name} = {result['metrics'][name]['value']}, expected {count}")
    coverage = MIN_COVERAGE.get(workload)
    if trace and coverage and result["metrics"]["trace.coverage"]["value"] < coverage:
        problems.append(f"trace.coverage {result['metrics']['trace.coverage']['value']} < {coverage}")
    return problems


def check_layer_map(spec):
    layers = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["per_layer"]
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    mapped = {name: (m["unit"], m["better"]) for name, m in layers.items()}
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]} | {"none"}
    problems = [] if declared == mapped else [
        f"layers.json and BENCHMARK.json per_layer differ: {sorted(set(declared) ^ set(mapped))} "
        "or units/better"]
    for name, m in layers.items():
        moves = {part.strip() for part in m["moves"].split(",")}
        if not moves <= e2e or not set(m["on"]) <= workloads:
            problems.append(f"layers.json {name}: unknown metric or workload")
    return problems


def check_without_sources(spec):
    """The harness must fail, printing no result, where only the benchmark exists."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_harness(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"without src/: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = [f"layer map: {p}" for p in check_layer_map(spec)]
    failures += [f"bare checkout: {p}" for p in check_without_sources(spec)]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_result(spec, workload, trace, run_harness(ROOT, workload, trace))
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAILED'}", flush=True)
            failures += [f"{workload} --trace {trace}: {p}" for p in problems]
    for failure in failures:
        print(failure)
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
