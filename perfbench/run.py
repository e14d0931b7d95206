"""Benchmark of pnes: three workloads run through the CLI, timed end to end and per layer.

    python3 perfbench/run.py --workload trajectory|scan|model
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` of the checkout
this file lives in, with no build step.

Workloads (configs in perfbench/configs, varied by --seed, see workloads.py):

  trajectory  evolve-exact, coherent(4) x twb(0.5) on a (50, 40, 40) grid,
              200 RK4 steps, every step recorded: kernels and observables.
  scan        two ``scan --workers 1`` commands, twb and tmc, 36 points:
              dispersion.build_report / propagator.rate_of.  At --workers 2
              the pool is slower and less steady on two cores (known issue
              in layers.json), so it is timed only for cli.pool.speedup.
  model       evolve-model with a gaussian pump on 800 points: meanfield.

--trace 0 runs the workload's commands as subprocesses, the way a user
does, for --seconds, and reports the end-to-end metrics:

  wall_s       median wall time of one pass of the workload's commands
  setup_s      median time for a fresh interpreter to import pnes, parse the
               configs and build the input (probe_setup.py, twice per pass)
  peak_rss_mb  median over passes of the largest peak RSS of a command
  ok_frac      operations that passed every output check / operations run,
               i.e. 1 - fail_frac, kept non-zero so its bound is a share

--trace 1 runs each pass in this process twice, plain and with every layer
wrapped (tracing.py), and reports the per-layer metrics listed with the
end-to-end metric each should move in perfbench/layers.json.  For scan it
also runs the commands at --workers 2 as subprocesses for cli.pool.speedup.

Every run prints each metric with its unit, the environment record, then
one JSON line: {"correct", "attempted", "failed", "metrics"}.  The record,
per-pass figures and (traced) spans go to perfbench/out/<run>/.  The
harness never sets BLAS thread counts, so the pool's oversubscription shows.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAYERS = BENCH / "layers.json"
SETUP_PER_PASS = 2
# three scan passes give 108 build_report spans, so p90 has at least 10 beyond it
MIN_TRACED_PASSES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, result):
        ops, failed, problems = result
        self.attempted += ops
        self.failed += failed
        self.problems += problems


def cli_env():
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_cli(argv, log):
    """Run ``python -m pnes.cli argv``; return (wall s, exit code, peak RSS in KiB)."""
    with open(log, "ab") as err:
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-m", "pnes.cli", *argv], cwd=ROOT, env=cli_env(),
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=err) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = perf_counter() - t0
    return wall, proc.returncode, usage.ru_maxrss


def setup_time(workload, commands):
    """Seconds a fresh interpreter takes to import pnes and build the input."""
    argv = [sys.executable, str(BENCH / "probe_setup.py"), workload]
    argv += [str(c.config) for c in commands]
    out = subprocess.run(argv, cwd=ROOT, env=cli_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.split()[-1])


def untraced_run(workload, commands, seconds, workdir):
    tally = Tally()
    setup_time(workload, commands)  # warm-up: fills the bytecode cache
    walls, rss_kb, setup = [], [], []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() + statistics.median(walls) <= deadline:
        wall, peak = 0.0, 0
        for cmd in commands:
            t, rc, kb = run_cli(cmd.argv(), workdir / "stderr.log")
            tally.add(cmd.check(rc))
            wall, peak = wall + t, max(peak, kb)
        walls.append(wall)
        rss_kb.append(peak)
        # set-up probes spread over the run, so they see the same machine as the passes
        setup += [setup_time(workload, commands) for _ in range(SETUP_PER_PASS)]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss_kb) / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    record = {"pass_wall_s": walls, "pass_peak_rss_kb": rss_kb, "setup_s": setup}
    return metrics, tally, record


def in_process_pass(main, commands, tally):
    """One pass through ``main`` with scans serial; returns its wall time."""
    wall = 0.0
    for cmd in commands:
        argv = cmd.argv(workers=1) if cmd.subcommand == "scan" else cmd.argv()
        t0 = perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash in the program fails this command's operations
            tally.problems.append(traceback.format_exc())
            rc = -1
        wall += perf_counter() - t0
        tally.add(cmd.check(rc))
    return wall


def traced_run(workload, commands, seconds, workdir):
    import pnes.cli

    tally = Tally()
    plain, traced, pool, per_pass, report_ms, spans = [], [], [], [], [], []
    wrapped = []
    in_process_pass(pnes.cli.main, commands, tally)  # warm-up: first-call costs
    started = perf_counter()
    deadline = started + seconds
    while (len(traced) < MIN_TRACED_PASSES
           or perf_counter() + (perf_counter() - started) / len(traced) <= deadline):
        tracer = tracing.Tracer()
        # alternate which of the plain and traced passes runs first
        for traced_now in (False, True) if len(traced) % 2 == 0 else (True, False):
            if traced_now:
                with tracer.installed():
                    main = tracer.wrap("cli.main", pnes.cli.main)
                    traced.append(in_process_pass(main, commands, tally))
            else:
                plain.append(in_process_pass(pnes.cli.main, commands, tally))
        wrapped = tracer.wrapped
        figures, ms = tracing.pass_metrics(tracer)
        per_pass.append(figures)
        report_ms += ms
        spans.append(tracer.spans)
        if workload == "scan":
            wall = 0.0
            for cmd in commands:
                t, rc, _ = run_cli(cmd.argv(workers=workloads.POOL_WORKERS), workdir / "stderr.log")
                tally.add(cmd.check(rc))
                wall += t
            pool.append(wall)
    metrics = tracing.combine(per_pass, report_ms)
    serial_s = metrics["dispersion.build_report.s"]
    metrics["cli.pool.speedup"] = serial_s / statistics.median(pool) if pool else 0.0
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    (workdir / "spans.json").write_text(json.dumps(
        {"fields": ["name", "start_s", "end_s", "parent", "detail"], "passes": spans}))
    record = {"plain_pass_s": plain, "traced_pass_s": traced, "pool_pass_s": pool,
              "per_pass": per_pass, "wrapped": wrapped}
    return metrics, tally, record


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        backend = importlib.import_module("pnes.kernels").backend_name()
    except (ImportError, AttributeError):
        backend = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pnes_backend": backend,
        "scan_workers": workloads.SCAN_WORKERS,
        "pool_workers": workloads.POOL_WORKERS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "env": {k: os.environ.get(k) for k in
                ("PNES_BACKEND", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pnes" / "__init__.py").is_file():
        print(f"error: pnes sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commands = workloads.make_commands(args.workload, args.seed, workdir)
    env = environment()

    run = traced_run if args.trace else untraced_run
    values, tally, record = run(args.workload, commands, args.seconds, workdir)
    if args.trace:
        units = {name: spec["unit"] for name, spec in
                 json.loads(LAYERS.read_text(encoding="utf-8"))["per_layer"].items()}
    else:
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    (workdir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "record": record,
    }, indent=1))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print("environment " + json.dumps(env))
    for problem in tally.problems:
        print("FAILED " + problem.rstrip())
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
