"""The three benchmark workloads: configs made from a seed, CLI commands, output checks.

Each workload is one or more ``pnes`` CLI commands on committed configs in
``perfbench/configs``.  The default seed runs those configs unchanged; any
other seed moves the state parameters inside fixed ranges that keep every
grid shape, so a later claim can be checked on held-out inputs at the same
cost.  The program only ever sees the generated config files.

An operation is one ``evolve-exact`` or ``evolve-model`` run, or one scan
point.  It fails if its command exits non-zero, if a scan row's status is
not ``ok``, or if an output check below fails.  Tolerances are loose enough
to accept an exact propagator in place of RK4 at ``dt = 0.01``; every
comparison is written so that a NaN fails it.
"""

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("trajectory", "scan", "model")
DEFAULT_SEED = 0

# Workers of the measured scan and of the pool probe behind cli.pool.speedup.
SCAN_WORKERS = 1
POOL_WORKERS = 2

# Each default scan parameter moves only inside a range over which the CLI
# picks the same pair cutoff (states.min_dimension_twb / _tmc), so every
# seed does the same work on the same grid shapes.
SCAN_RANGES = {
    "twb": ((0.18, 0.215), (0.40, 0.42), (0.60, 0.61)),
    "tmc": ((0.48, 0.68), (0.94, 1.20), (1.83, 2.17)),
}

TRAJ_DIFF_N_TOL = 1e-9  # n1 - n2 is conserved; it is exactly 0 today
TRAJ_K_TOL = 1e-8  # drift of K = n0 + (n1 + n2)/2; 1.6e-11 today
TRAJ_NORM_TOL = 1e-6  # max |norm^2 + leakage - 1|; 8.7e-10 today
TRAJ_REF_RTOL = 1e-7  # final observables; RK4 at dt=0.01 is within 1e-9
SCAN_REL_ERR_TOL = 1e-6  # twb rel_err_exact; 4e-10 today
SCAN_RATIO_TOL = 1e-6  # |tmc model_exact_ratio - 2|
MODEL_DIFF_TOL = 1e-8  # max |dLambda|, |dN|; 5e-12 today
MODEL_TAU_TOL = 1e-9  # tau against the erf closed form of the gaussian


@dataclass
class Command:
    """One CLI invocation and the check of its output file."""

    subcommand: str
    config: Path
    out: Path
    raw: dict
    workers: int = None

    def argv(self, workers=None):
        args = [self.subcommand, "--config", str(self.config), "--out", str(self.out)]
        workers = self.workers if workers is None else workers
        if workers is not None:
            args += ["--workers", str(workers)]
        return args

    def operations(self):
        if self.subcommand == "scan":
            return len(_scan_grid(self.raw))
        return 1

    def check(self, returncode):
        """(operations, failed operations, problem messages) for the last run."""
        ops = self.operations()
        if returncode != 0:
            return ops, ops, [f"{self.config.name}: exit code {returncode}"]
        try:
            columns, rows = read_csv(self.out)
            problems = CHECKS[self.subcommand](self.raw, columns, rows)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return ops, ops, [f"{self.config.name}: unreadable output: {exc!r}"]
        # a scan check reports at most one problem per point
        failed = min(len(problems), ops)
        return ops, failed, [f"{self.config.name}: {p}" for p in problems]


def read_cfg(path):
    raw = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            raw[key] = value
    return raw


def write_cfg(path, raw):
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in raw.items()), encoding="utf-8")


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    table = list(csv.reader(lines))
    return table[0], table[1:]


def _floats(s):
    return [float(v) for v in s.split(",")]


def _scan_grid(raw):
    return [
        (p, c, a)
        for c in _floats(raw["chi_values"])
        for a in _floats(raw["alpha_values"])
        for p in _floats(raw["params"])
    ]


def trajectory_choices():
    return sorted(json.loads(REFERENCE.read_text(encoding="utf-8"))["final"])


def make_commands(workload, seed, workdir):
    """Write the workload's configs for ``seed`` into workdir; return its commands."""
    rng = random.Random(seed)
    workdir = Path(workdir)
    if workload == "trajectory":
        specs = [("evolve-exact", "trajectory", None)]
    elif workload == "scan":
        specs = [("scan", "scan_twb", SCAN_WORKERS), ("scan", "scan_tmc", SCAN_WORKERS)]
    elif workload == "model":
        specs = [("evolve-model", "model", None)]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    commands = []
    for subcommand, name, workers in specs:
        raw = read_cfg(CONFIGS / f"{name}.cfg")
        if seed != DEFAULT_SEED and workload == "trajectory":
            raw["param"] = rng.choice(trajectory_choices())
        if seed != DEFAULT_SEED and workload == "scan":
            ranges = SCAN_RANGES[raw["family"]]
            raw["params"] = ", ".join(f"{rng.uniform(lo, hi):.4f}" for lo, hi in ranges)
        config = workdir / f"{name}.cfg"
        write_cfg(config, raw)
        commands.append(Command(subcommand, config, workdir / f"{name}.csv", raw, workers))
    return commands


def _worst(values):
    """The largest value, or NaN if any is NaN (max() can skip a NaN)."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def _check_trajectory(raw, columns, rows):
    col = {name: [float(r[i]) for r in rows] for i, name in enumerate(columns)}
    steps, every, dt = int(raw["steps"]), int(raw.get("record_every", 1)), float(raw["dt"])
    problems = []
    expected_rows = steps // every + 1 + (1 if steps % every else 0)
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    if not abs(col["t"][-1] - steps * dt) <= 1e-9:
        problems.append(f"final time {col['t'][-1]!r}, expected {steps * dt!r}")
    for name, tol in (("diff_n", TRAJ_DIFF_N_TOL), ("conserved_k", TRAJ_K_TOL)):
        drift = _worst(abs(v - col[name][0]) for v in col[name])
        if not drift <= tol:
            problems.append(f"{name} drifts by {drift:.3g} > {tol:g}")
    norm_err = _worst(abs(n * n + leak - 1.0) for n, leak in zip(col["norm"], col["leakage"]))
    if not norm_err <= TRAJ_NORM_TOL:
        problems.append(f"max |norm^2 + leakage - 1| = {norm_err:.3g} > {TRAJ_NORM_TOL:g}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["final"].get(raw["param"])
    if reference is None:
        problems.append(f"no reference for twb param {raw['param']!r}")
        return problems
    for name, ref in reference.items():
        got = col[name][-1]
        if not abs(got - ref) <= TRAJ_REF_RTOL * max(1.0, abs(ref)):
            problems.append(f"final {name} = {got!r}, reference {ref!r}")
    return problems


def _check_scan(raw, columns, rows):
    """At most one problem per grid point, so each counts as one failed operation."""
    idx = {name: i for i, name in enumerate(columns)}
    grid = _scan_grid(raw)
    family = raw["family"]
    problems = [f"point {k}: missing row" for k in range(len(rows), len(grid))]
    for k, (row, (param, chi, alpha)) in enumerate(zip(rows, grid)):
        got = tuple(float(row[idx[c]]) for c in ("param", "chi", "alpha"))
        if row[idx["family"]] != family or got != (param, chi, alpha):
            problems.append(f"point {k}: row {row[:4]} is not ({family}, {param}, {chi}, {alpha})")
        elif row[idx["status"]] != "ok":
            problems.append(f"point {k}: status {row[idx['status']]!r}")
        elif family == "twb" and not float(row[idx["rel_err_exact"]]) <= SCAN_REL_ERR_TOL:
            problems.append(f"point {k}: rel_err_exact {row[idx['rel_err_exact']]}")
        elif family == "tmc" and not abs(float(row[idx["model_exact_ratio"]]) - 2.0) <= SCAN_RATIO_TOL:
            problems.append(f"point {k}: model_exact_ratio {row[idx['model_exact_ratio']]}")
    if len(rows) > len(grid):
        problems.append(f"{len(rows) - len(grid)} extra rows")
    return problems


def _gaussian_tau(raw, t):
    """chi * integral of a exp(-(s-c)^2 / 2w^2) ds from -inf to t."""
    a, c, w, chi = (float(raw[k]) for k in ("amplitude", "center", "width", "chi"))
    return chi * a * w * math.sqrt(math.pi / 2.0) * (1.0 + math.erf((t - c) / (w * math.sqrt(2.0))))


def _check_model(raw, columns, rows):
    col = {name: [float(r[i]) for r in rows] for i, name in enumerate(columns)}
    problems = []
    if len(rows) != int(raw["n_points"]):
        problems.append(f"{len(rows)} rows, expected {raw['n_points']}")
    for name in ("dLambda", "dN"):
        worst = _worst(abs(v) for v in col[name])
        if not worst <= MODEL_DIFF_TOL:
            problems.append(f"max |{name}| = {worst:.3g} > {MODEL_DIFF_TOL:g}")
    tau_err = _worst(abs(tau - _gaussian_tau(raw, t)) for t, tau in zip(col["t"], col["tau"]))
    if not tau_err <= MODEL_TAU_TOL:
        problems.append(f"tau is {tau_err:.3g} from the erf closed form")
    return problems


CHECKS = {
    "evolve-exact": _check_trajectory,
    "scan": _check_scan,
    "evolve-model": _check_model,
}
