"""Command-line front end.

    pnes evolve-exact|evolve-model|compare|dispersion|scan
         --config <file> [--out <path>] [--format csv|json] [--workers N]

Configs are flat ``key = value`` files; unknown keys are errors and every
violation is reported, not just the first.  Outputs are deterministic:
identical configs produce byte-identical files.  Exit codes: 0 success,
1 validation or usage error, 2 numerical failure, 3 partial scan failure.
``scan`` runs its points serially; ``--workers N`` with N > 1 spreads them
over a process pool.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .dispersion import build_report
from .errors import DimensionTooSmallError, NumericalError, ValidationError
from .fock import HamiltonianParams
from .meanfield import PumpProfile, closed_form_trajectory, integrate_model
from .propagator import EvolutionSpec, evolve
from .states import COHERENT_TAIL_WARN, coherent, pnes, product_state, pump_dimension, tmc, twb

REQUIRED = object()


def _parse_bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s):
    return tuple(float(v) for v in s.split(","))


# key -> (parser, default); REQUIRED means the key must be present
SCHEMAS = {
    "evolve-exact": {
        "family": (str, "vacuum"),  # vacuum | twb | tmc
        "param": (float, 0.0),
        "alpha": (float, REQUIRED),
        "chi": (float, REQUIRED),
        "d0": (int, 0),  # 0 = choose from alpha
        "pair_dim": (int, REQUIRED),
        "dt": (float, REQUIRED),
        "steps": (int, REQUIRED),
        "record_every": (int, 1),
    },
    "evolve-model": {
        "profile": (str, REQUIRED),  # constant | rectangular | gaussian | sampled
        "amplitude": (float, 0.0),
        "duration": (float, 0.0),
        "center": (float, 0.0),
        "width": (float, 0.0),
        "profile_times": (_parse_float_list, ()),
        "profile_values": (_parse_float_list, ()),
        "chi": (float, REQUIRED),
        "t_start": (float, REQUIRED),
        "t_stop": (float, REQUIRED),
        "n_points": (int, REQUIRED),
        "assume_zero_initial": (_parse_bool, False),
    },
    "compare": {
        "alpha": (float, REQUIRED),
        "chi": (float, REQUIRED),
        "t_stop": (float, REQUIRED),
        "dt": (float, REQUIRED),
        "record_every": (int, 1),
        "d0": (int, 0),
        "pair_dim": (int, REQUIRED),
    },
    "dispersion": {
        "family": (str, REQUIRED),
        "params": (_parse_float_list, REQUIRED),
        "chi": (float, REQUIRED),
        "alpha": (float, REQUIRED),
    },
    "scan": {
        "family": (str, REQUIRED),
        "params": (_parse_float_list, REQUIRED),
        "chi_values": (_parse_float_list, REQUIRED),
        "alpha_values": (_parse_float_list, REQUIRED),
    },
}


def read_config_file(path):
    """Parse a flat ``key = value`` document; '#' starts a comment."""
    raw = {}
    problems = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                problems.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
                continue
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in raw:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            raw[key] = value
    if problems:
        raise ValidationError("; ".join(problems))
    return raw


def validate_config(command, raw):
    """Check raw strings against the command schema, reporting every violation."""
    schema = SCHEMAS[command]
    problems = []
    cfg = {}
    for key, value in raw.items():
        if key not in schema:
            problems.append(f"unknown key {key!r}")
    for key, (parser, default) in schema.items():
        if key in raw:
            try:
                cfg[key] = parser(raw[key])
            except ValueError as exc:
                problems.append(f"key {key!r}: {exc}")
        elif default is REQUIRED:
            problems.append(f"missing required key {key!r}")
        else:
            cfg[key] = default
    if problems:
        raise ValidationError("; ".join(problems))
    return cfg


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_output(out, fmt, command, raw_config, columns, rows):
    if fmt == "csv":
        lines = [f"# pnes-version = {__version__}", f"# command = {command}"]
        for key in sorted(raw_config):
            lines.append(f"# {key} = {raw_config[key]}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "version": __version__,
            "command": command,
            "config": {k: raw_config[k] for k in sorted(raw_config)},
            "columns": list(columns),
            "rows": [[v if isinstance(v, str) else _json_num(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_num(v):
    if isinstance(v, (bool, int, np.integer)):
        return int(v) if not isinstance(v, bool) else v
    return float(v)


def _build_exact_state(cfg):
    """coherent(alpha) on d0 pump levels times the family's pair state.

    Raises DimensionTooSmallError when d0 cuts off more than
    COHERENT_TAIL_WARN of the pump, as twb and tmc do for the pair cutoff.
    """
    alpha = cfg["alpha"]
    d0 = cfg["d0"] if cfg["d0"] > 0 else pump_dimension(alpha)
    pump = coherent(alpha, d0)
    if pump.tail_warning:
        raise DimensionTooSmallError(
            f"pump tail mass {pump.tail_mass:.3e} at d0={d0}, alpha={alpha!r} "
            f"exceeds {COHERENT_TAIL_WARN:.0e}; increase d0"
        )
    d = cfg["pair_dim"]
    if cfg["family"] == "vacuum":
        pair = pnes([1.0], d)
    elif cfg["family"] == "twb":
        pair = twb(cfg["param"], d)
    elif cfg["family"] == "tmc":
        pair = tmc(cfg["param"], d)
    else:
        raise ValidationError(f"family must be vacuum, twb or tmc, got {cfg['family']!r}")
    return product_state(pump, pair)


def cmd_evolve_exact(cfg):
    s0 = _build_exact_state(cfg)
    spec = EvolutionSpec(
        HamiltonianParams(cfg["chi"]),
        dt=cfg["dt"],
        steps=cfg["steps"],
        record_every=cfg["record_every"],
    )
    traj = evolve(s0, spec)
    columns = [
        "t", "re_pair_amp", "im_pair_amp", "total_n", "diff_n", "pump_quad",
        "disp_plus", "disp_minus", "conserved_k", "norm", "leakage",
    ]
    rows = []
    for t, o, nrm, leak in zip(traj.times, traj.observables, traj.norms, traj.leakages):
        rows.append([
            t, o.pair_amp.real, o.pair_amp.imag, o.total_n, o.diff_n, o.pump_quad,
            o.disp_plus, o.disp_minus, o.conserved_k, nrm, leak,
        ])
    return columns, rows


def _build_profile(cfg):
    variant = cfg["profile"]
    if variant == "constant":
        return PumpProfile.constant(cfg["amplitude"])
    if variant == "rectangular":
        return PumpProfile.rectangular(cfg["amplitude"], cfg["duration"])
    if variant == "gaussian":
        return PumpProfile.gaussian(cfg["amplitude"], cfg["center"], cfg["width"])
    if variant == "sampled":
        return PumpProfile.sampled(cfg["profile_times"], cfg["profile_values"])
    raise ValidationError(f"unknown profile {variant!r}")


def cmd_evolve_model(cfg):
    profile = _build_profile(cfg)
    grid = np.linspace(cfg["t_start"], cfg["t_stop"], cfg["n_points"])
    ode = integrate_model(profile, cfg["chi"], grid, cfg["assume_zero_initial"])
    cf = closed_form_trajectory(profile, cfg["chi"], grid)
    columns = ["t", "a", "tau", "Lambda_cf", "N_cf", "Lambda_ode", "N_ode",
               "dLambda", "dN"]
    rows = []
    for i, t in enumerate(grid):
        rows.append([
            t, profile.amplitude(float(t)), cf.tau[i],
            cf.Lambda[i], cf.N[i], ode.Lambda[i], ode.N[i],
            ode.Lambda[i] - cf.Lambda[i], ode.N[i] - cf.N[i],
        ])
    return columns, rows


def _rel_dev(a, b):
    if abs(b) < 1e-300:
        return 0.0 if abs(a) < 1e-300 else math.inf
    return abs(a - b) / abs(b)


def _step_count(t_stop, dt):
    """t_stop / dt as a whole number of steps; ValidationError unless it is one."""
    ratio = t_stop / dt if dt != 0 else math.inf
    if not math.isfinite(ratio):
        raise ValidationError(f"t_stop / dt must be finite, got t_stop={t_stop!r}, dt={dt!r}")
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * abs(ratio):
        raise ValidationError(
            f"t_stop / dt = {ratio!r} is not a whole number of steps "
            f"(t_stop={t_stop!r}, dt={dt!r})"
        )
    return steps


def cmd_compare(cfg):
    alpha, chi = cfg["alpha"], cfg["chi"]
    steps = _step_count(cfg["t_stop"], cfg["dt"])
    s0 = _build_exact_state(dict(cfg, family="vacuum"))
    spec = EvolutionSpec(HamiltonianParams(chi), dt=cfg["dt"], steps=steps,
                         record_every=cfg["record_every"])
    traj = evolve(s0, spec)
    profile = PumpProfile.constant(alpha)
    model = integrate_model(profile, chi, traj.times, assume_zero_initial=True)
    columns = ["t", "n_exact", "n_model", "rel_dev_n",
               "abs_pair_amp_exact", "lambda_model", "rel_dev_lambda"]
    rows = []
    for i, (t, o) in enumerate(zip(traj.times, traj.observables)):
        n_e, n_m = o.total_n, model.N[i]
        l_e, l_m = abs(o.pair_amp), model.Lambda[i]
        rows.append([t, n_e, n_m, _rel_dev(n_e, n_m), l_e, l_m, _rel_dev(l_e, l_m)])
    return columns, rows


REPORT_COLUMNS = [
    "family", "param", "chi", "alpha",
    "rate_exact", "rate_analytic_exact", "rate_analytic_model", "rate_model_traj",
    "rate_diag_simple", "rel_err_exact", "model_exact_ratio", "ratios_defined",
]


def _report_row(report):
    return [
        report.state_family, report.state_param, report.chi, report.alpha,
        report.rate_exact, report.rate_analytic_exact, report.rate_analytic_model,
        report.rate_model_traj, report.rate_diag_simple, report.rel_err_exact,
        report.model_exact_ratio, report.ratios_defined,
    ]


def cmd_dispersion(cfg):
    rows = []
    for param in cfg["params"]:
        rows.append(_report_row(build_report(cfg["family"], param, cfg["chi"], cfg["alpha"])))
    return REPORT_COLUMNS, rows


def _scan_point(args):
    family, param, chi, alpha = args
    try:
        return ("ok", _report_row(build_report(family, param, chi, alpha)))
    except (ValidationError, NumericalError) as exc:
        # keep the status cell free of CSV separators
        msg = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        return ("error", [family, param, chi, alpha] + [math.nan] * 7 + [False], msg)


def cmd_scan(cfg, workers):
    """Every grid point, serially unless workers > 1 asks for a process pool."""
    grid = [
        (cfg["family"], param, chi, alpha)
        for chi in cfg["chi_values"]
        for alpha in cfg["alpha_values"]
        for param in cfg["params"]
    ]
    if workers > 1 and len(grid) > 1:
        # imported here: it pulls in multiprocessing, which no other command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_point, grid))
    else:
        results = [_scan_point(point) for point in grid]
    columns = REPORT_COLUMNS + ["status"]
    rows = []
    any_failed = False
    for res in results:  # deterministic grid order regardless of completion order
        if res[0] == "ok":
            rows.append(res[1] + ["ok"])
        else:
            any_failed = True
            rows.append(res[1] + [res[2]])
    return columns, rows, any_failed


def _error_record(exc):
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 with the JSON record, not 2
        raise ValidationError(message)


def main(argv=None):
    parser = _ArgumentParser(prog="pnes", description=__doc__)
    parser.add_argument("command", choices=sorted(SCHEMAS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--workers", type=int, default=1)

    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
        raw = read_config_file(args.config)
        cfg = validate_config(args.command, raw)
        exit_code = 0
        if args.command == "evolve-exact":
            columns, rows = cmd_evolve_exact(cfg)
        elif args.command == "evolve-model":
            columns, rows = cmd_evolve_model(cfg)
        elif args.command == "compare":
            columns, rows = cmd_compare(cfg)
        elif args.command == "dispersion":
            columns, rows = cmd_dispersion(cfg)
        else:
            columns, rows, any_failed = cmd_scan(cfg, args.workers)
            exit_code = 3 if any_failed else 0
        write_output(args.out, args.format, args.command, raw, columns, rows)
        return exit_code
    except (ValidationError, OSError) as exc:
        sys.stderr.write(_error_record(exc) + "\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(_error_record(exc) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
