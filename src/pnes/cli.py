"""Command-line front end.

    pnes evolve-exact|evolve-model|compare|dispersion|scan
         --config <file> [--out <path>] [--format csv|json] [--workers N]

Configs are flat ``key = value`` files; unknown keys are errors and every
violation is reported, not just the first.  Outputs are deterministic:
identical configs produce byte-identical files.  Exit codes: 0 success,
1 validation or usage error, 2 numerical failure, 3 partial scan failure.
``evolve-exact`` and ``compare`` (a vacuum pair) take their initial state
from ``states.initial_state``, as the dispersion reports do.  ``scan``
always runs its points serially; ``--workers N`` (an integer >= 1) is
accepted for compatibility and ignored.
"""

import argparse
import math
import sys

import numpy as np

from . import __version__
from .errors import NumericalError, ValidationError
from .fock import MAX_ROWS, HamiltonianParams

REQUIRED = object()


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
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is ignored
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {path} is not UTF-8: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
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


def _fmt(value):  # every command's cells are floats, bools and strs
    if type(value) is float:  # the common case first
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


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
            # JSON holds no inf or nan: a non-finite float is written as null
            "rows": [[None if type(v) is float and not math.isfinite(v) else v for v in row]
                     for row in rows],
        }
        import json  # imported here so that a CSV run never loads it
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _build_exact_state(cfg):
    """The config's coherent(alpha) x family(param) on (d0, pair_dim), as sectors."""
    from .states import initial_state
    return initial_state(cfg["family"], cfg["param"], cfg["alpha"], cfg["d0"], cfg["pair_dim"])


def cmd_evolve_exact(cfg):
    from .propagator import EvolutionSpec, evolve
    spec = EvolutionSpec(HamiltonianParams(cfg["chi"]), dt=cfg["dt"], steps=cfg["steps"],
                         record_every=cfg["record_every"])
    traj = evolve(_build_exact_state(cfg), spec)
    columns = [
        "t", "re_pair_amp", "im_pair_amp", "total_n", "diff_n", "pump_quad",
        "disp_plus", "disp_minus", "conserved_k", "norm", "leakage",
    ]
    obs = [[o.pair_amp.real, o.pair_amp.imag, o.total_n, o.diff_n, o.pump_quad,
            o.disp_plus, o.disp_minus, o.conserved_k, o.norm, o.leakage]
           for o in traj.observables]
    rows = np.column_stack((traj.times, obs)).tolist()
    return columns, rows, 0


def _build_profile(cfg):
    from .meanfield import PumpProfile
    return PumpProfile(cfg["profile"], a=cfg["amplitude"], T=cfg["duration"],
                       t_center=cfg["center"], width=cfg["width"],
                       times=cfg["profile_times"], values=cfg["profile_values"])


def cmd_evolve_model(cfg):
    from .meanfield import closed_form_trajectory, integrate_model
    profile = _build_profile(cfg)
    t_start, t_stop, n_points = cfg["t_start"], cfg["t_stop"], cfg["n_points"]
    if not (math.isfinite(t_stop - t_start) and 2 <= n_points <= MAX_ROWS):  # inf or nan ends too
        raise ValidationError("the time grid needs a finite span t_stop - t_start and n_points >= 2, "
                              f"at most {MAX_ROWS}, got t_start={t_start!r}, t_stop={t_stop!r}, "
                              f"n_points={n_points}")
    grid = np.linspace(t_start, t_stop, n_points)
    ode = integrate_model(profile, cfg["chi"], grid)
    cf = closed_form_trajectory(profile, cfg["chi"], grid)
    columns = ["t", "a", "tau", "Lambda_cf", "N_cf", "Lambda_ode", "N_ode",
               "dLambda", "dN"]
    rows = np.column_stack((
        grid, profile.amplitude(grid), cf.tau, cf.Lambda, cf.N, ode.Lambda, ode.N,
        ode.Lambda - cf.Lambda, ode.N - cf.N,
    )).tolist()
    return columns, rows, 0


def _rel_dev(a, b):
    """|a - b| / |b| per entry; where |b| < 1e-300, 0 if |a| is too, else inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(a - b) / np.abs(b)
    return np.where(np.abs(b) < 1e-300, np.where(np.abs(a) < 1e-300, 0.0, math.inf), dev)


def _step_count(t_stop, dt):
    """t_stop / dt as a whole number >= 1 of steps; ValidationError unless it is one."""
    if not dt > 0:
        raise ValidationError(f"dt must be > 0, got {dt!r}")
    ratio = t_stop / dt
    if not math.isfinite(ratio):
        raise ValidationError(f"t_stop / dt must be finite, got t_stop={t_stop!r}, dt={dt!r}")
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * abs(ratio):
        raise ValidationError(
            f"t_stop / dt = {ratio!r} is not a whole number of steps "
            f"(t_stop={t_stop!r}, dt={dt!r})"
        )
    if steps < 1:
        raise ValidationError(f"t_stop / dt must give at least one step, got {ratio!r}")
    return steps


def cmd_compare(cfg):
    from .meanfield import PumpProfile, closed_form_trajectory
    from .propagator import EvolutionSpec, evolve
    alpha, chi = cfg["alpha"], cfg["chi"]
    steps = _step_count(cfg["t_stop"], cfg["dt"])
    spec = EvolutionSpec(HamiltonianParams(chi), dt=cfg["dt"], steps=steps,
                         record_every=cfg["record_every"])
    s0 = _build_exact_state(dict(cfg, family="vacuum", param=0.0))
    # the model first: one that overflows is refused before the exact run
    model = closed_form_trajectory(PumpProfile.constant(alpha), chi, spec.times())
    traj = evolve(s0, spec)
    columns = ["t", "n_exact", "n_model", "rel_dev_n",
               "abs_pair_amp_exact", "lambda_model", "rel_dev_lambda", "leakage"]
    n_e, l_e, leak = np.array([(o.total_n, abs(o.pair_amp), o.leakage)
                               for o in traj.observables]).T
    rows = np.column_stack((traj.times, n_e, model.N, _rel_dev(n_e, model.N),
                            l_e, model.Lambda, _rel_dev(l_e, model.Lambda), leak)).tolist()
    return columns, rows, 0


def _check_rows(what, rows):
    """ValidationError, before any point is evaluated, for more than MAX_ROWS rows."""
    if rows > MAX_ROWS:
        raise ValidationError(f"{what} would write {rows} rows, more than the {MAX_ROWS} "
                              "a run may write")


def cmd_dispersion(cfg):
    from .dispersion import DispersionReport, build_report
    _check_rows("params", len(cfg["params"]))
    rows = [build_report(cfg["family"], param, cfg["chi"], cfg["alpha"])
            for param in cfg["params"]]
    return list(DispersionReport._fields), rows, 0


def _scan_row(family, param, chi, alpha):
    """One scan CSV row; its last cell is "ok" or the error of a failed point."""
    from .dispersion import DispersionReport, build_report
    try:
        return [*build_report(family, param, chi, alpha), "ok"]
    except (ValidationError, NumericalError) as exc:
        # keep the status cell free of CSV separators
        msg = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        cells = dict.fromkeys(DispersionReport._fields, math.nan)
        cells.update(family=family, param=param, chi=chi, alpha=alpha, ratios_defined=False)
        return [*cells.values(), msg]


def cmd_scan(cfg):
    """Every grid point, in grid order; exit code 3 when a row's status is not "ok"."""
    from .dispersion import DispersionReport
    shape = [len(cfg[key]) for key in ("chi_values", "alpha_values", "params")]
    _check_rows("a {} x {} x {} scan".format(*shape), math.prod(shape))
    rows = [
        _scan_row(cfg["family"], param, chi, alpha)
        for chi in cfg["chi_values"]
        for alpha in cfg["alpha_values"]
        for param in cfg["params"]
    ]
    code = 3 if any(row[-1] != "ok" for row in rows) else 0
    return [*DispersionReport._fields, "status"], rows, code


# command -> runner(cfg) returning (columns, rows, exit code)
COMMANDS = {"evolve-exact": cmd_evolve_exact, "evolve-model": cmd_evolve_model,
            "compare": cmd_compare, "dispersion": cmd_dispersion, "scan": cmd_scan}


def _error_record(exc):
    import json
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
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility and ignored: scan always runs serially")

    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            raise ValidationError(f"--workers must be >= 1, got {args.workers}")
        raw = read_config_file(args.config)
        cfg = validate_config(args.command, raw)
        columns, rows, exit_code = COMMANDS[args.command](cfg)
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
