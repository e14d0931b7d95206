"""Spans recorded from outside the program, by wrapping pnes functions in place.

Each function is wrapped at the name its caller looks up (``pnes.cli.evolve``
for the CLI, ``pnes.propagator.evolve`` for the finite-difference rate, and
so on), for the duration of one traced pass.  A span records its name,
start, end, parent span and, for a few layers, the shape of the work.
Spans stay in memory; the caller writes them out at the end of the run.
``PumpProfile.amplitude`` runs millions of times per model run, so it is
only counted, not spanned.
"""

import os
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter


def _grid_shape(args, result):
    return list(args[0].shape)


def _steps(args, result):
    return args[1].steps


def _bytes_written(args, result):
    return os.path.getsize(args[0]) if args[0] else 0


# (module, attribute, span name, what to record about the call)
TARGETS = (
    ("pnes.cli", "read_config_file", "cli.config", None),
    ("pnes.cli", "validate_config", "cli.config", None),
    ("pnes.cli", "_build_exact_state", "states.build", None),
    ("pnes.cli", "_build_profile", "states.build", None),
    ("pnes.dispersion", "_make_state", "states.build", None),
    ("pnes.cli", "evolve", "propagator.evolve", _steps),
    ("pnes.propagator", "evolve", "propagator.evolve", _steps),
    ("pnes.propagator", "measure", "observables.measure", None),
    ("pnes.kernels", "apply_generator", "kernels.apply_generator", _grid_shape),
    ("pnes.kernels", "discard_flux_sq", "kernels.discard_flux_sq", None),
    ("pnes.cli", "build_report", "dispersion.build_report", None),
    ("pnes.dispersion", "rate_of", "propagator.rate_of", None),
    ("pnes.cli", "integrate_model", "meanfield.integrate_model", None),
    ("pnes.cli", "closed_form_trajectory", "meanfield.closed_form_trajectory", None),
    ("pnes.meanfield", "tau_of_t", "meanfield.tau_of_t", None),
    ("pnes.cli", "write_output", "cli.write_output", _bytes_written),
)
COUNTED = (("pnes.meanfield", "PumpProfile", "amplitude", "meanfield.amplitude_evals"),)


class Tracer:
    """Spans of one traced pass: [name, start, end, parent index, detail]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.wrapped = []
        self._stack = []

    def wrap(self, name, fn, detail=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if detail is not None:
                rec[4] = detail(args, result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every target that exists in this version of pnes; restore on exit.

        A target that a later version removes is skipped and its layer then
        reads zero calls; ``wrapped`` lists what was actually wrapped.
        """
        saved = []
        try:
            for module, attr, name, detail in TARGETS:
                owner = import_module(module)
                if hasattr(owner, attr):
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self.wrap(name, saved[-1][2], detail))
                    self.wrapped.append(f"{module}.{attr}")
            for module, cls, attr, name in COUNTED:
                owner = getattr(import_module(module), cls, None)
                if owner is not None and hasattr(owner, attr):
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, self.count(name, saved[-1][2]))
                    self.wrapped.append(f"{module}.{cls}.{attr}")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def apply_generator_cost(shape):
    """Computed (bytes, flops) of one application of G on a (d0, d1, d2) grid.

    Bytes: psi read once and G psi written once, complex128.  Flops: each of
    the two hopping terms multiplies (d0-1)(d1-1)(d2-1) complex amplitudes
    by a real weight and accumulates them, 4 real flops per amplitude.
    Cache misses and temporaries are ignored, so both are lower bounds.
    """
    d0, d1, d2 = shape
    return 2 * 16 * d0 * d1 * d2, 2 * 4 * max(d0 - 1, 0) * max(d1 - 1, 0) * max(d2 - 1, 0)


def pass_metrics(tracer):
    """Per-layer figures of one traced pass; build_report times are returned apart."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    calls, total = Counter(), defaultdict(float)
    for name, start, end, parent, _ in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child_s[parent] += end - start
    self_s = defaultdict(float)
    for (name, start, end, _, _), kids in zip(spans, child_s):
        self_s[name] += end - start - kids
    details = defaultdict(list)
    for name, _, _, _, detail in spans:
        if detail is not None:
            details[name].append(detail)

    gen = "kernels.apply_generator"
    costs = [apply_generator_cost(shape) for shape in details[gen]]
    gen_bytes = sum(b for b, _ in costs)
    gen_flops = sum(f for _, f in costs)
    n_gen = calls[gen]
    roots = calls["cli.main"]
    m = {
        f"{gen}.calls": n_gen,
        f"{gen}.s": total[gen],
        f"{gen}.us_per_call": 1e6 * total[gen] / n_gen if n_gen else 0.0,
        f"{gen}.bytes_computed": gen_bytes / n_gen if n_gen else 0.0,
        f"{gen}.flops_computed": gen_flops / n_gen if n_gen else 0.0,
        f"{gen}.gbps_computed": gen_bytes / total[gen] / 1e9 if n_gen else 0.0,
        "kernels.discard_flux_sq.calls": calls["kernels.discard_flux_sq"],
        "kernels.discard_flux_sq.s": total["kernels.discard_flux_sq"],
        "observables.measure.calls": calls["observables.measure"],
        "observables.measure.s": total["observables.measure"],
        "observables.measure.ms_per_call": (
            1e3 * total["observables.measure"] / calls["observables.measure"]
            if calls["observables.measure"] else 0.0
        ),
        "propagator.evolve.calls": calls["propagator.evolve"],
        "propagator.evolve.s": total["propagator.evolve"],
        "propagator.evolve.self_s": self_s["propagator.evolve"],
        "propagator.steps": sum(details["propagator.evolve"]),
        "propagator.rate_of.calls": calls["propagator.rate_of"],
        "propagator.rate_of.s": total["propagator.rate_of"],
        "dispersion.build_report.calls": calls["dispersion.build_report"],
        "dispersion.build_report.s": total["dispersion.build_report"],
        "meanfield.tau_of_t.calls": calls["meanfield.tau_of_t"],
        "meanfield.tau_of_t.s": total["meanfield.tau_of_t"],
        "meanfield.amplitude_evals": tracer.counts["meanfield.amplitude_evals"],
        "meanfield.integrate_model.s": total["meanfield.integrate_model"],
        "meanfield.closed_form_trajectory.s": total["meanfield.closed_form_trajectory"],
        "states.build.s": total["states.build"],
        "cli.config.s": total["cli.config"],
        "cli.write_output.s": total["cli.write_output"],
        "cli.write_output.bytes": sum(details["cli.write_output"]),
        "trace.coverage": (
            1.0 - self_s["cli.main"] / total["cli.main"] if roots else 0.0
        ),
    }
    report_ms = [1e3 * (end - start) for name, start, end, _, _ in spans
                 if name == "dispersion.build_report"]
    return m, report_ms


def combine(per_pass, report_ms):
    """Median (the lower of the middle two) of each figure over the traced passes,
    so counts stay whole, plus build_report percentiles.

    The percentiles pool every build_report span of the run: p50, and p90,
    which has at least 10 spans beyond it once three scan passes ran.
    """
    out = {key: statistics.median_low(p[key] for p in per_pass) for key in per_pass[0]}
    if len(report_ms) >= 2:
        deciles = statistics.quantiles(report_ms, n=10)
        out["dispersion.build_report.ms.p50"] = statistics.median(report_ms)
        out["dispersion.build_report.ms.p90"] = deciles[-1]
    else:
        out["dispersion.build_report.ms.p50"] = report_ms[0] if report_ms else 0.0
        out["dispersion.build_report.ms.p90"] = out["dispersion.build_report.ms.p50"]
    return out
