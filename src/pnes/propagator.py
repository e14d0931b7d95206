"""Exact time evolution under the trilinear interaction.

The state is integrated in the resonant rotating frame, d psi/dt = G psi
with G = chi (a1+ a2+ a0 - a1 a2 a0+); the free-Hamiltonian terms are
removed analytically (at resonance they only rotate phases jointly and
commute with the interaction).  Two fixed-step integrators are provided:
classical rk4 and taylor4 (degree-4 truncation of exp(G dt)); for this
autonomous linear system they agree to rounding, which is exactly what
makes them a useful cross-check against kernel bugs.

G conserves n1 - n2, so ``evolve`` gathers only the occupied n1 - n2 sectors
of the initial state into the stacked sector array of ``kernels`` and runs
the integrator, the leakage sum and every ``measure`` there; the other
sectors stay exactly zero.  The dense PureState is rebuilt only for the
final state.

Norm renormalization is never applied silently: drift is reported on the
trajectory, and leakage through the cutoff boundary is accounted per step
from the generator's boundary flux.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import IntegrationDivergedError, NoisyDerivativeError, ValidationError
from .fock import HamiltonianParams, PureState
from .observables import (
    expect_pump_amplitude,
    expect_total_number,
    measure,
)


@dataclass(frozen=True)
class EvolutionSpec:
    params: HamiltonianParams
    dt: float
    steps: int
    record_every: int = 1
    method: str = "rk4"

    def __post_init__(self):
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValidationError(f"dt must be finite and nonzero, got {self.dt!r}")
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if self.record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {self.record_every}")
        if self.method not in ("rk4", "taylor4"):
            raise ValidationError(f"method must be 'rk4' or 'taylor4', got {self.method!r}")


@dataclass
class ExactTrajectory:
    times: np.ndarray
    observables: list
    norms: np.ndarray
    leakages: np.ndarray
    final_state: PureState
    norm_drift: float
    leakage: float


def _stability_check(sectors, spec):
    # |chi| dt * pump-amplitude scale beyond ~0.1 degrades rk4 accuracy
    scale = max(1.0, abs(expect_pump_amplitude(sectors)))
    if spec.params.chi * abs(spec.dt) * scale > 0.1:
        warnings.warn(
            f"chi*dt*pump_scale = {spec.params.chi * abs(spec.dt) * scale:.3g} > 0.1; "
            "consider a smaller step",
            RuntimeWarning,
            stacklevel=3,
        )


def _rk4_step(psi, chi, dt, scratch, layout):
    k1, k2, k3, k4, tmp = scratch
    kernels.apply_generator(psi, chi, k1, layout)
    np.multiply(k1, 0.5 * dt, out=tmp)
    tmp += psi
    kernels.apply_generator(tmp, chi, k2, layout)
    np.multiply(k2, 0.5 * dt, out=tmp)
    tmp += psi
    kernels.apply_generator(tmp, chi, k3, layout)
    np.multiply(k3, dt, out=tmp)
    tmp += psi
    kernels.apply_generator(tmp, chi, k4, layout)
    psi += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _taylor4_step(psi, chi, dt, scratch, layout):
    term, nxt = scratch[0], scratch[1]
    term[...] = psi
    for k in range(1, 5):
        kernels.apply_generator(term, chi, nxt, layout)
        np.multiply(nxt, dt / k, out=term)
        psi += term


def evolve(s0, spec):
    """Integrate d psi/dt = G psi from s0 over spec.steps steps of spec.dt.

    Observables are recorded every record_every steps (always including the
    initial and final times).  Raises IntegrationDivergedError naming the
    step if any amplitude becomes non-finite.  The work runs on the occupied
    n1 - n2 sectors of s0 only (see ``kernels``).
    """
    sectors = kernels.gather(s0.grid())
    psi, layout = sectors
    _stability_check(sectors, spec)
    chi = spec.params.chi
    leak = s0.leakage
    scratch = [np.empty_like(psi) for _ in range(5)]
    step_fn = _rk4_step if spec.method == "rk4" else _taylor4_step

    times = [0.0]
    obs = [measure(sectors)]
    norms = [float(np.linalg.norm(psi))]
    leaks = [leak]
    for k in range(spec.steps):
        leak += spec.dt * spec.dt * kernels.discard_flux_sq(psi, chi, layout)
        step_fn(psi, chi, spec.dt, scratch, layout)
        if not np.all(np.isfinite(psi)):
            raise IntegrationDivergedError(f"non-finite amplitude at step {k + 1}")
        if (k + 1) % spec.record_every == 0 or k + 1 == spec.steps:
            times.append((k + 1) * spec.dt)
            obs.append(measure(sectors))
            norms.append(float(np.linalg.norm(psi)))
            leaks.append(leak)

    final = PureState(s0.config, kernels.scatter(psi, layout).reshape(-1), leak)
    norms_arr = np.asarray(norms)
    drift = float(np.max(np.abs(norms_arr**2 + np.asarray(leaks) - 1.0)))
    return ExactTrajectory(
        times=np.asarray(times),
        observables=obs,
        norms=norms_arr,
        leakages=np.asarray(leaks),
        final_state=final,
        norm_drift=drift,
        leakage=leak,
    )


# named observable selectors accepted by rate_of and the CLI
OBSERVABLE_SELECTORS = {
    "pair_amp_re": lambda s: measure(s).pair_amp.real,
    "total_n": lambda s: measure(s).total_n,
    "diff_n": lambda s: measure(s).diff_n,
    "pump_quad": lambda s: measure(s).pump_quad,
    "c_plus": lambda s: measure(s).c_plus,
    "disp_plus": lambda s: measure(s).disp_plus,
    "disp_minus": lambda s: measure(s).disp_minus,
    "conserved_k": lambda s: measure(s).conserved_k,
}

_FD_SUBSTEPS = 4


def _observable_after(s0, params, f, t):
    spec = EvolutionSpec(params, dt=t / _FD_SUBSTEPS, steps=_FD_SUBSTEPS,
                         record_every=_FD_SUBSTEPS)
    return f(evolve(s0, spec).final_state)


def default_fd_step(s0, params):
    """h = 1e-3 / (chi * max(1, pump amplitude, <N>))."""
    scale = max(1.0, abs(expect_pump_amplitude(s0)), expect_total_number(s0))
    chi = params.chi if params.chi > 0 else 1.0
    return 1e-3 / (chi * scale)


def rate_of(s0, params, f, h=None, tol=1e-4):
    """d<f>/dt at t=0 by Richardson-extrapolated central differences.

    f is a callable on PureState or a key of OBSERVABLE_SELECTORS.  Central
    differences with steps h and h/2 are combined to fourth order; backward
    evolution reuses the same time-independent generator with negative dt.
    Raises NoisyDerivativeError (carrying both estimates) when the two
    step sizes disagree beyond tol.
    """
    if isinstance(f, str):
        try:
            f = OBSERVABLE_SELECTORS[f]
        except KeyError:
            raise ValidationError(
                f"unknown observable selector {f!r}; known: {sorted(OBSERVABLE_SELECTORS)}"
            ) from None
    if h is None:
        h = default_fd_step(s0, params)
    if h <= 0:
        raise ValidationError(f"finite-difference step must be > 0, got {h!r}")

    if params.chi == 0.0:
        return 0.0

    def central(step):
        fp = _observable_after(s0, params, f, +step)
        fm = _observable_after(s0, params, f, -step)
        return (fp - fm) / (2.0 * step)

    d_h = central(h)
    d_h2 = central(h / 2.0)
    rich = (4.0 * d_h2 - d_h) / 3.0
    err = abs(d_h2 - d_h) / 3.0
    if err > tol * max(1.0, abs(rich)):
        raise NoisyDerivativeError(
            f"finite-difference estimates disagree: {d_h!r} (h) vs {d_h2!r} (h/2)",
            d_h,
            d_h2,
        )
    return rich
