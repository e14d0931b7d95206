"""Exact time evolution under the trilinear interaction.

The state evolves in the resonant rotating frame, d psi/dt = G psi with
G = chi (a1+ a2+ a0 - a1 a2 a0+); the free-Hamiltonian terms are removed
analytically (at resonance they only rotate phases jointly and commute
with the interaction).

G conserves n1 - n2, so ``evolve`` works on the occupied sectors only, as
psi[n0, m, j] (see ``kernels``).  There G only hops (n0 + 1, m) <-> (n0, m + 1),
so each chain K = n0 + m of cells x_c = psi[K - m, m, j] evolves alone under a
real antisymmetric tridiagonal matrix with off-diagonal chi * hop[K - m - 1, m, j].
That matrix is D (-i S) D^-1 with D = diag(i^c) and S real symmetric, so one
``np.linalg.eigh`` per chain, S = V diag(w) V^T, gives the exact propagator
exp(G t) = D V exp(-i w t) V^T D^-1: ``dt`` and ``steps`` only set the output
grid.  The norm is reported, never renormalized; the leakage estimate adds
dt^2 times the squared boundary flux (``kernels.discard_flux_sq``) per step.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NoisyDerivativeError, ValidationError
from .fock import MAX_TOTAL_DIM, HamiltonianParams, PureState
from .observables import measure


@dataclass(frozen=True)
class EvolutionSpec:
    params: HamiltonianParams
    dt: float
    steps: int
    record_every: int = 1

    def __post_init__(self):
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValidationError(f"dt must be finite and nonzero, got {self.dt!r}")
        if self.steps < 0:
            raise ValidationError(f"steps must be >= 0, got {self.steps}")
        if self.record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class ExactTrajectory:
    times: np.ndarray
    observables: list
    norms: np.ndarray
    leakages: np.ndarray
    final_state: PureState
    norm_drift: float
    leakage: float


def _chain_stepper(sectors, chi, dt):
    """A function that advances the psi of ``sectors`` by exp(G dt) per call.

    It keeps one large array, the eigenvectors V of every chain, shape
    (d0 + M - 1, J, L, L): the chains' S are filled into V and diagonalized
    there one chain at a time.  ValidationError, before any eigh, if V would
    exceed 2 * MAX_TOTAL_DIM float64, as many bytes as the largest dense state.
    """
    psi, layout = sectors
    d0, M, J = psi.shape
    L = min(d0, M)
    if (d0 + M - 1) * J * L * L > 2 * MAX_TOTAL_DIM:
        raise ValidationError(
            f"the chain eigenvectors of {J} n1 - n2 sectors on a {d0} x {M} box "
            f"exceed {2 * MAX_TOTAL_DIM} float64"
        )
    # chain K = n0 + m of each cell, and its position c from m = max(0, K - d0 + 1)
    chain = np.arange(d0)[:, None] + np.arange(M)
    pos = np.arange(M) - np.maximum(0, chain - d0 + 1)
    # hop[a, m] joins (a + 1, m), at some c of chain a + m + 1, to (a, m + 1) at c + 1;
    # eigh reads only the lower triangle
    c = pos[1:, :-1]
    V = np.zeros((d0 + M - 1, J, L, L))
    V[chain[1:, :-1], :, c + 1, c] = chi * layout.hop
    w = np.zeros((d0 + M - 1, J, L))
    for k, n in enumerate(np.bincount(chain.ravel())):  # n cells, then zero padding
        w[k, :, :n], V[k, :, :n, :n] = np.linalg.eigh(V[k, :, :n, :n])

    d = np.array([1, 1j, -1, -1j])[np.arange(L) % 4]  # D = diag(i^c)
    x = np.zeros((d0 + M - 1, J, L), dtype=np.complex128)
    x[chain, :, pos] = psi
    x *= d.conj()
    # V is real: it multiplies real and imaginary parts as two real columns,
    # the float64 view of a complex array
    columns = np.matmul(V.swapaxes(-1, -2), x.view(np.float64).reshape(*x.shape, 2))
    coef = columns.view(np.complex128)[..., 0]
    rotation = np.exp(-1j * dt * w)

    def step():
        np.multiply(coef, rotation, out=coef)  # rotates columns, which coef views
        return (np.matmul(V, columns).view(np.complex128)[..., 0] * d)[chain, :, pos]

    return step


def evolve(s0, spec):
    """exp(G t) s0 at t = dt, 2 dt, ..., steps * dt, exact at each time.

    Observables are recorded every record_every steps (always including the
    initial and final times).  Raises ValidationError when the chains'
    eigenvectors would not fit (see ``_chain_stepper``).
    """
    sectors = kernels.gather(s0.grid())
    psi, layout = sectors
    chi = spec.params.chi
    step = _chain_stepper(sectors, chi, spec.dt)
    leak = s0.leakage

    times = [0.0]
    obs = [measure(sectors)]
    norms = [float(np.linalg.norm(psi))]
    leaks = [leak]
    for k in range(spec.steps):
        leak += spec.dt * spec.dt * kernels.discard_flux_sq(psi, chi, layout)
        psi = step()
        if (k + 1) % spec.record_every == 0 or k + 1 == spec.steps:
            times.append((k + 1) * spec.dt)
            obs.append(measure(kernels.Sectors(psi, layout)))
            norms.append(float(np.linalg.norm(psi)))
            leaks.append(leak)

    del step  # frees V before the dense final state is built
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


def rate_of(s0, params, f, h=None, tol=1e-4):
    """d<f>/dt at t=0 by Richardson-extrapolated central differences.

    f is a callable on PureState, e.g. ``lambda s: measure(s).disp_plus``.
    Central differences with steps h and h/2 are combined to fourth order;
    each side is one exact evolution over +h or -h.  The default h is
    1e-3 / (chi * max(1, |<a0>|, <N>)).
    Raises NoisyDerivativeError (carrying both estimates) when the two
    step sizes disagree beyond tol.
    """
    if h is None:
        o = measure(s0)
        h = 1e-3 / ((params.chi or 1.0) * max(1.0, abs(o.pump_amp), o.total_n))
    if h <= 0:
        raise ValidationError(f"finite-difference step must be > 0, got {h!r}")

    if params.chi == 0.0:
        return 0.0

    def central(step):
        fp, fm = (f(evolve(s0, EvolutionSpec(params, dt=t, steps=1)).final_state)
                  for t in (step, -step))
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
