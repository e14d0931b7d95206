"""Exact time evolution under the trilinear interaction.

The state evolves in the resonant rotating frame, d psi/dt = G psi with
G = chi (a1+ a2+ a0 - a1 a2 a0+); the free-Hamiltonian terms are removed
analytically (at resonance they only rotate phases jointly and commute
with the interaction).

G conserves n1 - n2, so ``evolve`` works on the occupied sectors a
``PureState`` holds, psi[n0, m, j] (see ``kernels``).  There G only hops
(n0 + 1, m) <-> (n0, m + 1): each chain K = n0 + m evolves alone under a real
antisymmetric tridiagonal matrix with off-diagonal chi * hop[K - m - 1, m, j].
The chains are folded into P = max(d0, M) blocks of L = min(d0, M) cells: cell
(n0, m) goes to block K mod P, at its index along the shorter of the n0 and m
axes.  A block holds chain b, or chains b and b + P with no hop where they
meet, so the fold is a permutation of the cells, with no padding, and each
block's G is one L x L tridiagonal matrix D (-i S) D^-1 with D = diag(i^c) and
S real symmetric.  One ``np.linalg.eigh`` per block, S = V diag(w) V^T, gives
the exact propagator exp(G t) = D V exp(-i w t) V^T D^-1: ``dt`` and ``steps``
only set the output grid.  The norm is reported, never renormalized.  The
leakage estimate belongs to the trajectory, not to the state; what it is and
is not is stated on ``ExactTrajectory``.
"""

import sys
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import NoisyDerivativeError, ValidationError
from .fock import MAX_TOTAL_DIM, HamiltonianParams, PureState
from .observables import measure


class EvolutionSpec(NamedTuple("EvolutionSpec", [("params", HamiltonianParams), ("dt", float),
                                                  ("steps", int), ("record_every", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, params, dt, steps, record_every=1):
        for name, n in (("steps", steps), ("record_every", record_every)):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {n!r}")
        if dt == 0 or not np.isfinite(dt):
            raise ValidationError(f"dt must be finite and nonzero, got {dt!r}")
        if steps < 0:
            raise ValidationError(f"steps must be >= 0, got {steps}")
        if record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {record_every}")
        # each step adds dt^2 (chi^2 edge_sum) to the leakage (float products: inf or
        # nan on overflow); for a unit-norm state edge_sum <= 2 MAX_TOTAL_DIM, two edges
        # whose weights, d0 n1 n2 and n0 (n1 + 1)(n2 + 1), are at most the box size d0 d^2
        chi, h = float(params.chi), float(dt)
        leak_step = h * h * (chi * chi * 2.0 * MAX_TOTAL_DIM)
        if not (np.isfinite(leak_step) and steps <= sys.float_info.max / max(abs(h), leak_step)):
            raise ValidationError(f"dt={dt!r}, steps={steps} and chi={chi!r} overflow the "
                                  "recorded times or the leakage estimate")
        return super().__new__(cls, params, dt, steps, record_every)


class ExactTrajectory(NamedTuple):
    """What ``evolve`` records, ending in ``final_state``.  ``leakage``
    and ``leakages`` estimate the probability pushed past the cutoff: every
    ``evolve`` starts at 0 and adds dt^2 times the squared boundary flux
    (``kernels.discard_flux_sq``) per step.  That Euler heuristic is not a
    probability: it grows with ``dt`` (50 steps of dt = 1e6 on a 4-level
    pair box give 2.2e14 while the norm stays 1 to 1e-15)."""

    times: np.ndarray
    observables: list
    norms: np.ndarray
    leakages: np.ndarray
    final_state: PureState
    norm_drift: float
    leakage: float


def _chain_stepper(psi, layout, chi, dt):
    """A function that advances the sector array psi on ``layout`` by exp(G dt) per call.

    The fold (see the module docstring) maps cell (n0, m) to position c of
    block (n0 + m) mod P, c = m if d0 >= M, else c = n0.  G takes
    p = (a + 1, m) to q = (a, m + 1) with weight chi * hop[a, m], and q to p
    with its negative.  Below the diagonal S equals G: G[q, p] when c = m
    (q one position above p), G[p, q] when c = n0 (p one position above q).
    The one large array is V, the eigenvectors of every block,
    shape (P, J, L, L): the blocks' S are filled into V and diagonalized
    there one block at a time.  ValidationError, before any eigh, if V would
    exceed 2 * MAX_TOTAL_DIM float64, as many bytes as the largest dense state.
    """
    d0, M, J = psi.shape
    P, L = max(d0, M), min(d0, M)
    if P * J * L * L > 2 * MAX_TOTAL_DIM:
        raise ValidationError(
            f"the chain eigenvectors of {J} n1 - n2 sectors on a {d0} x {M} box "
            f"exceed {2 * MAX_TOTAL_DIM} float64"
        )
    n0, m = np.ogrid[:d0, :M]
    block = (n0 + m) % P
    pos = np.broadcast_to(m if d0 >= M else n0, block.shape)
    p, q = pos[1:, :-1], pos[:-1, 1:]
    # eigh reads only the lower triangle
    V = np.zeros((P, J, L, L))
    if d0 >= M:
        V[block[1:, :-1], :, q, p] = chi * layout.hop
    else:
        V[block[1:, :-1], :, p, q] = -chi * layout.hop
    w = np.empty((P, J, L))
    for b in range(P):
        w[b], V[b] = np.linalg.eigh(V[b])

    d = np.array([1, 1j, -1, -1j])[np.arange(L) % 4]  # D = diag(i^c)
    x = np.empty((P, J, L), dtype=np.complex128)
    x[block, :, pos] = psi  # the fold is a permutation: this sets every cell
    x *= d.conj()
    # V is real: it multiplies real and imaginary parts as two real columns,
    # the float64 view of a complex array
    columns = np.matmul(V.swapaxes(-1, -2), x.view(np.float64).reshape(*x.shape, 2))
    coef = columns.view(np.complex128)[..., 0]
    rotation = np.exp(-1j * dt * w)

    def step():
        np.multiply(coef, rotation, out=coef)  # rotates columns, which coef views
        return (np.matmul(V, columns).view(np.complex128)[..., 0] * d)[block, :, pos]

    return step


def evolve(s0, spec):
    """exp(G t) s0 at t = dt, 2 dt, ..., steps * dt, exact at each time.

    The final state never shares its sector array with s0; for the leakage
    estimate see ``ExactTrajectory``.  Observables are recorded every
    record_every steps (always including the initial and final times).
    Nothing scatters to the dense grid.  Raises ValidationError
    when the blocks' eigenvectors would not fit (see ``_chain_stepper``).
    """
    psi, layout = s0.psi, s0.layout
    chi = spec.params.chi
    step = _chain_stepper(psi, layout, chi, spec.dt)

    times = [0.0]
    obs = [measure(s0)]
    norms = [float(np.linalg.norm(psi))]
    leak = 0.0
    leaks = [leak]
    for k in range(spec.steps):
        leak += spec.dt * spec.dt * kernels.discard_flux_sq(psi, chi, layout)
        psi = step()
        if (k + 1) % spec.record_every == 0 or k + 1 == spec.steps:
            times.append((k + 1) * spec.dt)
            obs.append(measure(PureState.from_sectors(psi, layout)))
            norms.append(float(np.linalg.norm(psi)))
            leaks.append(leak)

    norms_arr = np.asarray(norms)
    drift = float(np.max(np.abs(norms_arr**2 + np.asarray(leaks) - 1.0)))
    return ExactTrajectory(
        times=np.asarray(times),
        observables=obs,
        norms=norms_arr,
        leakages=np.asarray(leaks),
        final_state=PureState.from_sectors(psi.copy() if spec.steps == 0 else psi, layout),
        norm_drift=drift,
        leakage=leak,
    )


_FD_TOL = 1e-4


def rate_of(s0, params, f):
    """d<f>/dt at t=0 by Richardson-extrapolated central differences.

    f is a callable on each evolved ``PureState``, e.g.
    ``lambda s: measure(s).disp_plus``.
    Central differences with steps h and h/2 are combined to fourth order;
    each side is one exact evolution over +h or -h, with
    h = 1e-3 / (chi * max(1, |<a0>|, <N>)).
    Raises NoisyDerivativeError (carrying both estimates) when their error
    estimate |d(h/2) - d(h)| / 3 exceeds 1e-4 * max(1, |rate|).
    """
    if params.chi == 0.0:
        return 0.0
    o = measure(s0)
    h = 1e-3 / (params.chi * max(1.0, abs(o.pump_amp), o.total_n))

    def central(step):
        fp, fm = (f(evolve(s0, EvolutionSpec(params, dt=t, steps=1)).final_state)
                  for t in (step, -step))
        return (fp - fm) / (2.0 * step)

    d_h = central(h)
    d_h2 = central(h / 2.0)
    rich = (4.0 * d_h2 - d_h) / 3.0
    err = abs(d_h2 - d_h) / 3.0
    if err > _FD_TOL * max(1.0, abs(rich)):
        raise NoisyDerivativeError(
            f"finite-difference estimates disagree: {d_h!r} (h) vs {d_h2!r} (h/2)",
            d_h,
            d_h2,
        )
    return rich
