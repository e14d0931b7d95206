"""Truncated three-mode Fock space: pump (mode 0), signal (1), idler (2).

The dense exchange format is a complex vector with row-major layout, pump
index slowest: flat index of |n0, n1, n2> is (n0*d1 + n1)*d2 + n2.  This
module holds the box and the coupling (immutable NamedTuples whose
constructors check their fields) and ``PureState``, the one state type,
which stores only the occupied n1 - n2 sectors of ``kernels``.
``PureState(config, amplitudes)`` is the one way in for a dense vector, and
``amplitudes`` and ``grid()`` are the way out; no CLI command uses either.
Truncation is a hard cutoff; ``observables.measure`` reads the probability
a state has on the box's edge cells (``measure(s).leakage``), a diagnostic,
not a bound on the truncation error.
"""

from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ValidationError

# keep the dense vector comfortably in memory; 2^26 complex128 = 1 GiB
MAX_TOTAL_DIM = 1 << 26
MAX_ROWS = 100_000  # the most rows a run may write: recorded times or model grid points


class TruncationConfig(NamedTuple("TruncationConfig", [("d0", int), ("d1", int), ("d2", int)])):
    """Per-mode Fock cutoffs; mode m holds occupations 0 .. d_m - 1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, d0, d1, d2):
        for name, d in (("d0", d0), ("d1", d1), ("d2", d2)):
            if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
                raise ValidationError(f"{name} must be a positive integer, got {d!r}")
        self = super().__new__(cls, d0, d1, d2)
        if self.dim > MAX_TOTAL_DIM:
            raise ValidationError(
                f"total dimension {self.dim} exceeds the supported maximum {MAX_TOTAL_DIM}"
            )
        return self

    @property
    def dim(self):
        return self.d0 * self.d1 * self.d2

    @property
    def shape(self):
        return (self.d0, self.d1, self.d2)


class HamiltonianParams(NamedTuple("HamiltonianParams", [("chi", float)])):
    """Coupling strength of the trilinear interaction, units 1/time.

    The modes are resonant, omega_0 = omega_1 + omega_2: the propagator
    works in the rotating frame, where only this coupling remains.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, chi):
        if isinstance(chi, (bool, np.bool_)) or not np.isfinite(chi) or chi < 0:
            raise ValidationError(f"chi must be finite and >= 0, got {chi!r}")
        return super().__new__(cls, chi)


class PureState:
    """A state of the box, held as its occupied n1 - n2 sectors.

    ``psi`` is the (d0, M, J) sector array and ``layout`` its
    ``kernels.SectorLayout``.  ``PureState(config, amplitudes)`` checks a
    dense vector and gathers it; ``from_sectors`` wraps sectors as they are.
    ``config`` follows from the layout; ``amplitudes`` (read-only) and
    ``grid()`` scatter a new dense array on each read.
    """

    def __init__(self, config, amplitudes):
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != config.dim:
            raise ValidationError(
                f"amplitude vector length {amps.size} != config dimension {config.dim}"
            )
        if not (np.all(np.isfinite(amps)) and np.any(amps)):
            raise ValidationError("amplitudes must be finite with a nonzero entry")
        self.psi, self.layout = kernels.gather(amps.reshape(config.shape))

    @classmethod
    def from_sectors(cls, psi, layout):
        """The state whose sector array on ``layout`` is psi (not copied, not checked)."""
        self = cls.__new__(cls)
        self.psi, self.layout = psi, layout
        return self

    config = property(lambda self: TruncationConfig(*self.layout.shape))
    amplitudes = property(lambda self: self.grid().reshape(-1))

    def grid(self):
        return kernels.scatter(self.psi, self.layout)


def basis_index(n0, n1, n2, cfg):
    """Flat index of |n0, n1, n2>; bijective on the valid occupation box."""
    for n, d, name in ((n0, cfg.d0, "n0"), (n1, cfg.d1, "n1"), (n2, cfg.d2, "n2")):
        if not 0 <= n < d:
            raise ValidationError(f"{name}={n} out of range [0, {d})")
    return (n0 * cfg.d1 + n1) * cfg.d2 + n2


def basis_state(n0, n1, n2, cfg):
    """The Fock basis state |n0, n1, n2> as a PureState."""
    amps = np.zeros(cfg.dim, dtype=np.complex128)
    amps[basis_index(n0, n1, n2, cfg)] = 1.0
    return PureState(cfg, amps)
