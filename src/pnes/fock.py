"""Truncated three-mode Fock space: pump (mode 0), signal (1), idler (2).

Amplitudes are stored as a dense complex vector with row-major layout,
pump index slowest: flat index of |n0, n1, n2> is (n0*d1 + n1)*d2 + n2.
This is the exchange format of the package; this module holds only the
box, the coupling and the state.  The interaction generator and the
moments act on the sector layout of ``kernels``, which keeps only the
occupied n1 - n2 sectors: a PureState enters it through
``kernels.as_sectors`` and is scattered back on the way out.  Truncation is
a hard cutoff; the propagator's estimate of the probability that reached
it lives on its trajectory (``ExactTrajectory.leakage``), not on the state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# keep the dense vector comfortably in memory; 2^26 complex128 = 1 GiB
MAX_TOTAL_DIM = 1 << 26


@dataclass(frozen=True)
class TruncationConfig:
    """Per-mode Fock cutoffs; mode m holds occupations 0 .. d_m - 1."""

    d0: int
    d1: int
    d2: int

    def __post_init__(self):
        for name in ("d0", "d1", "d2"):
            d = getattr(self, name)
            if not isinstance(d, (int, np.integer)) or d < 1:
                raise ValidationError(f"{name} must be a positive integer, got {d!r}")
        if self.dim > MAX_TOTAL_DIM:
            raise ValidationError(
                f"total dimension {self.dim} exceeds the supported maximum {MAX_TOTAL_DIM}"
            )

    @property
    def dim(self):
        return self.d0 * self.d1 * self.d2

    @property
    def shape(self):
        return (self.d0, self.d1, self.d2)


@dataclass(frozen=True)
class HamiltonianParams:
    """Coupling strength of the trilinear interaction, units 1/time.

    The modes are resonant, omega_0 = omega_1 + omega_2: the propagator
    works in the rotating frame, where only this coupling remains.
    """

    chi: float

    def __post_init__(self):
        if not np.isfinite(self.chi) or self.chi < 0:
            raise ValidationError(f"chi must be finite and >= 0, got {self.chi!r}")


@dataclass
class PureState:
    """Normalized amplitude vector over the three-mode Fock basis."""

    config: TruncationConfig
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != self.config.dim:
            raise ValidationError(
                f"amplitude vector length {amps.size} != config dimension {self.config.dim}"
            )
        self.amplitudes = amps

    def grid(self):
        """Amplitudes viewed as a (d0, d1, d2) array (shares memory)."""
        return self.amplitudes.reshape(self.config.shape)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self):
        return np.abs(self.grid()) ** 2


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
