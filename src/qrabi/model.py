"""Model parameters of H = omega a^dag a + g sigma_z (a^dag + a) + (Omega/2) sigma_x.

The matrices are built where they are solved: the parity-sector tridiagonal
in ``edsolver``; the dense full-space matrix is a test oracle
(``tests/conftest.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterDomainError


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters (omega, Omega, g), the single source of truth.

    Energies are raw: Omega is not normalized to 1 internally. Derived
    couplings are recomputed on access, never stored.
    """

    omega: float
    Omega: float
    g: float

    def __post_init__(self):
        for name in ("omega", "Omega", "g"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterDomainError(f"{name} must be finite, got {v!r}")
        if self.omega <= 0:
            raise ParameterDomainError(f"omega must be > 0, got {self.omega}")
        # Omega = 0 is permitted as the exactly solvable displaced-oscillator
        # limit used by test oracles; g_bar is undefined there.
        if self.Omega < 0:
            raise ParameterDomainError(f"Omega must be >= 0, got {self.Omega}")
        if self.g < 0:
            raise ParameterDomainError(f"g must be >= 0, got {self.g}")

    @property
    def gc0(self) -> float:
        """Conventional transition coupling sqrt(omega*Omega)/2."""
        return 0.5 * math.sqrt(self.omega * self.Omega)

    @property
    def g_bar(self) -> float:
        """Coupling in units of gc0."""
        if self.Omega == 0:
            raise ParameterDomainError("g_bar undefined at Omega = 0")
        return self.g / self.gc0

    @property
    def g_tilde(self) -> float:
        """Potential displacement sqrt(2)*g/omega."""
        return math.sqrt(2.0) * self.g / self.omega

    def with_g(self, g: float) -> "ModelParams":
        return ModelParams(self.omega, self.Omega, g)

