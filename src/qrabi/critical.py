"""Closed-form critical couplings, the leading series coefficients of gc_xi,
and least-squares fitting of numerically located QFI peaks in fractional vs
integer power bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, QrabiError

DEFAULT_DC1 = 1.9
GC2_COEFFS = {
    # ratio = 1 + c1 r^(2/3) + c2 r^(4/3) (+ c3 r^2), r = omega/Omega
    "alphaFS": (137.0 / 100.0, -1.0 / 8.0),
    "fourThirds": (4.0 / 3.0, -3.0 / 40.0),
    "fitted": (1.3715, -0.1311, 0.0184),
}
DEFAULT_FIT_GRID = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class CriticalEstimate:
    """A transition-coupling value tagged with the method that produced it."""

    value: float
    ratio: float
    method: str
    freq_ratio: float


@dataclass(frozen=True)
class FitResult:
    basis: str
    order: int
    coefficients: np.ndarray
    residual: float
    grid: np.ndarray


def _check_freq(omega, Omega):
    if omega <= 0 or Omega <= 0:
        raise ParameterDomainError(f"omega and Omega must be > 0, got {omega}, {Omega}")


def gc0(omega: float, Omega: float) -> CriticalEstimate:
    """Conventional transition coupling sqrt(omega*Omega)/2."""
    _check_freq(omega, Omega)
    value = 0.5 * math.sqrt(omega * Omega)
    return CriticalEstimate(value, 1.0, "gc0", omega / Omega)


def gc1(omega: float, Omega: float) -> CriticalEstimate:
    """Polaron-picture coupling sqrt(omega^2 + sqrt(omega^4 + gc0^4))."""
    _check_freq(omega, Omega)
    g0 = 0.5 * math.sqrt(omega * Omega)
    value = math.sqrt(omega ** 2 + math.sqrt(omega ** 4 + g0 ** 4))
    return CriticalEstimate(value, value / g0, "gc1", omega / Omega)


def _gcxi_fourth_power_terms(g0: float, omega_c1: float):
    """(gc0^4, additive correction) of gc_xi^4, with the correction computed
    without cancellation so the defining-equation residual stays at roundoff."""
    gt0 = g0 / omega_c1
    u = gt0 ** 4
    f12 = 1.0 + 36.0 * u + 216.0 * u * u + 24.0 * math.sqrt(3.0) * gt0 ** 6 * math.sqrt(27.0 * u + 1.0)
    f4 = f12 ** (1.0 / 3.0)
    corr = (omega_c1 ** 4 / 12.0) * (f4 + 1.0 + 1.0 / f4 + 24.0 * u / f4)
    return g0 ** 4, corr


def gc_xi(omega: float, Omega: float, d_c1: float = DEFAULT_DC1) -> CriticalEstimate:
    """Transition coupling including polaron frequency renormalization.

    The closed form is validated against its defining equation
    (1 - gc0^4/g^4)^(3/4) * sqrt(2) g / omega = d_c1; a residual above 1e-10
    indicates a wrong algebraic branch and raises.
    """
    _check_freq(omega, Omega)
    if d_c1 <= 0:
        raise ParameterDomainError(f"d_c1 must be > 0, got {d_c1}")
    residual = gc_xi_residual(omega, Omega, d_c1)
    if residual > 1e-10:
        raise QrabiError(f"gc_xi closed form failed residual check ({residual:.3e})")
    g0 = 0.5 * math.sqrt(omega * Omega)
    base, corr = _gcxi_fourth_power_terms(g0, d_c1 * omega)
    value = (base + corr) ** 0.25
    return CriticalEstimate(value, value / g0, "gcxi", omega / Omega)


def gc_xi_residual(omega: float, Omega: float, d_c1: float = DEFAULT_DC1) -> float:
    """Relative residual of the gc_xi defining equation (diagnostic)."""
    _check_freq(omega, Omega)
    g0 = 0.5 * math.sqrt(omega * Omega)
    omega_c1 = d_c1 * omega
    base, corr = _gcxi_fourth_power_terms(g0, omega_c1)
    g4 = base + corr
    # 1 - gc0^4/g^4 = corr/g4 exactly
    u = corr / g4
    return abs(u ** 0.75 * math.sqrt(2.0) * g4 ** 0.25 / omega - d_c1) / d_c1


def gc2(omega: float, Omega: float, variant: str = "alphaFS") -> CriticalEstimate:
    """Fractional-power transition coupling; variants alphaFS, fourThirds, fitted.

    gc2/gc0 is a series in r^(2/3), r = omega/Omega, about r -> 0 whose
    coefficients come from peaks at r <= 0.5 (``DEFAULT_FIT_GRID``); past r ~ 1
    it is an extrapolation. The alphaFS ratio falls to 1 at r = 36.3 and below
    0 past r = 39.7, the fourThirds ratio falls to 1 at r = 75.0 and below 0
    past r = 79.6; the fitted ratio rises for every r. A ratio <= 1 is not a
    physical transition coupling; it is returned as computed, and ``qrabi gc``
    warns about it.
    """
    _check_freq(omega, Omega)
    if variant not in GC2_COEFFS:
        raise ParameterDomainError(f"unknown gc2 variant {variant!r}")
    r = omega / Omega
    coeffs = GC2_COEFFS[variant]
    ratio = 1.0 + sum(c * r ** (2.0 * (n + 1) / 3.0) for n, c in enumerate(coeffs))
    g0 = 0.5 * math.sqrt(omega * Omega)
    return CriticalEstimate(ratio * g0, ratio, f"gc2-{variant}", r)


def gcxi_predicted_coefficients(d_c1: float = DEFAULT_DC1) -> tuple[float, float]:
    """Leading fractional coefficients ((d/2)^(4/3), (7/6)(d/2)^(8/3))."""
    half = d_c1 / 2.0
    return half ** (4.0 / 3.0), (7.0 / 6.0) * half ** (8.0 / 3.0)


# --- least-squares fitting of g_cF data ------------------------------------


def _fit(data, order: int, exponent_step: float, basis: str) -> FitResult:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ParameterDomainError("data must be an array of (r, ratio-1) pairs")
    if data.shape[0] < order + 1:
        raise ParameterDomainError(
            f"need at least {order + 1} points for order {order}, got {data.shape[0]}"
        )
    r = data[:, 0]
    y = data[:, 1]
    design = np.column_stack([r ** (exponent_step * (n + 1)) for n in range(order)])
    rank = np.linalg.matrix_rank(design)
    if rank < order:
        raise QrabiError(f"rank-deficient design matrix (rank {rank} < {order})")
    coeffs, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sum((design @ coeffs - y) ** 2))
    return FitResult(basis=basis, order=order, coefficients=coeffs, residual=resid, grid=r)


def fit_fractional(data, order: int) -> FitResult:
    """Least squares on the fractional basis {r^(2n/3)}, n = 1..order."""
    return _fit(data, order, 2.0 / 3.0, "fractional-2/3-powers")


def fit_fourier(data, order: int) -> FitResult:
    """Least squares on the integer basis {r^n}, n = 1..order."""
    return _fit(data, order, 1.0, "integer-powers")
