"""Quantum Fisher information engines.

ED route: exact linear response of the converged parity-sector ground state,
F_Q = 4 <d psi|d psi> with |d psi> from one banded solve
(``edsolver.ground_state_response``); the sum-over-states fidelity
susceptibility evaluated without the spectrum.
Polaron route: analytic assembly from the closed-form overlap derivatives and
finite-difference parameter flows of a continuation sweep.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import polaron as pp
from .critical import CriticalEstimate
from .edsolver import ground_state_response
from .errors import ParameterDomainError, QrabiError
from .model import ModelParams


@dataclass(frozen=True)
class QfiSample:
    """One QFI evaluation; f_q_g and f_q_gbar differ by the exact factor gc0^2.

    ED samples carry the converged ``cutoff`` and the relative ``residual`` of
    the linear solve behind them.
    """

    g: float
    g_bar: float
    f_q_g: float
    f_q_gbar: float
    method: str
    first_derivative_term: float
    cutoff: int | None = None
    residual: float | None = None
    kinetic_energy_form: float | None = None


@dataclass(frozen=True)
class PeakEstimate:
    g_cf: float
    gbar_cf: float
    f_q_max: float
    bracket_width: float
    method: str
    flat_peak: bool = False


def qfi_ed(params: ModelParams, *, tol: float = 1e-10, check_step: bool = False) -> QfiSample:
    """QFI with respect to g by exact linear response at the converged cutoff.

    ``check_step`` is accepted for compatibility and has no effect: there is
    no differentiation step to check.
    """
    response = ground_state_response(params, tol=tol)
    f_q = response.fisher_information
    return QfiSample(
        g=params.g, g_bar=params.g_bar if params.Omega > 0 else math.nan,
        f_q_g=f_q, f_q_gbar=f_q * params.gc0 ** 2, method="ED",
        first_derivative_term=response.first_derivative_term,
        cutoff=response.state.cutoff, residual=response.residual,
    )


def fidelity_susceptibility(params: ModelParams, tol: float = 1e-10) -> float:
    """chi_F = F_Q/4 for the coupling parameter."""
    return qfi_ed(params, tol=tol).f_q_g / 4.0


def qfi_pp_full(sweep: pp.PolaronSweep, index: int) -> QfiSample:
    """Full analytic assembly of the polaron-picture QFI at a sweep point."""
    derivs = pp.parameter_derivatives(sweep, index)
    table = derivs["overlap_table"]
    ansatz = sweep.ansatz[index]
    params = sweep.params_at(index)
    w = ansatz.weights()
    wp = derivs["dweights"]
    dx = derivs["dx"]
    dxi = derivs["dxi"]

    phi_ip_phi_j = table.dx_phi * dx[:, None] + table.dxi_phi * dxi[:, None]
    phi_ip_phi_jp = (
        table.dx_dx * np.outer(dx, dx)
        + table.dx_dxi * np.outer(dx, dxi)
        + table.dxi_dx * np.outer(dxi, dx)
        + table.dxi_dxi * np.outer(dxi, dxi)
    )

    first = float(w @ phi_ip_phi_j @ w + wp @ table.s @ w)
    # sum_ij w_i w'_j <phi_i'|phi_j> and sum_ij w'_i w_j <phi_i|phi_j'> are
    # equal for real wavefunctions, hence the factor 2
    second = float(
        w @ phi_ip_phi_jp @ w
        + wp @ table.s @ wp
        + 2.0 * (w @ phi_ip_phi_j @ wp)
    )
    f_gbar = 4.0 * (second - first ** 2)
    gc0 = params.gc0
    return QfiSample(
        g=params.g, g_bar=float(sweep.gbar[index]),
        f_q_g=f_gbar / gc0 ** 2, f_q_gbar=f_gbar,
        method="PP-full", first_derivative_term=first,
    )


def qfi_pp_simplified(sweep: pp.PolaronSweep, index: int) -> QfiSample:
    """Leading-order near-transition form (Omega/omega) [zeta' g_bar + zeta]^2 xi.

    ``kinetic_energy_form`` holds the algebraically identical (1/2) m_F v_p^2
    with m_F = 2 (Omega/omega) xi and v_p = d(zeta g_bar)/d g_bar.
    """
    derivs = pp.parameter_derivatives(sweep, index)
    ansatz = sweep.ansatz[index]
    params = sweep.params_at(index)
    gbar = float(sweep.gbar[index])
    zeta = ansatz.zeta_alpha
    xi = ansatz.xi_alpha
    dzeta = float(derivs["dzeta"][0])
    ratio = sweep.Omega / sweep.omega
    v_p = dzeta * gbar + zeta
    f_gbar = ratio * v_p ** 2 * xi
    kinetic = 0.5 * (2.0 * ratio * xi) * v_p ** 2
    gc0 = params.gc0
    return QfiSample(
        g=params.g, g_bar=gbar, f_q_g=f_gbar / gc0 ** 2, f_q_gbar=f_gbar,
        method="PP-simplified", first_derivative_term=0.0,
        kinetic_energy_form=kinetic,
    )


def qfi_pp_at(omega: float, Omega: float, gbar: float,
              warm: pp.PolaronAnsatz | None = None, delta: float = 1e-3) -> QfiSample:
    """Polaron QFI at an arbitrary coupling via a local three-point sweep."""
    base = ModelParams(omega, Omega, 0.0)
    grid = np.array([gbar - delta, gbar, gbar + delta])
    ansaetze = []
    w = warm
    for gb in grid:
        ans = optimize_at(base, float(gb), w)
        ansaetze.append(ans)
        w = ans
    sweep = pp.PolaronSweep(omega, Omega, grid, ansaetze)
    return qfi_pp_full(sweep, 1)


def optimize_at(base: ModelParams, gbar: float, warm=None) -> pp.PolaronAnsatz:
    params = base.with_g(gbar * base.gc0)
    return pp.optimize(params, warm_start=warm, multi_start=warm is None)


def _golden_max(f, lo, hi, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, max(fc, fd), b - a


def find_peak(omega: float, Omega: float, method: str = "ED",
              gbar_range: tuple[float, float] = (0.5, 3.0),
              coarse_points: int = 41, refine_tol: float = 1e-4,
              tol: float = 1e-10) -> PeakEstimate:
    """Locate the QFI maximum g_cF: coarse scan, bracket, golden-section refine."""
    if method not in ("ED", "PP-full"):
        raise ParameterDomainError(f"unknown peak method {method!r}")
    base = ModelParams(omega, Omega, 0.0)
    grid = np.linspace(gbar_range[0], gbar_range[1], coarse_points)

    if method == "ED":
        def f(gbar):
            return qfi_ed(base.with_g(gbar * base.gc0), tol=tol).f_q_gbar

        values = np.array([f(gb) for gb in grid])
    else:
        step = grid[1] - grid[0]
        sweep = pp.continuation_sweep(
            omega, Omega, np.concatenate([[grid[0] - step], grid, [grid[-1] + step]])
        )
        values = np.array([qfi_pp_full(sweep, k).f_q_gbar
                           for k in range(1, len(grid) + 1)])
        warm_by_gbar = dict(zip(np.round(grid, 12), sweep.ansatz[1:-1]))

        def f(gbar):
            key = min(warm_by_gbar, key=lambda gk: abs(gk - gbar))
            return qfi_pp_at(omega, Omega, gbar, warm=warm_by_gbar[key]).f_q_gbar

    k = int(np.argmax(values))
    if k == 0 or k == len(grid) - 1:
        warnings.warn("no interior QFI maximum in scan range; returning scan argmax")
        gbar_cf = float(grid[k])
        return PeakEstimate(
            g_cf=gbar_cf * base.gc0, gbar_cf=gbar_cf, f_q_max=float(values[k]),
            bracket_width=float(grid[1] - grid[0]), method=method, flat_peak=True,
        )
    gbar_cf, f_max, width = _golden_max(f, float(grid[k - 1]), float(grid[k + 1]), refine_tol)
    return PeakEstimate(
        g_cf=gbar_cf * base.gc0, gbar_cf=gbar_cf, f_q_max=float(f_max),
        bracket_width=float(width), method=method,
    )


def acceleration_condition(sweep: pp.PolaronSweep, form: str = "acceleration") -> CriticalEstimate:
    """Transition coupling from the vanishing polaron acceleration.

    ``acceleration`` finds the sign change of a = d^2(zeta g_bar)/d g_bar^2 of
    the main polaron; ``crossing`` finds g_bar = 2 zeta'/(-zeta''), an
    algebraic rearrangement of the same condition.
    """
    gbar = np.asarray(sweep.gbar, dtype=float)
    zeta = np.array([a.zeta_alpha for a in sweep.ansatz])
    xp = zeta * gbar
    n = gbar.size
    if n < 5:
        raise QrabiError("sweep too short for second derivatives")

    d1 = np.gradient(zeta, gbar)
    d2 = np.gradient(d1, gbar)
    if form == "acceleration":
        accel = np.gradient(np.gradient(xp, gbar), gbar)
        target = accel
    elif form == "crossing":
        with np.errstate(divide="ignore", invalid="ignore"):
            target = np.where(d2 < 0, 2.0 * d1 / (-d2) - gbar, np.nan)
    else:
        raise ParameterDomainError(f"unknown form {form!r}")

    interior = slice(2, n - 2)
    idxs = np.arange(n)[interior]
    vals = target[interior]
    root = None
    for i in range(len(vals) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if not (np.isfinite(v0) and np.isfinite(v1)):
            continue
        if v0 > 0 and v1 <= 0:
            g0, g1 = gbar[idxs[i]], gbar[idxs[i + 1]]
            root = g0 + (g1 - g0) * v0 / (v0 - v1)
            break
    if root is None:
        raise QrabiError("no sign change of the acceleration in the sweep range")
    base = ModelParams(sweep.omega, sweep.Omega, 0.0)
    return CriticalEstimate(
        value=float(root) * base.gc0, ratio=float(root),
        method="a=0 crossing", freq_ratio=sweep.omega / sweep.Omega,
    )
