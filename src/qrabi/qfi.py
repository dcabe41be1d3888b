"""Quantum Fisher information engines.

ED route: exact linear response of the certified parity -1 sector ground state,
F_Q = 4 <d psi|d psi> with |d psi> from one banded solve
(``edsolver.ground_state_response``); the sum-over-states fidelity
susceptibility evaluated without the spectrum.
The ED QFI peak is the root of the exact dF_Q/dg
(``GroundStateResponse.dfisher_dg``), found by Brent's method.
Polaron route: analytic assembly from the closed-form overlap derivatives and
the implicit-function parameter flows (``polaron.parameter_derivatives``),
one array computation over a whole sweep from the energy Hessians its Newton
corrector already holds. It is defined at every point of a sweep, endpoints
included, independent of the grid spacing, and NaN at a point whose flows are
refused (a saddle of the energy).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import polaron as pp
from .critical import CriticalEstimate, gc2
from .edsolver import ground_state_response
from .errors import DerivativeInvalidError, NonconvergenceError, ParameterDomainError, QrabiError
from .model import ModelParams

PEAK_RANGE = (0.5, 3.0)
PEAK_XTOL = 1e-10
# scipy.optimize.brentq's default and smallest relative tolerance
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_MAXITER = 100
# the PP maximum search: scan points over the range, then re-sweeps of the
# bracket around the largest, each of PP_REFINE_POINTS points, until the
# bracket is at most PP_REFINE_TOL in g_bar
PP_SCAN_POINTS = 41
PP_REFINE_POINTS = 9
PP_REFINE_TOL = 1e-4


@dataclass(frozen=True)
class QfiSample:
    """One QFI evaluation; f_q_g and f_q_gbar differ by the exact factor gc0^2.

    ED samples carry the certified ``cutoff``, the relative ``residual`` of
    the linear solve behind them and the certificate's ``energy_delta``
    (its bound on the truncation's energy change, at most
    ``edsolver.ENERGY_TOL`` |E0|).
    """

    g: float
    g_bar: float
    f_q_g: float
    f_q_gbar: float
    method: str
    first_derivative_term: float
    cutoff: int | None = None
    residual: float | None = None
    energy_delta: float | None = None


@dataclass(frozen=True)
class PeakEstimate:
    """QFI maximum g_cF = gbar_cf * gc0 and F_Q (per g_bar) there.

    ``bracket_width`` is the width in g_bar of the final interval known to
    hold the maximum; ``evaluations`` counts the ED ground-state responses
    the search spent, or on the PP route the polaron sweep points it solved.
    A ``flat_peak`` has no interior maximum in the search range and sits at
    the range end.
    """

    g_cf: float
    gbar_cf: float
    f_q_max: float
    bracket_width: float
    method: str
    flat_peak: bool = False
    evaluations: int = 0


def qfi_ed(params: ModelParams, *, check_step: bool = False) -> QfiSample:
    """QFI with respect to g by exact linear response at the certified cutoff.

    ``check_step`` is accepted for compatibility and has no effect: there is
    no differentiation step to check.
    """
    response = ground_state_response(params)
    f_q = response.fisher_information
    return QfiSample(
        g=params.g, g_bar=params.g_bar if params.Omega > 0 else math.nan,
        f_q_g=f_q, f_q_gbar=f_q * params.gc0 ** 2, method="ED",
        first_derivative_term=response.first_derivative_term,
        cutoff=response.state.cutoff, residual=response.residual,
        energy_delta=response.report.energy_delta,
    )


def _pp_overlap_terms(sweep: pp.PolaronSweep) -> tuple[np.ndarray, np.ndarray]:
    """(<psi'|psi>, <psi'|psi'>) at every point of a sweep, psi' = d psi/d g_bar,
    from the closed-form overlaps and the parameter flows."""
    flows = pp.parameter_derivatives(sweep)
    t = flows["overlap_table"]
    w, wp = flows["weights"], flows["dweights"]
    dx, dxi = flows["dx"][:, :, None], flows["dxi"][:, :, None]
    dx_j, dxi_j = flows["dx"][:, None, :], flows["dxi"][:, None, :]
    phi_ip_phi_j = t.dx_phi * dx + t.dxi_phi * dxi
    phi_ip_phi_jp = (t.dx_dx * dx * dx_j + t.dx_dxi * dx * dxi_j
                     + t.dxi_dx * dxi * dx_j + t.dxi_dxi * dxi * dxi_j)

    def quadratic(u, m, v):
        return np.einsum("ki,kij,kj->k", u, m, v)

    first = quadratic(w, phi_ip_phi_j, w) + quadratic(wp, t.s, w)
    # sum_ij w_i w'_j <phi_i'|phi_j> and sum_ij w'_i w_j <phi_i|phi_j'> are
    # equal for real wavefunctions, hence the factor 2
    second = (quadratic(w, phi_ip_phi_jp, w) + quadratic(wp, t.s, wp)
              + 2.0 * quadratic(w, phi_ip_phi_j, wp))
    return first, second


def qfi_pp_full(sweep: pp.PolaronSweep) -> np.ndarray:
    """Full analytic assembly of the polaron-picture QFI per g_bar,
    F = 4 (<psi'|psi'> - <psi'|psi>^2), at every point of a sweep; NaN where
    the flows are refused (``polaron.parameter_derivatives``)."""
    first, second = _pp_overlap_terms(sweep)
    return 4.0 * (second - first ** 2)


def qfi_pp_simplified(sweep: pp.PolaronSweep) -> np.ndarray:
    """Leading-order near-transition form (Omega/omega) [zeta' g_bar + zeta]^2 xi
    of the main polaron per g_bar, at every point of a sweep; NaN where the
    flows are refused. It equals the kinetic energy (1/2) m_F v_p^2 with
    m_F = 2 (Omega/omega) xi and polaron velocity v_p = d(zeta g_bar)/d g_bar.
    """
    v_p = pp.parameter_derivatives(sweep)["velocity"]
    return sweep.Omega / sweep.omega * v_p ** 2 * np.exp(sweep.p[:, 3])


def _sweep_max(sweep: pp.PolaronSweep, quantity):
    """Maximum of a per-point ``quantity`` of polaron sweeps: (g_bar, value,
    bracket width, whether it sits at an end of ``sweep``, sweep points solved).

    Takes the argmax over ``sweep``, skipping NaN points; an argmax at an end
    is returned as it stands, with the spacing there as its width. Otherwise
    the bracket of its two neighbours is swept again with PP_REFINE_POINTS
    points, warm-started from the bracket's lower end, and the search repeats
    on the new sweep, keeping its argmax off the ends, until the bracket is at
    most PP_REFINE_TOL in g_bar.
    """
    solved = 0
    while True:
        values = quantity(sweep)
        if not np.any(np.isfinite(values)):
            raise DerivativeInvalidError("the flows are refused at every sweep point")
        n = sweep.gbar.size
        k = int(np.nanargmax(values))
        if solved:
            k = min(max(k, 1), n - 2)
        width = float(np.ptp(sweep.gbar[max(k - 1, 0):k + 2]))
        flat = k in (0, n - 1)
        if flat or width <= PP_REFINE_TOL:
            return float(sweep.gbar[k]), float(values[k]), width, flat, solved
        grid = np.linspace(sweep.gbar[k - 1], sweep.gbar[k + 1], PP_REFINE_POINTS)
        sweep = pp.continuation_sweep(sweep.omega, sweep.Omega, grid,
                                      warm_start=sweep.ansatz[k - 1])
        solved += grid.size


def find_peak(omega: float, Omega: float, method: str = "ED",
              gbar_range: tuple[float, float] = PEAK_RANGE) -> PeakEstimate:
    """Locate the QFI maximum g_cF within ``gbar_range``, an interval lo < hi.

    ED: the root of the exact dF/dg_bar, bracketed from the gc2 estimate and
    refined by Brent's method to 1e-10 in g_bar (``_find_peak_ed``).
    PP-full: the largest ``qfi_pp_full`` of a ``PP_SCAN_POINTS``-point sweep
    over the range, refined by re-sweeps of its bracket to ``PP_REFINE_TOL``
    (``_sweep_max``); points with refused flows are skipped.
    Without an interior maximum the search warns and returns the range end
    (ED) or the scan argmax (PP-full) with ``flat_peak=True``.
    """
    if method not in ("ED", "PP-full"):
        raise ParameterDomainError(f"unknown peak method {method!r}")
    lo, hi = gbar_range
    if not lo < hi:
        raise ParameterDomainError(f"gbar_range must satisfy lo < hi, got {gbar_range}")
    if method == "ED":
        return _find_peak_ed(omega, Omega, gbar_range)

    base = ModelParams(omega, Omega, 0.0)
    scan = pp.continuation_sweep(omega, Omega, np.linspace(lo, hi, PP_SCAN_POINTS))
    gbar_cf, f_max, width, flat, solved = _sweep_max(scan, qfi_pp_full)
    if flat:
        warnings.warn("no interior QFI maximum in scan range; returning scan argmax")
    return PeakEstimate(
        g_cf=gbar_cf * base.gc0, gbar_cf=gbar_cf, f_q_max=f_max, bracket_width=width,
        method=method, flat_peak=flat, evaluations=PP_SCAN_POINTS + solved,
    )


def _find_peak_ed(omega, Omega, gbar_range) -> PeakEstimate:
    """Root of dF/dg_bar = gc0^3 dF_Q/dg, every evaluation exact.

    Starts at the gc2 estimate clamped into the range and walks uphill in
    steps that double from 0.05 |gc2 - 1| + 1e-3 until dF/dg_bar changes
    sign, then runs Brent's method on the bracket; a walk that reaches the
    range end without one stops there with ``flat_peak=True``. Each g_bar is
    evaluated once: Brent reuses the walk's endpoints and its root is a point
    it evaluated, so F there is already known.
    """
    base = ModelParams(omega, Omega, 0.0)
    lo, hi = gbar_range
    evaluated: dict[float, tuple[float, float]] = {}

    def evaluate(gbar):
        if gbar not in evaluated:
            response = ground_state_response(base.with_g(gbar * base.gc0))
            evaluated[gbar] = (response.fisher_information * base.gc0 ** 2,
                               response.dfisher_dg() * base.gc0 ** 3)
        return evaluated[gbar]

    def slope(gbar):
        return evaluate(gbar)[1]

    estimate = gc2(omega, Omega, "alphaFS").ratio
    gbar = min(max(estimate, lo), hi)
    uphill = math.copysign(1.0, slope(gbar))
    # the estimate sets the size of the first step, the slope its sign: the
    # alphaFS ratio falls below 1 once omega/Omega exceeds about 36
    step = 0.05 * abs(estimate - 1.0) + 1e-3
    while True:
        nxt = min(max(gbar + uphill * step, lo), hi)
        if nxt == gbar:
            # the walk stands at the range end it was heading for
            warnings.warn("no interior QFI maximum in gbar_range; returning the range end")
            # the width is the last walk step, 0 when the walk starts at the end
            width = min((abs(g - gbar) for g in evaluated if g != gbar), default=0.0)
            return PeakEstimate(
                g_cf=gbar * base.gc0, gbar_cf=gbar, f_q_max=evaluate(gbar)[0],
                bracket_width=width, method="ED", flat_peak=True,
                evaluations=len(evaluated),
            )
        if slope(nxt) * uphill <= 0.0:
            break
        gbar, step = nxt, 2.0 * step

    a, b = sorted((gbar, nxt))
    root = _brentq(slope, a, b, xtol=PEAK_XTOL)
    f_max = evaluate(root)[0]
    return PeakEstimate(
        g_cf=root * base.gc0, gbar_cf=root, f_q_max=f_max,
        bracket_width=_final_bracket(evaluated, root), method="ED",
        evaluations=len(evaluated),
    )


def _brentq(f, xa, xb, xtol, maxiter=BRENT_MAXITER) -> float:
    """Root of f in [xa, xb] by Brent's method, a line-for-line port of scipy's
    ``Zeros/brentq.c``: at scipy's default rtol, ``BRENT_RTOL``, its root and
    its sequence of evaluations are bitwise those of ``scipy.optimize.brentq``
    with the same xtol and maxiter, and it needs no ``scipy.optimize`` import.
    Raises ``QrabiError`` when f(xa) and f(xb) have the same sign or f is NaN,
    ``NonconvergenceError`` after ``maxiter`` iterations.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise QrabiError(f"the function value at x = {x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise QrabiError(f"f({xpre}) and f({xcur}) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 delta
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NonconvergenceError(f"Brent's method did not converge in {maxiter} iterations",
                              payload=xcur)


def _final_bracket(evaluated, root) -> float:
    """Width of the tightest sign change of dF/dg_bar among the evaluated
    points that encloses ``root`` (0 when the slope there is exactly 0)."""
    if evaluated[root][1] == 0.0:
        return 0.0
    below = [g for g, (_, d) in evaluated.items() if g <= root and d > 0.0]
    above = [g for g, (_, d) in evaluated.items() if g >= root and d < 0.0]
    return min(above) - max(below)


def acceleration_condition(sweep: pp.PolaronSweep) -> CriticalEstimate:
    """Transition coupling from the vanishing polaron acceleration
    a = dv_p/dg_bar: the maximum of the main polaron's velocity
    v_p = d(zeta g_bar)/d g_bar from the exact flows, refined around the
    sweep's largest v_p (``_sweep_max``). Raises ``QrabiError`` when v_p has
    no interior maximum in the sweep, so that a does not vanish there.
    """
    gbar, _, _, flat, _ = _sweep_max(
        sweep, lambda s: pp.parameter_derivatives(s)["velocity"])
    if flat:
        raise QrabiError("the polaron velocity has no interior maximum in the sweep")
    base = ModelParams(sweep.omega, sweep.Omega, 0.0)
    return CriticalEstimate(
        value=gbar * base.gc0, ratio=gbar, method="a=0", freq_ratio=sweep.omega / sweep.Omega,
    )
