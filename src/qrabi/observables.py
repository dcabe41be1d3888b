"""Transition observables: displacement expectations, the susceptibility of
the single-photon absorption rate d|<x>|/dg, and the density-map data that
bridges the QFI ridge to the observable ridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polaron as pp
from .critical import gc0 as gc0_estimate, gc2 as gc2_estimate
from .edsolver import GroundStateResponse, expectation_x, ground_state_response
from .errors import ParameterDomainError, QrabiError
from .model import ModelParams


@dataclass(frozen=True)
class ObservableSample:
    g: float
    g_bar: float
    x_expect_plus: float
    x_expect_minus: float
    abs_x: float
    d_abs_x_dg: float | None = None
    velocity: float | None = None


def x_expectation_pp(ansatz: pp.PolaronAnsatz, params: ModelParams) -> float:
    """<x>_+ of the polaron ansatz from closed-form Gaussian moments."""
    pols = ansatz.polarons(params)
    w = ansatz.weights()
    total = 0.0
    for i in range(2):
        for j in range(2):
            pi, pj = pols[i], pols[j]
            s_ij = pp.overlap(pi, pj)
            xbar = -(pi.xi * pi.x + pj.xi * pj.x) / (pi.xi + pj.xi)
            total += w[i] * w[j] * s_ij * xbar
    return total


def _x_and_slope(response: GroundStateResponse) -> tuple[float, float, float]:
    """(<x>_+, <x>_-, d|<x>_+|/dg) of an ED ground-state response.

    The slope is 0 where <x>_+ = 0 (g = 0): |<x>_+| is even in g, so its
    symmetric derivative vanishes at the kink.
    """
    xp, xm = expectation_x(response.state)
    return xp, xm, float(np.sign(xp)) * response.dx_plus_dg


def _x_slope_pp(sweep: pp.PolaronSweep, flows: dict) -> np.ndarray:
    """d<x>_+/dg_bar at every point of a sweep from the parameter flows.

    <x>_+ = sum_ij w_i w_j S_ij xbar_ij with xbar_ij = -(xi_i x_i + xi_j x_j)/s
    and s = xi_i + xi_j (``x_expectation_pp``). Through phi_i's parameters,
    dxbar_ij/dx_i = -xi_i/s, dxbar_ij/dxi_i = -xi_j (x_i - x_j)/s^2 and dS_ij
    comes from the overlap table; phi_j's part is the transpose.
    """
    t, w = flows["overlap_table"], flows["weights"]
    g_tilde = math.sqrt(2.0) * ModelParams(sweep.omega, sweep.Omega, 0.0).gc0 / sweep.omega
    xi = np.exp(sweep.p[:, 3:5, None])
    x = sweep.p[:, 1:3, None] * (g_tilde * sweep.gbar)[:, None, None]
    dx, dxi = flows["dx"][:, :, None], flows["dxi"][:, :, None]
    xi_j, x_j = np.swapaxes(xi, 1, 2), np.swapaxes(x, 1, 2)
    s = xi + xi_j
    xbar = -(xi * x + xi_j * x_j) / s
    d_i = ((t.dx_phi * dx + t.dxi_phi * dxi) * xbar
           - t.s * (xi * dx + xi_j * (x - x_j) * dxi / s) / s)
    return 2.0 * (np.einsum("ki,kij,kj->k", flows["dweights"], t.s * xbar, w)
                  + np.einsum("ki,kij,kj->k", w, d_i, w))


def susceptibility_sweep(omega: float, Omega: float, gbar_grid,
                         method: str = "ED") -> list[ObservableSample]:
    """|<x>_+-| per point of an ascending grid and its exact coupling derivative.

    ED derivatives come from the linear response at each point. PP ones come
    from the parameter flows of the continuation sweep over the grid
    (``_x_slope_pp``), which also give the main-polaron velocity
    v_p = d(zeta g_bar)/d g_bar attached with method="PP".
    """
    gbar = np.asarray(gbar_grid, dtype=float)
    if np.any(np.diff(gbar) < 0):
        raise ParameterDomainError("g_bar grid must be ascending")
    base = ModelParams(omega, Omega, 0.0)
    g = gbar * base.gc0

    velocity = None
    if method == "ED":
        xp = np.empty(gbar.size)
        xm = np.empty(gbar.size)
        d_abs = np.empty(gbar.size)
        for k in range(gbar.size):
            response = ground_state_response(base.with_g(float(g[k])))
            xp[k], xm[k], d_abs[k] = _x_and_slope(response)
    elif method == "PP":
        sweep = pp.continuation_sweep(omega, Omega, gbar)
        xp = np.array([
            x_expectation_pp(a, sweep.params_at(k)) for k, a in enumerate(sweep.ansatz)
        ])
        xm = -xp
        flows = pp.parameter_derivatives(sweep)
        velocity = flows["velocity"]
        d_abs = np.sign(xp) * _x_slope_pp(sweep, flows) / base.gc0
    else:
        raise ParameterDomainError(f"unknown method {method!r}")

    # spin-up amplitude by convention; spin-down is its mirror
    abs_x = np.abs(xp)

    samples = []
    for k in range(gbar.size):
        samples.append(ObservableSample(
            g=float(g[k]), g_bar=float(gbar[k]),
            x_expect_plus=float(xp[k]), x_expect_minus=float(xm[k]),
            abs_x=float(abs_x[k]), d_abs_x_dg=float(d_abs[k]),
            velocity=None if velocity is None else float(velocity[k]),
        ))
    return samples


@dataclass
class CoincidenceMap:
    """Row-normalized QFI and susceptibility matrices over (omega, g_bar)."""

    omega_grid: np.ndarray
    gbar_grid: np.ndarray
    qfi: np.ndarray              # rows normalized by their maxima
    susceptibility: np.ndarray   # rows normalized by their maxima
    qfi_argmax: np.ndarray       # g_bar of per-row maxima (NaN for failed rows)
    susceptibility_argmax: np.ndarray
    gc0_overlay: np.ndarray      # in g_bar units (identically 1)
    gc2_overlay: np.ndarray
    failed_rows: tuple[int, ...] = ()


def coincidence_map(omega_grid, gbar_grid, Omega: float = 1.0) -> CoincidenceMap:
    """Dense (omega, g_bar) maps of F_Q and d|<x>|/dg, row-normalized.

    Both come from one ground-state response per cell. A row whose solve
    fails with a QrabiError is recorded in ``failed_rows`` and left NaN.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    gbar_grid = np.asarray(gbar_grid, dtype=float)
    if np.any(np.diff(omega_grid) < 0) or np.any(np.diff(gbar_grid) < 0):
        raise ParameterDomainError("grids must be ascending")
    n_rows, n_cols = omega_grid.size, gbar_grid.size
    qfi = np.full((n_rows, n_cols), np.nan)
    sus = np.full((n_rows, n_cols), np.nan)
    qfi_argmax = np.full(n_rows, np.nan)
    sus_argmax = np.full(n_rows, np.nan)
    failed = []
    for i, omega in enumerate(omega_grid):
        base = ModelParams(float(omega), Omega, 0.0)
        try:
            responses = [ground_state_response(base.with_g(gb * base.gc0))
                         for gb in gbar_grid]
        except QrabiError:
            failed.append(i)
            continue
        row_q = np.array([r.fisher_information for r in responses])
        row_s = np.array([_x_and_slope(r)[2] for r in responses])
        qfi[i] = row_q / np.max(row_q)
        sus[i] = row_s / np.max(row_s)
        qfi_argmax[i] = gbar_grid[int(np.argmax(row_q))]
        sus_argmax[i] = gbar_grid[int(np.argmax(row_s))]
    gc2_overlay = np.array([
        gc2_estimate(float(w), Omega).ratio for w in omega_grid
    ])
    gc0_overlay = np.array([
        gc0_estimate(float(w), Omega).ratio for w in omega_grid
    ])
    return CoincidenceMap(
        omega_grid=omega_grid, gbar_grid=gbar_grid, qfi=qfi, susceptibility=sus,
        qfi_argmax=qfi_argmax, susceptibility_argmax=sus_argmax,
        gc0_overlay=gc0_overlay, gc2_overlay=gc2_overlay,
        failed_rows=tuple(failed),
    )
