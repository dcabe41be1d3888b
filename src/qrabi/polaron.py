"""Two-polaron variational ansatz: Gaussian matrix elements, energy
minimization, continuation sweeps and parameter flows.

The spin-up component is psi_+(x) = alpha*phi_a(x) + beta*phi_b(x) with
Gaussian polarons phi_i = (xi_i/pi)^(1/4) exp[-xi_i (x + x_i)^2 / 2],
x_i = zeta_i * g_tilde, and psi_-(x) = -psi_+(-x) (parity -1). Weights obey
alpha^2 + beta^2 + 2 alpha beta <phi_a|phi_b> = 1.

The energy is minimized by L-BFGS-B over p = (psi, zeta_a, zeta_b, ln xi_a,
ln xi_b) with its closed-form gradient. The flows dp/dg_bar at a minimum
follow from the implicit-function theorem, -H^-1 d_gbar grad E, so they do
not depend on the grid the sweep was taken on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from . import kernels
from .errors import DerivativeInvalidError, ParameterDomainError
from .model import ModelParams

NORMALIZATION_TOL = 1e-8
ZETA_BOUND = 1.4
LOG_XI_BOUNDS = (math.log(0.02), math.log(8.0))
FLOW_STEP = 1e-5            # central-difference step of the gradient, in p and g_bar
ACTIVE_BOUND_TOL = 1e-10    # a component this close to its bound is held by it


class Polaron(NamedTuple):
    """A single Gaussian polaron: frequency renormalization xi, displacement x."""

    xi: float
    x: float


@dataclass(frozen=True)
class PolaronAnsatz:
    """Variational parameters; label convention zeta_alpha >= 0 >= zeta_beta."""

    alpha: float
    beta: float
    zeta_alpha: float
    zeta_beta: float
    xi_alpha: float
    xi_beta: float
    energy: float | None = None

    def polarons(self, params: ModelParams) -> tuple[Polaron, Polaron]:
        gt = params.g_tilde
        return (
            Polaron(self.xi_alpha, self.zeta_alpha * gt),
            Polaron(self.xi_beta, self.zeta_beta * gt),
        )

    def weights(self) -> np.ndarray:
        return np.array([self.alpha, self.beta])

    def normalization_defect(self, params: ModelParams) -> float:
        pa, pb = self.polarons(params)
        s = overlap(pa, pb)
        return abs(
            self.alpha ** 2 + self.beta ** 2 + 2.0 * self.alpha * self.beta * s - 1.0
        )


@dataclass(frozen=True)
class OverlapTable:
    """All 2x2 inner products entering the polaron-picture QFI assembly.

    Index order is (alpha, beta). ``dx_phi[i, j]`` is <d phi_i/d x_i | phi_j>,
    ``dx_dxi[i, j]`` is <d phi_i/d x_i | d phi_j/d xi_j>, and so on.
    """

    s: np.ndarray
    dx_phi: np.ndarray
    dxi_phi: np.ndarray
    dx_dx: np.ndarray
    dx_dxi: np.ndarray
    dxi_dx: np.ndarray
    dxi_dxi: np.ndarray


def _check_xi(*xis):
    for xi in xis:
        if not (xi > 0) or not math.isfinite(xi):
            raise ParameterDomainError(f"xi must be positive and finite, got {xi}")


def overlap(p_i: Polaron, p_j: Polaron) -> float:
    """<phi_i|phi_j> in closed form."""
    _check_xi(p_i.xi, p_j.xi)
    return kernels.gaussian_overlap(p_i.xi, p_i.x, p_j.xi, p_j.x)[0]


def _pair_entries(xi_i, x_i, xi_j, x_j):
    """Closed-form inner products for one ordered pair (i, j).

    Each is S_ij times a rational factor; S_ij and the first derivatives come
    from ``kernels.gaussian_overlap``.
    """
    s_ij, lx_i, lxi_i, _, _ = kernels.gaussian_overlap(xi_i, x_i, xi_j, x_j)
    s = xi_i + xi_j
    d = x_i - x_j
    d2 = d * d
    p = xi_i * xi_j
    dx_dx = s_ij * p * (s - p * d2) / s ** 2
    dx_dxi = s_ij * xi_i * d * (xi_j ** 2 + xi_i ** 2 * (2.0 * xi_j * d2 - 5.0)
                                - 4.0 * p) / (4.0 * s ** 3)
    dxi_dx = -s_ij * xi_j * d * (xi_i ** 2 + xi_j ** 2 * (2.0 * xi_i * d2 - 5.0)
                                 - 4.0 * p) / (4.0 * s ** 3)
    dxi_dxi = s_ij * (
        4.0 * p ** 3 * d2 * d2
        + s * (2.0 * p * d2 - s) * (xi_i ** 2 + xi_j ** 2 - 10.0 * p)
    ) / (16.0 * s ** 4 * p)
    return s_ij, s_ij * lx_i, s_ij * lxi_i, dx_dx, dx_dxi, dxi_dx, dxi_dxi


def derivative_overlaps(ansatz: PolaronAnsatz, params: ModelParams) -> OverlapTable:
    """Evaluate every closed-form overlap/derivative inner product."""
    pols = ansatz.polarons(params)
    _check_xi(pols[0].xi, pols[1].xi)
    mats = [np.zeros((2, 2)) for _ in range(7)]
    for i in range(2):
        for j in range(2):
            entries = _pair_entries(pols[i].xi, pols[i].x, pols[j].xi, pols[j].x)
            for m, e in zip(mats, entries):
                m[i, j] = e
    return OverlapTable(*mats)


def energy(ansatz: PolaronAnsatz, params: ModelParams) -> float:
    """Variational energy <psi|H|psi> from closed-form Gaussian matrix elements."""
    defect = ansatz.normalization_defect(params)
    if defect > NORMALIZATION_TOL:
        raise ParameterDomainError(
            f"ansatz not normalized (defect {defect:.3e} > {NORMALIZATION_TOL})"
        )
    pa, pb = ansatz.polarons(params)
    return kernels.pp_energy(
        ansatz.alpha, ansatz.beta, pa.x, pb.x, pa.xi, pb.xi,
        params.omega, params.Omega, params.g_tilde,
    )


# --- normalization-manifold parameterization ------------------------------
#
# (alpha, beta) = (cos psi, sin psi) / sqrt(1 + S sin(2 psi)) with the mixing
# angle psi in [0, pi/2], so the constraint holds identically and both weights
# stay non-negative and bounded.


def _manifold(psi: float, s: float) -> tuple[float, ...]:
    """(alpha, beta, dalpha/dpsi, dbeta/dpsi, dalpha/dS, dbeta/dS) on scalars."""
    n2 = 1.0 + s * math.sin(2.0 * psi)
    n = math.sqrt(n2)
    alpha, beta = math.cos(psi) / n, math.sin(psi) / n
    k = s * math.cos(2.0 * psi) / n2
    m = -0.5 * math.sin(2.0 * psi) / n2
    return alpha, beta, -beta - alpha * k, alpha - beta * k, alpha * m, beta * m


def weights_from_angle(psi: float, s: float) -> np.ndarray:
    return np.array(_manifold(psi, s)[:2])


def angle_from_weights(alpha: float, beta: float) -> float:
    return math.atan2(beta, alpha)


def weight_derivatives(psi: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(d(alpha,beta)/dpsi, d(alpha,beta)/dS) of the manifold map."""
    _, _, a_psi, b_psi, a_s, b_s = _manifold(psi, s)
    return np.array([a_psi, b_psi]), np.array([a_s, b_s])


def _vector_to_ansatz(p: np.ndarray, params: ModelParams) -> PolaronAnsatz:
    psi, za, zb, lxa, lxb = p
    gt = params.g_tilde
    xi_a, xi_b = math.exp(lxa), math.exp(lxb)
    s = overlap(Polaron(xi_a, za * gt), Polaron(xi_b, zb * gt))
    alpha, beta = weights_from_angle(psi, s)
    return PolaronAnsatz(alpha, beta, za, zb, xi_a, xi_b)


def _ansatz_to_vector(ansatz: PolaronAnsatz, params: ModelParams) -> np.ndarray:
    return np.array([
        angle_from_weights(ansatz.alpha, ansatz.beta),
        ansatz.zeta_alpha,
        ansatz.zeta_beta,
        math.log(ansatz.xi_alpha),
        math.log(ansatz.xi_beta),
    ])


def _objective(p: np.ndarray, params: ModelParams) -> tuple[float, np.ndarray]:
    """Energy and its gradient in p = (psi, zeta_a, zeta_b, ln xi_a, ln xi_b).

    The fixed-weight gradient of ``kernels.pp_energy`` is chained through the
    manifold map (alpha, beta)(psi, S) and the overlap S(x_a, xi_a, x_b, xi_b),
    on Python floats; the gradient is the one array allocated.
    """
    psi, za, zb, lxa, lxb = p.tolist()
    gt = params.g_tilde
    xi_a, xi_b = math.exp(lxa), math.exp(lxb)
    xa, xb = za * gt, zb * gt
    s, s_xa, s_xia, s_xb, s_xib = kernels.gaussian_overlap(xi_a, xa, xi_b, xb)
    w_a, w_b, a_psi, b_psi, a_s, b_s = _manifold(psi, s)
    e, (e_wa, e_wb, e_xa, e_xb, e_xia, e_xib) = kernels.pp_energy(
        w_a, w_b, xa, xb, xi_a, xi_b, params.omega, params.Omega, gt, gradient=True)
    e_lns = s * (e_wa * a_s + e_wb * b_s)     # dE/d ln S through the weights
    return e, np.array([
        e_wa * a_psi + e_wb * b_psi,
        gt * (e_xa + e_lns * s_xa),
        gt * (e_xb + e_lns * s_xb),
        xi_a * (e_xia + e_lns * s_xia),
        xi_b * (e_xib + e_lns * s_xib),
    ])


def semiclassical_zeta(g_bar: float) -> float:
    """Low-frequency displacement renormalization sqrt(1 - 1/g_bar^4)."""
    if g_bar <= 1.0:
        return 0.0
    return math.sqrt(1.0 - g_bar ** -4)


def _seed_vectors(params: ModelParams, warm_start: PolaronAnsatz | None) -> list[np.ndarray]:
    z_sc = semiclassical_zeta(params.g_bar) if params.Omega > 0 else 1.0
    xi_sc = max(z_sc, 0.5)
    lx = math.log(xi_sc)
    quarter = math.pi / 4.0
    seeds = [
        np.array([0.15, 0.05, -0.05, 0.0, 0.0]),            # near-merged polarons
        np.array([quarter, z_sc, -z_sc, lx, lx]),           # split, equal weights
        np.array([0.6, z_sc, -z_sc, lx, lx]),               # split, tilted weights
        np.array([0.05, max(z_sc, 0.3), -0.02, lx, 0.0]),   # dominant single polaron
        np.array([quarter, 0.5 * z_sc, -0.5 * z_sc, 0.0, 0.0]),
    ]
    if warm_start is not None:
        seeds.insert(0, _ansatz_to_vector(warm_start, params))
    return seeds


# opposite-well convention: polaron a sits at zeta >= 0, polaron b at zeta <= 0
_BOUNDS = [
    (0.0, math.pi / 2.0),
    (0.0, ZETA_BOUND),
    (-ZETA_BOUND, 0.0),
    LOG_XI_BOUNDS,
    LOG_XI_BOUNDS,
]


def _minimize_from(p0: np.ndarray, params: ModelParams):
    # ftol = 0: stop on the projected gradient or when a step no longer lowers
    # the energy; the longer memory resolves the flat directions of
    # near-merged polarons below the transition
    return minimize(
        _objective, p0, args=(params,), jac=True, method="L-BFGS-B", bounds=_BOUNDS,
        options={"ftol": 0.0, "gtol": 1e-11, "maxiter": 2000, "maxcor": 20},
    )


def canonicalize(ansatz: PolaronAnsatz) -> PolaronAnsatz:
    """Apply the label convention: zeta_alpha >= zeta_beta, both weights >= 0."""
    a = ansatz
    if a.zeta_alpha < a.zeta_beta:
        a = replace(
            a,
            alpha=a.beta, beta=a.alpha,
            zeta_alpha=a.zeta_beta, zeta_beta=a.zeta_alpha,
            xi_alpha=a.xi_beta, xi_beta=a.xi_alpha,
        )
    if a.alpha < 0 and a.beta <= 0:
        a = replace(a, alpha=-a.alpha, beta=-a.beta)
    return a


def optimize(params: ModelParams, warm_start: PolaronAnsatz | None = None,
             multi_start: bool = True) -> PolaronAnsatz:
    """Minimize the variational energy; returns the best local minimum found."""
    seeds = _seed_vectors(params, warm_start)
    if not multi_start:
        seeds = seeds[:1]
    best = None
    for p0 in seeds:
        res = _minimize_from(p0, params)
        if best is None or res.fun < best.fun:
            best = res
    ansatz = canonicalize(_vector_to_ansatz(best.x, params))
    return replace(ansatz, energy=float(best.fun))


@dataclass
class PolaronSweep:
    """Continuation sweep of optimized ansaetze over an ascending g_bar grid."""

    omega: float
    Omega: float
    gbar: np.ndarray
    ansatz: list[PolaronAnsatz]
    discontinuities: tuple[int, ...] = ()

    def params_at(self, index: int) -> ModelParams:
        base = ModelParams(self.omega, self.Omega, 0.0)
        return base.with_g(float(self.gbar[index]) * base.gc0)


def _parameter_jumps(vectors: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.diff(vectors, axis=0), axis=1)


def continuation_sweep(omega: float, Omega: float, gbar_grid) -> PolaronSweep:
    """Sequential warm-started optimization along the grid.

    Branch discontinuities (parameter jump > 10x the local scale) trigger a
    multi-start re-run at the offending points; surviving jumps are recorded.
    """
    gbar = np.asarray(gbar_grid, dtype=float)
    if gbar.size == 0:
        raise ParameterDomainError("empty grid")
    if np.any(np.diff(gbar) < 0):
        raise ParameterDomainError("g_bar grid must be ascending")
    base = ModelParams(omega, Omega, 0.0)
    results: list[PolaronAnsatz] = []
    warm = None
    for gb in gbar:
        params = base.with_g(float(gb) * base.gc0)
        ans = optimize(params, warm_start=warm, multi_start=warm is None)
        results.append(ans)
        warm = ans
    if gbar.size >= 4:
        vectors = np.array([
            _ansatz_to_vector(a, base.with_g(float(gbar[k]) * base.gc0))
            for k, a in enumerate(results)
        ])
        jumps = _parameter_jumps(vectors)
        scale = np.median(jumps) + 1e-9
        flagged = np.flatnonzero(jumps > 10.0 * scale)
        for k in flagged:
            for idx in (k, k + 1):
                params = base.with_g(float(gbar[idx]) * base.gc0)
                ans = optimize(params, warm_start=results[idx], multi_start=True)
                if ans.energy < results[idx].energy:
                    results[idx] = ans
        vectors = np.array([
            _ansatz_to_vector(a, base.with_g(float(gbar[k]) * base.gc0))
            for k, a in enumerate(results)
        ])
        jumps = _parameter_jumps(vectors)
        flagged = tuple(int(k) for k in np.flatnonzero(jumps > 10.0 * (np.median(jumps) + 1e-9)))
    else:
        flagged = ()
    return PolaronSweep(omega, Omega, gbar, results, discontinuities=flagged)


def parameter_derivatives(sweep: PolaronSweep, index: int) -> dict:
    """Flows of the variational parameters at a sweep point.

    At a minimum grad E(p, g_bar) = 0, so by the implicit-function theorem
    dp/dg_bar = -H^-1 d_gbar grad E over the components off their bounds; a
    component held by an active bound does not flow. H and d_gbar grad E are
    central differences of the closed-form gradient at the point itself, so
    no grid neighbour enters. The weight flows are propagated through the
    normalization manifold (chain rule in the mixing angle and the overlap
    S), which keeps the assembled <psi'|psi> at machine zero.
    """
    if not 0 <= index < len(sweep.ansatz):
        raise DerivativeInvalidError(
            f"index {index} outside the sweep of {len(sweep.ansatz)} points")
    ansatz = sweep.ansatz[index]
    params = sweep.params_at(index)
    gbar = float(sweep.gbar[index])
    p = _ansatz_to_vector(ansatz, params)
    lo, hi = np.array(_BOUNDS).T
    free = np.flatnonzero((p > lo + ACTIVE_BOUND_TOL) & (p < hi - ACTIVE_BOUND_TOL))

    def grad(q, at=params):
        return _objective(q, at)[1][free]

    h = FLOW_STEP
    hess = np.empty((free.size, free.size))
    for col, k in enumerate(free):
        step = np.zeros(p.size)
        step[k] = h
        hess[:, col] = (grad(p + step) - grad(p - step)) / (2.0 * h)
    hess = 0.5 * (hess + hess.T)
    base = ModelParams(sweep.omega, sweep.Omega, 0.0)
    mixed = (grad(p, base.with_g((gbar + h) * base.gc0))
             - grad(p, base.with_g((gbar - h) * base.gc0))) / (2.0 * h)
    try:
        factor = cho_factor(hess)
    except np.linalg.LinAlgError:
        raise DerivativeInvalidError(
            f"energy Hessian not positive definite at index {index}") from None
    dp = np.zeros(p.size)
    dp[free] = -cho_solve(factor, mixed)
    dpsi = dp[0]
    dzeta = dp[1:3]
    dxi = np.array([ansatz.xi_alpha, ansatz.xi_beta]) * dp[3:5]

    # dx_i/dg_bar = (dzeta_i/dg_bar * g_bar + zeta_i) * sqrt(Omega/(2*omega))
    scale = math.sqrt(sweep.Omega / (2.0 * sweep.omega))
    zeta = np.array([ansatz.zeta_alpha, ansatz.zeta_beta])
    dx = (dzeta * gbar + zeta) * scale

    # dS/dg_bar assembled from the same closed forms used in the QFI
    table = derivative_overlaps(ansatz, params)
    ds = (
        table.dx_phi[0, 1] * dx[0] + table.dxi_phi[0, 1] * dxi[0]
        + table.dx_phi[1, 0] * dx[1] + table.dxi_phi[1, 0] * dxi[1]
    )
    d_w_psi, d_w_s = weight_derivatives(p[0], table.s[0, 1])
    dweights = d_w_psi * dpsi + d_w_s * ds

    return {
        "dzeta": dzeta,
        "dxi": dxi,
        "dx": dx,
        "dweights": dweights,
        "dpsi": dpsi,
        "ds": ds,
        "overlap_table": table,
    }
