"""Two-polaron variational ansatz: Gaussian matrix elements, energy
minimization, continuation sweeps and parameter flows.

The spin-up component is psi_+(x) = alpha*phi_a(x) + beta*phi_b(x) with
Gaussian polarons phi_i = (xi_i/pi)^(1/4) exp[-xi_i (x + x_i)^2 / 2],
x_i = zeta_i * g_tilde, and psi_-(x) = -psi_+(-x) (parity -1). Weights obey
alpha^2 + beta^2 + 2 alpha beta <phi_a|phi_b> = 1.

The energy of p = (psi, zeta_a, zeta_b, ln xi_a, ln xi_b) has a closed-form
gradient and Hessian H, with the mixed derivative d_gbar grad E
(``_objective``). ``optimize`` minimizes it by multi-start L-BFGS-B. A
continuation sweep is predictor-corrector: each point after the first starts
from the tangent p + dg_bar dp/dg_bar of the previous one, and a projected
Newton corrector with the exact H converges it (``_newton``). The sweep keeps
p, H and d_gbar grad E of every converged point. The flows
dp/dg_bar = -H^-1 d_gbar grad E at a minimum follow from the
implicit-function theorem, from that H at the point itself, so they do not
depend on the grid the sweep was taken on; ``parameter_derivatives`` takes
them at every point of a sweep at once, NaN at a saddle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dsyev

from . import kernels
from .errors import ParameterDomainError
from .model import ModelParams

NORMALIZATION_TOL = 1e-8
ZETA_BOUND = 1.4
LOG_XI_BOUNDS = (math.log(0.02), math.log(8.0))
ACTIVE_BOUND_TOL = 1e-10    # a component this close to its bound is held by it
GRADIENT_TOL = 1e-11        # projected-gradient stop of both optimizers
NEWTON_MAX_STEPS = 100      # Newton corrector steps per point
NEWTON_HALVINGS = 20        # backtracking halvings per Newton step
EIGEN_FLOOR = 1e-10         # |eigenvalue| floor of a Newton step, relative to the largest
# Hessian eigenvalues within FLAT_TOL of the largest are flat directions: where
# the polarons merge, the smallest one changes sign along a direction in which
# the energy varies by less than its rounding, and the state hardly changes
FLAT_TOL = 1e-8
_EPS = np.finfo(float).eps


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


class OverlapTable(NamedTuple):
    """All 2x2 inner products entering the polaron-picture QFI assembly,
    stacked over the points of a sweep.

    Index order is (point, i, j) with i, j in (alpha, beta). ``dx_phi[k, i, j]``
    is <d phi_i/d x_i | phi_j>, ``dx_dxi[k, i, j]`` is
    <d phi_i/d x_i | d phi_j/d xi_j>, and so on.
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


def _overlap_table(xi: np.ndarray, x: np.ndarray) -> OverlapTable:
    """``_pair_entries`` of every ordered pair at every point; ``xi`` and
    ``x`` are (points x 2) over (alpha, beta). The entries are evaluated on
    Python floats, so the one Gaussian-overlap formula serves them."""
    entries = np.array([
        [[_pair_entries(xi_k[i], x_k[i], xi_k[j], x_k[j]) for j in range(2)]
         for i in range(2)]
        for xi_k, x_k in zip(xi.tolist(), x.tolist())
    ])
    return OverlapTable(*np.moveaxis(entries, -1, 0))


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


def _manifold_curvature(psi: float, s: float) -> tuple[float, ...]:
    """(d2 alpha/dpsi2, d2 beta/dpsi2, d2 alpha/dpsi dS, d2 beta/dpsi dS,
    d2 alpha/dS2, d2 beta/dS2) of the manifold map, from the first
    derivatives' k = S cos(2 psi)/n^2 and m = -sin(2 psi)/(2 n^2)."""
    alpha, beta, a_psi, b_psi, a_s, b_s = _manifold(psi, s)
    sin2, cos2 = math.sin(2.0 * psi), math.cos(2.0 * psi)
    n2 = 1.0 + s * sin2
    k = s * cos2 / n2
    m = -0.5 * sin2 / n2
    k_psi = -2.0 * s * sin2 / n2 - 2.0 * k * k
    k_s = cos2 / (n2 * n2)
    return (
        -b_psi - a_psi * k - alpha * k_psi,
        a_psi - b_psi * k - beta * k_psi,
        -b_s - a_s * k - alpha * k_s,
        a_s - b_s * k - beta * k_s,
        3.0 * alpha * m * m,
        3.0 * beta * m * m,
    )


def weights_from_angle(psi: float, s: float) -> np.ndarray:
    return np.array(_manifold(psi, s)[:2])


def angle_from_weights(alpha: float, beta: float) -> float:
    return math.atan2(beta, alpha)


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


def _objective(p: np.ndarray, params: ModelParams, hessian: bool = False):
    """Energy and its gradient in p = (psi, zeta_a, zeta_b, ln xi_a, ln xi_b).

    The fixed-weight gradient of ``kernels.pp_energy`` is chained through the
    manifold map (alpha, beta)(psi, S) and the overlap S(x_a, xi_a, x_b, xi_b),
    on Python floats; the gradient is the one array allocated. With
    ``hessian=True`` it returns (energy, gradient, H, d_gbar gradient): the
    kernel's second derivatives chained the same way (``_second_order``).
    """
    psi, za, zb, lxa, lxb = p.tolist()
    gt = params.g_tilde
    xi_a, xi_b = math.exp(lxa), math.exp(lxb)
    xa, xb = za * gt, zb * gt
    s, s_xa, s_xia, s_xb, s_xib = kernels.gaussian_overlap(xi_a, xa, xi_b, xb)
    w_a, w_b, a_psi, b_psi, a_s, b_s = _manifold(psi, s)
    e, kgrad, *khess = kernels.pp_energy(
        w_a, w_b, xa, xb, xi_a, xi_b, params.omega, params.Omega, gt, gradient=True,
        hessian=hessian)
    e_wa, e_wb, e_xa, e_xb, e_xia, e_xib = kgrad
    e_lns = s * (e_wa * a_s + e_wb * b_s)     # dE/d ln S through the weights
    grad = np.array([
        e_wa * a_psi + e_wb * b_psi,
        gt * (e_xa + e_lns * s_xa),
        gt * (e_xb + e_lns * s_xb),
        xi_a * (e_xia + e_lns * s_xia),
        xi_b * (e_xib + e_lns * s_xib),
    ])
    if not hessian:
        return e, grad
    kappa = math.sqrt(2.0) * params.gc0 / params.omega      # dg_tilde/dg_bar
    hess, mixed = _second_order(psi, za, zb, xi_a, xi_b, gt, kappa,
                                (s, s_xa, s_xb, s_xia, s_xib), kgrad, khess[0])
    return e, grad, hess, mixed


def _second_order(psi, za, zb, xi_a, xi_b, gt, kappa, overlap_terms, kgrad, khess):
    """(H, d_gbar grad E) in p from the kernel's fixed-weight derivatives.

    With e = (p, g_bar) and u = (w_a, w_b, x_a, x_b, xi_a, xi_b, g_tilde) the
    kernel's variables, d2E/de de = J^T K_uu J + sum_m K_u[m] d2u_m/de de
    with J = du/de. x_i = zeta_i g_tilde, xi_i = exp(ln xi_i) and g_tilde =
    kappa g_bar each depend on one or two components of e; the weights
    (alpha, beta)(psi, S) depend on all of them through the overlap S.
    """
    s, *ly = overlap_terms
    # S over e: y = (x_a, x_b, xi_a, xi_b) moves with e[1:5] by the factors
    # dy, and x_a, x_b move with g_bar by vy
    dy = (gt, gt, xi_a, xi_b)
    vy = (za * kappa, zb * kappa)
    ll = kernels.overlap_log_hessian(xi_a, za * gt, xi_b, zb * gt)
    s_y = [s * v for v in ly]
    s_yy = [[s * (ly[i] * ly[j] + ll[i][j]) for j in range(4)] for i in range(4)]
    s_yv = [row[0] * vy[0] + row[1] * vy[1] for row in s_yy]
    s_e = [0.0, *(d * v for d, v in zip(dy, s_y)), s_y[0] * vy[0] + s_y[1] * vy[1]]
    s_ee = [[dy[i] * dy[j] * s_yy[i][j] for j in range(4)] + [dy[i] * s_yv[i]]
            for i in range(4)]
    s_ee.append([dy[j] * s_yv[j] for j in range(4)] + [s_yv[0] * vy[0] + s_yv[1] * vy[1]])
    s_ee[0][4] += s_y[0] * kappa
    s_ee[4][0] += s_y[0] * kappa
    s_ee[1][4] += s_y[1] * kappa
    s_ee[4][1] += s_y[1] * kappa
    s_ee[2][2] += s_y[2] * xi_a
    s_ee[3][3] += s_y[3] * xi_b

    _, _, a_psi, b_psi, a_s, b_s = _manifold(psi, s)
    a_pp, b_pp, a_ps, b_ps, a_ss, b_ss = _manifold_curvature(psi, s)
    e_wa, e_wb = kgrad[0], kgrad[1]
    jac = np.array((
        (a_psi, *(a_s * v for v in s_e[1:])),
        (b_psi, *(b_s * v for v in s_e[1:])),
        (0.0, gt, 0.0, 0.0, 0.0, vy[0]),
        (0.0, 0.0, gt, 0.0, 0.0, vy[1]),
        (0.0, 0.0, 0.0, xi_a, 0.0, 0.0),
        (0.0, 0.0, 0.0, 0.0, xi_b, 0.0),
        (0.0, 0.0, 0.0, 0.0, 0.0, kappa),
    ))
    # sum_m K_u[m] d2u_m: the weights' second derivatives through (psi, S),
    # then those of x_i and xi_i
    c_ss, c_s = e_wa * a_ss + e_wb * b_ss, e_wa * a_s + e_wb * b_s
    c_ps = e_wa * a_ps + e_wb * b_ps
    curv = [[c_ss * s_e[i] * s_e[j] for j in range(6)] for i in range(6)]
    for i in range(1, 6):
        curv[0][i] += c_ps * s_e[i]
        curv[i][0] += c_ps * s_e[i]
        for j in range(1, 6):
            curv[i][j] += c_s * s_ee[i - 1][j - 1]
    curv[0][0] += e_wa * a_pp + e_wb * b_pp
    curv[1][5] += kgrad[2] * kappa
    curv[5][1] += kgrad[2] * kappa
    curv[2][5] += kgrad[3] * kappa
    curv[5][2] += kgrad[3] * kappa
    curv[3][3] += kgrad[4] * xi_a
    curv[4][4] += kgrad[5] * xi_b
    hess = jac.T @ khess @ jac + np.array(curv)
    return hess[:5, :5], hess[:5, 5]


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
_LOWER, _UPPER = np.array(_BOUNDS).T


def _minimize_from(p0: np.ndarray, params: ModelParams):
    # imported here, so the ED commands start without scipy.optimize
    from scipy.optimize import minimize

    # ftol = 0: stop on the projected gradient or when a step no longer lowers
    # the energy; the longer memory resolves the flat directions of
    # near-merged polarons below the transition
    return minimize(
        _objective, p0, args=(params,), jac=True, method="L-BFGS-B", bounds=_BOUNDS,
        options={"ftol": 0.0, "gtol": GRADIENT_TOL, "maxiter": 2000, "maxcor": 20},
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


def _parameter_jumps(vectors: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.diff(vectors, axis=0), axis=1)


def _energy_at(p: np.ndarray, params: ModelParams) -> float:
    """The energy of ``_objective`` alone, bitwise equal to it."""
    psi, za, zb, lxa, lxb = p.tolist()
    gt = params.g_tilde
    xi_a, xi_b = math.exp(lxa), math.exp(lxb)
    xa, xb = za * gt, zb * gt
    w_a, w_b = _manifold(psi, kernels.gaussian_overlap(xi_a, xa, xi_b, xb)[0])[:2]
    return kernels.pp_energy(w_a, w_b, xa, xb, xi_a, xi_b, params.omega, params.Omega, gt)


def _free(p: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Components not held by a bound that the gradient pushes them against."""
    return ~(((p <= _LOWER) & (grad > 0.0)) | ((p >= _UPPER) & (grad < 0.0)))


def _clip(p: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(p, _LOWER), _UPPER)


def _eigh(hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns) of a small symmetric
    matrix; LAPACK's dsyev, without the Python overhead of ``eigh``."""
    lam, vec, info = dsyev(hess)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyev failed with info {info}")
    return lam, vec


def _floored_solve(hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """H^-1 rhs with each |eigenvalue| of H floored at EIGEN_FLOOR times the
    largest, so the step descends at a saddle and stays finite along a flat
    direction."""
    lam, vec = _eigh(hess)
    lam = np.abs(lam)
    lam = np.maximum(lam, EIGEN_FLOOR * lam.max())
    return vec @ ((rhs @ vec) / lam)


def _on_free(mask: np.ndarray, hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``_floored_solve`` on the components in ``mask``, zero elsewhere."""
    if mask.all():
        return _floored_solve(hess, rhs)
    out = np.zeros(mask.size)
    out[mask] = _floored_solve(hess[np.ix_(mask, mask)], rhs[mask])
    return out


class _Point(NamedTuple):
    """A corrector iterate: p with the energy, gradient, H and d_gbar grad E there."""

    p: np.ndarray
    energy: float
    grad: np.ndarray
    hess: np.ndarray
    mixed: np.ndarray

    @classmethod
    def at(cls, p: np.ndarray, params: ModelParams) -> "_Point":
        return cls(p, *_objective(p, params, hessian=True))

    def converged(self) -> bool:
        projected = (self.p - _clip(self.p - self.grad)).tolist()
        return max(map(abs, projected)) <= GRADIENT_TOL

    def tangent(self) -> np.ndarray:
        """dp/dg_bar = -H^-1 d_gbar grad E on the free components."""
        return _on_free(_free(self.p, self.grad), self.hess, -self.mixed)


@dataclass
class PolaronSweep:
    """Optimized ansaetze over an ascending g_bar grid, with the state of each
    point: p (points x 5), the energy Hessian ``hess`` (points x 5 x 5) and
    d_gbar grad E ``mixed`` (points x 5) there.

    ``continuation_sweep`` fills the state from its Newton corrector. A sweep
    built from bare ansaetze evaluates it with one ``_objective(hessian=True)``
    per point.
    """

    omega: float
    Omega: float
    gbar: np.ndarray
    ansatz: list[PolaronAnsatz]
    discontinuities: tuple[int, ...] = ()
    p: np.ndarray | None = None
    hess: np.ndarray | None = None
    mixed: np.ndarray | None = None

    def __post_init__(self):
        if self.p is None:
            params = [self.params_at(k) for k in range(len(self.ansatz))]
            self.p, self.hess, self.mixed = _stack([
                _Point.at(_ansatz_to_vector(a, pk), pk) for a, pk in zip(self.ansatz, params)])

    def params_at(self, index: int) -> ModelParams:
        base = ModelParams(self.omega, self.Omega, 0.0)
        return base.with_g(float(self.gbar[index]) * base.gc0)


def _stack(points: list[_Point]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, H, d_gbar grad E) of the points as stacked arrays."""
    return (np.array([pt.p for pt in points]), np.array([pt.hess for pt in points]),
            np.array([pt.mixed for pt in points]))


def _newton(point: _Point, params: ModelParams) -> tuple[_Point, int, bool]:
    """Projected, safeguarded Newton corrector: (final iterate, steps taken,
    whether it stopped because it could not descend).

    Each step solves the eigenvalue-floored Newton system on the free
    components and projects p + t dp into the bounds, halving t until the
    energy falls. It stops at a projected gradient <= GRADIENT_TOL, when no
    halving can lower the energy, or after NEWTON_MAX_STEPS steps. A step
    whose predicted decrease -grad.dp is below the energy's rounding cannot
    show a decrease at any t: the point is a minimum to rounding. Otherwise
    NEWTON_HALVINGS failed halvings mean the corrector could not descend.
    """
    for steps in range(NEWTON_MAX_STEPS):
        if point.converged():
            return point, steps, False
        step = _on_free(_free(point.p, point.grad), point.hess, -point.grad)
        # a decrease of a few units in the last place of E cannot be seen
        if -float(point.grad @ step) <= 8.0 * _EPS * max(1.0, abs(point.energy)):
            return point, steps, False
        t = 1.0
        for _ in range(NEWTON_HALVINGS):
            trial = _clip(point.p + t * step)
            if _energy_at(trial, params) < point.energy:
                break
            t *= 0.5
        else:
            return point, steps, True
        point = _Point.at(trial, params)
    return point, NEWTON_MAX_STEPS, False


def _corrected(start: _Point, params: ModelParams, warm: PolaronAnsatz) -> _Point:
    """The Newton corrector from ``start``; single-start L-BFGS-B from
    ``warm`` if the corrector cannot lower the energy at all."""
    point, steps, stuck = _newton(start, params)
    if stuck and steps == 0:
        ans = optimize(params, warm_start=warm, multi_start=False)
        if ans.energy < point.energy:
            point = _Point.at(_ansatz_to_vector(ans, params), params)
    return point


def _ansatz_at(point: _Point, params: ModelParams) -> PolaronAnsatz:
    return replace(canonicalize(_vector_to_ansatz(point.p, params)), energy=point.energy)


def continuation_sweep(omega: float, Omega: float, gbar_grid,
                       warm_start: PolaronAnsatz | None = None) -> PolaronSweep:
    """Predictor-corrector continuation along the grid.

    The first point is a multi-start L-BFGS-B minimization, or a single-start
    one from ``warm_start`` when given, polished by the Newton corrector. Each
    later point starts from the tangent predictor
    p + dg_bar dp/dg_bar of the previous one, clipped into the bounds, or from
    the previous p where that has the lower energy, and is converged by the
    Newton corrector (``_newton``). Branch discontinuities (parameter jump
    > 10x the local scale) trigger a multi-start re-run at the offending
    points; surviving jumps are recorded. The sweep keeps the corrector's
    p, H and d_gbar grad E at every converged point; a re-run point gets
    them from one more Hessian evaluation.
    """
    gbar = np.asarray(gbar_grid, dtype=float)
    if gbar.size == 0:
        raise ParameterDomainError("empty grid")
    if np.any(np.diff(gbar) < 0):
        raise ParameterDomainError("g_bar grid must be ascending")
    base = ModelParams(omega, Omega, 0.0)
    results: list[PolaronAnsatz] = []
    points: list[_Point] = []
    for k, gb in enumerate(gbar):
        params = base.with_g(float(gb) * base.gc0)
        if not points:
            ans = (optimize(params) if warm_start is None
                   else optimize(params, warm_start=warm_start, multi_start=False))
            cold = _ansatz_to_vector(ans, params)
            point = _newton(_Point.at(cold, params), params)[0]
        else:
            point = points[-1]
            predicted = _clip(point.p + (gb - gbar[k - 1]) * point.tangent())
            start = min(predicted, point.p, key=lambda q: _energy_at(q, params))
            point = _corrected(_Point.at(start, params), params, results[-1])
        points.append(point)
        results.append(_ansatz_at(point, params))
    flagged: tuple[int, ...] = ()
    if gbar.size >= 4:
        jumps = _parameter_jumps(np.array([pt.p for pt in points]))
        scale = np.median(jumps) + 1e-9
        for k in np.flatnonzero(jumps > 10.0 * scale):
            for idx in (k, k + 1):
                params = base.with_g(float(gbar[idx]) * base.gc0)
                ans = optimize(params, warm_start=results[idx], multi_start=True)
                if ans.energy < results[idx].energy:
                    results[idx] = ans
                    points[idx] = _Point.at(_ansatz_to_vector(ans, params), params)
        jumps = _parameter_jumps(np.array([pt.p for pt in points]))
        flagged = tuple(int(k) for k in np.flatnonzero(jumps > 10.0 * (np.median(jumps) + 1e-9)))
    return PolaronSweep(omega, Omega, gbar, results, flagged, *_stack(points))


def parameter_derivatives(sweep: PolaronSweep) -> dict:
    """Flows of the variational parameters at every point of a sweep.

    At a minimum grad E(p, g_bar) = 0, so by the implicit-function theorem
    dp/dg_bar = -H^-1 d_gbar grad E over the components off their bounds; a
    component held by an active bound does not flow. H and d_gbar grad E are
    the sweep's own, the closed-form second derivatives at each point, so no
    grid neighbour enters. The eigensolves take the stack of every point's H
    with its held rows and columns zeroed, so they add the eigenvalue 0,
    which is dropped as flat and changes neither the largest eigenvalue nor
    the refusal test of a free block with a positive eigenvalue. Eigenvalues
    within ``FLAT_TOL`` of the largest are flat directions and are dropped;
    a point whose free block has an eigenvalue below -FLAT_TOL times the
    largest is a saddle, and its flows are NaN. The weight flows are
    propagated through the normalization manifold (chain rule in the mixing
    angle and the overlap S), which keeps the assembled <psi'|psi> at machine
    zero.

    Returns arrays over the points: the ``free`` component masks, the number
    of ``dropped`` flat directions, ``dpsi``, ``dzeta``, ``dxi``, ``dx``,
    ``ds``, the ``weights`` and ``dweights``, and the ``overlap_table`` of
    the point.
    """
    p = sweep.p
    free = (p > _LOWER + ACTIVE_BOUND_TOL) & (p < _UPPER - ACTIVE_BOUND_TOL)
    padded = np.where(free[:, :, None] & free[:, None, :], sweep.hess, 0.0)
    # the corrector's dsyev, point by point: as fast as one batched numpy eigh
    # of 5x5 matrices, and it leaves numpy's own LAPACK unloaded (0.75 MB of RSS)
    lam, vec = (np.array(part) for part in zip(*map(_eigh, padded)))
    flat = FLAT_TOL * lam[:, -1:]
    # a free block without a positive eigenvalue is refused below; the floor
    # at 0 keeps its zeroed held rows from being inverted
    stiff = lam > np.maximum(flat, 0.0)
    inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=stiff)
    coefficients = np.einsum("kji,kj->ki", vec, np.where(free, sweep.mixed, 0.0)) * inverse
    dp = np.where(free, -np.einsum("kij,kj->ki", vec, coefficients), 0.0)
    dp[lam[:, 0] < -flat[:, 0]] = np.nan
    dpsi = dp[:, 0]
    dzeta = dp[:, 1:3]
    xi = np.exp(p[:, 3:5])
    dxi = xi * dp[:, 3:5]

    # x_i = zeta_i g_tilde with g_tilde = g_bar sqrt(Omega/(2 omega)), so
    # dx_i/dg_bar = (dzeta_i/dg_bar g_bar + zeta_i) sqrt(Omega/(2 omega));
    # g_tilde itself as ``params_at(k).g_tilde`` computes it
    gbar = np.asarray(sweep.gbar, dtype=float)
    gc0 = ModelParams(sweep.omega, sweep.Omega, 0.0).gc0
    g_tilde = math.sqrt(2.0) * (gbar * gc0) / sweep.omega
    zeta = p[:, 1:3]
    dx = (dzeta * gbar[:, None] + zeta) * math.sqrt(sweep.Omega / (2.0 * sweep.omega))

    # dS/dg_bar assembled from the same closed forms used in the QFI
    table = _overlap_table(xi, zeta * g_tilde[:, None])
    ds = (table.dx_phi[:, 0, 1] * dx[:, 0] + table.dxi_phi[:, 0, 1] * dxi[:, 0]
          + table.dx_phi[:, 1, 0] * dx[:, 1] + table.dxi_phi[:, 1, 0] * dxi[:, 1])
    manifold = np.array([_manifold(psi, s)
                         for psi, s in zip(p[:, 0].tolist(), table.s[:, 0, 1].tolist())])
    dweights = manifold[:, 2:4] * dpsi[:, None] + manifold[:, 4:6] * ds[:, None]

    return {
        "free": free,
        "dropped": np.count_nonzero(free, axis=1) - np.count_nonzero(stiff, axis=1),
        "dpsi": dpsi,
        "dzeta": dzeta,
        "dxi": dxi,
        "dx": dx,
        "ds": ds,
        "weights": manifold[:, :2],
        "dweights": dweights,
        "overlap_table": table,
    }
