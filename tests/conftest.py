"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the package internals: direct
quadrature, dense grid diagonalization, the dense full-space Fock Hamiltonian,
and explicit Gaussian algebra, used to validate the closed forms and solvers
against first principles. The polaron optimizer oracles (derivative-free
minimization, re-optimized finite differences) evaluate the package's energy,
which the quadrature oracles check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import minimize

from qrabi import kernels, polaron
from qrabi.model import ModelParams
from qrabi.polaron import Polaron, PolaronAnsatz, overlap, weights_from_angle


def gaussian(xi: float, x0: float):
    """phi(x) = (xi/pi)^(1/4) exp(-xi (x + x0)^2 / 2) as a callable."""
    norm = (xi / math.pi) ** 0.25

    def phi(x):
        return norm * np.exp(-0.5 * xi * (x + x0) ** 2)

    return phi


def quad_overlap(f, g, lim: float = 30.0) -> float:
    # epsabs ~ 0 forces relative convergence even for exponentially small
    # overlaps of well-separated packets; the roundoff warning this can
    # trigger is expected and harmless at the tolerances used here
    import warnings

    from scipy.integrate import IntegrationWarning

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda x: f(x) * g(x), -lim, lim, limit=500,
                      epsabs=1e-280, epsrel=1e-11)
    return val


def numeric_pair_oracle(xi_i, x_i, xi_j, x_j, eps: float = 1e-6):
    """All nine inner products by quadrature + central differences.

    Returns them in the same order as the closed-form table entries:
    s, dx_phi, dxi_phi, dx_dx, dx_dxi, dxi_dx, dxi_dxi.
    """

    def phi(xi, x0):
        return gaussian(xi, x0)

    def d_x(xi, x0):
        # d/dx0 of phi
        return lambda x: (gaussian(xi, x0 + eps)(x) - gaussian(xi, x0 - eps)(x)) / (2 * eps)

    def d_xi(xi, x0):
        return lambda x: (gaussian(xi + eps, x0)(x) - gaussian(xi - eps, x0)(x)) / (2 * eps)

    s = quad_overlap(phi(xi_i, x_i), phi(xi_j, x_j))
    dx_phi = quad_overlap(d_x(xi_i, x_i), phi(xi_j, x_j))
    dxi_phi = quad_overlap(d_xi(xi_i, x_i), phi(xi_j, x_j))
    dx_dx = quad_overlap(d_x(xi_i, x_i), d_x(xi_j, x_j))
    dx_dxi = quad_overlap(d_x(xi_i, x_i), d_xi(xi_j, x_j))
    dxi_dx = quad_overlap(d_xi(xi_i, x_i), d_x(xi_j, x_j))
    dxi_dxi = quad_overlap(d_xi(xi_i, x_i), d_xi(xi_j, x_j))
    return s, dx_phi, dxi_phi, dx_dx, dx_dxi, dxi_dx, dxi_dxi


def random_ansatz(rng: np.random.Generator, params: ModelParams) -> PolaronAnsatz:
    """A normalized two-polaron ansatz with random parameters."""
    za = float(rng.uniform(0.0, 1.2))
    zb = float(rng.uniform(-1.2, 0.0))
    xi_a = float(rng.uniform(0.2, 3.0))
    xi_b = float(rng.uniform(0.2, 3.0))
    psi = float(rng.uniform(0.0, math.pi / 2))
    gt = params.g_tilde
    s = overlap(Polaron(xi_a, za * gt), Polaron(xi_b, zb * gt))
    alpha, beta = weights_from_angle(psi, s)
    return PolaronAnsatz(alpha, beta, za, zb, xi_a, xi_b)


def ansatz_wavefunction(ansatz: PolaronAnsatz, params: ModelParams):
    """psi_+(x) of the ansatz as a callable."""
    pa, pb = ansatz.polarons(params)
    fa, fb = gaussian(pa.xi, pa.x), gaussian(pb.xi, pb.x)
    a, b = ansatz.alpha, ansatz.beta
    return lambda x: a * fa(x) + b * fb(x)


def grid_ground_energy(params: ModelParams, n: int = 2400, lim: float = 14.0) -> float:
    """Two-component position-space finite-difference ground energy.

    H = [[-(w/2) d2 + v_+, Omega/2], [Omega/2, -(w/2) d2 + v_-]] with
    v_sigma(x) = w (x + g_tilde sigma)^2 / 2 + eps0.
    """
    x = np.linspace(-lim, lim, n)
    h = x[1] - x[0]
    omega, Omega, gt = params.omega, params.Omega, params.g_tilde
    eps0 = -(gt ** 2 + 1.0) * omega / 2.0
    lap = (
        np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    ) / h ** 2
    kin = -(omega / 2.0) * lap
    v_plus = np.diag(omega * (x + gt) ** 2 / 2.0 + eps0)
    v_minus = np.diag(omega * (x - gt) ** 2 / 2.0 + eps0)
    coupling = (Omega / 2.0) * np.eye(n)
    ham = np.block([[kin + v_plus, coupling], [coupling, kin + v_minus]])
    return float(np.linalg.eigvalsh(ham)[0])


@dataclass(frozen=True)
class FockHamiltonian:
    """Dense real-symmetric Hamiltonian on the truncated two-spin Fock basis."""

    params: ModelParams
    cutoff: int
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return 2 * (self.cutoff + 1)


def build_hamiltonian(params: ModelParams, cutoff: int) -> FockHamiltonian:
    """Dense H = omega a^dag a + g sigma_z (a^dag + a) + (Omega/2) sigma_x for
    photon numbers n = 0..cutoff.

    Basis ordering is spin-major: index = s*(N+1) + n with s = 0 for
    sigma_z = +1 and s = 1 for sigma_z = -1, so the Omega/2 term is an
    off-diagonal block.
    """
    n = np.arange(cutoff + 1)
    dim = cutoff + 1
    coupling = np.zeros((dim, dim))
    ladder = params.g * np.sqrt(n[1:])  # <n|a|n+1> * g
    coupling[n[1:] - 1, n[1:]] = ladder
    coupling[n[1:], n[1:] - 1] = ladder
    number = np.diag(params.omega * n)
    h = np.zeros((2 * dim, 2 * dim))
    h[:dim, :dim] = number + coupling     # sigma_z = +1 block
    h[dim:, dim:] = number - coupling     # sigma_z = -1 block
    off = 0.5 * params.Omega * np.eye(dim)
    h[:dim, dim:] = off
    h[dim:, :dim] = off
    return FockHamiltonian(params=params, cutoff=cutoff, matrix=h)


def parity_operator(cutoff: int) -> np.ndarray:
    """P = sigma_x (x) (-1)^n in the spin-major basis; P @ P = identity."""
    dim = cutoff + 1
    signs = np.diag((-1.0) ** np.arange(dim))
    p = np.zeros((2 * dim, 2 * dim))
    p[:dim, dim:] = signs
    p[dim:, :dim] = signs
    return p


def sector_matrix(params: ModelParams, cutoff: int, parity: int = -1):
    """(diagonal, off-diagonal) of one parity sector's Hamiltonian.

    In the sector, sigma_x = parity (-1)^n at photon number n and
    g sigma_z (a + a^dag) hops n -> n +- 1, so the matrix is tridiagonal with
    diagonal omega n + parity (Omega/2)(-1)^n and off-diagonal g sqrt(n).
    """
    n = np.arange(cutoff + 1)
    diag = params.omega * n + parity * 0.5 * params.Omega * (-1.0) ** n
    off = params.g * np.sqrt(n[1:])
    return diag, off


def sector_ground_pair(params: ModelParams, cutoff: int, parity: int = -1):
    """Lowest eigenvalue and eigenvector (arbitrary sign) of a sector matrix."""
    vals, vecs = eigh_tridiagonal(*sector_matrix(params, cutoff, parity), select="i",
                                  select_range=(0, 0))
    return float(vals[0]), vecs[:, 0]


def sector_ground_vector(params: ModelParams, cutoff: int) -> np.ndarray:
    """Lowest eigenvector (arbitrary sign) of the parity -1 sector Hamiltonian."""
    return sector_ground_pair(params, cutoff)[1]


def two_solve_qfi(params: ModelParams, tol: float = 1e-10, start: int | None = None):
    """(cutoff, energy, F_Q) from the two-eigensolve cutoff search.

    The search the interlacing certificate replaced, kept as its oracle: solve
    the start cutoff (default n_bar + 12 sqrt(n_bar) + 32), grow by 1.5x and
    compare the solved energies, with the tail weight beyond 0.9 N below
    1e-12; then the pinned linear-response solve with two ``solve_banded``
    calls.
    """
    nbar = (params.g / params.omega) ** 2
    cutoff = start or math.ceil(nbar + 12.0 * math.sqrt(nbar)) + 32
    energy, _ = sector_ground_pair(params, cutoff)
    while True:
        cutoff = math.ceil(1.5 * cutoff)
        if cutoff > 16384:
            raise AssertionError("the oracle's cutoff search did not converge")
        new_energy, psi = sector_ground_pair(params, cutoff)
        tail = float(np.sum(psi[int(0.9 * cutoff):] ** 2))
        if abs(new_energy - energy) <= tol * abs(new_energy) and tail < 1e-12:
            break
        energy = new_energy
    if psi[np.argmax(np.abs(psi))] < 0:
        psi = -psi
    diag, off = sector_matrix(params, cutoff)
    diag = diag - new_energy
    roots = np.sqrt(np.arange(1, cutoff + 1))
    vpsi = np.zeros_like(psi)
    vpsi[:-1] += roots * psi[1:]
    vpsi[1:] += roots * psi[:-1]
    rhs = -(vpsi - float(psi @ vpsi) * psi)
    m = int(np.argmax(np.abs(psi)))
    diag[m], rhs[m] = 1.0, 0.0
    off = off.copy()
    off[max(m - 1, 0):m + 1] = 0.0
    bands = np.array([np.r_[0.0, off], diag, np.r_[off, 0.0]])

    def apply(x):
        out = diag * x
        out[:-1] += off * x[1:]
        out[1:] += off * x[:-1]
        return out

    x = solve_banded((1, 1), bands, rhs)
    x += solve_banded((1, 1), bands, rhs - apply(x))
    x -= float(psi @ x) * psi
    return cutoff, new_energy, 4.0 * float(x @ x)


def aligned(ref: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """vec with the sign that makes its overlap with ref positive."""
    ovl = float(ref @ vec)
    if abs(ovl) < 0.5:
        raise ValueError(f"state overlap {ovl:.3f} below 0.5; step too large")
    return -vec if ovl < 0 else vec


def fd_qfi(params: ModelParams, h: float, cutoff: int) -> float:
    """F_Q with respect to g from gauge-aligned central differences at a fixed cutoff."""
    center = sector_ground_vector(params, cutoff)
    plus = aligned(center, sector_ground_vector(params.with_g(params.g + h), cutoff))
    minus = aligned(center, sector_ground_vector(params.with_g(params.g - h), cutoff))
    dpsi = (plus - minus) / (2.0 * h)
    first = float(dpsi @ center)
    return 4.0 * (float(dpsi @ dpsi) - first ** 2)


def overlap_fidelity(params: ModelParams, delta: float, cutoff: int) -> float:
    """|<psi(g)|psi(g + delta)>| by direct overlap at a fixed cutoff."""
    a = sector_ground_vector(params, cutoff)
    b = sector_ground_vector(params.with_g(params.g + delta), cutoff)
    return abs(float(a @ b))


def vector_energy(p, params: ModelParams) -> float:
    """Ansatz energy at p = (psi, zeta_a, zeta_b, ln xi_a, ln xi_b), energy only."""
    psi, za, zb, lxa, lxb = p
    gt = params.g_tilde
    xi_a, xi_b = math.exp(lxa), math.exp(lxb)
    w_a, w_b = weights_from_angle(psi, overlap(Polaron(xi_a, za * gt), Polaron(xi_b, zb * gt)))
    return kernels.pp_energy(w_a, w_b, za * gt, zb * gt, xi_a, xi_b,
                             params.omega, params.Omega, gt)


def four_pair_energy(w_a, w_b, x_a, x_b, xi_a, xi_b, omega, Omega, g_tilde):
    """(energy, dE/d(w_a, w_b, x_a, x_b, xi_a, xi_b)) of the two-polaron ansatz
    at fixed weights, summed over the four ordered pairs (i, j).

    The pair-by-pair assembly the three-pair ``kernels.pp_energy`` replaced,
    kept as its oracle: every pair, diagonal ones included, takes its overlap
    and mirrored overlap from ``kernels.gaussian_overlap``.
    """
    eps0 = -0.5 * (g_tilde * g_tilde + 1.0) * omega
    c = 0.5 * omega
    w = (w_a, w_b)
    x = (x_a, x_b)
    xi = (xi_a, xi_b)
    energy = 0.0
    grad = [0.0] * 6
    for i in range(2):
        for j in range(2):
            A, B = xi[i], xi[j]
            s = A + B
            q = A * B / s
            d = x[i] - x[j]
            # centre -(A x_i + B x_j)/s of phi_i phi_j minus the well centre -g_tilde
            r = g_tilde - (A * x[i] + B * x[j]) / s
            S, s_xi, s_A, s_xj, s_B = kernels.gaussian_overlap(A, x[i], B, x[j])
            # overlap with the mirrored phi_j(-x); it depends on -x_j
            T, t_xi, t_A, t_xj, t_B = kernels.gaussian_overlap(A, x[i], B, -x[j])
            G = c * (q * (1.0 - q * d * d) + r * r + 1.0 / s) + eps0
            tun = 0.5 * Omega * T
            h = S * G - tun
            ww = w[i] * w[j]
            energy += ww * h
            gq = 1.0 - 2.0 * q * d * d
            G_xi = -2.0 * c * (q * q * d + r * A / s)
            G_xj = 2.0 * c * (q * q * d - r * B / s)
            G_A = c * (gq * B * B - 2.0 * r * B * d - 1.0) / (s * s)
            G_B = c * (gq * A * A + 2.0 * r * A * d - 1.0) / (s * s)
            grad[i] += w[j] * h
            grad[j] += w[i] * h
            grad[2 + i] += ww * (S * (G * s_xi + G_xi) - tun * t_xi)
            grad[2 + j] += ww * (S * (G * s_xj + G_xj) + tun * t_xj)
            grad[4 + i] += ww * (S * (G * s_A + G_A) - tun * t_A)
            grad[4 + j] += ww * (S * (G * s_B + G_B) - tun * t_B)
    return energy, np.array(grad)


def nelder_mead_energy(params: ModelParams) -> float:
    """Lowest energy of two chained Nelder-Mead runs from each optimizer seed.

    The derivative-free minimizer the gradient optimizer replaced, kept as its
    oracle: same seeds, same bounds, energies only.
    """
    best = math.inf
    for p0 in polaron._seed_vectors(params, None):
        x = p0
        for xatol, fatol in ((1e-11, 1e-13), (1e-12, 1e-14)):
            res = minimize(vector_energy, x, args=(params,), method="Nelder-Mead",
                           bounds=polaron._BOUNDS,
                           options={"xatol": xatol, "fatol": fatol,
                                    "maxiter": 8000, "maxfev": 8000})
            best = min(best, res.fun)
            x = res.x
    return best


def optimized_flow_oracle(sweep, index: int, h: float = 1e-3) -> np.ndarray:
    """d(psi, zeta_a, zeta_b, xi_a, xi_b)/dg_bar by central differences of
    ansaetze re-optimized at g_bar +- h, warm-started from the sweep point."""
    base = ModelParams(sweep.omega, sweep.Omega, 0.0)
    gbar = float(sweep.gbar[index])
    ends = []
    for gb in (gbar - h, gbar + h):
        a = polaron.optimize(base.with_g(gb * base.gc0), warm_start=sweep.ansatz[index],
                             multi_start=False)
        ends.append(np.array([math.atan2(a.beta, a.alpha), a.zeta_alpha, a.zeta_beta,
                              a.xi_alpha, a.xi_beta]))
    return (ends[1] - ends[0]) / (2.0 * h)


def fd_dfisher(params: ModelParams, h: float, step: float, cutoff: int) -> float:
    """dF_Q/dg from the fourth-order central stencil over ``fd_qfi`` at g +- step
    and g +- 2 step, each with state step h, all at a fixed cutoff."""

    def f(k):
        return fd_qfi(params.with_g(params.g + k * step), h, cutoff)

    return (8.0 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12.0 * step)


def golden_section_peak(omega: float, Omega: float, gbar_range=(0.5, 3.0),
                        coarse_points: int = 41, refine_tol: float = 1e-4):
    """(gbar_cF, F_Q per g_bar there) from a scan of ``qfi_ed`` and golden-section
    refinement around the scan's largest point.

    The scan-and-refine peak search the root search on the exact dF/dg_bar
    replaced, kept as its oracle; a maximum at a scan end raises.
    """
    from qrabi.qfi import qfi_ed

    base = ModelParams(omega, Omega, 0.0)

    def f(gbar):
        return qfi_ed(base.with_g(gbar * base.gc0)).f_q_gbar

    grid = np.linspace(gbar_range[0], gbar_range[1], coarse_points)
    k = int(np.argmax([f(gb) for gb in grid]))
    if k in (0, coarse_points - 1):
        raise AssertionError("the oracle's scan has no interior maximum")
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(grid[k - 1]), float(grid[k + 1])
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > refine_tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b), max(fc, fd)


def per_point_derivative_overlaps(ansatz: PolaronAnsatz, params: ModelParams):
    """The seven 2x2 tables (s, dx_phi, dxi_phi, dx_dx, dx_dxi, dxi_dx,
    dxi_dxi) of ``polaron._pair_entries`` at one point, index order
    (alpha, beta)."""
    pols = ansatz.polarons(params)
    mats = [np.zeros((2, 2)) for _ in range(7)]
    for i in range(2):
        for j in range(2):
            entries = polaron._pair_entries(pols[i].xi, pols[i].x, pols[j].xi, pols[j].x)
            for m, e in zip(mats, entries):
                m[i, j] = e
    return mats


def per_point_parameter_derivatives(sweep, index: int) -> dict:
    """Implicit-function flows at one sweep point, from a Hessian evaluated
    again at the point's ansatz and one ``eigh`` of its free block; raises
    ``DerivativeInvalidError`` at a saddle."""
    from qrabi.errors import DerivativeInvalidError

    ansatz = sweep.ansatz[index]
    params = sweep.params_at(index)
    gbar = float(sweep.gbar[index])
    p = polaron._ansatz_to_vector(ansatz, params)
    free = np.flatnonzero((p > polaron._LOWER + polaron.ACTIVE_BOUND_TOL)
                          & (p < polaron._UPPER - polaron.ACTIVE_BOUND_TOL))
    _, _, hess, mixed = polaron._objective(p, params, hessian=True)
    lam, vec = np.linalg.eigh(hess[np.ix_(free, free)])
    flat = polaron.FLAT_TOL * lam[-1]
    if lam[0] < -flat:
        raise DerivativeInvalidError(f"energy Hessian not positive definite at index {index}")
    stiff = vec[:, lam > flat]
    dp = np.zeros(p.size)
    dp[free] = -stiff @ ((mixed[free] @ stiff) / lam[lam > flat])
    dxi = np.array([ansatz.xi_alpha, ansatz.xi_beta]) * dp[3:5]
    zeta = np.array([ansatz.zeta_alpha, ansatz.zeta_beta])
    dx = (dp[1:3] * gbar + zeta) * math.sqrt(sweep.Omega / (2.0 * sweep.omega))
    s, dx_phi, dxi_phi, *_ = per_point_derivative_overlaps(ansatz, params)
    ds = (dx_phi[0, 1] * dx[0] + dxi_phi[0, 1] * dxi[0]
          + dx_phi[1, 0] * dx[1] + dxi_phi[1, 0] * dxi[1])
    d_w_psi, d_w_s = np.array(polaron._manifold(p[0], s[0, 1])[2:]).reshape(2, 2)
    return {"dpsi": dp[0], "dzeta": dp[1:3], "dxi": dxi, "dx": dx, "ds": ds,
            "dweights": d_w_psi * dp[0] + d_w_s * ds}


def per_point_qfi_pp(sweep, index: int) -> float:
    """Polaron-picture F_Q per g_bar at one sweep point, assembled from 2x2
    matrices point by point: the oracle of the sweep-wide ``qfi_pp_full``."""
    d = per_point_parameter_derivatives(sweep, index)
    ansatz = sweep.ansatz[index]
    s, dx_phi, dxi_phi, dx_dx, dx_dxi, dxi_dx, dxi_dxi = per_point_derivative_overlaps(
        ansatz, sweep.params_at(index))
    w, wp, dx, dxi = ansatz.weights(), d["dweights"], d["dx"], d["dxi"]
    phi_ip_phi_j = dx_phi * dx[:, None] + dxi_phi * dxi[:, None]
    phi_ip_phi_jp = (dx_dx * np.outer(dx, dx) + dx_dxi * np.outer(dx, dxi)
                     + dxi_dx * np.outer(dxi, dx) + dxi_dxi * np.outer(dxi, dxi))
    first = w @ phi_ip_phi_j @ w + wp @ s @ w
    second = w @ phi_ip_phi_jp @ w + wp @ s @ wp + 2.0 * (w @ phi_ip_phi_j @ wp)
    return float(4.0 * (second - first ** 2))
