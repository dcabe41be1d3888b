"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the package internals: direct
quadrature, dense grid diagonalization, and explicit Gaussian algebra, used to
validate the closed forms and solvers against first principles.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

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


def sector_ground_vector(params: ModelParams, cutoff: int) -> np.ndarray:
    """Lowest eigenvector (arbitrary sign) of the parity -1 sector Hamiltonian.

    In the sector, sigma_x = -(-1)^n at photon number n and g sigma_z (a + a^dag)
    hops n -> n +- 1, so the matrix is tridiagonal with diagonal
    omega n - (Omega/2)(-1)^n and off-diagonal g sqrt(n).
    """
    n = np.arange(cutoff + 1)
    diag = params.omega * n - 0.5 * params.Omega * (-1.0) ** n
    off = params.g * np.sqrt(n[1:])
    _, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    return vecs[:, 0]


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
