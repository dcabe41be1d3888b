"""Shared numerical oracles for the test suite.

Everything here is deliberately independent of the package internals: direct
quadrature, dense grid diagonalization, the dense full-space Fock Hamiltonian,
explicit Gaussian algebra and high-precision series extraction, used to
validate the closed forms and solvers against first principles. The
position-space wavefunction, photon number, per-spin displacement and
full-space vector of a ground state live here too, since only tests read
them. The polaron optimizer
oracles (derivative-free minimization, re-optimized finite differences)
evaluate the package's energy, which the quadrature oracles check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import minimize

from qrabi import critical, edsolver, kernels, polaron
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


def oscillator_table(n_max, x):
    """Normalized oscillator eigenfunctions h_0..h_n_max on the points x,
    one row per n."""
    # Normalized recurrence: overflow-free up to n ~ 1e4. h_0 underflows for
    # |x| beyond ~38, in which case the column is exactly zero.
    out = np.zeros((n_max + 1, x.size))
    h0 = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    out[0] = h0
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * h0
    for n in range(1, n_max):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1.0)) * x * out[n]
            - math.sqrt(n / (n + 1.0)) * out[n - 1]
        )
    return out


def position_wavefunction(state, grid) -> tuple[np.ndarray, np.ndarray]:
    """Spin-component wavefunctions psi_sigma(x) = sum_n c_{sigma,n} h_n(x) of a
    ``QuantumState``.

    Uses the normalized oscillator recurrence (unit frequency in the
    dimensionless position of the spin-dependent potential). Far outside the
    classically allowed region h_n underflows and the result is 0.
    """
    table = oscillator_table(state.cutoff, np.asarray(grid, dtype=float))
    return state.coeffs_plus @ table, state.coeffs_minus @ table


def photon_number(state) -> float:
    """Mean photon number of a ``QuantumState``, averaged over the two
    (normalized) spin components."""
    n = np.arange(state.cutoff + 1)
    return float(0.5 * np.sum(n * (state.coeffs_plus ** 2 + state.coeffs_minus ** 2)))


def expectation_x(state) -> tuple[float, float]:
    """Per-spin displacement <x>_sigma = sqrt(2) <psi_sigma| a |psi_sigma> of a
    ``QuantumState``, summed over the Fock ladder of each spin component: the
    oracle of ``GroundStateResponse.x_plus``."""
    roots = np.sqrt(np.arange(1, state.cutoff + 1))

    def one(c):
        return math.sqrt(2.0) * float(np.sum(c[:-1] * roots * c[1:]))

    minus = -((-1.0) ** np.arange(state.cutoff + 1)) * state.coeffs_plus
    return one(state.coeffs_plus), one(minus)


def full_vector(state) -> np.ndarray:
    """Spin-major full-space vector of a ``QuantumState``, total norm 1."""
    return np.concatenate([state.coeffs_plus, state.coeffs_minus]) / math.sqrt(2.0)


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


def count_index_bisections(monkeypatch) -> list:
    """A list that gains one entry per ``edsolver.dstebz`` call while the
    patch holds, True for the index-range bisection of the lowest level (its
    sum counts those) and False for a value-range window."""
    calls = []
    real = edsolver.dstebz
    monkeypatch.setattr(edsolver, "dstebz", lambda *a: calls.append(a[2] == 2) or real(*a))
    return calls


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
        params = base.with_g(gb * base.gc0)
        warm = polaron._ansatz_to_vector(sweep.ansatz[index], params)
        a = polaron._vector_to_ansatz(polaron._minimize_from(warm, params).x, params)
        ends.append(np.array([math.atan2(a.beta, a.alpha), a.zeta_alpha, a.zeta_beta,
                              a.xi_alpha, a.xi_beta]))
    return (ends[1] - ends[0]) / (2.0 * h)


def fd_dfisher(params: ModelParams, h: float, step: float, cutoff: int) -> float:
    """dF_Q/dg from the fourth-order central stencil over ``fd_qfi`` at g +- step
    and g +- 2 step, each with state step h, all at a fixed cutoff."""

    def f(k):
        return fd_qfi(params.with_g(params.g + k * step), h, cutoff)

    return (8.0 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12.0 * step)


def golden_section_peak(f, gbar_range=(0.5, 3.0), coarse_points: int = 41,
                        refine_tol: float = 1e-4):
    """(gbar_cF, f there) of a function of g_bar from a scan and golden-section
    refinement around the scan's largest point.

    The scan-and-refine peak search that the ED root search on the exact
    dF/dg_bar and the PP re-sweep search replaced, kept as their oracle
    (``ed_qfi``, ``pp_qfi``); a maximum at a scan end raises.
    """
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


def ed_qfi(omega: float, Omega: float):
    """F_Q per g_bar of ``qfi_ed`` as a function of g_bar."""
    from qrabi.qfi import qfi_ed

    base = ModelParams(omega, Omega, 0.0)
    return lambda gbar: qfi_ed(base.with_g(gbar * base.gc0)).f_q_gbar


def pp_qfi(omega: float, Omega: float):
    """F per g_bar of ``qfi_pp_full`` as a function of g_bar, each value from
    a one-point continuation sweep (multi-start L-BFGS-B and the corrector)."""
    from qrabi.qfi import qfi_pp_full

    return lambda gbar: float(qfi_pp_full(polaron.continuation_sweep(omega, Omega, [gbar]))[0])


def fd_acceleration_crossing(sweep) -> float:
    """g_bar where a = d^2(zeta_alpha g_bar)/dg_bar^2 of a sweep's main polaron
    first falls through zero, with a from two ``np.gradient`` passes on the
    grid and the crossing interpolated linearly between interior points (two
    from each end excluded): the rule ``qfi.acceleration_condition`` had
    before it maximized the exact v_p, kept as its oracle."""
    gbar = np.asarray(sweep.gbar, dtype=float)
    zeta = np.array([a.zeta_alpha for a in sweep.ansatz])
    accel = np.gradient(np.gradient(zeta * gbar, gbar), gbar)
    for i in range(2, gbar.size - 3):
        a0, a1 = accel[i], accel[i + 1]
        if a0 > 0 and a1 <= 0:
            return float(gbar[i] + (gbar[i + 1] - gbar[i]) * a0 / (a0 - a1))
    raise AssertionError("the acceleration has no sign change in the sweep")


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


# --- series expansions of the closed-form couplings in mpmath arithmetic ----


def _gc1_ratio_mp(r):
    # gc1/gc0 at omega = r, Omega = 1
    g04 = r * r / 16
    return mp.sqrt(r * r + mp.sqrt(r ** 4 + g04)) / (mp.sqrt(r) / 2)


def _gcxi_ratio_mp(r, d_c1):
    # gc_xi/gc0 at omega = r, Omega = 1, the closed form of ``critical.gc_xi``
    g0 = mp.sqrt(r) / 2
    omega_c1 = d_c1 * r
    gt0 = g0 / omega_c1
    u = gt0 ** 4
    f12 = 1 + 36 * u + 216 * u * u + 24 * mp.sqrt(3) * gt0 ** 6 * mp.sqrt(27 * u + 1)
    f4 = f12 ** mp.mpf("1/3")
    corr = (omega_c1 ** 4 / 12) * (f4 + 1 + 1 / f4 + 24 * u / f4)
    return (g0 ** 4 + corr) ** mp.mpf("0.25") / g0


def series_coefficients(func, exponents, r_lo=1e-9, r_hi=1e-6, n_points=40, dps=60):
    """Least-squares expansion coefficients of func(r) - 1 on a log grid near 0.

    Evaluated in high-precision arithmetic so that divided differences of the
    tiny expansion terms survive; no symbolic machinery involved.
    """
    exponents = [mp.mpf(e) for e in exponents]
    with mp.workdps(dps):
        rs = [mp.mpf(r_lo) * (mp.mpf(r_hi) / mp.mpf(r_lo)) ** (mp.mpf(k) / (n_points - 1))
              for k in range(n_points)]
        a = mp.matrix(n_points, len(exponents))
        b = mp.matrix(n_points, 1)
        for k, r in enumerate(rs):
            for m, e in enumerate(exponents):
                a[k, m] = r ** e
            b[k, 0] = func(r) - 1
        sol = mp.qr_solve(a, b)[0]
    return np.array([float(sol[m, 0]) for m in range(len(exponents))])


def gc1_taylor_coefficients(n_terms: int = 4) -> np.ndarray:
    """Integer-power expansion coefficients of gc1/gc0 in omega/Omega."""
    exps = list(range(1, n_terms + 3))  # two guard orders against truncation
    coeffs = series_coefficients(_gc1_ratio_mp, exps, r_lo=1e-6, r_hi=1e-4)
    return coeffs[:n_terms]


def gcxi_fractional_coefficients(n_terms: int = 2,
                                 d_c1: float = critical.DEFAULT_DC1) -> np.ndarray:
    """Fractional-power (2n/3) expansion coefficients of gc_xi/gc0."""
    exps = [mp.mpf(2 * (n + 1)) / 3 for n in range(n_terms + 2)]
    coeffs = series_coefficients(lambda r: _gcxi_ratio_mp(r, d_c1), exps,
                                 r_lo=1e-9, r_hi=1e-6)
    return coeffs[:n_terms]
