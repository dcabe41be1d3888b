"""Numeric kernels: the oscillator eigenfunction table and the two-polaron
energy with its closed-form derivatives.

All kernels are plain Python and numpy. The polaron optimizer evaluates
``pp_energy`` together with its closed-form gradient, and the Newton
corrector and the parameter flows with its closed-form Hessian as well.
"""

from __future__ import annotations

import math

import numpy as np


def using_numba() -> bool:
    """False: no kernel is compiled. Kept for callers that report the backend."""
    return False


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


_SQRT2 = math.sqrt(2.0)


def gaussian_overlap(xi_i, x_i, xi_j, x_j):
    """<phi_i|phi_j> of phi = (xi/pi)^(1/4) exp[-xi (x + x0)^2 / 2], with the
    derivatives of its logarithm.

    Returns (S, dlnS/dx_i, dlnS/dxi_i, dlnS/dx_j, dlnS/dxi_j). This is the one
    Gaussian-overlap formula of the package: the polaron overlaps, their
    first derivatives and the energy's overlap and tunnelling terms all use it.
    """
    s = xi_i + xi_j
    q = xi_i * xi_j / s
    d = x_i - x_j
    val = _SQRT2 * (xi_i * xi_j) ** 0.25 / math.sqrt(s) * math.exp(-0.5 * q * d * d)
    half_d2 = 0.5 * d * d / (s * s)
    return (
        val,
        -q * d,
        0.25 / xi_i - 0.5 / s - half_d2 * xi_j * xi_j,
        q * d,
        0.25 / xi_j - 0.5 / s - half_d2 * xi_i * xi_i,
    )


def overlap_log_hessian(xi_i, x_i, xi_j, x_j):
    """Second derivatives of ln S for the overlap S of ``gaussian_overlap``.

    Rows of the symmetric 4x4 matrix over (x_i, x_j, xi_i, xi_j), as tuples.
    ln S = ln sqrt(2) + (ln xi_i + ln xi_j)/4 - ln(s)/2 - q d^2/2 with
    s = xi_i + xi_j, q = xi_i xi_j/s and d = x_i - x_j, so the x_j entries
    are the x_i entries with the sign of d flipped.
    """
    s = xi_i + xi_j
    s2 = s * s
    q = xi_i * xi_j / s
    d = x_i - x_j
    d2s3 = d * d / (s2 * s)
    x_wi = -d * xi_j * xi_j / s2       # d2 ln S / dx_i dxi_i
    x_wj = -d * xi_i * xi_i / s2       # d2 ln S / dx_i dxi_j
    w_ii = 0.5 / s2 - 0.25 / (xi_i * xi_i) + d2s3 * xi_j * xi_j
    w_jj = 0.5 / s2 - 0.25 / (xi_j * xi_j) + d2s3 * xi_i * xi_i
    w_ij = 0.5 / s2 - d2s3 * xi_i * xi_j
    return (
        (-q, q, x_wi, x_wj),
        (q, -q, -x_wi, -x_wj),
        (x_wi, -x_wi, w_ii, w_ij),
        (x_wj, -x_wj, w_ij, w_jj),
    )


def pp_energy(w_a, w_b, x_a, x_b, xi_a, xi_b, omega, Omega, g_tilde, gradient=False,
              hessian=False):
    """<psi|H|psi> of the two-polaron ansatz at fixed weights (w_a, w_b).

    psi_+ = w_a phi_a + w_b phi_b and psi_-(x) = -psi_+(-x). Each pair (i, j)
    contributes w_i w_j h_ij with h_ij = S_ij G_ij - (Omega/2) T_ij: S_ij the
    overlap, G_ij the kinetic plus potential energy per unit overlap of the
    spin-up single-particle Hamiltonian, T_ij the overlap with the mirrored
    phi_j(-x) (tunnelling). All three are symmetric in (i, j), so the energy
    is w_a^2 h_aa + w_b^2 h_bb + 2 w_a w_b h_ab over the three distinct
    pairs; a diagonal pair has d = 0 and S = 1, and needs only T. With
    ``gradient=True`` it returns (energy, dE/d(w_a, w_b, x_a, x_b, xi_a,
    xi_b)) from the same terms, the gradient as a tuple. ``hessian=True``
    appends the 7x7 second derivatives over (w_a, w_b, x_a, x_b, xi_a, xi_b,
    g_tilde), the last row being the derivative of the gradient in g_tilde.
    """
    eps0 = -0.5 * (g_tilde * g_tilde + 1.0) * omega
    c = 0.5 * omega
    half_Omega = 0.5 * Omega
    # diagonal pairs: phi_i^2 is centred at -x_i, q = xi_i / 2 and 1/s = 1/(2 xi_i)
    r_a = g_tilde - x_a
    r_b = g_tilde - x_b
    T_a, ta_x, ta_xi, ta_xm, ta_xim = gaussian_overlap(xi_a, x_a, xi_a, -x_a)
    T_b, tb_x, tb_xi, tb_xm, tb_xim = gaussian_overlap(xi_b, x_b, xi_b, -x_b)
    h_a = c * (0.5 * xi_a + r_a * r_a + 0.5 / xi_a) + eps0 - half_Omega * T_a
    h_b = c * (0.5 * xi_b + r_b * r_b + 0.5 / xi_b) + eps0 - half_Omega * T_b
    # the cross pair; centre -(xi_a x_a + xi_b x_b)/s of phi_a phi_b minus the
    # well centre -g_tilde
    s = xi_a + xi_b
    q = xi_a * xi_b / s
    d = x_a - x_b
    r = g_tilde - (xi_a * x_a + xi_b * x_b) / s
    S, s_xa, s_A, s_xb, s_B = gaussian_overlap(xi_a, x_a, xi_b, x_b)
    # T_ab depends on -x_b
    T, t_xa, t_A, t_xb, t_B = gaussian_overlap(xi_a, x_a, xi_b, -x_b)
    G = c * (q * (1.0 - q * d * d) + r * r + 1.0 / s) + eps0
    tun = half_Omega * T
    h = S * G - tun
    aa, bb, ab2 = w_a * w_a, w_b * w_b, 2.0 * w_a * w_b
    energy = aa * h_a + bb * h_b + ab2 * h
    if not (gradient or hessian):
        return energy
    gq = 1.0 - 2.0 * q * d * d
    G_xa = -2.0 * c * (q * q * d + r * xi_a / s)
    G_xb = 2.0 * c * (q * q * d - r * xi_b / s)
    G_A = c * (gq * xi_b * xi_b - 2.0 * r * xi_b * d - 1.0) / (s * s)
    G_B = c * (gq * xi_a * xi_a + 2.0 * r * xi_a * d - 1.0) / (s * s)
    grad = (
        2.0 * (w_a * h_a + w_b * h),
        2.0 * (w_b * h_b + w_a * h),
        aa * (-2.0 * c * r_a - half_Omega * T_a * (ta_x - ta_xm))
        + ab2 * (S * (G * s_xa + G_xa) - tun * t_xa),
        bb * (-2.0 * c * r_b - half_Omega * T_b * (tb_x - tb_xm))
        + ab2 * (S * (G * s_xb + G_xb) + tun * t_xb),
        aa * (c * (0.5 - 0.5 / (xi_a * xi_a)) - half_Omega * T_a * (ta_xi + ta_xim))
        + ab2 * (S * (G * s_A + G_A) - tun * t_A),
        bb * (c * (0.5 - 0.5 / (xi_b * xi_b)) - half_Omega * T_b * (tb_xi + tb_xim))
        + ab2 * (S * (G * s_B + G_B) - tun * t_B),
    )
    if not hessian:
        return energy, grad

    # Second derivatives over y = (x_a, x_b, xi_a, xi_b, g_tilde). A Gaussian
    # factor F enters through its log-derivatives l, L: d2 F = F (l l^T + L).
    # Diagonal pair i: ln T_i = -xi_i x_i^2, and g_tilde enters h_i only
    # through the potential, whose eps0 part cancels d2/dg_tilde^2.
    ha_xx = 2.0 * c - half_Omega * T_a * 2.0 * xi_a * (2.0 * xi_a * x_a * x_a - 1.0)
    ha_xA = -half_Omega * T_a * 2.0 * x_a * (xi_a * x_a * x_a - 1.0)
    ha_AA = c / (xi_a * xi_a * xi_a) - half_Omega * T_a * x_a ** 4
    hb_xx = 2.0 * c - half_Omega * T_b * 2.0 * xi_b * (2.0 * xi_b * x_b * x_b - 1.0)
    hb_xB = -half_Omega * T_b * 2.0 * x_b * (xi_b * x_b * x_b - 1.0)
    hb_BB = c / (xi_b * xi_b * xi_b) - half_Omega * T_b * x_b ** 4
    dh_a = (-2.0 * c * r_a + Omega * xi_a * x_a * T_a, 0.0,
            c * (0.5 - 0.5 / (xi_a * xi_a)) + half_Omega * x_a * x_a * T_a, 0.0,
            -2.0 * c * x_a)
    dh_b = (0.0, -2.0 * c * r_b + Omega * xi_b * x_b * T_b,
            0.0, c * (0.5 - 0.5 / (xi_b * xi_b)) + half_Omega * x_b * x_b * T_b,
            -2.0 * c * x_b)

    # cross pair: h = S G - (Omega/2) T with G = c Gamma + eps0,
    # Gamma = q (1 - q d^2) + r^2 + 1/s and r = g_tilde - mu, the distance of
    # the product's centre mu = (xi_a x_a + xi_b x_b)/s from the well. T is
    # the overlap with the mirrored phi_b, so its x_b derivatives flip sign.
    A, B = xi_a, xi_b
    s2 = s * s
    s3 = s2 * s
    qd = q * d
    A2, B2, AB = A * A, B * B, A * B
    q2 = 2.0 * q * q
    gq2 = 2.0 * gq / s3
    dd4 = 2.0 * d * d / (s2 * s2)
    # second derivatives of Gamma over (x_a x_a, x_a x_b, x_b x_b), then
    # (x_a xi_a, x_a xi_b, x_b xi_a, x_b xi_b), then (xi_a xi_a, xi_a xi_b,
    # xi_b xi_b); c_* are those of S G - (Omega/2) T apart from the l l^T
    # and l dG^T terms, which are added in k_yy below
    g_xx = (-q2 + 2.0 * A2 / s2, q2 + 2.0 * AB / s2, -q2 + 2.0 * B2 / s2)
    g_xw = ((-4.0 * qd * B2 + 2.0 * qd - 2.0 * r * B) / s2,
            (-4.0 * qd * A2 + 2.0 * r * A) / s2 - 2.0 * A2 * d / s3,
            (4.0 * qd * B2 + 2.0 * r * B) / s2 + 2.0 * B2 * d / s3,
            (4.0 * qd * A2 - 2.0 * qd - 2.0 * r * A) / s2)
    g_ww = (dd4 * B2 * (1.0 - B2) - gq2 * B2 + (2.0 + 4.0 * r * B * d) / s3,
            gq2 * AB - dd4 * AB * (AB + 1.0) + (2.0 - 2.0 * r * d * (A - B)) / s3,
            dd4 * A2 * (1.0 - A2) - gq2 * A2 + (2.0 - 4.0 * r * A * d) / s3)
    LS = overlap_log_hessian(A, x_a, B, x_b)
    LT = overlap_log_hessian(A, x_a, B, -x_b)
    sg, sc = S * G, S * c
    c_xx = (sg * LS[0][0] + sc * g_xx[0] - tun * LT[0][0],
            sg * LS[0][1] + sc * g_xx[1] + tun * LT[0][1],
            sg * LS[1][1] + sc * g_xx[2] - tun * LT[1][1])
    c_xw = (sg * LS[0][2] + sc * g_xw[0] - tun * LT[0][2],
            sg * LS[0][3] + sc * g_xw[1] - tun * LT[0][3],
            sg * LS[1][2] + sc * g_xw[2] + tun * LT[1][2],
            sg * LS[1][3] + sc * g_xw[3] + tun * LT[1][3])
    c_ww = (sg * LS[2][2] + sc * g_ww[0] - tun * LT[2][2],
            sg * LS[2][3] + sc * g_ww[1] - tun * LT[2][3],
            sg * LS[3][3] + sc * g_ww[2] - tun * LT[3][3])
    c_g = (-2.0 * sc * A / s, -2.0 * sc * B / s, -2.0 * sc * B * d / s2, 2.0 * sc * A * d / s2)
    curv = (
        (c_xx[0], c_xx[1], c_xw[0], c_xw[1], c_g[0]),
        (c_xx[1], c_xx[2], c_xw[2], c_xw[3], c_g[1]),
        (c_xw[0], c_xw[2], c_ww[0], c_ww[1], c_g[2]),
        (c_xw[1], c_xw[3], c_ww[1], c_ww[2], c_g[3]),
        (c_g[0], c_g[1], c_g[2], c_g[3], 0.0),    # d2 eps0/dg_tilde^2 cancels c Gamma's
    )
    lS = (s_xa, s_xb, s_A, s_B, 0.0)
    lT = (t_xa, -t_xb, t_A, t_B, 0.0)
    dG = (G_xa, G_xb, G_A, G_B, 2.0 * c * (r - g_tilde))
    half = [S * (0.5 * G * l + g) for l, g in zip(lS, dG)]
    dh = [S * (G * l + g) - tun * t for l, g, t in zip(lS, dG, lT)]
    k_yy = [[ab2 * (curv[i][j] + lS[i] * half[j] + half[i] * lS[j] - tun * lT[i] * lT[j])
             for j in range(5)] for i in range(5)]
    for i, m, ww, h_xx, h_xm, h_mm in ((0, 2, aa, ha_xx, ha_xA, ha_AA),
                                       (1, 3, bb, hb_xx, hb_xB, hb_BB)):
        k_yy[i][i] += ww * h_xx
        k_yy[i][m] += ww * h_xm
        k_yy[m][i] += ww * h_xm
        k_yy[m][m] += ww * h_mm
        k_yy[i][4] -= 2.0 * c * ww
        k_yy[4][i] -= 2.0 * c * ww
    row_a = [2.0 * (w_a * u + w_b * v) for u, v in zip(dh_a, dh)]
    row_b = [2.0 * (w_b * u + w_a * v) for u, v in zip(dh_b, dh)]
    hess = np.array([
        [2.0 * h_a, 2.0 * h, *row_a],
        [2.0 * h, 2.0 * h_b, *row_b],
        *([u, v, *k] for u, v, k in zip(row_a, row_b, k_yy)),
    ])
    return energy, grad, hess

