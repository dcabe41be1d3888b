"""Hot numeric kernels.

``oscillator_table`` has a numba fast path and a pure-numpy fallback. Set the
environment variable ``QRABI_DISABLE_NUMBA=1`` to force the numpy path (also
used automatically when numba is unavailable); the flag is read once at
import time. ``pp_energy`` and ``gaussian_overlap`` are plain Python: the
polaron optimizer evaluates the energy together with its closed-form
gradient, once per step.
"""

from __future__ import annotations

import math
import os

import numpy as np

_FLAG = os.environ.get("QRABI_DISABLE_NUMBA", "")
NUMBA_DISABLED = _FLAG not in ("", "0", "false", "False")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled by QRABI_DISABLE_NUMBA")
    from numba import njit as _njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False

    def _njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def using_numba() -> bool:
    """True when the compiled kernel path is active."""
    return NUMBA_ENABLED


def _oscillator_table_impl(n_max, x):
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


def pp_energy(w_a, w_b, x_a, x_b, xi_a, xi_b, omega, Omega, g_tilde, gradient=False):
    """<psi|H|psi> of the two-polaron ansatz at fixed weights (w_a, w_b).

    psi_+ = w_a phi_a + w_b phi_b and psi_-(x) = -psi_+(-x). Each pair (i, j)
    contributes w_i w_j h_ij with h_ij = S_ij G_ij - (Omega/2) T_ij: S_ij the
    overlap, G_ij the kinetic plus potential energy per unit overlap of the
    spin-up single-particle Hamiltonian, T_ij the overlap with the mirrored
    phi_j(-x) (tunnelling). All three are symmetric in (i, j), so the energy
    is w_a^2 h_aa + w_b^2 h_bb + 2 w_a w_b h_ab over the three distinct
    pairs; a diagonal pair has d = 0 and S = 1, and needs only T. With
    ``gradient=True`` it returns (energy, dE/d(w_a, w_b, x_a, x_b, xi_a,
    xi_b)) from the same terms, the gradient as a tuple.
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
    if not gradient:
        return energy
    gq = 1.0 - 2.0 * q * d * d
    G_xa = -2.0 * c * (q * q * d + r * xi_a / s)
    G_xb = 2.0 * c * (q * q * d - r * xi_b / s)
    G_A = c * (gq * xi_b * xi_b - 2.0 * r * xi_b * d - 1.0) / (s * s)
    G_B = c * (gq * xi_a * xi_a + 2.0 * r * xi_a * d - 1.0) / (s * s)
    return energy, (
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


if NUMBA_ENABLED:
    oscillator_table = _njit(cache=True)(_oscillator_table_impl)
else:
    oscillator_table = _oscillator_table_impl

# Uncompiled reference of oscillator_table; pp_energy has no compiled path.
oscillator_table_numpy = _oscillator_table_impl
