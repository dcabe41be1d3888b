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
    val = math.sqrt(2.0) * (xi_i * xi_j) ** 0.25 / math.sqrt(s) * math.exp(-0.5 * q * d * d)
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

    psi_+ = w_a phi_a + w_b phi_b and psi_-(x) = -psi_+(-x); the energy is
    assembled pair by pair from closed-form Gaussian matrix elements of the
    spin-up single-particle Hamiltonian plus the spin-flip (tunnelling) term,
    an overlap with the mirrored polaron. With ``gradient=True`` it returns
    (energy, dE/d(w_a, w_b, x_a, x_b, xi_a, xi_b)) from the same terms.
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
            S, s_xi, s_A, s_xj, s_B = gaussian_overlap(A, x[i], B, x[j])
            # overlap with the mirrored phi_j(-x); it depends on -x_j
            T, t_xi, t_A, t_xj, t_B = gaussian_overlap(A, x[i], B, -x[j])
            # kinetic + potential per unit overlap, and the pair's matrix element
            G = c * (q * (1.0 - q * d * d) + r * r + 1.0 / s) + eps0
            tun = 0.5 * Omega * T
            h = S * G - tun
            ww = w[i] * w[j]
            energy += ww * h
            if gradient:
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
    if gradient:
        return energy, np.array(grad)
    return energy


if NUMBA_ENABLED:
    oscillator_table = _njit(cache=True)(_oscillator_table_impl)
else:
    oscillator_table = _oscillator_table_impl

# Uncompiled references; pp_energy has no compiled path.
oscillator_table_numpy = _oscillator_table_impl
pp_energy_numpy = pp_energy
