import math

import numpy as np
import pytest

from conftest import four_pair_energy, gaussian, oscillator_table, quad_overlap
from qrabi import kernels, polaron
from qrabi.model import ModelParams
from qrabi.polaron import PolaronAnsatz, energy, weights_from_angle


def test_backend_selection_reports():
    assert kernels.using_numba() is False


def test_oscillator_table_low_orders():
    x = np.linspace(-4.0, 4.0, 41)
    table = oscillator_table(3, x)
    g = math.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    assert np.allclose(table[0], g, atol=1e-14)
    assert np.allclose(table[1], math.sqrt(2.0) * x * g, atol=1e-13)
    assert np.allclose(table[2], (2.0 * x ** 2 - 1.0) / math.sqrt(2.0) * g, atol=1e-13)
    h3 = (2.0 * x ** 3 - 3.0 * x) / math.sqrt(3.0) * g
    assert np.allclose(table[3], h3, atol=1e-13)


def test_oscillator_table_orthonormal():
    x = np.linspace(-25.0, 25.0, 20001)
    table = oscillator_table(30, x)
    gram = table @ table.T * (x[1] - x[0])
    assert np.allclose(gram, np.eye(31), atol=1e-7)


def test_oscillator_table_stable_at_high_order():
    # classically allowed region of n=500 (|x| < 31.7) fits inside the range
    # where h_0 has not yet underflowed, so the norm is fully captured
    x = np.linspace(-38.0, 38.0, 40001)
    table = oscillator_table(500, x)
    assert np.all(np.isfinite(table))
    norm = np.sum(table[500] ** 2) * (x[1] - x[0])
    assert norm == pytest.approx(1.0, rel=1e-4)


def test_oscillator_table_underflows_to_zero_far_out():
    table = oscillator_table(2, np.array([-45.0, 45.0]))
    assert np.array_equal(table, np.zeros((3, 2)))


def _energy_draws(rng, placement, xi_choice, count=8):
    """Fixed-weight kernel arguments on the normalization manifold.

    ``placement`` is "merged" (both polarons within 0.05 g_tilde of the
    origin) or "split" (anywhere within ZETA_BOUND); ``xi_choice`` puts both
    widths at the lower or upper edge of LOG_XI_BOUNDS, or anywhere between.
    """
    reach = 0.05 if placement == "merged" else polaron.ZETA_BOUND
    for _ in range(count):
        base = ModelParams(rng.uniform(0.02, 0.5), 1.0, 0.0)
        params = base.with_g(rng.uniform(0.5, 2.0) * base.gc0)
        gt = params.g_tilde
        x_a, x_b = rng.uniform(0.0, reach) * gt, -rng.uniform(0.0, reach) * gt
        if xi_choice == "between":
            xi_a, xi_b = np.exp(rng.uniform(*polaron.LOG_XI_BOUNDS, size=2))
        else:
            xi_a = xi_b = math.exp(polaron.LOG_XI_BOUNDS[xi_choice == "upper"])
        s = kernels.gaussian_overlap(xi_a, x_a, xi_b, x_b)[0]
        w_a, w_b = weights_from_angle(rng.uniform(0.0, math.pi / 2), s)
        yield (w_a, w_b, x_a, x_b, xi_a, xi_b, params.omega, params.Omega, gt)


def test_backends_agree_energy():
    # the three-pair kernel against the four-ordered-pair assembly it replaced
    rng = np.random.default_rng(11)
    for placement in ("merged", "split"):
        for xi_choice in ("lower", "upper", "between"):
            for args in _energy_draws(rng, placement, xi_choice):
                want_e, want_g = four_pair_energy(*args)
                e, grad = kernels.pp_energy(*args, gradient=True)
                assert e == kernels.pp_energy(*args)
                # the terms cancel towards E = 0, so the floor is the energy
                # scale |eps0| + Omega/2 they cancel from
                omega, Omega, gt = args[6:]
                scale = 0.5 * (gt * gt + 1.0) * omega + 0.5 * Omega
                assert e == pytest.approx(want_e, rel=1e-13, abs=1e-13 * scale)
                np.testing.assert_allclose(grad, want_g, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(want_g)))


def test_pp_energy_overlap_count(monkeypatch):
    # the diagonal pairs need only their mirrored overlap and the cross pair
    # counts twice: four Gaussian overlaps per call, with or without gradient
    calls = []
    overlap = kernels.gaussian_overlap
    monkeypatch.setattr(kernels, "gaussian_overlap",
                        lambda *a: calls.append(a) or overlap(*a))
    args = (0.7, 0.5, 0.4, -0.3, 1.2, 0.8, 0.1, 1.0, 2.0)
    kernels.pp_energy(*args)
    assert len(calls) == 4
    kernels.pp_energy(*args, gradient=True)
    assert len(calls) == 8


def test_pp_energy_matrix_elements_against_quadrature():
    # single-polaron diagonal energy: kinetic + potential + tunneling pieces
    params = ModelParams(0.3, 0.8, 0.2)
    ansatz = PolaronAnsatz(1.0, 0.0, 0.4, 0.0, 1.7, 1.0)
    got = energy(ansatz, params)

    gt = params.g_tilde
    xi, x0 = 1.7, 0.4 * gt
    phi = gaussian(xi, x0)
    eps0 = -(gt ** 2 + 1.0) * params.omega / 2.0
    # kinetic: (omega/2) * <phi'|phi'> with phi' = d/dx phi
    kin = 0.5 * params.omega * quad_overlap(
        lambda x: -xi * (x + x0) * phi(x), lambda x: -xi * (x + x0) * phi(x)
    )
    pot = quad_overlap(phi, lambda x: (params.omega * (x + gt) ** 2 / 2.0 + eps0) * phi(x))
    tun = -0.5 * params.Omega * quad_overlap(phi, lambda x: phi(-x))
    assert got == pytest.approx(kin + pot + tun, abs=1e-10)


def _central_column(f, x, k, h):
    # fourth-order central difference of the vector function f in x[k]
    def at(t):
        y = list(x)
        y[k] += t
        return np.asarray(f(y), dtype=float)
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def test_overlap_log_hessian_matches_central_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        xi_i, xi_j = np.exp(rng.uniform(*polaron.LOG_XI_BOUNDS, size=2))
        x_i, x_j = rng.uniform(-3.0, 3.0, 2)

        def log_grad(v):     # over (x_i, x_j, xi_i, xi_j), the Hessian's order
            _, lx_i, lxi_i, lx_j, lxi_j = kernels.gaussian_overlap(v[2], v[0], v[3], v[1])
            return lx_i, lx_j, lxi_i, lxi_j

        v = [x_i, x_j, xi_i, xi_j]
        fd = np.column_stack([_central_column(log_grad, v, k, 1e-4 * max(1.0, abs(v[k])))
                              for k in range(4)])
        got = np.array(kernels.overlap_log_hessian(xi_i, x_i, xi_j, x_j))
        np.testing.assert_allclose(got, fd, rtol=1e-7, atol=1e-7 * np.max(np.abs(fd)))


def test_pp_energy_hessian_matches_central_differences():
    # the 7x7 second derivatives over (w_a, w_b, x_a, x_b, xi_a, xi_b, g_tilde)
    # against differences of the closed-form gradient; the g_tilde row from
    # differences of the gradient in g_tilde, its diagonal entry from second
    # differences of the energy
    rng = np.random.default_rng(13)
    for placement in ("merged", "split"):
        for xi_choice in ("lower", "upper", "between"):
            for args in _energy_draws(rng, placement, xi_choice, count=4):
                e, grad, hess = kernels.pp_energy(*args, hessian=True)
                assert (e, grad) == kernels.pp_energy(*args, gradient=True)

                def grad_at(v):
                    return kernels.pp_energy(*v[:6], *args[6:8], v[6], gradient=True)[1]

                v = [*args[:6], args[8]]
                steps = [1e-4 * max(1.0, abs(a)) for a in v]
                fd = np.column_stack([_central_column(grad_at, v, k, steps[k])
                                      for k in range(7)])
                scale = np.max(np.abs(hess))
                np.testing.assert_allclose(hess[:6], fd, rtol=1e-6, atol=1e-6 * scale)

                def energy_at(t):
                    return kernels.pp_energy(*args[:8], args[8] + t)

                h = steps[6]
                second = (energy_at(h) - 2.0 * e + energy_at(-h)) / (h * h)
                assert hess[6, 6] == pytest.approx(second, abs=1e-5 * scale)
