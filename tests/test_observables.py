import numpy as np
import pytest

from conftest import ansatz_wavefunction, random_ansatz
from qrabi import observables
from qrabi.errors import NonconvergenceError, ParameterDomainError
from qrabi.model import ModelParams
from qrabi.polaron import PolaronAnsatz

RNG = np.random.default_rng(7)


def test_x_expectation_pp_trivial_cases():
    params = ModelParams(0.1, 1.0, 0.2)
    centered = PolaronAnsatz(1.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    assert observables.x_expectation_pp(centered, params) == pytest.approx(0.0, abs=1e-14)
    # single displaced polaron: <x> = -x_polaron = -zeta*g_tilde
    params2 = ModelParams(1.0, 0.0, 2.0 ** 0.5)  # g_tilde = 2
    single = PolaronAnsatz(1.0, 0.0, 1.0, 0.0, 1.0, 1.0)
    assert observables.x_expectation_pp(single, params2) == pytest.approx(-2.0, abs=1e-14)


@pytest.mark.parametrize("draw", range(5))
def test_x_expectation_pp_matches_quadrature(draw):
    rng = np.random.default_rng(3000 + draw)
    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(1.2 * base.gc0)
    ansatz = random_ansatz(rng, params)
    x = np.linspace(-14.0, 14.0, 12001)
    psi = ansatz_wavefunction(ansatz, params)(x)
    oracle = np.trapezoid(x * psi ** 2, x)
    assert observables.x_expectation_pp(ansatz, params) == pytest.approx(oracle, abs=1e-8)


def test_susceptibility_sweep_ed_parity_and_peak():
    grid = np.linspace(1.0, 1.6, 25)
    samples = observables.susceptibility_sweep(0.1, 1.0, grid, method="ED")
    for s in samples:
        assert s.x_expect_minus == pytest.approx(-s.x_expect_plus, abs=1e-8)
        assert s.abs_x >= 0
    sus = np.array([s.d_abs_x_dg for s in samples])
    peak_gbar = grid[int(np.argmax(sus))]
    assert peak_gbar == pytest.approx(1.29, abs=0.06)


def test_susceptibility_sweep_ed_exact_matches_gradient():
    grid = np.linspace(1.0, 1.6, 241)
    samples = observables.susceptibility_sweep(0.1, 1.0, grid, method="ED")
    g = np.array([s.g for s in samples])
    exact = np.array([s.d_abs_x_dg for s in samples])
    numeric = np.gradient(np.array([s.abs_x for s in samples]), g)
    assert np.allclose(numeric[1:-1], exact[1:-1], rtol=5e-4, atol=0.0)


def test_susceptibility_sweep_pp_matches_ed_past_transition():
    grid = np.linspace(1.35, 1.8, 10)
    ed = observables.susceptibility_sweep(0.1, 1.0, grid, method="ED")
    pp = observables.susceptibility_sweep(0.1, 1.0, grid, method="PP")
    for a, b in zip(ed, pp):
        assert b.abs_x == pytest.approx(a.abs_x, rel=0.02)
    assert pp[0].velocity is not None and pp[0].acceleration is not None
    assert ed[0].velocity is None


def test_susceptibility_sweep_zero_coupling():
    samples = observables.susceptibility_sweep(0.1, 1.0, [0.0, 0.0, 0.0], method="ED")
    for s in samples:
        assert s.abs_x == pytest.approx(0.0, abs=1e-10)
        assert s.d_abs_x_dg == pytest.approx(0.0, abs=1e-10)


def test_susceptibility_sweep_rejects_descending_grid():
    with pytest.raises(ParameterDomainError):
        observables.susceptibility_sweep(0.1, 1.0, [1.2, 1.0])
    with pytest.raises(ParameterDomainError):
        observables.susceptibility_sweep(0.1, 1.0, [1.0, 1.2], method="XX")


@pytest.mark.parametrize("grid", [[1.2], [1.2, 1.2], [1.0, 1.0, 1.2]])
def test_susceptibility_sweep_pp_needs_two_distinct_points(grid):
    with pytest.raises(ParameterDomainError, match="two distinct"):
        observables.susceptibility_sweep(0.1, 1.0, grid, method="PP")


def test_coincidence_map_small():
    omega_grid = np.array([0.1, 0.3])
    gbar_grid = np.linspace(1.0, 1.8, 33)
    cmap = observables.coincidence_map(omega_grid, gbar_grid)
    assert cmap.failed_rows == ()
    # row maxima exactly 1 after normalization
    assert np.allclose(np.nanmax(cmap.qfi, axis=1), 1.0)
    assert np.allclose(np.nanmax(cmap.susceptibility, axis=1), 1.0)
    # the two ridges coincide within 2 grid cells
    cell = gbar_grid[1] - gbar_grid[0]
    assert np.all(np.abs(cmap.qfi_argmax - cmap.susceptibility_argmax) <= 2 * cell + 1e-12)
    # overlays: gc0 is the unit line, gc2 tracks the ridge
    assert np.allclose(cmap.gc0_overlay, 1.0)
    assert np.allclose(cmap.qfi_argmax, cmap.gc2_overlay, rtol=0.02)


def test_coincidence_map_failed_row(monkeypatch):
    real = observables.ground_state_response

    def flaky(params, tol=1e-10):
        if params.omega == 0.3:
            raise NonconvergenceError("cutoff limit reached")
        return real(params, tol=tol)

    monkeypatch.setattr(observables, "ground_state_response", flaky)
    cmap = observables.coincidence_map([0.1, 0.3], np.linspace(1.0, 1.8, 9))
    assert cmap.failed_rows == (1,)
    assert np.all(np.isnan(cmap.qfi[1])) and np.isnan(cmap.qfi_argmax[1])
    assert np.allclose(np.max(cmap.qfi[0]), 1.0)


def test_coincidence_map_propagates_programming_errors(monkeypatch):
    def broken(params, tol=1e-10):
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(observables, "ground_state_response", broken)
    with pytest.raises(TypeError):
        observables.coincidence_map([0.1], np.linspace(1.0, 1.8, 9))
