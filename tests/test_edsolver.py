import math

import numpy as np
import pytest

from conftest import grid_ground_energy
from qrabi import edsolver
from qrabi.edsolver import (
    expectation_x,
    ground_state,
    ground_state_fixed,
    ground_state_response,
    photon_number,
    position_wavefunction,
    sector_eigenpairs,
    sector_gap,
)
from qrabi.errors import NonconvergenceError, ParameterDomainError, QrabiError
from qrabi.model import ModelParams, build_hamiltonian


def test_decoupled_limit():
    state, report = ground_state(ModelParams(0.1, 1.0, 0.0))
    assert state.energy == pytest.approx(-0.5, abs=1e-12)
    # pure vacuum in the photon register
    assert abs(state.coeffs_plus[0]) == pytest.approx(1.0, abs=1e-12)
    assert photon_number(state) == pytest.approx(0.0, abs=1e-12)
    assert expectation_x(state) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert report.energy_delta <= report.tol * 0.5 + 1e-30


def test_displaced_oscillator_limit():
    # Omega = 0, g = omega = 1: exact displaced vacuum, E = -g^2/omega = -1
    state, _ = ground_state(ModelParams(1.0, 0.0, 1.0))
    assert state.energy == pytest.approx(-1.0, abs=1e-10)
    assert photon_number(state) == pytest.approx(1.0, abs=1e-8)
    assert abs(expectation_x(state)[0]) == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_matches_position_grid_oracle():
    params = ModelParams(0.1, 1.0, 1.3 * ModelParams(0.1, 1.0, 0.0).gc0)
    state, _ = ground_state(params)
    oracle = grid_ground_energy(params)
    assert state.energy == pytest.approx(oracle, abs=1e-6)


def test_sector_solver_matches_dense_full_space():
    for params in (ModelParams(0.1, 1.0, 0.2), ModelParams(0.5, 1.0, 0.6),
                   ModelParams(1.0, 1.0, 0.3)):
        cutoff = 80
        state = ground_state_fixed(params, cutoff)
        dense = np.linalg.eigvalsh(build_hamiltonian(params, cutoff).matrix)[0]
        assert state.energy == pytest.approx(dense, abs=1e-12)


def test_ground_state_has_negative_parity():
    for gbar in (0.5, 1.0, 1.5, 2.5):
        base = ModelParams(0.2, 1.0, 0.0)
        params = base.with_g(gbar * base.gc0)
        cutoff = 256
        e_minus = sector_eigenpairs(params, cutoff, parity=-1)[0][0]
        e_plus = sector_eigenpairs(params, cutoff, parity=+1)[0][0]
        assert e_minus < e_plus


def test_state_invariants():
    params = ModelParams(0.1, 1.0, 0.2)
    state, _ = ground_state(params)
    # per-component normalization and global 1/sqrt(2)
    assert np.sum(state.coeffs_plus ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(state.full_vector() ** 2) == pytest.approx(1.0, abs=1e-12)
    # parity relation between spin components
    signs = -((-1.0) ** np.arange(state.cutoff + 1))
    assert np.allclose(state.coeffs_minus, signs * state.coeffs_plus, atol=1e-10)
    # gauge: largest-magnitude coefficient positive
    assert state.coeffs_plus[np.argmax(np.abs(state.coeffs_plus))] > 0


def test_adaptive_cutoff_stability():
    params = ModelParams(0.1, 1.0, 0.25)
    state, report = ground_state(params, tol=1e-10)
    bigger = ground_state_fixed(params, 2 * report.final_cutoff)
    assert abs(bigger.energy - state.energy) < 1e-10 * abs(state.energy)


def test_nonconvergence_carries_report():
    params = ModelParams(0.005, 1.0, 0.3)  # needs a huge basis
    with pytest.raises(NonconvergenceError) as exc:
        ground_state(params, tol=1e-14, max_cutoff=64)
    assert exc.value.payload.final_cutoff == 64


def test_position_wavefunction_vacuum_and_normalization():
    state, _ = ground_state(ModelParams(0.1, 1.0, 0.0))
    x = np.linspace(-20.0, 20.0, 4001)
    psi_p, _ = position_wavefunction(state, x)
    vacuum = math.pi ** -0.25 * np.exp(-0.5 * x ** 2)
    assert np.allclose(np.abs(psi_p), vacuum, atol=1e-10)
    norm = np.trapezoid(psi_p ** 2, x)
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_position_wavefunction_displaced_peak():
    # past the transition the spin-up density peaks near x = -zeta*g_tilde
    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(1.5 * base.gc0)
    state, _ = ground_state(params)
    x = np.linspace(-12.0, 12.0, 2401)
    psi_p, _ = position_wavefunction(state, x)
    peak = x[np.argmax(psi_p ** 2)]
    assert peak < -0.5 * params.g_tilde  # displaced into the negative well
    norm = np.trapezoid(psi_p ** 2, x)
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_expectation_x_antisymmetry_and_quadrature():
    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(1.4 * base.gc0)
    state, _ = ground_state(params)
    xp, xm = expectation_x(state)
    assert xm == pytest.approx(-xp, abs=1e-10)
    x = np.linspace(-14.0, 14.0, 4801)
    psi_p, _ = position_wavefunction(state, x)
    assert xp == pytest.approx(np.trapezoid(x * psi_p ** 2, x), abs=1e-8)


def test_photon_number_monotone_across_transition():
    base = ModelParams(0.1, 1.0, 0.0)
    values = []
    for gbar in np.linspace(0.5, 2.0, 7):
        state, _ = ground_state(base.with_g(gbar * base.gc0))
        values.append(photon_number(state))
    assert np.all(np.diff(values) > 0)


def test_sector_gap_positive():
    params = ModelParams(0.1, 1.0, 0.1)
    assert sector_gap(params, 128) > 0


def test_response_residual_above_bound_raises(monkeypatch):
    monkeypatch.setattr(edsolver, "RESPONSE_RESIDUAL_TOL", 0.0)
    with pytest.raises(QrabiError, match="residual"):
        ground_state_response(ModelParams(0.1, 1.0, 0.2))


def test_invalid_tol():
    with pytest.raises(ParameterDomainError):
        ground_state(ModelParams(0.1, 1.0, 0.1), tol=0.0)
