import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_hamiltonian, grid_ground_energy, sector_ground_pair, two_solve_qfi
from qrabi import edsolver, qfi
from qrabi.edsolver import (
    expectation_x,
    ground_state,
    ground_state_response,
    initial_cutoff,
    interlacing_bound,
    photon_number,
    position_wavefunction,
    sector_eigenpairs,
    truncation_cutoff,
)
from qrabi.errors import NonconvergenceError, ParameterDomainError, QrabiError
from qrabi.model import ModelParams


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
        energy = sector_eigenpairs(params, cutoff)[0][0]
        dense = np.linalg.eigvalsh(build_hamiltonian(params, cutoff).matrix)[0]
        assert energy == pytest.approx(dense, abs=1e-12)


def test_ground_state_has_negative_parity():
    for gbar in (0.5, 1.0, 1.5, 2.5):
        base = ModelParams(0.2, 1.0, 0.0)
        params = base.with_g(gbar * base.gc0)
        cutoff = 256
        e_minus = sector_eigenpairs(params, cutoff)[0][0]
        e_plus, _ = sector_ground_pair(params, cutoff, parity=+1)
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
    bigger, _ = sector_ground_pair(params, 2 * report.final_cutoff)
    assert abs(bigger - state.energy) < 1e-10 * abs(state.energy)


def test_nonconvergence_carries_report():
    params = ModelParams(0.005, 1.0, 0.3)  # needs a huge basis
    with pytest.raises(NonconvergenceError) as exc:
        ground_state(params, tol=1e-14, max_cutoff=64)
    assert exc.value.payload.final_cutoff == 64
    # the start cutoff and its truncation both lie above the limit: no solve
    # could be certified, so none is made
    assert exc.value.payload.eigensolves == 0


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


def test_response_residual_above_bound_raises(monkeypatch):
    monkeypatch.setattr(edsolver, "RESPONSE_RESIDUAL_TOL", 0.0)
    with pytest.raises(QrabiError, match="residual"):
        ground_state_response(ModelParams(0.1, 1.0, 0.2))


def test_invalid_tol():
    with pytest.raises(ParameterDomainError):
        ground_state(ModelParams(0.1, 1.0, 0.1), tol=0.0)


@pytest.mark.parametrize("ratio", [0.001, 0.005, 0.1, 0.5])
def test_one_eigensolve_search_matches_two_solve_oracle(ratio):
    # the start cutoff is solved once and certified; the oracle solves it and
    # grows once, and both land on the same energy and F_Q
    base = ModelParams(ratio, 1.0, 0.0)
    for gbar in (0.0, 0.8, 1.3, 2.5):
        params = base.with_g(gbar * base.gc0)
        _, energy, f_q = two_solve_qfi(params)
        state, report = ground_state(params)
        assert state.cutoff == report.final_cutoff == initial_cutoff(params)
        assert report.truncation_cutoff == truncation_cutoff(params)
        assert report.eigensolves == 1
        assert state.energy == pytest.approx(energy, rel=1e-13)
        sample = qfi.qfi_ed(params)
        assert sample.f_q_g == pytest.approx(f_q, rel=1e-12)
        assert sample.energy_delta == report.energy_delta <= 1e-10 * abs(state.energy)


@pytest.mark.parametrize("ratio", np.geomspace(5e-4, 1.0, 30)[::5])
def test_start_cutoff_is_certified_on_the_grid(ratio):
    # a 6 x 6 subset of the 1080-point grid (w/W in geomspace(5e-4, 1, 30),
    # gbar in linspace(0, 3.5, 36)): one eigensolve per point, and F_Q as the
    # two-solve search gives it
    base = ModelParams(ratio, 1.0, 0.0)
    for gbar in np.linspace(0.0, 3.5, 36)[::7]:
        params = base.with_g(gbar * base.gc0)
        _, report = ground_state(params)
        assert report.eigensolves == 1
        _, _, f_q = two_solve_qfi(params)
        assert qfi.qfi_ed(params).f_q_g == pytest.approx(f_q, rel=1e-11)


@pytest.mark.parametrize("ratio", [1e-4, 0.005, 0.1, 1.0])
def test_sector_energy_matches_full_bisection(ratio):
    # bisection stops at 1e-6 omega; the Rayleigh quotient of the inverse-
    # iteration vector recovers the energy that bisection to abstol 0 finds
    base = ModelParams(ratio, 1.0, 0.0)
    for gbar in (0.0, 0.5, 1.0, 1.5, 2.5, 3.5):
        params = base.with_g(gbar * base.gc0)
        cutoff = initial_cutoff(params)
        energy = sector_eigenpairs(params, cutoff)[0][0]
        assert energy == pytest.approx(sector_ground_pair(params, cutoff)[0], rel=1e-14)


@pytest.mark.parametrize("ratio, gbar, start", [(0.5, 2.5, 19), (0.1, 2.0, 31),
                                                 (0.02, 2.0, 79), (0.02, 2.5, 109)])
def test_tight_start_cutoff_grows_on_the_energy_test(monkeypatch, ratio, gbar, start):
    # these starts lie below their truncation cutoff, so nothing certifies
    # them; the search then grows and compares solved energies like the
    # two-solve search, with the tail taken beyond the whole previous cutoff,
    # so it stops no earlier
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    monkeypatch.setattr(edsolver, "initial_cutoff", lambda p: start)
    state, report = ground_state(params)
    cutoff, energy, _ = two_solve_qfi(params, start=start)
    assert report.final_cutoff >= cutoff > math.ceil(1.5 * start)
    assert state.energy == pytest.approx(energy, rel=1e-10)
    assert state.energy == pytest.approx(sector_ground_pair(params, 2 * cutoff)[0],
                                         rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(ratio=st.floats(0.002, 1.0), gbar=st.floats(0.0, 3.0), cutoff=st.integers(2, 120))
def test_interlacing_bound_covers_the_energy_change(ratio, gbar, cutoff):
    # small start cutoffs at strong coupling make E(N0) - E(N1) large
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    grown = math.ceil(1.5 * cutoff)
    e0, _ = sector_ground_pair(params, cutoff)
    e1, vec = sector_ground_pair(params, grown)
    bound = interlacing_bound(params, cutoff, e1, vec)
    assert bound >= e0 - e1 - 1e-13 * abs(e1)
    assert bound >= 0.0


def test_certificate_at_rounding_is_not_zero():
    # deep in the oscillator regime the truncation error is far below the
    # energy's rounding: the certificate then reads eps |E| at most a few
    # ulps, never exactly 0
    base = ModelParams(0.001, 1.0, 0.0)
    state, report = ground_state(base.with_g(6.0 * base.gc0))
    assert 0.0 < report.energy_delta <= 1e-13 * abs(state.energy)


@pytest.mark.parametrize("routine", ["dstebz", "dstein", "dgttrf"])
def test_lapack_failure_raises(monkeypatch, routine):
    real = getattr(edsolver, routine)

    def failing(*args):
        *out, _ = real(*args)
        return (*out, 1)

    monkeypatch.setattr(edsolver, routine, failing)
    with pytest.raises(QrabiError, match=routine):
        ground_state_response(ModelParams(0.1, 1.0, 0.2))
