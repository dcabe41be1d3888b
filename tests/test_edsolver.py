import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_hamiltonian,
    count_index_bisections,
    expectation_x,
    full_vector,
    grid_ground_energy,
    photon_number,
    position_wavefunction,
    sector_ground_pair,
    two_solve_qfi,
)
from qrabi import edsolver, qfi
from qrabi.edsolver import (
    ground_state,
    ground_state_response,
    initial_cutoff,
    interlacing_bound,
    sector_eigenpairs,
    truncation_cutoff,
)
from qrabi.errors import NonconvergenceError, QrabiError
from qrabi.lapack import dstebz
from qrabi.model import ModelParams


def test_decoupled_limit():
    state, report = ground_state(ModelParams(0.1, 1.0, 0.0))
    assert state.energy == pytest.approx(-0.5, abs=1e-12)
    # pure vacuum in the photon register
    assert abs(state.coeffs_plus[0]) == pytest.approx(1.0, abs=1e-12)
    assert photon_number(state) == pytest.approx(0.0, abs=1e-12)
    assert expectation_x(state) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert report.energy_delta <= edsolver.ENERGY_TOL * 0.5 + 1e-30


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
    assert np.sum(full_vector(state) ** 2) == pytest.approx(1.0, abs=1e-12)
    # parity relation between spin components
    signs = -((-1.0) ** np.arange(state.cutoff + 1))
    assert np.allclose(state.coeffs_minus, signs * state.coeffs_plus, atol=1e-10)
    # gauge: largest-magnitude coefficient positive
    assert state.coeffs_plus[np.argmax(np.abs(state.coeffs_plus))] > 0


def test_adaptive_cutoff_stability():
    params = ModelParams(0.1, 1.0, 0.25)
    state, report = ground_state(params)
    bigger, _ = sector_ground_pair(params, 2 * report.final_cutoff)
    assert abs(bigger - state.energy) < 1e-10 * abs(state.energy)


def test_nonconvergence_carries_report(monkeypatch):
    params = ModelParams(0.005, 1.0, 0.3)  # needs a huge basis
    monkeypatch.setattr(edsolver, "HARD_CUTOFF_LIMIT", 64)
    with pytest.raises(NonconvergenceError) as exc:
        ground_state(params)
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


@pytest.mark.parametrize("ratio, gbar", [(0.5, 0.3), (0.1, 1.3), (0.02, 1.1), (0.005, 2.5)])
def test_response_displacement_and_slope(ratio, gbar):
    # <x>_+ from the response's V psi against the per-spin sum, and its slope
    # against a central difference of <x>_+ (step 1e-5 g)
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    response = ground_state_response(params)
    assert response.x_plus == pytest.approx(expectation_x(response.state)[0], rel=1e-14)
    h = 1e-5 * params.g
    central = (ground_state_response(params.with_g(params.g + h)).x_plus
               - ground_state_response(params.with_g(params.g - h)).x_plus) / (2.0 * h)
    assert response.dx_plus_dg == pytest.approx(central, rel=1e-7)


@pytest.mark.parametrize("ratio, gbar", [(1e-4, 2.4), (0.001, 1.3), (0.005, 2.5)])
def test_a_cell_of_grid_rows_sums_by_dot_products(ratio, gbar):
    # a cell of GRID_MIN_ROWS rows or more is always solved alone and takes
    # its energy and F_Q from BLAS dot products, not from segment sums
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    response = ground_state_response(params)
    psi, x = response.state.coeffs_plus, response.dvec
    assert psi.size >= edsolver.GRID_MIN_ROWS
    diag, off = edsolver.sector_tridiagonal(params, response.state.cutoff)
    tpsi = edsolver._tridiagonal_apply(diag, off, psi)
    assert response.state.energy == float(psi @ tpsi) / float(psi @ psi)
    assert response.fisher_information == 4.0 * float(x @ x)


def test_row_engine_solves_a_batch_when_its_first_cell_is_asked_for(monkeypatch):
    # a row's outcomes come out batch by batch, so a caller that keeps the
    # values and drops the responses holds one batch at a time: at w/W 0.001
    # every cell of g_bar 0.5-3 has GRID_MIN_ROWS rows or more and is a batch
    solved = []
    real = edsolver._solve_batch
    monkeypatch.setattr(edsolver, "_solve_batch",
                        lambda cells, *args: solved.append(len(cells)) or real(cells, *args))
    base = ModelParams(0.001, 1.0, 0.0)
    row = edsolver.ground_state_responses(base.with_g(gbar * base.gc0)
                                          for gbar in np.linspace(0.5, 3.0, 11))
    for k in range(1, 4):
        assert isinstance(next(row), edsolver.GroundStateResponse)
        assert solved == [1] * k


def test_response_residual_above_bound_raises(monkeypatch):
    monkeypatch.setattr(edsolver, "RESPONSE_RESIDUAL_TOL", 0.0)
    with pytest.raises(QrabiError, match="residual"):
        ground_state_response(ModelParams(0.1, 1.0, 0.2))


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
        assert sample.fisher_information == pytest.approx(f_q, rel=1e-12)
        assert sample.report.energy_delta == report.energy_delta <= 1e-10 * abs(state.energy)


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
        assert qfi.qfi_ed(params).fisher_information == pytest.approx(f_q, rel=1e-11)


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


@pytest.mark.parametrize("ratio, expected", [(0.1, 0.589), (0.01, 0.303), (0.001, 0.144),
                                             (1e-4, 0.068)])
def test_bisection_tolerance_is_far_below_the_sector_gap(ratio, expected):
    # the gap of the parity -1 sector to its second level, on a g_bar grid of
    # step 0.0025 around the transition, is smallest inside the grid, falls
    # about like r^(1/3), and stays four orders above the bisection tolerance
    base = ModelParams(ratio, 1.0, 0.0)
    grid = np.arange(360, 561) * 0.0025
    gaps = []
    for gbar in grid:
        params = base.with_g(gbar * base.gc0)
        diag, off = edsolver.sector_tridiagonal(params, initial_cutoff(params))
        levels = dstebz(diag, off, 2, 0.0, 0.0, 1, 2, 0.0, "E")[1]
        gaps.append((levels[1] - levels[0]) / ratio)
    k = int(np.argmin(gaps))
    assert 0 < k < grid.size - 1
    assert gaps[k] == pytest.approx(expected, abs=5e-4)
    assert edsolver.EIGENVALUE_ABSTOL <= 1e-4 * gaps[k]


def _cell_midpoints(monkeypatch):
    """The energies handed to dstein, recorded while the patch is active."""
    handed = []
    real = edsolver.dstein
    monkeypatch.setattr(edsolver, "dstein",
                        lambda d, e, w, *blocks: handed.append(float(w[0])) or real(d, e, w, *blocks))
    return handed


def _neighbour_predicting(response, energy):
    """``response`` with its energy set to ``energy``: at its own coupling it
    predicts exactly that energy."""
    return dataclasses.replace(response, state=dataclasses.replace(response.state, energy=energy))


@pytest.mark.parametrize("ratio, gbar", [(0.001, 3.0), (0.005, 1.05), (0.1, 1.3),
                                         (0.33437, 1.92), (0.5, 0.5), (5.0, 2.0)])
def test_window_and_index_bisection_end_in_the_same_cell(ratio, gbar, monkeypatch):
    # a neighbour's window and the index bisection end in the same cell of the
    # energy grid, so the eigenpair is the same to the bit; hints whose window
    # misses E0 (far below the spectrum, just above the second level, NaN)
    # fall back to the index bisection. The grid applies at every size;
    # GRID_MIN_ROWS only says where it pays
    monkeypatch.setattr(edsolver, "GRID_MIN_ROWS", 1)
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    cutoff = initial_cutoff(params)
    handed = _cell_midpoints(monkeypatch)
    values, vectors = sector_eigenpairs(params, cutoff)
    h = edsolver.cell_width(ratio)
    assert h <= edsolver.EIGENVALUE_ABSTOL * ratio < 2.0 * h
    assert handed[0] / h - 0.5 == math.floor(handed[0] / h)
    assert abs(handed[0] - values[0]) <= 0.5 * h

    response = ground_state_response(params)
    diag, off = edsolver.sector_tridiagonal(params, cutoff)
    second = dstebz(diag, off, 2, 0.0, 0.0, 2, 2, 0.0, "E")[1][0]
    misses = [values[0] - 1e3 * ratio, second + 100.0 * h, math.nan]
    rng = np.random.default_rng(11)
    hits = values[0] + h * rng.uniform(-0.49, 0.49, 20) * edsolver.WINDOW_CELLS
    index_calls = count_index_bisections(monkeypatch)
    for k, hint in enumerate([*misses, *hits]):
        hinted = sector_eigenpairs(params, cutoff, _neighbour_predicting(response, hint))
        assert np.array_equal(hinted[0], values) and np.array_equal(hinted[1], vectors)
        assert sum(index_calls) == min(k + 1, len(misses))
    assert set(handed) == {handed[0]}


@pytest.mark.parametrize("gbar", [0.0, 1e-8])
def test_level_at_the_gershgorin_bound_takes_no_window(gbar, monkeypatch):
    # at g = 0 (a split matrix) and g = 1.6e-9 (E0 within g of the Gershgorin
    # bound -1/2 - g, below 2.5 h) dstebz would bisect from that bound, not
    # from the grid: every hint falls back to the index estimate
    monkeypatch.setattr(edsolver, "GRID_MIN_ROWS", 1)
    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    cutoff = initial_cutoff(params)
    values, vectors = sector_eigenpairs(params, cutoff)
    response = ground_state_response(params)
    index_calls = count_index_bisections(monkeypatch)
    h = edsolver.cell_width(0.1)
    for offset in (-100.0, 0.0, 100.0):
        hinted = sector_eigenpairs(params, cutoff,
                                   _neighbour_predicting(response, values[0] + offset * h))
        assert np.array_equal(hinted[0], values) and np.array_equal(hinted[1], vectors)
    assert sum(index_calls) == 3


def test_start_at_or_below_its_truncation_fails_without_a_solve(monkeypatch):
    # a start at its own truncation has nothing to certify against
    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(2.0 * base.gc0)
    start = truncation_cutoff(params)
    monkeypatch.setattr(edsolver, "initial_cutoff", lambda p: start)
    with pytest.raises(NonconvergenceError) as exc:
        ground_state(params)
    report = exc.value.payload
    assert (report.final_cutoff, report.truncation_cutoff) == (start, start)
    assert report.eigensolves == 0
    assert report.energy_delta == math.inf


@pytest.mark.parametrize("ratio, gbar", [(0.5, 2.5), (0.1, 2.0), (0.02, 2.0), (0.02, 2.5)])
def test_failed_certificate_raises_after_one_solve(monkeypatch, ratio, gbar):
    # a truncation far inside the photon distribution leaves a tail weight
    # far above 1e-12: the point fails after its one solve
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    start = initial_cutoff(params)
    monkeypatch.setattr(edsolver, "truncation_cutoff", lambda p: 4)
    with pytest.raises(NonconvergenceError, match="certificate") as exc:
        ground_state(params)
    report = exc.value.payload
    assert (report.final_cutoff, report.truncation_cutoff) == (start, 4)
    assert report.eigensolves == 1
    assert 0.0 < report.energy_delta < math.inf


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
