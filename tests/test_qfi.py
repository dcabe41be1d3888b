import math

import numpy as np
import pytest

from conftest import aligned, fd_qfi, overlap_fidelity
from qrabi import polaron, qfi
from qrabi.errors import ParameterDomainError, QrabiError
from qrabi.model import ModelParams


def test_perturbative_limit():
    # second-order perturbation theory: F_Q(g->0) = 4/(omega+Omega)^2
    params = ModelParams(0.1, 1.0, 1e-4)
    sample = qfi.qfi_ed(params)
    assert sample.f_q_g == pytest.approx(4.0 / 1.1 ** 2, rel=1e-4)
    # exact at g = 0, where the response is a single Fock state
    assert qfi.qfi_ed(params.with_g(0.0)).f_q_g == pytest.approx(4.0 / 1.1 ** 2, rel=1e-12)


def test_unit_conversion_identity():
    params = ModelParams(0.1, 1.0, 0.2)
    sample = qfi.qfi_ed(params)
    assert sample.f_q_gbar == pytest.approx(sample.f_q_g * params.gc0 ** 2, rel=1e-14)
    assert sample.f_q_g >= 0.0


def test_first_derivative_term_negligible():
    base = ModelParams(0.1, 1.0, 0.0)
    for gbar in (0.7, 1.0, 1.3):
        sample = qfi.qfi_ed(base.with_g(gbar * base.gc0))
        assert abs(sample.first_derivative_term) < 1e-8
        # F_Q and 4<psi'|psi'> agree: the cross term is negligible
        assert 4.0 * sample.first_derivative_term ** 2 < 1e-8 * sample.f_q_g


def test_richardson_step_control():
    # the central-difference oracle converges to the exact value at O(h^2):
    # the Richardson ratio (F(2h)-F(h))/(F(h)-F(h/2)) sits near 4
    params = ModelParams(0.1, 1.0, 0.2)
    reference = qfi.qfi_ed(params)
    h = 1e-4 * params.gc0
    f_2h, f_h, f_h2 = (fd_qfi(params, k * h, reference.cutoff) for k in (2.0, 1.0, 0.5))
    assert abs((f_2h - f_h) / (f_h - f_h2) - 4.0) <= 2.0
    assert f_h == pytest.approx(reference.f_q_g, rel=1e-5)


@pytest.mark.parametrize("omega", [0.005, 0.1, 0.5])
def test_linear_response_matches_fd_oracle(omega):
    base = ModelParams(omega, 1.0, 0.0)
    for gbar in np.linspace(0.5, 3.0, 11):
        params = base.with_g(float(gbar) * base.gc0)
        sample = qfi.qfi_ed(params)
        oracle = fd_qfi(params, 1e-6 * base.gc0, sample.cutoff)
        assert sample.f_q_g == pytest.approx(oracle, rel=1e-7)


def test_qfi_ed_converges_at_low_frequency():
    # the start cutoff follows the photon number (g/omega)^2 ~ 560 and 2250
    base = ModelParams(0.001, 1.0, 0.0)
    for gbar in (1.5, 3.0):
        sample = qfi.qfi_ed(base.with_g(gbar * base.gc0))
        assert sample.cutoff < 8192
        assert sample.residual < 1e-8
        assert sample.f_q_g > 0


def test_invalid_steps_rejected():
    # there is no differentiation step any more; a step argument is refused
    params = ModelParams(0.1, 1.0, 0.2)
    with pytest.raises(TypeError):
        qfi.qfi_ed(params, h=1e-6)
    with pytest.raises(ParameterDomainError):
        qfi.qfi_ed(params, tol=0.0)


def test_fidelity_consistency():
    # 2(1-F)/delta^2 estimates chi_F = F_Q/4
    params = ModelParams(0.1, 1.0, ModelParams(0.1, 1.0, 0.0).gc0)
    delta = 1e-3 * params.gc0
    cutoff = qfi.qfi_ed(params.with_g(params.g + delta)).cutoff
    f = overlap_fidelity(params, delta, cutoff)
    chi = qfi.fidelity_susceptibility(params)
    assert 2.0 * (1.0 - f) / delta ** 2 == pytest.approx(chi, rel=0.01)
    assert overlap_fidelity(params, 0.0, cutoff) == pytest.approx(1.0, abs=1e-12)


def _sweep(omega, lo, hi, n):
    return polaron.continuation_sweep(omega, 1.0, np.linspace(lo, hi, n))


def test_pp_full_matches_ed_near_transition():
    base = ModelParams(0.1, 1.0, 0.0)
    sweep = _sweep(0.1, 1.15, 1.45, 16)
    for k in (4, 8, 12):
        gbar = float(sweep.gbar[k])
        pp = qfi.qfi_pp_full(sweep, k)
        ed = qfi.qfi_ed(base.with_g(gbar * base.gc0))
        assert pp.f_q_gbar == pytest.approx(ed.f_q_gbar, rel=0.08)
        assert abs(pp.first_derivative_term) < 1e-10  # analytic manifold chain rule


def test_pp_simplified_forms_agree_algebraically():
    sweep = _sweep(0.1, 1.25, 1.35, 5)
    sample = qfi.qfi_pp_simplified(sweep, 2)
    assert sample.kinetic_energy_form == pytest.approx(sample.f_q_gbar, rel=1e-12)


def test_pp_simplified_is_leading_order_of_full():
    sweep = _sweep(0.1, 1.25, 1.35, 5)
    full = qfi.qfi_pp_full(sweep, 2).f_q_gbar
    simp = qfi.qfi_pp_simplified(sweep, 2).f_q_gbar
    assert simp == pytest.approx(full, rel=0.35)


def test_find_peak_matches_gc2():
    from qrabi.critical import gc2

    est = qfi.find_peak(0.1, 1.0, method="ED")
    assert est.gbar_cf == pytest.approx(gc2(0.1, 1.0).ratio, rel=0.01)
    assert est.f_q_max > 0
    assert not est.flat_peak


def test_find_peak_methods_agree():
    ed = qfi.find_peak(0.2, 1.0, method="ED")
    pp = qfi.find_peak(0.2, 1.0, method="PP-full")
    assert pp.gbar_cf == pytest.approx(ed.gbar_cf, rel=0.03)


def test_find_peak_flat_warns():
    with pytest.warns(UserWarning):
        est = qfi.find_peak(0.1, 1.0, gbar_range=(0.5, 1.0), coarse_points=11)
    assert est.flat_peak


def test_acceleration_condition_forms_agree():
    sweep = _sweep(0.1, 1.0, 1.6, 61)
    a_form = qfi.acceleration_condition(sweep, form="acceleration")
    c_form = qfi.acceleration_condition(sweep, form="crossing")
    assert a_form.ratio == pytest.approx(c_form.ratio, abs=0.02)


def test_acceleration_condition_synthetic_zeta():
    # sigmoid displacement x(gbar) = 1/(1+exp(-k(gbar-gc))): the acceleration
    # x'' changes sign exactly at the inflection point gc
    gc, k = 1.29, 8.0
    gbar = np.linspace(1.02, 2.2, 1200)
    xp = 1.0 / (1.0 + np.exp(-k * (gbar - gc)))
    zeta = xp / gbar
    ansatz = [
        polaron.PolaronAnsatz(1.0, 0.0, z, -z, 1.0, 1.0, energy=0.0) for z in zeta
    ]
    sweep = polaron.PolaronSweep(0.1, 1.0, gbar, ansatz)
    est = qfi.acceleration_condition(sweep, form="acceleration")
    assert est.ratio == pytest.approx(gc, abs=1e-3)


def test_acceleration_condition_requires_sign_change():
    # frozen ansatz: zeta identically zero, no acceleration zero crossing
    gbar = np.linspace(0.5, 0.7, 9)
    ansatz = [polaron.PolaronAnsatz(1.0, 0.0, 0.0, 0.0, 1.0, 1.0, energy=0.0)] * 9
    sweep = polaron.PolaronSweep(0.1, 1.0, gbar, ansatz)
    with pytest.raises(QrabiError):
        qfi.acceleration_condition(sweep)


def test_qfi_continuity_in_g():
    base = ModelParams(0.2, 1.0, 0.0)
    grid = np.linspace(1.2, 1.6, 17)
    vals = np.array([
        qfi.qfi_ed(base.with_g(gb * base.gc0)).f_q_gbar for gb in grid
    ])
    assert np.max(np.abs(np.diff(vals) / vals[:-1])) < 0.2


def test_gauge_invariance_of_alignment():
    ref = np.array([0.9, 0.1, 0.4])
    vec = -ref
    flipped = aligned(ref / np.linalg.norm(ref), vec / np.linalg.norm(vec))
    assert float(flipped @ ref) > 0
