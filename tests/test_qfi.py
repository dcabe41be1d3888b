import math

import numpy as np
import pytest

from conftest import (
    aligned,
    ed_qfi,
    fd_acceleration_crossing,
    fd_dfisher,
    fd_qfi,
    golden_section_peak,
    overlap_fidelity,
    per_point_qfi_pp,
    pp_qfi,
)
from qrabi import edsolver, polaron, qfi
from qrabi.critical import DEFAULT_FIT_GRID, gc2
from qrabi.errors import NonconvergenceError, QrabiError
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


@pytest.mark.parametrize("omega", [0.005, 0.1, 0.5])
def test_dfisher_matches_fd_oracle(omega):
    # the oracle's own noise is about 3e-6 relative at worst on this grid
    # (0.005, gbar 3), against 1e-8 for exact F_Q differenced at the same step
    base = ModelParams(omega, 1.0, 0.0)
    for gbar in np.linspace(0.5, 3.0, 11):
        params = base.with_g(float(gbar) * base.gc0)
        response = edsolver.ground_state_response(params)
        oracle = fd_dfisher(params, 3e-5 * base.gc0, 1e-3 * base.gc0,
                            response.state.cutoff)
        assert response.dfisher_dg() == pytest.approx(oracle, rel=1e-5)


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
    # nor is there an energy tolerance: the certificate's is fixed
    with pytest.raises(TypeError):
        qfi.qfi_ed(params, tol=0.0)


def test_fidelity_consistency():
    # 2(1-F)/delta^2 estimates chi_F = F_Q/4
    params = ModelParams(0.1, 1.0, ModelParams(0.1, 1.0, 0.0).gc0)
    delta = 1e-3 * params.gc0
    cutoff = qfi.qfi_ed(params.with_g(params.g + delta)).cutoff
    f = overlap_fidelity(params, delta, cutoff)
    chi = qfi.qfi_ed(params).f_q_g / 4.0
    assert 2.0 * (1.0 - f) / delta ** 2 == pytest.approx(chi, rel=0.01)
    assert overlap_fidelity(params, 0.0, cutoff) == pytest.approx(1.0, abs=1e-12)


def _sweep(omega, lo, hi, n):
    return polaron.continuation_sweep(omega, 1.0, np.linspace(lo, hi, n))


def test_pp_full_matches_ed_near_transition():
    base = ModelParams(0.1, 1.0, 0.0)
    sweep = _sweep(0.1, 1.15, 1.45, 16)
    f_pp = qfi.qfi_pp_full(sweep)
    first, _ = qfi._pp_overlap_terms(sweep)
    for k in (4, 8, 12):
        gbar = float(sweep.gbar[k])
        ed = qfi.qfi_ed(base.with_g(gbar * base.gc0))
        assert f_pp[k] == pytest.approx(ed.f_q_gbar, rel=0.08)
        assert abs(first[k]) < 1e-10  # analytic manifold chain rule


@pytest.mark.parametrize("ratio, lo, hi, n", [(0.1, 0.8, 1.8, 51), (0.02, 0.8, 1.8, 51),
                                              (0.02, 0.60, 0.76, 17)])
def test_pp_full_matches_per_point_oracle(ratio, lo, hi, n):
    # the sweep-wide assembly from the corrector's Hessians against the
    # per-point one from a Hessian evaluated again at each ansatz; on the
    # flat-valley grid (0.02, 0.60-0.76) flat directions are dropped
    sweep = _sweep(ratio, lo, hi, n)
    oracle = np.array([per_point_qfi_pp(sweep, k) for k in range(n)])
    np.testing.assert_allclose(qfi.qfi_pp_full(sweep), oracle, rtol=1e-10, atol=0.0)
    if hi < 1.0:
        assert np.any(polaron.parameter_derivatives(sweep)["dropped"] > 0)


@pytest.mark.parametrize("ratio", [0.002, 0.005])
def test_pp_full_exists_where_the_polarons_merge(ratio):
    # below the transition at small w/W the polarons nearly merge: the energy
    # Hessian's smallest eigenvalue is ~1e-10 of its largest, of either sign,
    # along a direction the state hardly moves in. The flows drop it, and F_Q
    # exists and matches ED at every point (5 and 3 of these points raised
    # DerivativeInvalidError with the L-BFGS-B sweep and finite-difference H)
    base = ModelParams(ratio, 1.0, 0.0)
    sweep = _sweep(ratio, 0.5, 0.9, 50)
    f_pp = qfi.qfi_pp_full(sweep)
    for k in range(50):
        ed = qfi.qfi_ed(base.with_g(float(sweep.gbar[k]) * base.gc0))
        assert f_pp[k] == pytest.approx(ed.f_q_gbar, rel=5e-3)


@pytest.mark.parametrize("ratio, lo, hi", [(0.001, 2.0, 3.0), (0.005, 2.5, 3.5)])
def test_pp_sweep_started_above_the_transition_reaches_the_ground_state(ratio, lo, hi):
    # a cold start above the transition at small w/W: L-BFGS-B from a seed
    # with polaron b at zeta ~ 0 stopped in the psi = 0 corner, up to 5.9 %
    # above the ED energy with F_PP 14 % off
    base = ModelParams(ratio, 1.0, 0.0)
    sweep = _sweep(ratio, lo, hi, 11)
    f_pp = qfi.qfi_pp_full(sweep)
    for k in range(11):
        params = base.with_g(float(sweep.gbar[k]) * base.gc0)
        e_ed = edsolver.ground_state(params)[0].energy
        assert (sweep.ansatz[k].energy - e_ed) / abs(e_ed) <= 1e-8
        assert f_pp[k] == pytest.approx(qfi.qfi_ed(params).f_q_gbar, rel=1e-4)


def test_pp_simplified_forms_agree_algebraically():
    # (Omega/omega) v_p^2 xi is the kinetic energy (1/2) m_F v_p^2 with
    # m_F = 2 (Omega/omega) xi, v_p = d(zeta g_bar)/d g_bar from the flows
    sweep = _sweep(0.1, 1.25, 1.35, 5)
    dzeta = polaron.parameter_derivatives(sweep)["dzeta"][:, 0]
    ratio = sweep.Omega / sweep.omega
    zeta = np.array([a.zeta_alpha for a in sweep.ansatz])
    xi = np.array([a.xi_alpha for a in sweep.ansatz])
    kinetic = 0.5 * (2.0 * ratio * xi) * (dzeta * sweep.gbar + zeta) ** 2
    np.testing.assert_allclose(qfi.qfi_pp_simplified(sweep), kinetic, rtol=1e-12)


def test_pp_simplified_is_leading_order_of_full():
    sweep = _sweep(0.1, 1.25, 1.35, 5)
    full = qfi.qfi_pp_full(sweep)[2]
    simp = qfi.qfi_pp_simplified(sweep)[2]
    assert simp == pytest.approx(full, rel=0.35)


def test_find_peak_matches_gc2():
    from qrabi.critical import gc2

    est = qfi.find_peak(0.1, 1.0, method="ED")
    assert est.gbar_cf == pytest.approx(gc2(0.1, 1.0).ratio, rel=0.01)
    assert est.f_q_max > 0


def test_find_peak_methods_agree():
    ed = qfi.find_peak(0.2, 1.0, method="ED")
    pp = qfi.find_peak(0.2, 1.0, method="PP-full")
    assert pp.gbar_cf == pytest.approx(ed.gbar_cf, rel=0.03)


def test_find_peak_walk_without_a_sign_change_raises(monkeypatch):
    # a slope that never changes sign: the walk climbs until the cutoff it
    # needs passes the limit, and the search raises instead of returning a point
    monkeypatch.setattr(edsolver.GroundStateResponse, "dfisher_dg", lambda self: 1.0)
    with pytest.raises(QrabiError):
        qfi.find_peak(0.1, 1.0, method="ED")


@pytest.mark.parametrize("ratio", [37.0, 40.0, 50.0])
def test_find_peak_walks_uphill_below_unit_estimate(ratio):
    # the alphaFS estimate falls below 1 here (about 0.8 at 37, negative at
    # 40): the walk starts at 1 and climbs, with no upper end, to the peak
    assert gc2(ratio, 1.0, "alphaFS").ratio < 1.0
    est = qfi.find_peak(ratio, 1.0, method="ED")
    peak = {37.0: 11.1952, 40.0: 11.6333, 50.0: 12.9873}[ratio]
    assert est.gbar_cf == pytest.approx(peak, abs=1e-4)
    assert 0.0 < est.bracket_width <= 1e-10
    assert est.evaluations <= 25


def test_find_peak_tends_to_the_large_ratio_limit():
    # g_cF/omega -> sqrt(5/6) as omega/Omega -> infinity, with a 0.275/r
    # correction: 2.7e-7 at r = 1e6
    est = qfi.find_peak(1e6, 1.0, method="ED")
    assert abs(est.g_cf / 1e6 - math.sqrt(5.0 / 6.0)) <= 1e-6


@pytest.mark.parametrize("ratio", DEFAULT_FIT_GRID)
def test_find_peak_ed_root_search(ratio, monkeypatch):
    calls = 0
    real = edsolver.ground_state

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(edsolver, "ground_state", counted)
    est = qfi.find_peak(ratio, 1.0, method="ED")
    monkeypatch.undo()
    assert calls <= 12
    assert est.evaluations == calls
    assert 0.0 < est.bracket_width <= 1e-10
    # a maximum: F_Q at the root is not below its neighbours at +-1e-6
    base = ModelParams(ratio, 1.0, 0.0)
    for shift in (-1e-6, 1e-6):
        assert est.f_q_max >= qfi.qfi_ed(base.with_g((est.gbar_cf + shift) * base.gc0)).f_q_gbar


@pytest.mark.parametrize("ratio", DEFAULT_FIT_GRID)
def test_find_peak_matches_golden_section(ratio):
    gbar_ref, _ = golden_section_peak(ed_qfi(ratio, 1.0))
    assert qfi.find_peak(ratio, 1.0, method="ED").gbar_cf == pytest.approx(gbar_ref, abs=1e-4)


@pytest.mark.parametrize("ratio", [0.1, 0.2])
def test_find_peak_pp_matches_golden_section(ratio, monkeypatch):
    # the oracle probes one-point sweeps; F_PP itself differs by up to 1.4e-7
    # relative between sweeps through the same g_bar (the corrector's stop at
    # rounding leaves projected gradients up to 5e-8), hence the bound on F
    gbar_ref, f_ref = golden_section_peak(pp_qfi(ratio, 1.0))
    solved = []
    sweep = polaron.continuation_sweep
    monkeypatch.setattr(polaron, "continuation_sweep",
                        lambda o, O, grid, **k: solved.append(len(grid)) or sweep(o, O, grid, **k))
    est = qfi.find_peak(ratio, 1.0, method="PP-full")
    assert est.gbar_cf == pytest.approx(gbar_ref, abs=1e-4)
    assert est.f_q_max == pytest.approx(f_ref, rel=1e-6)
    assert est.bracket_width <= qfi.PP_REFINE_TOL
    assert est.evaluations == sum(solved)
    assert solved[0] == qfi.PP_SCAN_POINTS and set(solved[1:]) == {qfi.PP_REFINE_POINTS}


def test_pp_searches_solve_one_cold_start(monkeypatch):
    # the re-sweeps of a PP search start from the previous sweep's ansatz
    # with the Newton corrector alone: the PP-full peak pays for the scan's
    # cold start only, and the a = 0 search, given a sweep, for none
    calls = []
    optimize = polaron.optimize
    monkeypatch.setattr(polaron, "optimize",
                        lambda *a, **k: calls.append(k) or optimize(*a, **k))
    qfi.find_peak(0.1, 1.0, method="PP-full")
    assert calls == [{}]
    sweep = polaron.continuation_sweep(0.1, 1.0, np.linspace(1.0, 1.8, 41))
    calls.clear()
    qfi.acceleration_condition(sweep)
    assert calls == []


def _recorded(f):
    calls = []

    def recorder(x):
        calls.append(x)
        return f(x)

    return recorder, calls


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.tanh(40.0 * (x - 0.3)), -1.0, 2.0),
])
@pytest.mark.parametrize("xtol", [2e-12, qfi.PEAK_XTOL])
def test_brent_port_is_scipy_brentq(f, a, b, xtol):
    # the port must reproduce scipy's roots and evaluation sequences bit for bit
    from scipy.optimize import brentq

    ours, our_calls = _recorded(f)
    theirs, their_calls = _recorded(f)
    root = qfi._brentq(ours, a, b, xtol)
    assert root == brentq(theirs, a, b, xtol=xtol)
    assert our_calls == their_calls
    assert abs(f(root)) < 1e-9


@pytest.mark.parametrize("ratio", [0.005, 0.1, 0.5])
def test_brent_port_is_scipy_brentq_on_the_peak_slope(ratio, monkeypatch):
    from scipy.optimize import brentq

    port = qfi._brentq
    runs = {}

    def both(f, a, b, xtol):
        ours, our_calls = _recorded(f)
        theirs, their_calls = _recorded(f)
        runs["ours"] = (port(ours, a, b, xtol), our_calls)
        runs["scipy"] = (brentq(theirs, a, b, xtol=xtol), their_calls)
        return runs["ours"][0]

    monkeypatch.setattr(qfi, "_brentq", both)
    est = qfi.find_peak(ratio, 1.0, method="ED")
    assert runs["ours"] == runs["scipy"]
    assert est.gbar_cf == runs["ours"][0]
    assert len(runs["ours"][1]) >= 3


def test_brent_port_edge_cases():
    with pytest.raises(QrabiError, match="different signs"):
        qfi._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    # a zero at an endpoint is the root, at either end
    assert qfi._brentq(lambda x: x - 1.0, 1.0, 2.0, 1e-12) == 1.0
    assert qfi._brentq(lambda x: x - 2.0, 1.0, 2.0, 1e-12) == 2.0
    with pytest.raises(QrabiError, match="NaN"):
        qfi._brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, 1e-12)
    with pytest.raises(NonconvergenceError):
        qfi._brentq(lambda x: math.cos(x) - x, 0.0, 1.0, 1e-12, maxiter=2)


def test_acceleration_condition_matches_fd_oracle():
    # criterion 08's sweep: the maximum of the exact v_p against the crossing
    # of the twice-differenced displacement on the grid
    sweep = polaron.continuation_sweep(0.1, 1.0, np.linspace(0.76, 1.64, 45))
    est = qfi.acceleration_condition(sweep)
    assert est.ratio == pytest.approx(fd_acceleration_crossing(sweep), abs=1e-3)
    assert est.value == pytest.approx(est.ratio * ModelParams(0.1, 1.0, 0.0).gc0, rel=1e-15)
    # a maximum: v_p there is not below v_p at +-3e-4 on a sweep through it
    around = polaron.continuation_sweep(0.1, 1.0, est.ratio + np.array([-3e-4, 0.0, 3e-4]))
    v_p = polaron.parameter_derivatives(around)["velocity"]
    assert v_p[1] >= max(v_p[0], v_p[2])


def test_acceleration_condition_requires_sign_change():
    # past the transition v_p falls over the whole sweep: a does not vanish
    sweep = polaron.continuation_sweep(0.1, 1.0, np.linspace(1.5, 1.8, 7))
    assert np.all(np.diff(polaron.parameter_derivatives(sweep)["velocity"]) < 0)
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
