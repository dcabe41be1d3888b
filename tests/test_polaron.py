import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ansatz_wavefunction,
    gaussian,
    grid_ground_energy,
    nelder_mead_energy,
    numeric_pair_oracle,
    optimized_flow_oracle,
    per_point_parameter_derivatives,
    random_ansatz,
    vector_energy,
)
from qrabi import kernels, polaron, qfi
from qrabi.errors import ParameterDomainError
from qrabi.model import ModelParams
from qrabi.polaron import (
    Polaron,
    PolaronAnsatz,
    angle_from_weights,
    PolaronSweep,
    continuation_sweep,
    energy,
    optimize,
    overlap,
    parameter_derivatives,
    semiclassical_zeta,
    weights_from_angle,
)

RNG = np.random.default_rng(20240817)


# --- overlap closed forms ---------------------------------------------------


def test_overlap_identical_polarons():
    p = Polaron(0.7, -0.3)
    assert overlap(p, p) == pytest.approx(1.0, abs=1e-14)


def test_overlap_equal_xi_separation():
    xi, d = 0.9, 1.1
    val = overlap(Polaron(xi, 0.0), Polaron(xi, d))
    assert val == pytest.approx(math.exp(-xi * d * d / 4.0), abs=1e-14)


def test_overlap_known_value():
    assert overlap(Polaron(1.0, 0.2), Polaron(4.0, 0.2)) == pytest.approx(2.0 / math.sqrt(5.0))


def test_overlap_rejects_nonpositive_xi():
    with pytest.raises(ParameterDomainError):
        overlap(Polaron(-1.0, 0.0), Polaron(1.0, 0.0))


def test_diagonal_derivative_overlaps_vanish():
    base = ModelParams(0.1, 1.0, 0.0)
    gbar = np.array([1.1, 1.2, 1.3])
    ansatz = [random_ansatz(RNG, base.with_g(gb * base.gc0)) for gb in gbar]
    table = parameter_derivatives(PolaronSweep(0.1, 1.0, gbar, ansatz))["overlap_table"]
    # translating or rescaling a normalized wavepacket preserves its norm
    for i in (0, 1):
        np.testing.assert_allclose(table.s[:, i, i], 1.0, atol=1e-14)
        np.testing.assert_allclose(table.dx_phi[:, i, i], 0.0, atol=1e-14)
        np.testing.assert_allclose(table.dxi_phi[:, i, i], 0.0, atol=1e-14)


@pytest.mark.parametrize("draw", range(12))
def test_closed_forms_match_quadrature(draw):
    rng = np.random.default_rng(1000 + draw)
    xi_i, xi_j = rng.uniform(0.1, 5.0, 2)
    x_i, x_j = rng.uniform(-3.0, 3.0, 2)
    oracle = numeric_pair_oracle(xi_i, x_i, xi_j, x_j)
    closed = polaron._pair_entries(xi_i, x_i, xi_j, x_j)
    for got, want in zip(closed, oracle):
        assert got == pytest.approx(want, abs=2e-6, rel=2e-6)


def test_fixed_draw_matches_quadrature_tightly():
    # tighter tolerance at one fixed point using a smaller fd step
    oracle = numeric_pair_oracle(0.7, -1.0, 1.3, 0.5, eps=1e-5)
    closed = polaron._pair_entries(0.7, -1.0, 1.3, 0.5)
    for got, want in zip(closed, oracle):
        assert got == pytest.approx(want, rel=1e-7, abs=1e-9)


# --- normalization manifold -------------------------------------------------


def test_weights_satisfy_constraint():
    for psi in np.linspace(0.0, math.pi / 2, 9):
        for s in (0.0, 0.3, 0.9, 0.999):
            a, b = weights_from_angle(psi, s)
            assert a >= 0 and b >= 0
            assert a * a + b * b + 2 * a * b * s == pytest.approx(1.0, abs=1e-14)


def test_weight_round_trip():
    a, b = weights_from_angle(0.61, 0.42)
    assert angle_from_weights(a, b) == pytest.approx(0.61, abs=1e-14)


def test_weight_derivatives_match_finite_differences():
    psi, s, eps = 0.47, 0.31, 1e-7
    d_psi, d_s = np.array(polaron._manifold(psi, s)[2:]).reshape(2, 2)
    fd_psi = (weights_from_angle(psi + eps, s) - weights_from_angle(psi - eps, s)) / (2 * eps)
    fd_s = (weights_from_angle(psi, s + eps) - weights_from_angle(psi, s - eps)) / (2 * eps)
    assert np.allclose(d_psi, fd_psi, atol=1e-8)
    assert np.allclose(d_s, fd_s, atol=1e-8)


# --- energy -----------------------------------------------------------------


def test_energy_decoupled_limit():
    params = ModelParams(0.7, 1.0, 0.0)
    single = PolaronAnsatz(1.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    assert energy(single, params) == pytest.approx(-0.5, abs=1e-12)


def test_energy_displaced_oscillator_limit():
    params = ModelParams(0.5, 0.0, 0.3)
    single = PolaronAnsatz(1.0, 0.0, 1.0, 0.0, 1.0, 1.0)
    assert energy(single, params) == pytest.approx(-0.3 ** 2 / 0.5, abs=1e-12)


@pytest.mark.parametrize("draw", range(5))
def test_energy_matches_grid_quadrature(draw):
    rng = np.random.default_rng(2000 + draw)
    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(1.2 * base.gc0)
    ansatz = random_ansatz(rng, params)
    got = energy(ansatz, params)

    # oracle: quadrature of <psi|H|psi> on a position grid, with the
    # derivative of each Gaussian taken analytically so the only error is
    # the (spectrally small) trapezoid error of smooth integrands
    x = np.linspace(-14.0, 14.0, 14001)
    dx = x[1] - x[0]
    psi_p = ansatz_wavefunction(ansatz, params)(x)
    pa, pb = ansatz.polarons(params)
    dpsi = (
        ansatz.alpha * (-pa.xi * (x + pa.x)) * gaussian(pa.xi, pa.x)(x)
        + ansatz.beta * (-pb.xi * (x + pb.x)) * gaussian(pb.xi, pb.x)(x)
    )
    omega, Omega, gt = params.omega, params.Omega, params.g_tilde
    eps0 = -(gt ** 2 + 1.0) * omega / 2.0
    v_plus = omega * (x + gt) ** 2 / 2.0 + eps0
    kin = 0.5 * omega * np.sum(dpsi ** 2) * dx
    pot = np.sum(v_plus * psi_p ** 2) * dx
    tun = -0.5 * Omega * np.sum(psi_p * psi_p[::-1]) * dx
    assert got == pytest.approx(kin + pot + tun, abs=1e-8)


def test_energy_rejects_unnormalized():
    params = ModelParams(0.1, 1.0, 0.2)
    bad = PolaronAnsatz(1.0, 1.0, 0.3, -0.3, 1.0, 1.0)
    with pytest.raises(ParameterDomainError):
        energy(bad, params)


# --- optimization -----------------------------------------------------------


def test_optimize_below_transition_matches_ed_state():
    # the raw (zeta, weight) parameters are not unique in the nearly
    # harmonic regime, so check the physical state: energy and displacement
    from qrabi.edsolver import expectation_x, ground_state
    from qrabi.observables import x_expectation_pp

    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(0.5 * base.gc0)
    ans = optimize(params)
    ed, _ = ground_state(params)
    assert ans.energy == pytest.approx(ed.energy, abs=1e-6)
    assert x_expectation_pp(ans, params) == pytest.approx(
        expectation_x(ed)[0], abs=1e-4)


def test_optimize_approaches_semiclassical_displacement():
    base = ModelParams(0.01, 1.0, 0.0)
    gbar = 1.5
    ans = optimize(base.with_g(gbar * base.gc0))
    assert ans.zeta_alpha == pytest.approx(semiclassical_zeta(gbar), rel=0.02)


def test_optimize_beats_ed_up_to_tolerance():
    from qrabi.edsolver import ground_state

    base = ModelParams(0.1, 1.0, 0.0)
    for gbar in (0.6, 1.0, 1.3, 1.8):
        params = base.with_g(gbar * base.gc0)
        ans = optimize(params)
        ed, _ = ground_state(params)
        assert ans.energy >= ed.energy - 1e-12     # variational bound
        assert ans.energy <= ed.energy + 1e-3      # quality of the ansatz


def test_semiclassical_zeta_values():
    assert semiclassical_zeta(0.8) == 0.0
    assert semiclassical_zeta(2.0) == pytest.approx(math.sqrt(1 - 2.0 ** -4))


# --- continuation sweeps and derivatives -------------------------------------


def test_single_point_sweep():
    sweep = continuation_sweep(0.1, 1.0, [1.2])
    assert len(sweep.ansatz) == 1
    assert sweep.ansatz[0].energy is not None


def test_sweep_requires_ascending_grid():
    with pytest.raises(ParameterDomainError):
        continuation_sweep(0.1, 1.0, [1.2, 1.0])


def test_sweep_smooth_below_transition():
    # raw parameters are degenerate here, so smoothness is judged on the
    # physical displacement and energy along the sweep
    from qrabi.observables import x_expectation_pp

    grid = np.arange(0.50, 0.80, 0.01)
    sweep = continuation_sweep(0.1, 1.0, grid)
    xs = [x_expectation_pp(a, sweep.params_at(k)) for k, a in enumerate(sweep.ansatz)]
    assert np.max(np.abs(np.diff(xs))) < 0.05
    es = [a.energy for a in sweep.ansatz]
    assert np.max(np.abs(np.diff(es))) < 0.01


def test_sweep_smooth_above_transition():
    grid = np.arange(1.10, 1.60, 0.01)
    sweep = continuation_sweep(0.1, 1.0, grid)
    dz = np.abs(np.diff([a.zeta_alpha for a in sweep.ansatz]))
    assert np.max(dz) < 0.05
    assert sweep.discontinuities == ()


def test_separation_grows_past_transition():
    grid = np.linspace(1.3, 2.0, 15)
    sweep = continuation_sweep(0.1, 1.0, grid)
    sep = [
        (a.zeta_alpha - a.zeta_beta) * sweep.params_at(k).g_tilde
        for k, a in enumerate(sweep.ansatz)
    ]
    assert np.all(np.diff(sep) > 0)


def test_parameter_derivatives_match_semiclassical_flow():
    # low-frequency limit: dzeta/dgbar approaches d/dgbar sqrt(1 - gbar^-4)
    gbar = 1.5
    grid = np.array([gbar - 0.01, gbar, gbar + 0.01])
    sweep = continuation_sweep(0.01, 1.0, grid)
    derivs = parameter_derivatives(sweep)
    z = semiclassical_zeta(gbar)
    analytic = 2.0 * gbar ** -5 / z
    assert derivs["dzeta"][1, 0] == pytest.approx(analytic, rel=0.05)


def test_parameter_derivatives_step_consistency():
    for step in (0.02, 0.01):
        grid = np.array([1.4 - step, 1.4, 1.4 + step])
        sweep = continuation_sweep(0.1, 1.0, grid)
        d = parameter_derivatives(sweep)["dzeta"][1, 0]
        if step == 0.02:
            coarse = d
    assert d == pytest.approx(coarse, rel=1e-3)


def test_parameter_derivatives_needs_interior_index():
    # the flows need no grid neighbours: the endpoints match the re-optimized
    # finite-difference oracle like any other point
    sweep = continuation_sweep(0.1, 1.0, np.linspace(1.1, 1.3, 5))
    d = parameter_derivatives(sweep)
    for index in (0, 4):
        ift = np.array([d["dpsi"][index], *d["dzeta"][index], *d["dxi"][index]])
        np.testing.assert_allclose(ift, optimized_flow_oracle(sweep, index), rtol=1e-3)


# --- closed-form gradient and the gradient optimizer --------------------------


def _central(f, p, k, h=1e-4):
    # fourth-order central difference in component k
    def at(t):
        q = np.array(p, dtype=float)
        q[k] += t
        return f(q)
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


_ratio = st.floats(0.02, 0.5)
_gbar = st.floats(0.5, 2.0)
_angle = st.floats(0.0, math.pi / 2)
_log_xi = st.floats(*polaron.LOG_XI_BOUNDS)


@st.composite
def _polaron_vectors(draw):
    """(psi, zeta_a, zeta_b, ln xi_a, ln xi_b), near-merged or split."""
    reach = 0.05 if draw(st.booleans()) else polaron.ZETA_BOUND
    return np.array([draw(_angle), draw(st.floats(0.0, reach)),
                     -draw(st.floats(0.0, reach)), draw(_log_xi), draw(_log_xi)])


@settings(max_examples=60, deadline=None)
@given(ratio=_ratio, gbar=_gbar, p=_polaron_vectors())
def test_closed_form_gradient_matches_central_differences(ratio, gbar, p):
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    e, grad = polaron._objective(p, params)
    assert e == vector_energy(p, params)
    fd = np.array([_central(lambda q: vector_energy(q, params), p, k) for k in range(5)])
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


@settings(max_examples=60, deadline=None)
@given(ratio=_ratio, gbar=_gbar, p=_polaron_vectors())
def test_kernel_gradient_at_fixed_weights(ratio, gbar, p):
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    gt = params.g_tilde
    raw = [math.cos(p[0]), math.sin(p[0]), p[1] * gt, p[2] * gt, math.exp(p[3]), math.exp(p[4])]

    def energy_of(q):
        return kernels.pp_energy(*q, params.omega, params.Omega, gt)

    e, grad = kernels.pp_energy(*raw, params.omega, params.Omega, gt, gradient=True)
    assert e == energy_of(raw)
    fd = np.array([_central(energy_of, raw, k, h=1e-4 * max(1.0, abs(raw[k])))
                   for k in range(6)])
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))


def test_objective_work_count(monkeypatch):
    # one energy call per evaluation (the overlap S for the weights, then the
    # kernel's four): at most five Gaussian overlaps
    overlaps, energies = [], []
    overlap_fn, energy_fn = kernels.gaussian_overlap, kernels.pp_energy
    monkeypatch.setattr(kernels, "gaussian_overlap",
                        lambda *a: overlaps.append(a) or overlap_fn(*a))
    monkeypatch.setattr(kernels, "pp_energy",
                        lambda *a, **k: energies.append(a) or energy_fn(*a, **k))
    base = ModelParams(0.1, 1.0, 0.0)
    polaron._objective(np.array([0.6, 0.8, -0.7, 0.1, -0.2]), base.with_g(1.3 * base.gc0))
    assert len(energies) == 1
    assert len(overlaps) <= 5


@pytest.mark.parametrize("ratio", [0.1, 0.02])
@pytest.mark.parametrize("gbar", [0.8, 1.2, 1.6])
def test_optimize_reaches_nelder_mead_energy(ratio, gbar):
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    assert optimize(params).energy <= nelder_mead_energy(params) + 1e-12


@pytest.mark.parametrize("ratio, gbar", [(0.1, 1.0), (0.1, 1.3), (0.1, 1.6),
                                         (0.02, 1.2), (0.02, 1.6)])
def test_implicit_flows_match_reoptimized_differences(ratio, gbar):
    sweep = continuation_sweep(ratio, 1.0, [gbar])
    d = parameter_derivatives(sweep)
    ift = np.array([d["dpsi"][0], *d["dzeta"][0], *d["dxi"][0]])
    np.testing.assert_allclose(ift, optimized_flow_oracle(sweep, 0), rtol=1e-3)


def test_flows_refuse_an_indefinite_hessian():
    # equal-weight polarons at +-0.5 g_tilde with unit widths: a saddle of the
    # energy at g_bar = 1.3, not a minimum, so the flows are undefined there.
    # It is refused by the test on its free block alone, and the minimum
    # beside it in the same sweep keeps its flows
    base = ModelParams(0.1, 1.0, 0.0)
    params = base.with_g(1.3 * base.gc0)
    saddle_p = np.array([math.pi / 4, 0.5, -0.5, 0.0, 0.0])
    lam = np.linalg.eigvalsh(polaron._objective(saddle_p, params, hessian=True)[2])
    assert lam[0] < -polaron.FLAT_TOL * lam[-1]
    saddle = polaron._vector_to_ansatz(saddle_p, params)
    minimum = optimize(params)
    sweep = PolaronSweep(0.1, 1.0, np.array([1.3, 1.3]), [saddle, minimum])
    d = parameter_derivatives(sweep)
    for key in ("dpsi", "dzeta", "dxi", "dx", "ds", "dweights"):
        assert np.all(np.isnan(d[key][0])), key
        assert np.all(np.isfinite(d[key][1])), key
    alone = per_point_parameter_derivatives(sweep, 1)
    np.testing.assert_allclose(d["dzeta"][1], alone["dzeta"], rtol=1e-10)
    fq = qfi.qfi_pp_full(sweep)
    assert math.isnan(fq[0]) and fq[1] > 0


# --- closed-form Hessian and the Newton continuation --------------------------


@settings(max_examples=60, deadline=None)
@given(ratio=_ratio, gbar=_gbar, p=_polaron_vectors())
def test_closed_form_hessian_matches_central_differences(ratio, gbar, p):
    # H and d_gbar grad E against fourth-order central differences of the
    # closed-form gradient, in p and in g_bar
    base = ModelParams(ratio, 1.0, 0.0)
    params = base.with_g(gbar * base.gc0)
    e, grad, hess, mixed = polaron._objective(p, params, hessian=True)
    e_first, grad_first = polaron._objective(p, params)
    assert e == e_first
    np.testing.assert_array_equal(grad, grad_first)
    fd = np.column_stack([_central(lambda q: polaron._objective(q, params)[1], p, k)
                          for k in range(5)])
    np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fd)))
    np.testing.assert_allclose(hess, hess.T, rtol=1e-14, atol=1e-14 * np.max(np.abs(hess)))

    def grad_at(g):
        return polaron._objective(p, base.with_g(g[0] * base.gc0))[1]

    fd_mixed = _central(grad_at, [gbar], 0, h=1e-4 * gbar)
    np.testing.assert_allclose(mixed, fd_mixed, rtol=1e-6,
                               atol=1e-6 * max(np.max(np.abs(fd_mixed)), np.max(np.abs(fd))))


def test_sweep_reaches_nelder_mead_energy_in_flat_valley():
    # below the transition at w/W = 0.02 the energy is nearly flat along the
    # merged-polaron direction; a warm-started L-BFGS-B sweep stopped up to
    # 5e-11 above the derivative-free oracle on this grid
    sweep = continuation_sweep(0.02, 1.0, np.linspace(0.60, 0.76, 5))
    for k, ans in enumerate(sweep.ansatz):
        assert ans.energy <= nelder_mead_energy(sweep.params_at(k)) + 1e-12


def test_warm_points_make_no_optimizer_calls(monkeypatch):
    # the multi-start L-BFGS-B runs at the first point only; the predictor and
    # the Newton corrector carry the rest of the sweep
    calls = []
    optimize_fn = polaron.optimize
    monkeypatch.setattr(polaron, "optimize",
                        lambda *a, **k: calls.append(k) or optimize_fn(*a, **k))
    steps = []
    newton_fn = polaron._newton

    def newton(point, params):
        result = newton_fn(point, params)
        steps.append(result[1])
        return result

    monkeypatch.setattr(polaron, "_newton", newton)
    sweep = continuation_sweep(0.1, 1.0, np.linspace(0.8, 1.8, 51))
    assert calls == [{}]
    assert sweep.discontinuities == ()
    assert len(steps) == 51
    assert np.mean(steps[1:]) <= 4.0 and max(steps) <= 12


def test_corrector_falls_back_to_lbfgsb_when_it_cannot_descend(monkeypatch):
    # a corrector that stops at once without descending hands the point to
    # single-start L-BFGS-B from the previous point's ansatz
    monkeypatch.setattr(polaron, "_newton", lambda point, params: (point, 0, True))
    calls = []
    optimize_fn = polaron.optimize
    monkeypatch.setattr(polaron, "optimize",
                        lambda *a, **k: calls.append(k) or optimize_fn(*a, **k))
    sweep = continuation_sweep(0.1, 1.0, [1.2, 1.25])
    assert calls[1:] == [{"warm_start": sweep.ansatz[0], "multi_start": False}]
    assert sweep.ansatz[1].energy <= optimize_fn(sweep.params_at(1)).energy + 1e-12


def test_qfi_pass_of_a_sweep_makes_no_hessian_evaluation(monkeypatch):
    # the flows and both QFI assemblies use the Hessians that the Newton
    # corrector left in the sweep
    sweep = continuation_sweep(0.1, 1.0, np.linspace(1.0, 1.5, 11))
    calls = []
    objective = polaron._objective
    monkeypatch.setattr(polaron, "_objective",
                        lambda *a, **k: calls.append(k) or objective(*a, **k))
    assert np.all(qfi.qfi_pp_full(sweep) > 0)
    assert np.all(qfi.qfi_pp_simplified(sweep) > 0)
    assert not [k for k in calls if k.get("hessian")]


def test_sweep_state_is_the_hessian_at_each_point():
    # the stored p, H and d_gbar grad E are the closed forms at the stored
    # ansatz, whether the corrector left them or a sweep of bare ansaetze
    # evaluated them
    sweep = continuation_sweep(0.02, 1.0, np.linspace(0.6, 1.4, 9))
    bare = PolaronSweep(sweep.omega, sweep.Omega, sweep.gbar, sweep.ansatz)
    for k in range(9):
        np.testing.assert_allclose(sweep.p[k], bare.p[k], rtol=1e-13, atol=1e-13)
        _, _, hess, mixed = polaron._objective(sweep.p[k], sweep.params_at(k), hessian=True)
        np.testing.assert_array_equal(sweep.hess[k], hess)
        np.testing.assert_array_equal(sweep.mixed[k], mixed)
        np.testing.assert_allclose(bare.hess[k], hess, rtol=1e-8, atol=1e-8 * np.abs(hess).max())


def test_manifold_curvature_matches_central_differences():
    psi, s, eps = 0.47, 0.31, 1e-4
    a_pp, b_pp, a_ps, b_ps, a_ss, b_ss = polaron._manifold_curvature(psi, s)

    def first(q, t):
        return np.array(polaron._manifold(q, t)[2:])    # (a_psi, b_psi, a_s, b_s)

    d_psi = (first(psi + eps, s) - first(psi - eps, s)) / (2 * eps)
    d_s = (first(psi, s + eps) - first(psi, s - eps)) / (2 * eps)
    np.testing.assert_allclose([a_pp, b_pp, a_ps, b_ps], d_psi, atol=1e-7)
    np.testing.assert_allclose([a_ps, b_ps, a_ss, b_ss], d_s, atol=1e-7)
