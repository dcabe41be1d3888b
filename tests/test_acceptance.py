"""End-to-end acceptance suite.

Each test covers one numbered claim about the package at its stated tolerance
and prints a single PASS/FAIL line (bypassing capture) so the whole checklist
is visible in any run.
"""

import math
import time

import numpy as np
import pytest

from conftest import gc1_taylor_coefficients, gcxi_fractional_coefficients, numeric_pair_oracle
from qrabi import critical, observables, polaron, qfi
from qrabi.edsolver import expectation_x, ground_state
from qrabi.model import ModelParams
from qrabi.polaron import continuation_sweep

FIT_FREQS = critical.DEFAULT_FIT_GRID


def _report(capsys, number: int, name: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[criterion {number:02d}] {tag}  {name}{suffix}")
    assert ok, f"criterion {number}: {name} {detail}"


@pytest.fixture(scope="module")
def ed_peaks():
    """QFI-peak couplings (in units of gc0) for the nine standard frequencies."""
    return {r: qfi.find_peak(r, 1.0, method="ED").gbar_cf for r in FIT_FREQS}


@pytest.fixture(scope="module")
def sweep_01():
    """Polaron continuation sweep across the transition at omega/Omega = 0.1."""
    grid = np.linspace(0.76, 1.64, 45)  # step 0.02, padding around [0.8, 1.6]
    return continuation_sweep(0.1, 1.0, grid)


def test_criterion_01_decoupled_limit_exactness(capsys):
    t0 = time.perf_counter()
    state, _ = ground_state(ModelParams(0.1, 1.0, 0.0))
    energy_ok = abs(state.energy + 0.5) < 1e-12
    sample = qfi.qfi_ed(ModelParams(0.1, 1.0, 1e-4))
    oracle = 4.0 / (0.1 + 1.0) ** 2
    qfi_ok = abs(sample.f_q_g / oracle - 1.0) < 1e-4
    elapsed = time.perf_counter() - t0
    _report(capsys, 1, "decoupled-limit exactness", energy_ok and qfi_ok and elapsed < 1.0,
            f"E0 err {abs(state.energy + 0.5):.1e}, F_Q rel err "
            f"{abs(sample.f_q_g / oracle - 1.0):.1e}, {elapsed:.2f}s")


def test_criterion_02_vanishing_first_derivative_term(capsys):
    t0 = time.perf_counter()
    worst_first = 0.0
    worst_rel = 0.0
    for omega in (0.05, 0.1, 0.5):
        base = ModelParams(omega, 1.0, 0.0)
        for gbar in np.linspace(0.5, 1.5, 50):
            s = qfi.qfi_ed(base.with_g(float(gbar) * base.gc0))
            worst_first = max(worst_first, abs(s.first_derivative_term))
            # F_Q - 4<psi'|psi'> = -4 <psi'|psi>^2 by construction
            worst_rel = max(worst_rel, 4.0 * s.first_derivative_term ** 2 / s.f_q_g)
    elapsed = time.perf_counter() - t0
    ok = worst_first < 1e-8 and worst_rel < 1e-8 and elapsed < 300.0
    _report(capsys, 2, "vanishing first-derivative term", ok,
            f"max|<psi'|psi>| {worst_first:.1e}, max rel {worst_rel:.1e}, {elapsed:.0f}s")


def test_criterion_03_peak_location_accuracy(capsys, ed_peaks):
    worst_gc2 = 0.0
    min_gc0_dev = math.inf
    for r, gbar_cf in ed_peaks.items():
        worst_gc2 = max(worst_gc2, abs(gbar_cf / critical.gc2(r, 1.0).ratio - 1.0))
        if r >= 0.05:
            min_gc0_dev = min(min_gc0_dev, abs(gbar_cf - 1.0))
    ok = worst_gc2 < 0.01 and min_gc0_dev > 0.05
    _report(capsys, 3, "QFI peak tracks gc2 and departs from gc0", ok,
            f"max |g_cF/gc2 - 1| {worst_gc2:.1e}, min |g_cF/gc0 - 1| {min_gc0_dev:.3f}")


def test_criterion_04_series_expansions(capsys):
    t0 = time.perf_counter()
    taylor = gc1_taylor_coefficients(4)
    taylor_ok = np.allclose(taylor, [2.0, 2.0, -4.0, -10.0], atol=1e-4)
    frac = gcxi_fractional_coefficients(2)
    predicted = critical.gcxi_predicted_coefficients()
    frac_ok = np.allclose(frac, predicted, atol=1e-3)
    elapsed = time.perf_counter() - t0
    _report(capsys, 4, "numeric series expansions", taylor_ok and frac_ok and elapsed < 10.0,
            f"taylor {np.round(taylor, 6).tolist()}, fractional err "
            f"{np.max(np.abs(frac - np.array(predicted))):.1e}, {elapsed:.1f}s")


def test_criterion_05_gcxi_self_consistency(capsys):
    t0 = time.perf_counter()
    worst = max(critical.gc_xi_residual(r, 1.0) for r in np.geomspace(1e-3, 3.0, 200))
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, "gc_xi defining-equation residual", worst < 1e-10 and elapsed < 1.0,
            f"max residual {worst:.1e}, {elapsed:.2f}s")


def test_criterion_06_overlap_closed_forms(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        xi_i, xi_j = rng.uniform(0.1, 5.0, 2)
        x_i, x_j = rng.uniform(-6.0, 6.0, 2)
        closed = polaron._pair_entries(xi_i, x_i, xi_j, x_j)
        oracle = numeric_pair_oracle(xi_i, x_i, xi_j, x_j)
        s_scale = abs(oracle[0])
        for got, want in zip(closed, oracle):
            err = abs(got - want) / max(abs(want), 1e-3 * s_scale)
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _report(capsys, 6, "overlap derivatives match quadrature", worst < 1e-7 and elapsed < 60.0,
            f"worst rel err {worst:.1e} over 100 draws, {elapsed:.0f}s")


def test_criterion_07_pp_fidelity_to_ed(capsys, sweep_01):
    t0 = time.perf_counter()
    sweep = sweep_01
    base = ModelParams(0.1, 1.0, 0.0)
    worst_qfi = 0.0
    worst_x = 0.0
    bound_ok = True
    f_pp = qfi.qfi_pp_full(sweep)
    for k, gbar in enumerate(sweep.gbar):
        if not (0.8 - 1e-9 <= gbar <= 1.6 + 1e-9):
            continue
        params = base.with_g(float(gbar) * base.gc0)
        state, _ = ground_state(params)
        bound_ok &= sweep.ansatz[k].energy >= state.energy - 1e-12
        pp = f_pp[k]
        ed = qfi.qfi_ed(params).f_q_gbar
        worst_qfi = max(worst_qfi, abs(pp / ed - 1.0))
        if gbar >= 1.35:
            x_pp = observables.x_expectation_pp(sweep.ansatz[k], params)
            x_ed = expectation_x(state)[0]
            worst_x = max(worst_x, abs(x_pp / x_ed - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_qfi < 0.10 and worst_x < 0.02 and bound_ok and elapsed < 600.0
    _report(capsys, 7, "polaron ansatz reproduces ED", ok,
            f"max QFI dev {worst_qfi:.1%}, max <x> dev {worst_x:.2%}, "
            f"variational bound {'held' if bound_ok else 'VIOLATED'}, {elapsed:.0f}s")


def test_criterion_08_triple_bridge(capsys, sweep_01):
    t0 = time.perf_counter()
    peak = qfi.find_peak(0.1, 1.0, method="ED").gbar_cf
    accel = qfi.acceleration_condition(sweep_01).ratio
    grid = np.linspace(1.0, 1.6, 61)
    samples = observables.susceptibility_sweep(0.1, 1.0, grid, method="ED")
    sus_peak = grid[int(np.argmax([s.d_abs_x_dg for s in samples]))]
    values = [peak, accel, sus_peak]
    worst = max(abs(a / b - 1.0) for a in values for b in values)
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, "QFI peak, a=0 and susceptibility peak coincide",
            worst < 0.03 and elapsed < 600.0,
            f"gbar {peak:.4f}/{accel:.4f}/{sus_peak:.4f}, max pairwise {worst:.1%}, "
            f"{elapsed:.0f}s")


def test_criterion_09_fit_comparison(capsys, ed_peaks):
    data = np.array([[r, gbar - 1.0] for r, gbar in ed_peaks.items()])
    frac2 = critical.fit_fractional(data, 2)
    four2 = critical.fit_fourier(data, 2)
    ratio = four2.residual / frac2.residual
    c1 = critical.fit_fractional(data, 3).coefficients[0]
    ok = ratio > 5.0 and abs(c1 / 1.3715 - 1.0) < 0.10
    _report(capsys, 9, "fractional basis beats integer basis", ok,
            f"residual ratio {ratio:.1e}, c1 {c1:.4f}")


def test_criterion_10_coincidence_map(capsys):
    t0 = time.perf_counter()
    omega_grid = np.geomspace(0.02, 0.5, 7)
    gbar_grid = np.linspace(1.0, 2.0, 51)
    cmap = observables.coincidence_map(omega_grid, gbar_grid)
    cell = gbar_grid[1] - gbar_grid[0]
    cells_ok = (cmap.failed_rows == () and np.all(
        np.abs(cmap.qfi_argmax - cmap.susceptibility_argmax) <= 2 * cell + 1e-12
    ))
    gc2_dev = np.max(np.abs(cmap.qfi_argmax / cmap.gc2_overlay - 1.0))
    elapsed = time.perf_counter() - t0
    ok = cells_ok and gc2_dev < 0.02 and elapsed < 3600.0
    _report(capsys, 10, "QFI and susceptibility ridges coincide on gc2", ok,
            f"max gc2 dev {gc2_dev:.1%}, ridge gap <= 2 cells: {cells_ok}, {elapsed:.0f}s")
