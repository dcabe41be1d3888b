import math

import numpy as np
import pytest

from conftest import gc1_taylor_coefficients, gcxi_fractional_coefficients
from qrabi import critical
from qrabi.errors import ParameterDomainError, QrabiError


def test_gc0_values():
    assert critical.gc0(0.1, 1.0).value == pytest.approx(0.15811388, abs=1e-7)
    assert critical.gc0(1.0, 1.0).value == 0.5
    assert critical.gc0(0.1, 1.0).ratio == 1.0


def test_scale_covariance():
    for fn in (critical.gc0, critical.gc1, critical.gc_xi):
        a = fn(0.1, 1.0).value
        b = fn(0.3, 3.0).value
        assert b == pytest.approx(3.0 * a, rel=1e-13)


def test_gc1_closed_form():
    est = critical.gc1(0.1, 1.0)
    assert est.value == pytest.approx(math.sqrt(0.01 + math.sqrt(1e-4 + 6.25e-4)), rel=1e-14)
    # defining relation: gc1^4 - 2 omega^2 gc1^2 = gc0^4
    g0 = critical.gc0(0.1, 1.0).value
    assert est.value ** 4 - 2 * 0.01 * est.value ** 2 == pytest.approx(g0 ** 4, rel=1e-12)


def test_gc1_small_frequency_limit():
    assert critical.gc1(1e-8, 1.0).ratio == pytest.approx(1.0, abs=1e-6)


def test_gc1_taylor_coefficients():
    coeffs = gc1_taylor_coefficients(4)
    assert np.allclose(coeffs, [2.0, 2.0, -4.0, -10.0], atol=1e-6)


def test_gcxi_residual_over_frequency_range():
    worst = max(
        critical.gc_xi_residual(r, 1.0) for r in np.geomspace(1e-3, 3.0, 200)
    )
    assert worst < 1e-10


def test_gcxi_small_frequency_limit():
    assert critical.gc_xi(1e-8, 1.0).ratio == pytest.approx(1.0, abs=1e-4)


def test_gcxi_fractional_coefficients():
    got = gcxi_fractional_coefficients(2)
    want = critical.gcxi_predicted_coefficients()
    assert got[0] == pytest.approx(want[0], abs=1e-4)
    assert got[1] == pytest.approx(want[1], abs=1e-4)


def test_gcxi_between_gc1_and_gc2_at_low_frequency():
    for r in (0.01, 0.05, 0.1):
        g1 = critical.gc1(r, 1.0).ratio
        gx = critical.gc_xi(r, 1.0).ratio
        g2 = critical.gc2(r, 1.0).ratio
        assert g1 < gx < g2 * 1.01


def test_gc2_variants():
    est = critical.gc2(0.1, 1.0, "alphaFS")
    r23 = 0.1 ** (2.0 / 3.0)
    assert est.ratio == pytest.approx(1.0 + 1.37 * r23 - 0.125 * r23 ** 2, rel=1e-14)
    assert est.ratio == pytest.approx(1.289355, abs=1e-5)
    four = critical.gc2(0.1, 1.0, "fourThirds")
    assert abs(four.ratio - est.ratio) < 1.5e-2
    fitted = critical.gc2(0.1, 1.0, "fitted")
    assert fitted.ratio == pytest.approx(est.ratio, abs=0.02)


def test_gc2_zero_frequency_ratio_one():
    for variant in critical.GC2_COEFFS:
        assert critical.gc2(1e-300, 1.0, variant).ratio == pytest.approx(1.0, abs=1e-12)


def test_unknown_variant_rejected():
    with pytest.raises(ParameterDomainError):
        critical.gc2(0.1, 1.0, "bogus")


def test_nonpositive_frequencies_rejected():
    with pytest.raises(ParameterDomainError):
        critical.gc0(0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        critical.gc_xi(0.1, 1.0, d_c1=0.0)


# --- fitting -----------------------------------------------------------------


def _synthetic_fitted_data():
    c = critical.GC2_COEFFS["fitted"]
    r = np.array(critical.DEFAULT_FIT_GRID)
    y = sum(cn * r ** (2.0 * (n + 1) / 3.0) for n, cn in enumerate(c))
    return np.column_stack([r, y])


def test_fractional_fit_exact_recovery():
    res = critical.fit_fractional(_synthetic_fitted_data(), 3)
    assert np.allclose(res.coefficients, critical.GC2_COEFFS["fitted"], atol=1e-8)
    assert res.residual < 1e-16


def test_fourier_fit_recovers_integer_series():
    r = np.array(critical.DEFAULT_FIT_GRID)
    y = 2.0 * r + 2.0 * r ** 2
    res = critical.fit_fourier(np.column_stack([r, y]), 2)
    assert np.allclose(res.coefficients, [2.0, 2.0], atol=1e-6)


def test_constant_data_gives_zero_coefficients():
    r = np.array(critical.DEFAULT_FIT_GRID)
    res = critical.fit_fourier(np.column_stack([r, np.zeros_like(r)]), 2)
    assert np.allclose(res.coefficients, 0.0, atol=1e-14)


def test_residual_monotone_in_order():
    data = _synthetic_fitted_data()
    data[:, 1] += 1e-4 * np.sin(np.arange(data.shape[0]))  # non-representable part
    residuals = [critical.fit_fractional(data, n).residual for n in (1, 2, 3, 4)]
    assert all(b <= a + 1e-18 for a, b in zip(residuals, residuals[1:]))


def test_fit_requires_enough_points():
    with pytest.raises(ParameterDomainError):
        critical.fit_fractional(_synthetic_fitted_data()[:2], 2)


def test_fit_rejects_duplicate_grid():
    data = np.array([[0.1, 0.2]] * 5)
    with pytest.raises(QrabiError):
        critical.fit_fractional(data, 2)
