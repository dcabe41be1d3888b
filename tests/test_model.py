import math

import numpy as np
import pytest

from conftest import build_hamiltonian, parity_operator
from qrabi.errors import ParameterDomainError
from qrabi.model import ModelParams


def test_derived_couplings():
    p = ModelParams(0.1, 1.0, 0.2)
    assert p.gc0 == pytest.approx(0.5 * math.sqrt(0.1))
    assert p.g_bar == pytest.approx(0.2 / p.gc0)
    assert p.g_tilde == pytest.approx(math.sqrt(2.0) * 0.2 / 0.1)


def test_with_g_replaces_only_coupling():
    p = ModelParams(0.1, 1.0, 0.2).with_g(0.3)
    assert p.g == 0.3
    assert (p.omega, p.Omega) == (0.1, 1.0)


@pytest.mark.parametrize("kwargs", [
    dict(omega=0.0, Omega=1.0, g=0.1),
    dict(omega=-1.0, Omega=1.0, g=0.1),
    dict(omega=1.0, Omega=-1.0, g=0.1),
    dict(omega=1.0, Omega=1.0, g=-0.1),
    dict(omega=math.nan, Omega=1.0, g=0.1),
    dict(omega=1.0, Omega=1.0, g=math.inf),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterDomainError):
        ModelParams(**kwargs)


def test_zero_qubit_splitting_allowed_but_gbar_undefined():
    p = ModelParams(1.0, 0.0, 0.5)
    with pytest.raises(ParameterDomainError):
        _ = p.g_bar


def test_hamiltonian_is_symmetric_and_parity_commutes():
    params = ModelParams(0.1, 1.0, 0.2)
    ham = build_hamiltonian(params, 40)
    h = ham.matrix
    assert ham.dimension == 2 * 41
    scale = np.max(np.abs(h))
    assert np.max(np.abs(h - h.T)) < 1e-14 * scale
    p = parity_operator(40)
    assert np.max(np.abs(h @ p - p @ h)) < 1e-12 * scale
    assert np.array_equal(p @ p, np.eye(82))


def test_decoupled_spectrum():
    # g = 0: eigenvalues are omega*n +/- Omega/2 exactly
    params = ModelParams(0.5, 1.0, 0.0)
    h = build_hamiltonian(params, 10).matrix
    vals = np.sort(np.linalg.eigvalsh(h))
    expected = np.sort(np.concatenate(
        [0.5 * np.arange(11) + 0.5, 0.5 * np.arange(11) - 0.5]
    ))
    assert np.allclose(vals, expected, atol=1e-12)
