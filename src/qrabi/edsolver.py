"""Converged ground states of the truncated Hamiltonian and their coupling
derivative.

The ground state lives in the parity sector P = sigma_x (-1)^n = -1, where the
Hamiltonian reduces to a real symmetric tridiagonal matrix T over photon number
(the spin-x orientation is fixed to (-1)^(n+1) by the parity constraint).
Solves use that reduction at every cutoff; the dense full-space solver in
``model`` remains available as a cross-check oracle.

The cutoff search starts from the photon number of the displaced oscillator
and grows geometrically until the energy and the basis tail have converged.
Because dH/dg = sigma_z (a + a^dag) conserves parity, the derivative of the
ground state with respect to g stays in the sector and follows from one
banded linear solve at the converged cutoff (first-order perturbation theory
without the spectrum); ``ground_state_response`` returns both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from . import kernels
from .errors import NonconvergenceError, ParameterDomainError, QrabiError
from .model import ModelParams

HARD_CUTOFF_LIMIT = 16384
TAIL_FRACTION = 0.9
TAIL_WEIGHT_TOL = 1e-12
CUTOFF_GROWTH = 1.5
START_WIDTHS = 12.0
START_MARGIN = 32
RESPONSE_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class ConvergenceReport:
    final_cutoff: int
    energy_delta: float
    qfi_delta: float | None = None
    tol: float = 1e-10


@dataclass(frozen=True)
class QuantumState:
    """Ground (or sector-lowest) state with individually normalized spin components.

    ``coeffs_plus[n]`` and ``coeffs_minus[n]`` are the Fock coefficients of the
    two spin-z components, each normalized to 1; the physical state carries a
    global 1/sqrt(2). For parity -1, coeffs_minus[n] = -(-1)^n coeffs_plus[n].
    """

    params: ModelParams
    cutoff: int
    energy: float
    coeffs_plus: np.ndarray
    coeffs_minus: np.ndarray
    parity: int = -1

    def full_vector(self) -> np.ndarray:
        """Spin-major full-space vector with total norm 1."""
        return np.concatenate([self.coeffs_plus, self.coeffs_minus]) / math.sqrt(2.0)


def sector_tridiagonal(params: ModelParams, cutoff: int, parity: int = -1):
    """(diagonal, off-diagonal) of the parity-sector Hamiltonian.

    In the sector, the spin-x eigenvalue at photon number n is parity*(-1)^n,
    the sigma_z coupling hops n -> n+1 within the sector.
    """
    if cutoff < 1:
        raise ParameterDomainError(f"cutoff must be >= 1, got {cutoff}")
    if parity not in (1, -1):
        raise ParameterDomainError(f"parity must be +1 or -1, got {parity}")
    n = np.arange(cutoff + 1)
    diag = params.omega * n + 0.5 * params.Omega * parity * (-1.0) ** n
    off = params.g * np.sqrt(n[1:])
    return diag, off


def sector_eigenpairs(params: ModelParams, cutoff: int, parity: int = -1, n_states: int = 1):
    """Lowest eigenpairs in one parity sector; vectors are columns."""
    diag, off = sector_tridiagonal(params, cutoff, parity)
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_states - 1))
    return vals, vecs


def _gauge_fix(vec: np.ndarray) -> np.ndarray:
    if vec[np.argmax(np.abs(vec))] < 0:
        return -vec
    return vec


def state_from_sector_vector(params: ModelParams, cutoff: int, energy: float,
                             vec: np.ndarray, parity: int = -1) -> QuantumState:
    """Lift a sector eigenvector (norm 1 over n) to spin components.

    |s_x> = (|+z> + s_x |-z>)/sqrt(2) with s_x = parity*(-1)^n, so the spin
    components share the sector amplitudes up to the alternating sign.
    """
    vec = _gauge_fix(np.asarray(vec, dtype=float))
    signs = parity * (-1.0) ** np.arange(cutoff + 1)
    return QuantumState(
        params=params,
        cutoff=cutoff,
        energy=float(energy),
        coeffs_plus=vec.copy(),
        coeffs_minus=signs * vec,
        parity=parity,
    )


def initial_cutoff(params: ModelParams) -> int:
    """Start cutoff nbar + 12 sqrt(nbar) + 32 with nbar = (g/omega)^2.

    nbar is the photon number of the oscillator displaced by g/omega, the
    superradiant limit of the ground state, whose Poisson photon distribution
    has width sqrt(nbar); below the transition nbar overestimates the photon
    number. Twelve widths put the truncation error far below the default
    energy tolerance, so the first growth step normally confirms convergence.
    """
    nbar = (params.g / params.omega) ** 2
    return math.ceil(nbar + START_WIDTHS * math.sqrt(nbar)) + START_MARGIN


def _tail_weight(vec: np.ndarray) -> float:
    start = int(TAIL_FRACTION * (vec.size - 1))
    return float(np.sum(vec[start:] ** 2))


def ground_state(params: ModelParams, tol: float = 1e-10,
                 max_cutoff: int = HARD_CUTOFF_LIMIT, parity: int = -1):
    """Adaptively converged lowest state of one parity sector.

    Grows the cutoff by 1.5x from ``initial_cutoff`` until the relative energy
    change from the previous cutoff is at most ``tol`` and the tail weight
    beyond 0.9*N is below 1e-12.
    """
    if tol <= 0:
        raise ParameterDomainError(f"tol must be > 0, got {tol}")
    cutoff = min(initial_cutoff(params), max_cutoff)
    vals, vecs = sector_eigenpairs(params, cutoff, parity)
    energy, vec = float(vals[0]), vecs[:, 0]
    delta = math.inf
    while cutoff < max_cutoff:
        new_cutoff = min(math.ceil(CUTOFF_GROWTH * cutoff), max_cutoff)
        vals, vecs = sector_eigenpairs(params, new_cutoff, parity)
        new_energy, new_vec = float(vals[0]), vecs[:, 0]
        delta = abs(new_energy - energy)
        converged = (
            delta <= tol * max(abs(new_energy), 1e-30)
            and _tail_weight(new_vec) < TAIL_WEIGHT_TOL
        )
        energy, vec, cutoff = new_energy, new_vec, new_cutoff
        if converged:
            report = ConvergenceReport(final_cutoff=cutoff, energy_delta=delta, tol=tol)
            return state_from_sector_vector(params, cutoff, energy, vec, parity), report
    report = ConvergenceReport(final_cutoff=cutoff, energy_delta=delta, tol=tol)
    raise NonconvergenceError(
        f"cutoff limit {max_cutoff} reached without convergence "
        f"(energy delta {delta:.3e}); the polaron ansatz is the documented fallback",
        payload=report,
    )


def ground_state_fixed(params: ModelParams, cutoff: int, parity: int = -1) -> QuantumState:
    """Lowest sector state at a fixed cutoff (no convergence check)."""
    vals, vecs = sector_eigenpairs(params, cutoff, parity)
    return state_from_sector_vector(params, cutoff, float(vals[0]), vecs[:, 0], parity)


@dataclass(frozen=True)
class GroundStateResponse:
    """Converged sector ground state and its derivative with respect to g.

    ``dvec`` is d(sector vector)/dg for the gauge-fixed ``state.coeffs_plus``,
    orthogonal to it; ``residual`` is the relative residual of the linear
    solve that produced it. The lift to the full space is an isometry, so
    sector inner products are full-space inner products.
    """

    state: QuantumState
    dvec: np.ndarray
    residual: float

    @property
    def fisher_information(self) -> float:
        """F_Q with respect to g, 4 <d psi|d psi> (the <d psi|psi> term is zero)."""
        return 4.0 * float(self.dvec @ self.dvec)

    @property
    def first_derivative_term(self) -> float:
        """<d psi|psi>, zero up to roundoff by construction."""
        return float(self.state.coeffs_plus @ self.dvec)

    @property
    def dx_plus_dg(self) -> float:
        """d<x>_+/dg = sqrt(2) (V psi).dvec, from <x>_+ = psi.V.psi/sqrt(2)."""
        return math.sqrt(2.0) * float(_coupling_apply(self.state.coeffs_plus) @ self.dvec)


def _tridiagonal_apply(diag, off: np.ndarray, vec: np.ndarray) -> np.ndarray:
    out = diag * vec
    out[:-1] += off * vec[1:]
    out[1:] += off * vec[:-1]
    return out


def _coupling_apply(vec: np.ndarray) -> np.ndarray:
    """V vec with V = dT/dg, the sector off-diagonal sqrt(n)."""
    return _tridiagonal_apply(0.0, np.sqrt(np.arange(1, vec.size)), vec)


def ground_state_response(params: ModelParams, tol: float = 1e-10) -> GroundStateResponse:
    """Converged ground state psi (parity -1 sector) and its coupling derivative x.

    x solves (T - E0) x = -(V psi - <V> psi) with x orthogonal to psi. T - E0
    is singular along psi (exactly so at g = 0). Pinning x to zero at the
    largest component m of psi, with row and column m replaced by those of
    the identity, leaves a positive-definite tridiagonal matrix; it is solved
    with one refinement step, then psi is projected out of x. Raises
    QrabiError when the relative residual of the unpinned system exceeds 1e-8.
    """
    state, _ = ground_state(params, tol=tol)
    psi = state.coeffs_plus
    diag, off = sector_tridiagonal(params, state.cutoff)
    diag = diag - state.energy
    vpsi = _coupling_apply(psi)
    rhs = -(vpsi - float(psi @ vpsi) * psi)

    m = int(np.argmax(np.abs(psi)))
    pinned_diag = diag.copy()
    pinned_diag[m] = 1.0
    pinned_off = off.copy()
    pinned_off[max(m - 1, 0):m + 1] = 0.0
    pinned_rhs = rhs.copy()
    pinned_rhs[m] = 0.0
    bands = np.array([np.r_[0.0, pinned_off], pinned_diag, np.r_[pinned_off, 0.0]])
    x = solve_banded((1, 1), bands, pinned_rhs)
    x += solve_banded((1, 1), bands,
                      pinned_rhs - _tridiagonal_apply(pinned_diag, pinned_off, x))
    x -= float(psi @ x) * psi

    residual = float(np.linalg.norm(_tridiagonal_apply(diag, off, x) - rhs)
                     / np.linalg.norm(rhs))
    if not residual <= RESPONSE_RESIDUAL_TOL:
        raise QrabiError(
            f"linear-response residual {residual:.2e} exceeds {RESPONSE_RESIDUAL_TOL:.0e} "
            f"at cutoff {state.cutoff}"
        )
    return GroundStateResponse(state=state, dvec=x, residual=residual)


def sector_gap(params: ModelParams, cutoff: int) -> float:
    """E1 - E0 across both parity sectors at a fixed cutoff."""
    e_minus = sector_eigenpairs(params, cutoff, parity=-1, n_states=2)[0]
    e_plus = sector_eigenpairs(params, cutoff, parity=+1, n_states=1)[0]
    energies = np.sort(np.concatenate([e_minus, e_plus]))
    return float(energies[1] - energies[0])


def position_wavefunction(state: QuantumState, grid) -> tuple[np.ndarray, np.ndarray]:
    """Spin-component wavefunctions psi_sigma(x) = sum_n c_{sigma,n} h_n(x).

    Uses the normalized oscillator recurrence (unit frequency in the
    dimensionless position of the spin-dependent potential). Far outside the
    classically allowed region h_n underflows and the result is 0.
    """
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ParameterDomainError("grid must be finite")
    table = kernels.oscillator_table(state.cutoff, grid)
    psi_plus = state.coeffs_plus @ table
    psi_minus = state.coeffs_minus @ table
    return psi_plus, psi_minus


def expectation_x(state: QuantumState) -> tuple[float, float]:
    """Per-spin displacement <x>_sigma = sqrt(2) <psi_sigma| a |psi_sigma>."""
    n = np.arange(1, state.cutoff + 1)
    roots = np.sqrt(n)

    def _one(c):
        return math.sqrt(2.0) * float(np.sum(c[:-1] * roots * c[1:]))

    return _one(state.coeffs_plus), _one(state.coeffs_minus)


def photon_number(state: QuantumState) -> float:
    """Mean photon number averaged over the two (normalized) spin components."""
    n = np.arange(state.cutoff + 1)
    return float(0.5 * np.sum(n * (state.coeffs_plus ** 2 + state.coeffs_minus ** 2)))
