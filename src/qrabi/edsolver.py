"""Converged ground states of the truncated Hamiltonian and their coupling
derivative.

The ground state lives in the parity sector P = sigma_x (-1)^n = -1, where the
Hamiltonian reduces to a real symmetric tridiagonal matrix T over photon number
(the spin-x orientation is fixed to (-1)^(n+1) by the parity constraint).
Solves use that reduction at every cutoff, and only this sector is solved;
the dense full-space Hamiltonian and the parity +1 sector are cross-check
oracles in ``tests/conftest.py``.

The cutoff search solves once at a start cutoff sized to the photon number
of the displaced oscillator, and certifies it against its truncation three
photon-number widths lower: interlacing bounds that truncation's energy from
both sides, so it is never solved, and the removed rows must carry a weight
below 1e-12. Only a start that fails the certificate grows geometrically.
The one eigensolve bisects only as far as inverse iteration needs, far below
the sector gap, and takes the energy as the Rayleigh quotient of the vector.
Because dH/dg = sigma_z (a + a^dag) conserves parity, the derivative of the
ground state with respect to g stays in the sector and follows from one
banded linear solve at the converged cutoff (first-order perturbation theory
without the spectrum); ``ground_state_response`` returns both. dF_Q/dg,
asked for only by the QFI-peak search, factors the same pinned matrix again
and costs one more solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz, dstein

from . import kernels
from .errors import NonconvergenceError, ParameterDomainError, QrabiError
from .model import ModelParams

HARD_CUTOFF_LIMIT = 16384
TAIL_WEIGHT_TOL = 1e-12
CUTOFF_GROWTH = 1.5
START_WIDTHS = 12.0
START_MARGIN = 32
TRUNCATION_WIDTHS = 9.0
TRUNCATION_MARGIN = 16
# bisection tolerance of the sector eigensolve, in units of omega; the gap
# to the next sector level is >= 0.118 omega for omega/Omega >= 1e-4
EIGENVALUE_ABSTOL = 1e-6
RESPONSE_RESIDUAL_TOL = 1e-8
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ConvergenceReport:
    """Certificate of ``ground_state``'s cutoff search.

    ``final_cutoff`` is certified against its truncation to
    ``truncation_cutoff`` (``truncation_cutoff(params)`` when the start
    cutoff converged, the previous cutoff after growth steps): the energy
    change ``energy_delta`` (an interlacing bound, or the difference of
    solved energies) is at most ``tol`` relative, and the rows beyond the
    truncation carry a weight below 1e-12. ``eigensolves`` counts the sector
    eigensolves of the search.
    """

    final_cutoff: int
    energy_delta: float
    truncation_cutoff: int
    eigensolves: int
    tol: float = 1e-10


@dataclass(frozen=True)
class QuantumState:
    """Ground state with individually normalized spin components.

    ``coeffs_plus[n]`` and ``coeffs_minus[n]`` are the Fock coefficients of the
    two spin-z components, each normalized to 1; the physical state carries a
    global 1/sqrt(2). In the parity -1 sector, coeffs_minus[n] =
    -(-1)^n coeffs_plus[n].
    """

    params: ModelParams
    cutoff: int
    energy: float
    coeffs_plus: np.ndarray
    coeffs_minus: np.ndarray

    def full_vector(self) -> np.ndarray:
        """Spin-major full-space vector with total norm 1."""
        return np.concatenate([self.coeffs_plus, self.coeffs_minus]) / math.sqrt(2.0)


def sector_tridiagonal(params: ModelParams, cutoff: int):
    """(diagonal, off-diagonal) of the parity -1 sector Hamiltonian.

    In the sector, the spin-x eigenvalue at photon number n is -(-1)^n, and
    the sigma_z coupling hops n -> n+1 within the sector. The arrays are
    read-only: the last pair built is reused by the next caller at the same
    (params, cutoff), so one point builds its matrix once.
    """
    if cutoff < 1:
        raise ParameterDomainError(f"cutoff must be >= 1, got {cutoff}")
    return _tridiagonal(params, cutoff)


@functools.lru_cache(maxsize=1)
def _tridiagonal(params: ModelParams, cutoff: int):
    n = np.arange(cutoff + 1)
    diag = params.omega * n - 0.5 * params.Omega * (-1.0) ** n
    off = params.g * np.sqrt(n[1:])
    diag.setflags(write=False)
    off.setflags(write=False)
    return diag, off


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise QrabiError(f"LAPACK {routine} failed with info = {info}")


def sector_eigenpairs(params: ModelParams, cutoff: int):
    """Lowest eigenpair of the parity -1 sector as (values, vectors): one
    value, and its vector as the one column.

    Bisection (dstebz) brackets the eigenvalue only to ``EIGENVALUE_ABSTOL``
    omega, five orders of magnitude below the gap to the next sector level;
    inverse iteration (dstein) from that estimate converges the vector, each
    iteration shrinking its error by the ratio of the two. The value returned
    is the vector's Rayleigh quotient, whose error is quadratic in the
    vector's. These are the LAPACK routines behind scipy's
    ``eigh_tridiagonal`` with an index range, called without its input
    validation. A nonzero LAPACK ``info`` raises QrabiError.
    """
    diag, off = sector_tridiagonal(params, cutoff)
    m, vals, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 0.0, 1, 1,
                                           EIGENVALUE_ABSTOL * params.omega, "B")
    _check_info(info, "dstebz")
    vecs, info = dstein(diag, off, vals[:m], iblock, isplit)
    _check_info(info, "dstein")
    vec = vecs[:, 0]
    rayleigh = float(vec @ _tridiagonal_apply(diag, off, vec)) / float(vec @ vec)
    return np.array([rayleigh]), vecs


def _gauge_fix(vec: np.ndarray) -> np.ndarray:
    if vec[np.argmax(np.abs(vec))] < 0:
        return -vec
    return vec


def state_from_sector_vector(params: ModelParams, cutoff: int, energy: float,
                             vec: np.ndarray) -> QuantumState:
    """Lift a sector eigenvector (norm 1 over n) to spin components.

    |s_x> = (|+z> + s_x |-z>)/sqrt(2) with s_x = -(-1)^n, so the spin
    components share the sector amplitudes up to the alternating sign.
    """
    vec = _gauge_fix(np.asarray(vec, dtype=float))
    signs = -(-1.0) ** np.arange(cutoff + 1)
    return QuantumState(
        params=params,
        cutoff=cutoff,
        energy=float(energy),
        coeffs_plus=vec.copy(),
        coeffs_minus=signs * vec,
    )


def _photon_cutoff(params: ModelParams, widths: float, margin: int) -> int:
    nbar = (params.g / params.omega) ** 2
    return math.ceil(nbar + widths * math.sqrt(nbar)) + margin


def initial_cutoff(params: ModelParams) -> int:
    """Start cutoff, the one solved: nbar + 12 sqrt(nbar) + 32 with nbar = (g/omega)^2.

    nbar is the photon number of the oscillator displaced by g/omega, the
    superradiant limit of the ground state, whose Poisson photon distribution
    has width sqrt(nbar); below the transition nbar overestimates the photon
    number. Even its truncation three widths lower (``truncation_cutoff``)
    meets the default energy tolerance with orders of magnitude to spare, so
    the start cutoff is normally certified by that truncation and not grown.
    """
    return _photon_cutoff(params, START_WIDTHS, START_MARGIN)


def truncation_cutoff(params: ModelParams) -> int:
    """nbar + 9 sqrt(nbar) + 16, the truncation that certifies ``initial_cutoff``."""
    return _photon_cutoff(params, TRUNCATION_WIDTHS, TRUNCATION_MARGIN)


def interlacing_bound(params: ModelParams, cutoff: int, energy: float, vec: np.ndarray) -> float:
    """Upper bound on E(cutoff) - E(N) from the ground pair (energy, vec) at N > cutoff.

    The cutoff-N0 sector matrix is the leading principal submatrix of the
    cutoff-N one, so by Cauchy interlacing E(N) <= E(N0), and E(N0) is at
    most the Rayleigh quotient RQ of any vector on n <= N0. With vec cut to
    n <= N0, RQ - E(N) >= E(N0) - E(N) >= 0. RQ - E(N) carries the rounding
    of E, so the bound is floored at eps |E|: a certificate at rounding reads
    eps |E|, never 0, and a ``tol`` below eps cannot be certified by it.
    """
    diag, off = sector_tridiagonal(params, vec.size - 1)
    head = vec[:cutoff + 1]
    rayleigh = float(head @ _tridiagonal_apply(diag[:cutoff + 1], off[:cutoff], head))
    return max(rayleigh / float(head @ head) - energy, _EPS * abs(energy))


def ground_state(params: ModelParams, tol: float = 1e-10,
                 max_cutoff: int = HARD_CUTOFF_LIMIT):
    """Adaptively converged ground state, the lowest state of the parity -1 sector.

    Solves at ``initial_cutoff`` N and certifies it against its truncation
    to ``truncation_cutoff`` N_s: the energy change E(N_s) - E(N), bounded by
    ``interlacing_bound`` without solving N_s, must be at most ``tol``
    relative, and the weight of the removed rows n > N_s below 1e-12. If
    either test fails, the cutoff grows by 1.5x, and each later step compares
    with the energy solved at the previous cutoff and takes the tail beyond
    it. The report carries the bound or difference, the truncation and the
    number of eigensolves.
    """
    if tol <= 0:
        raise ParameterDomainError(f"tol must be > 0, got {tol}")
    cutoff = min(initial_cutoff(params), max_cutoff)
    truncation = truncation_cutoff(params)
    energy = None
    delta = math.inf
    eigensolves = 0
    # a start capped at or below its own truncation has nothing to certify
    # against and no room to grow; every grown cutoff exceeds the previous one
    while truncation < cutoff or cutoff < max_cutoff:
        vals, vecs = sector_eigenpairs(params, cutoff)
        eigensolves += 1
        new_energy, new_vec = float(vals[0]), vecs[:, 0]
        if energy is not None:
            delta = abs(new_energy - energy)
        elif truncation < cutoff:
            delta = interlacing_bound(params, truncation, new_energy, new_vec)
        tail = float(np.sum(new_vec[truncation + 1:] ** 2))
        if delta <= tol * max(abs(new_energy), 1e-30) and tail < TAIL_WEIGHT_TOL:
            report = ConvergenceReport(final_cutoff=cutoff, energy_delta=delta,
                                       truncation_cutoff=truncation,
                                       eigensolves=eigensolves, tol=tol)
            return state_from_sector_vector(params, cutoff, new_energy, new_vec), report
        if cutoff >= max_cutoff:
            break
        energy, truncation = new_energy, cutoff
        cutoff = min(math.ceil(CUTOFF_GROWTH * cutoff), max_cutoff)
    report = ConvergenceReport(final_cutoff=cutoff, energy_delta=delta,
                               truncation_cutoff=truncation, eigensolves=eigensolves, tol=tol)
    raise NonconvergenceError(
        f"cutoff limit {max_cutoff} reached without convergence "
        f"(energy delta {delta:.3e}); the polaron ansatz is the documented fallback",
        payload=report,
    )


@dataclass(frozen=True)
class _PinnedSystem:
    """LU factors of T - E0 with row and column ``pin`` replaced by the identity.

    T - E0 is singular along psi; with the pin at a nonzero component of psi
    the pinned matrix is nonsingular, and for a right-hand side b orthogonal
    to psi its solution solves (T - E0) y = b exactly, because the pinned row
    is the one equation the others imply.
    """

    diag: np.ndarray
    off: np.ndarray
    pin: int
    factors: tuple

    def _solve_once(self, rhs: np.ndarray) -> np.ndarray:
        y, info = dgttrs(*self.factors, rhs)
        _check_info(info, "dgttrs")
        return y

    def solve(self, rhs: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """y orthogonal to psi with (T - E0) y = rhs, for rhs orthogonal to psi:
        the pinned solve, one refinement step, then psi projected out."""
        pinned_rhs = rhs.copy()
        pinned_rhs[self.pin] = 0.0
        y = self._solve_once(pinned_rhs)
        y += self._solve_once(pinned_rhs - _tridiagonal_apply(self.diag, self.off, y))
        y -= float(psi @ y) * psi
        return y


def _pinned_system(state: QuantumState) -> _PinnedSystem:
    """T - E0 of the state's sector, pinned at the largest component of psi and factored."""
    diag, off = sector_tridiagonal(state.params, state.cutoff)
    m = int(np.argmax(np.abs(state.coeffs_plus)))
    pinned_diag = diag - state.energy
    pinned_diag[m] = 1.0
    pinned_off = off.copy()
    pinned_off[max(m - 1, 0):m + 1] = 0.0
    *factors, info = dgttrf(pinned_off, pinned_diag, pinned_off)
    _check_info(info, "dgttrf")
    return _PinnedSystem(diag=pinned_diag, off=pinned_off, pin=m, factors=tuple(factors))


@dataclass(frozen=True)
class GroundStateResponse:
    """Converged sector ground state and its derivative with respect to g.

    ``dvec`` is d(sector vector)/dg for the gauge-fixed ``state.coeffs_plus``,
    orthogonal to it; ``residual`` is the relative residual of the linear
    solve that produced it. The lift to the full space is an isometry, so
    sector inner products are full-space inner products. ``report`` is the
    convergence certificate of the cutoff search behind ``state``.
    """

    state: QuantumState
    dvec: np.ndarray
    residual: float
    report: ConvergenceReport

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

    def dfisher_dg(self) -> float:
        """dF_Q/dg = -16 y.(V x - <V> x), with x = dvec and (T - E0) y = x on psi-perp.

        Differentiating (T - E0) x = -(V - <V>) psi once more gives
        (T - E0) dx/dg = -2 (V - <V>) x along psi-perp, and dF_Q/dg = 8 x.dx/dg.
        y comes from the pinned system behind ``dvec``, factored again here
        (O(N), against the cutoff search's eigensolves) so that responses
        carry no factors.
        """
        psi, x = self.state.coeffs_plus, self.dvec
        y = _pinned_system(self.state).solve(x, psi)
        v_mean = float(psi @ _coupling_apply(psi))
        return -16.0 * float(y @ (_coupling_apply(x) - v_mean * x))


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
    the identity, leaves a positive-definite tridiagonal matrix; it is
    factored once (dgttrf) and the factors serve the solve and one refinement
    step (dgttrs), then psi is projected out of x. Raises QrabiError when the
    relative residual of the unpinned system exceeds 1e-8.
    """
    state, report = ground_state(params, tol=tol)
    psi = state.coeffs_plus
    diag, off = sector_tridiagonal(params, state.cutoff)
    diag = diag - state.energy
    vpsi = _coupling_apply(psi)
    rhs = -(vpsi - float(psi @ vpsi) * psi)
    x = _pinned_system(state).solve(rhs, psi)

    residual = float(np.linalg.norm(_tridiagonal_apply(diag, off, x) - rhs)
                     / np.linalg.norm(rhs))
    if not residual <= RESPONSE_RESIDUAL_TOL:
        raise QrabiError(
            f"linear-response residual {residual:.2e} exceeds {RESPONSE_RESIDUAL_TOL:.0e} "
            f"at cutoff {state.cutoff}"
        )
    return GroundStateResponse(state=state, dvec=x, residual=residual, report=report)


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
