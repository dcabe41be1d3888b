"""Certified ground states of the truncated Hamiltonian and their coupling
derivative.

The ground state lives in the parity sector P = sigma_x (-1)^n = -1, where the
Hamiltonian reduces to a real symmetric tridiagonal matrix T over photon number
(the spin-x orientation is fixed to (-1)^(n+1) by the parity constraint).
Solves use that reduction at every cutoff, and only this sector is solved;
the dense full-space Hamiltonian and the parity +1 sector are cross-check
oracles in ``tests/conftest.py``.

Each ground state is one eigensolve at a cutoff sized to the photon number
of the displaced oscillator, certified against its truncation three
photon-number widths lower: interlacing bounds that truncation's energy
change from above without solving it, and the bound must be at most
``ENERGY_TOL`` relative while the removed rows carry a weight below 1e-12.
A point that fails the certificate raises ``NonconvergenceError``; nothing
is grown or retried. The certificate and the cutoffs do not depend on how
the eigensolve brackets E0.

The eigensolve bisects only as far as inverse iteration needs, to a cell of
a fixed energy grid of spacing h ~ 1e-6 omega, far below the sector gap, and
takes the energy as the Rayleigh quotient of the vector. The cell comes from
bisection of a bracket aligned to the grid, so it depends on the matrix
alone. A neighbouring response, passed as ``neighbour`` by every caller
that solves a sequence of couplings, predicts E0 to third order in the
coupling step; a window of 2^12 cells around that prediction replaces the
bisection from the Gershgorin interval whenever its Sturm counts show that
it holds E0, and every value is bitwise the same with or without it.
Matrices of fewer than ``GRID_MIN_ROWS`` rows keep the index bisection's
own estimate, which costs less there.
Because dH/dg = sigma_z (a + a^dag) conserves parity, the derivative of the
ground state with respect to g stays in the sector and follows from one
banded linear solve at the certified cutoff (first-order perturbation theory
without the spectrum); ``ground_state_response`` returns both, with <x>_+ and
its slope from the one product V psi that the solve's right-hand side needs.
The response keeps the factors of that solve, so dF_Q/dg, asked for only by
the QFI-peak search, costs one more solve and no second factorization.

Per point the work is a handful of LAPACK calls on O(N) arrays, so the small
array operations around them cost as much as the solves: sqrt(n) and the
sector spin sign come from module tables shared by every cutoff, and V psi
is formed once per response.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonconvergenceError, ParameterDomainError, QrabiError
from .lapack import dgttrf, dgttrs, dpttrf, dstebz, dstein
from .model import ModelParams

HARD_CUTOFF_LIMIT = 16384
# the certificate: energy change to the truncation at most ENERGY_TOL relative,
# weight of the removed rows below TAIL_WEIGHT_TOL
ENERGY_TOL = 1e-10
TAIL_WEIGHT_TOL = 1e-12
START_WIDTHS = 12.0
START_MARGIN = 32
TRUNCATION_WIDTHS = 9.0
TRUNCATION_MARGIN = 16
# bisection tolerance of the sector eigensolve, in units of omega; the gap
# to the next sector level is >= 0.068 omega for omega/Omega >= 1e-4 (0.589,
# 0.303, 0.144 and 0.068 omega at 0.1, 0.01, 0.001 and 1e-4, about r^(1/3))
EIGENVALUE_ABSTOL = 1e-6
# cells of the energy grid in the window around a neighbour's prediction
WINDOW_CELLS = 2 ** 12
# matrices with fewer rows skip the energy grid: for them one index bisection
# from the Gershgorin interval costs less than the three LAPACK calls of a window
GRID_MIN_ROWS = 128
RESPONSE_RESIDUAL_TOL = 1e-8
_EPS = np.finfo(float).eps
# (sqrt(n), -(-1)^n) over n = 0, 1, ...: read-only, replaced by a longer pair
# whenever a cutoff needs more rows, with no cap (``sector_eigenpairs`` takes
# any cutoff)
_TABLES = (np.zeros(0), np.zeros(0))


def _tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(n), -(-1)^n) for n < size, views of the shared tables."""
    global _TABLES
    roots, spin = _TABLES
    if roots.size < size:
        n = np.arange(max(size, 2 * roots.size))
        roots, spin = np.sqrt(n), -(-1.0) ** n
        roots.setflags(write=False)
        spin.setflags(write=False)
        _TABLES = (roots, spin)
    return roots[:size], spin[:size]


@dataclass(frozen=True)
class ConvergenceReport:
    """Certificate of ``ground_state``'s one eigensolve.

    ``final_cutoff`` is the cutoff solved, certified against its truncation
    to ``truncation_cutoff``: ``energy_delta``, the interlacing bound on the
    energy change, is at most ``ENERGY_TOL`` relative, and the rows beyond
    the truncation carry a weight below 1e-12. ``eigensolves`` is 1, or 0 when
    a failed point's capped cutoff leaves nothing to certify against
    (``energy_delta`` is then inf).
    """

    final_cutoff: int
    energy_delta: float
    truncation_cutoff: int
    eigensolves: int


@dataclass(frozen=True)
class QuantumState:
    """Ground state with individually normalized spin components.

    ``coeffs_plus[n]`` and ``coeffs_minus[n]`` are the Fock coefficients of the
    two spin-z components, each normalized to 1; the physical state carries a
    global 1/sqrt(2). In the parity -1 sector, coeffs_minus[n] =
    -(-1)^n coeffs_plus[n], derived from coeffs_plus on access.
    """

    params: ModelParams
    cutoff: int
    energy: float
    coeffs_plus: np.ndarray

    @property
    def coeffs_minus(self) -> np.ndarray:
        return _tables(self.cutoff + 1)[1] * self.coeffs_plus


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
    roots, spin = _tables(cutoff + 1)
    diag = params.omega * np.arange(cutoff + 1) + 0.5 * params.Omega * spin
    off = params.g * roots[1:]
    diag.setflags(write=False)
    off.setflags(write=False)
    return diag, off


def _check_info(info: int, routine: str) -> None:
    if info != 0:
        raise QrabiError(f"LAPACK {routine} failed with info = {info}")


def cell_width(omega: float) -> float:
    """Spacing h of the energy grid, the power of two with
    h <= EIGENVALUE_ABSTOL omega < 2 h."""
    _, exponent = math.frexp(EIGENVALUE_ABSTOL * omega)
    return math.ldexp(1.0, exponent - 1)


def _gershgorin_floor(diag: np.ndarray, off: np.ndarray) -> float:
    """min_n (d_n - e_(n-1) - e_n), the Gershgorin bound evaluated in dstebz's
    order of operations, which dstebz lowers further before it bisects."""
    rows = diag.copy()
    rows[1:] -= off
    rows[:-1] -= off
    return float(rows.min())


def _grid_bisection(diag, off, lo: float, cells: int, h: float, gershgorin: float):
    """(values, iblock, isplit) of dstebz's value-range bisection of the
    bracket (lo, lo + cells h], with lo a multiple of h and cells a power of
    two: every bisection point is a grid point, and with tolerance 1.5 h each
    level is returned as the midpoint of its h-cell (k h, (k + 1) h], by the
    Sturm count of the matrix alone. None when the bracket holds no level or
    dstebz would not bisect exactly it: below ``gershgorin``, the bound
    it would start from instead; where its relative tolerance 2 eps |x|
    reaches h (|E0| above about 1e9 omega); or when it splits the matrix into
    blocks, each bisected from its own bound. The brackets searched end below
    d_0 + 0.01 omega < d_1, under dstebz's upper Gershgorin bound.
    """
    hi = lo + cells * h
    if lo < gershgorin or not 2.0 * _EPS * max(abs(lo), abs(hi)) < h:
        return None
    m, vals, iblock, isplit, info = dstebz(diag, off, 1, lo, hi, 0, 0, 1.5 * h, "E")
    _check_info(info, "dstebz")
    if m == 0 or isplit[0] != diag.size:
        return None
    return vals, iblock, isplit


def sector_eigenpairs(params: ModelParams, cutoff: int,
                      neighbour: GroundStateResponse | None = None):
    """Lowest eigenpair of the parity -1 sector as (values, vectors): one
    value, and its vector as the one column.

    The lowest level E0 is located on the energy grid of spacing
    h = ``cell_width(omega)``: inverse iteration (dstein) starts from the
    midpoint of the cell (k h, (k + 1) h] that holds E0, at most
    h/2 <= EIGENVALUE_ABSTOL omega / 2 from it and five orders of magnitude
    below the gap to the next sector level, and each iteration shrinks the
    vector's error by the ratio of the two. The cell comes from the Sturm
    counts of dstebz's bisection of an aligned bracket (``_grid_bisection``),
    so it depends on the matrix alone:
    - with a ``neighbour`` (a ``GroundStateResponse`` at the same omega and
      Omega), the bracket is the window of ``WINDOW_CELLS`` cells centred on
      its prediction of E0 (``predicted_energy``), used when the Sturm count
      of its lower edge is zero (dpttrf keeps every pivot of T - lo positive)
      and it holds a level, then the lowest: the window is narrower than the
      gap, so that level is E0;
    - otherwise index bisection (dstebz, the lowest level, tolerance
      EIGENVALUE_ABSTOL omega) from the Gershgorin interval comes to within
      h of E0, and the four cells around that estimate are bisected. Where
      those cannot be bisected exactly (E0 within 2.5 h of the Gershgorin
      bound, as at g = 0, or a matrix dstebz splits), the estimate itself is
      used; no window is used there either.
    A matrix of fewer than ``GRID_MIN_ROWS`` rows takes the index estimate
    alone, with or without a neighbour.
    The value returned is the vector's Rayleigh quotient, whose error is
    quadratic in the vector's. These are the LAPACK routines behind scipy's
    ``eigh_tridiagonal``, called without its input validation. A nonzero
    LAPACK ``info`` raises QrabiError.
    """
    diag, off = sector_tridiagonal(params, cutoff)
    on_grid = diag.size >= GRID_MIN_ROWS
    found = None
    if on_grid:
        h = cell_width(params.omega)
        gershgorin = _gershgorin_floor(diag, off)
        if neighbour is not None:
            predicted = neighbour.predicted_energy(params.g)
            # finite, and on a grid whose cell indices are exact integers
            if abs(predicted) < 2.0 ** 52 * h:
                lo = (math.floor(predicted / h) - WINDOW_CELLS // 2) * h
                if dpttrf(diag - lo, off, overwrite_d=1)[2] == 0:
                    found = _grid_bisection(diag, off, lo, WINDOW_CELLS, h, gershgorin)
    if found is None:
        _, vals, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 0.0, 1, 1,
                                               EIGENVALUE_ABSTOL * params.omega, "B")
        _check_info(info, "dstebz")
        found = (vals, iblock, isplit)
        if on_grid:
            # E0 lies within h of vals[0]; the bracket leaves h/2 on either side
            found = _grid_bisection(diag, off, h * math.floor(vals[0] / h - 1.5), 4, h,
                                    gershgorin) or found
    vals, iblock, isplit = found
    vecs, info = dstein(diag, off, vals[:1], iblock, isplit)
    _check_info(info, "dstein")
    vec = vecs[:, 0]
    rayleigh = float(vec @ _tridiagonal_apply(diag, off, vec)) / float(vec @ vec)
    return np.array([rayleigh]), vecs


def _gauge_fix(vec: np.ndarray) -> np.ndarray:
    if vec[np.abs(vec).argmax()] < 0:
        return -vec
    return vec


def state_from_sector_vector(params: ModelParams, cutoff: int, energy: float,
                             vec: np.ndarray) -> QuantumState:
    """Lift a sector eigenvector (norm 1 over n) to spin components.

    |s_x> = (|+z> + s_x |-z>)/sqrt(2) with s_x = -(-1)^n, so the spin
    components share the sector amplitudes up to the alternating sign.
    """
    vec = _gauge_fix(np.asarray(vec, dtype=float))
    return QuantumState(params=params, cutoff=cutoff, energy=float(energy),
                        coeffs_plus=vec.copy())


def _photon_cutoff(params: ModelParams, widths: float, margin: int) -> int:
    nbar = (params.g / params.omega) ** 2
    return math.ceil(nbar + widths * math.sqrt(nbar)) + margin


def initial_cutoff(params: ModelParams) -> int:
    """Start cutoff, the one solved: nbar + 12 sqrt(nbar) + 32 with nbar = (g/omega)^2.

    nbar is the photon number of the oscillator displaced by g/omega, the
    superradiant limit of the ground state, whose Poisson photon distribution
    has width sqrt(nbar); below the transition nbar overestimates the photon
    number. Even its truncation three widths lower (``truncation_cutoff``)
    meets ``ENERGY_TOL`` with orders of magnitude to spare.
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
    eps |E|, never 0, five orders of magnitude below ``ENERGY_TOL``.
    """
    diag, off = sector_tridiagonal(params, vec.size - 1)
    head = vec[:cutoff + 1]
    rayleigh = float(head @ _tridiagonal_apply(diag[:cutoff + 1], off[:cutoff], head))
    return max(rayleigh / float(head @ head) - energy, _EPS * abs(energy))


def ground_state(params: ModelParams, neighbour: GroundStateResponse | None = None):
    """Certified ground state, the lowest state of the parity -1 sector.

    Solves once at N = ``initial_cutoff``, capped at ``HARD_CUTOFF_LIMIT``,
    and certifies N against its truncation to N_s = ``truncation_cutoff``:
    the energy change E(N_s) - E(N), bounded by ``interlacing_bound``
    without solving N_s, must be at most ``ENERGY_TOL`` relative, and the
    weight of the removed rows n > N_s below 1e-12. The report carries the
    bound, N_s and the number of eigensolves. A point that fails raises
    ``NonconvergenceError`` with that report: without a solve when the capped
    cutoff lies at or below N_s, after the one solve when it fails the
    certificate. ``neighbour`` brackets the eigensolve
    (``sector_eigenpairs``) and changes no value.
    """
    cutoff = min(initial_cutoff(params), HARD_CUTOFF_LIMIT)
    truncation = truncation_cutoff(params)
    if cutoff <= truncation:
        raise NonconvergenceError(
            f"cutoff {cutoff} does not exceed its truncation {truncation} (cutoff "
            f"limit {HARD_CUTOFF_LIMIT}); the polaron ansatz is the documented fallback",
            payload=ConvergenceReport(final_cutoff=cutoff, energy_delta=math.inf,
                                      truncation_cutoff=truncation, eigensolves=0),
        )
    vals, vecs = sector_eigenpairs(params, cutoff, neighbour)
    energy, vec = float(vals[0]), vecs[:, 0]
    delta = interlacing_bound(params, truncation, energy, vec)
    tail = float(np.sum(vec[truncation + 1:] ** 2))
    report = ConvergenceReport(final_cutoff=cutoff, energy_delta=delta,
                               truncation_cutoff=truncation, eigensolves=1)
    if not (delta <= ENERGY_TOL * max(abs(energy), 1e-30) and tail < TAIL_WEIGHT_TOL):
        raise NonconvergenceError(
            f"cutoff {cutoff} fails its certificate against truncation {truncation} "
            f"(energy bound {delta:.3e}, tail weight {tail:.1e}); the polaron ansatz "
            f"is the documented fallback",
            payload=report,
        )
    return state_from_sector_vector(params, cutoff, energy, vec), report


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
    m = int(np.abs(state.coeffs_plus).argmax())
    pinned_diag = diag - state.energy
    pinned_diag[m] = 1.0
    pinned_off = off.copy()
    pinned_off[max(m - 1, 0):m + 1] = 0.0
    *factors, info = dgttrf(pinned_off, pinned_diag, pinned_off)
    _check_info(info, "dgttrf")
    return _PinnedSystem(diag=pinned_diag, off=pinned_off, pin=m, factors=tuple(factors))


@dataclass(frozen=True)
class GroundStateResponse:
    """Certified sector ground state and its derivative with respect to g.

    ``dvec`` is d(sector vector)/dg for the gauge-fixed ``state.coeffs_plus``,
    orthogonal to it; ``residual`` is the relative residual of the linear
    solve that produced it. The lift to the full space is an isometry, so
    sector inner products are full-space inner products. ``report`` is the
    certificate of the eigensolve behind ``state``.

    ``x_plus`` is the spin-up displacement <x>_+ = <V>/sqrt(2), with
    V = dT/dg (the sector off-diagonal sqrt(n)); in the sector
    <x>_- = -<x>_+ exactly. ``dx_plus_dg`` = sqrt(2) (V psi).dvec is its
    derivative with respect to g. Both reuse the V psi of the solve's
    right-hand side. ``pinned`` holds the factors of that solve, which
    ``dfisher_dg`` solves with again.
    """

    state: QuantumState
    dvec: np.ndarray
    residual: float
    report: ConvergenceReport
    x_plus: float
    dx_plus_dg: float
    pinned: _PinnedSystem = field(repr=False)

    @property
    def fisher_information(self) -> float:
        """F_Q with respect to g, 4 <d psi|d psi> (the <d psi|psi> term is zero)."""
        return 4.0 * float(self.dvec @ self.dvec)

    @property
    def f_q_gbar(self) -> float:
        """F_Q with respect to g_bar = g/gc0, the exact factor gc0^2 larger."""
        return self.fisher_information * self.state.params.gc0 ** 2

    @property
    def first_derivative_term(self) -> float:
        """<d psi|psi>, zero up to roundoff by construction."""
        return float(self.state.coeffs_plus @ self.dvec)

    def predicted_energy(self, g: float) -> float:
        """E0 at coupling g to third order in dg = g - g0, from the perturbation
        series in V with x = dvec: dE0/dg = <V> = sqrt(2) x_plus,
        d2E0/dg2 = 2 (V psi).x = sqrt(2) dx_plus_dg and d3E0/dg3 =
        6 x.(V - <V>) x."""
        x = self.dvec
        v_mean = math.sqrt(2.0) * self.x_plus
        third = float(x @ _coupling_apply(x)) - v_mean * float(x @ x)
        dg = g - self.state.params.g
        return self.state.energy + dg * (v_mean + dg * (self.dx_plus_dg / math.sqrt(2.0)
                                                        + dg * third))

    def dfisher_dg(self) -> float:
        """dF_Q/dg = -16 y.(V x - <V> x), with x = dvec and (T - E0) y = x on psi-perp.

        Differentiating (T - E0) x = -(V - <V>) psi once more gives
        (T - E0) dx/dg = -2 (V - <V>) x along psi-perp, and dF_Q/dg = 8 x.dx/dg.
        y comes from the factors behind ``dvec``.
        """
        psi, x = self.state.coeffs_plus, self.dvec
        y = self.pinned.solve(x, psi)
        v_mean = float(psi @ _coupling_apply(psi))
        return -16.0 * float(y @ (_coupling_apply(x) - v_mean * x))


def _tridiagonal_apply(diag, off: np.ndarray, vec: np.ndarray) -> np.ndarray:
    out = diag * vec
    out[:-1] += off * vec[1:]
    out[1:] += off * vec[:-1]
    return out


def _coupling_apply(vec: np.ndarray) -> np.ndarray:
    """V vec with V = dT/dg, the sector off-diagonal sqrt(n)."""
    roots = _tables(vec.size)[0][1:]
    out = np.empty_like(vec)
    out[:-1] = roots * vec[1:]
    out[-1] = 0.0
    out[1:] += roots * vec[:-1]
    return out


def ground_state_response(params: ModelParams,
                          neighbour: GroundStateResponse | None = None) -> GroundStateResponse:
    """Certified ground state psi (parity -1 sector) and its coupling derivative x.

    x solves (T - E0) x = -(V psi - <V> psi) with x orthogonal to psi. T - E0
    is singular along psi (exactly so at g = 0). Pinning x to zero at the
    largest component m of psi, with row and column m replaced by those of
    the identity, leaves a positive-definite tridiagonal matrix; it is
    factored once (dgttrf) and the factors serve the solve and one refinement
    step (dgttrs), then psi is projected out of x. Raises QrabiError when the
    relative residual of the unpinned system exceeds 1e-8. ``neighbour``, a
    response at the same omega and Omega, brackets the eigensolve
    (``sector_eigenpairs``); every value is the same without it.
    """
    state, report = ground_state(params, neighbour)
    psi = state.coeffs_plus
    diag, off = sector_tridiagonal(params, state.cutoff)
    vpsi = _coupling_apply(psi)
    v_mean = float(psi @ vpsi)
    rhs = -(vpsi - v_mean * psi)
    pinned = _pinned_system(state)
    x = pinned.solve(rhs, psi)

    res = _tridiagonal_apply(diag, off, x) - state.energy * x - rhs
    residual = math.sqrt(float(res @ res) / float(rhs @ rhs))
    if not residual <= RESPONSE_RESIDUAL_TOL:
        raise QrabiError(
            f"linear-response residual {residual:.2e} exceeds {RESPONSE_RESIDUAL_TOL:.0e} "
            f"at cutoff {state.cutoff}"
        )
    return GroundStateResponse(state=state, dvec=x, residual=residual, report=report,
                               x_plus=v_mean / math.sqrt(2.0),
                               dx_plus_dg=math.sqrt(2.0) * float(vpsi @ x), pinned=pinned)
