"""Certified ground states of the truncated Hamiltonian and their coupling
derivative, solved a row of couplings at a time.

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
without the spectrum); the response carries both, with <x>_+ and its slope
from the one product V psi that the solve's right-hand side needs. A
response solved alone keeps the factors of that solve, so dF_Q/dg, asked for
only by the QFI-peak search, costs one more solve and no second
factorization.

``ground_state_responses`` solves the cells of one coupling row (one omega
and Omega) in batches. Each cell keeps its own eigensolve
(``sector_eigenpairs``) on a view of one concatenated sector matrix whose
blocks are joined by zero couplings. The certificate and the linear
response then run once per batch: Rayleigh quotients, interlacing bounds,
tail weights, gauge and pin are segment operations, every per-cell inner
product is a segment sum (``np.add.reduceat``), and the block-diagonal pinned
system takes one ``dgttrf`` and two ``dgttrs``. The zero couplings make each
block's factors and solution bitwise those of the cell solved alone, and a
segment sum reads its own block only, so a cell's values do not depend on
the batch it is solved in. A batch holds cells of fewer than
``GRID_MIN_ROWS`` rows, at most ``BATCH_ROWS`` rows in all; a larger cell is
solved alone, bracketed by the response before it, and sums its inner
products by BLAS dot products instead (``_Batch.dots``). ``ground_state``
and ``ground_state_response`` are the one-cell case. Solved one at a time,
the certificate and the response take some 60 numpy and LAPACK calls per
cell on arrays of 40 to 130 rows, where per-call overhead, not arithmetic,
sets the cost; a batch makes those calls once.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
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
# from the Gershgorin interval costs less than the three LAPACK calls of a
# window. They are also the cells that share a batch; a larger one is solved
# alone, bracketed by its neighbour
GRID_MIN_ROWS = 128
# basis rows of one batch at most: the cap keeps a batch's arrays, and with
# them the peak memory, small (uncapped, a qfi-sweep over five ratios of 63
# points each grew its peak RSS by 16 MB)
BATCH_ROWS = 2 ** 11
RESPONSE_RESIDUAL_TOL = 1e-8
_EPS = np.finfo(float).eps
_SQRT2 = math.sqrt(2.0)
# the segment starts of a single cell
_ONE_CELL = np.zeros(1, dtype=np.intp)
# (sqrt(n), -(-1)^n) over n = 0, 1, ...: read-only, replaced by a longer pair
# whenever a cutoff needs more rows, with no cap (``sector_eigenpairs`` takes
# any cutoff)
_TABLES = (np.zeros(0), np.zeros(0))
# (omega, Omega, the sector diagonal over n = 0, 1, ...) of the last row
# solved: read-only, replaced for another omega or Omega or a longer cutoff
_DIAGONAL = (math.nan, math.nan, np.zeros(0))


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


def _diagonal(omega: float, Omega: float, size: int) -> np.ndarray:
    """omega n + (Omega/2) (-(-1)^n) for n < size, the sector diagonal, a view
    of a table shared by every cutoff at the same omega and Omega."""
    global _DIAGONAL
    table_omega, table_Omega, table = _DIAGONAL
    if table.size < size or table_omega != omega or table_Omega != Omega:
        n = max(size, 2 * table.size if table_omega == omega and table_Omega == Omega else 0)
        table = omega * np.arange(n) + 0.5 * Omega * _tables(n)[1]
        table.setflags(write=False)
        _DIAGONAL = (omega, Omega, table)
    return table[:size]


@dataclass(frozen=True)
class ConvergenceReport:
    """Certificate of a ground state's one eigensolve.

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


def _rayleigh_quotients(batch: _Batch, vec: np.ndarray):
    """(energies, forms): per cell, as a list, the Rayleigh quotient of its
    rows of ``vec``, and the stacked rows vec * T vec and vec * vec.

    The quotients are the forms summed from the cells' starts by one
    ``np.add.reduceat``; a ``lone`` cell takes dot products
    (``_Batch.dots``).
    """
    tvec = _tridiagonal_apply(batch.diag, batch.off, vec)
    forms = np.array((tvec, vec))
    forms *= vec
    if batch.lone:
        num, den = batch.dots((vec, vec), (tvec, vec))
    else:
        num, den = np.add.reduceat(forms, batch.starts, axis=1).tolist()
    return [a / b for a, b in zip(num, den)], forms


def _cut_quotients(off, vec: np.ndarray, forms: np.ndarray, starts: Sequence[int],
                   cuts: Sequence[int]):
    """Per cell, as lists: the Rayleigh quotient of its vector cut after row
    ``cuts``, and the weight of the rows cut off.

    One ``np.add.reduceat`` of the ``_rayleigh_quotients`` forms sums each
    cell's rows up to its cut and beyond it. vec.T vec over the rows kept
    counts the coupling of the last row kept to the first row cut off, which
    the cut matrix lacks.
    """
    edges = np.array([edge for start, cut in zip(starts, cuts) for edge in (start, cut + 1)],
                     dtype=np.intp)
    form, norm = np.add.reduceat(forms, edges, axis=1).tolist()
    heads = [(form[2 * k] - vec.item(cut) * off.item(cut) * vec.item(cut + 1)) / norm[2 * k]
             for k, cut in enumerate(cuts)]
    return heads, norm[1::2]


class _Batch:
    """Cells of one coupling row concatenated into one sector matrix.

    ``cells`` holds (params, cutoff, ...) per cell; cell k holds rows
    ``bounds[k]`` to ``bounds[k + 1] - 1``, photon numbers 0 .. cutoff.
    ``coupling`` is sqrt(n + 1), V = dT/dg between each row and the next, and
    ``off`` is g times it: both are zero between one cell's last row and the
    next cell's first, so the matrix is block diagonal and each block is
    bitwise its cell's ``sector_tridiagonal``. Every cell has the omega and
    Omega of the first.

    ``lone`` marks a batch of one cell of at least ``GRID_MIN_ROWS`` rows,
    the only kind of batch such a cell is ever in.
    """

    def __init__(self, cells: Sequence[tuple]):
        first, size = cells[0][0], cells[0][1] + 1
        if len(cells) == 1:
            self.sizes, self.bounds, self.starts = [size], [0, size], _ONE_CELL
            self.lone = size >= GRID_MIN_ROWS
            self.diag = _diagonal(first.omega, first.Omega, size)
            self.coupling = _tables(size)[0][1:]
            self.off = first.g * self.coupling
            return
        self.sizes = [cell[1] + 1 for cell in cells]
        self.bounds = [0, *itertools.accumulate(self.sizes)]
        size = max(self.sizes)
        self.lone = False
        # sqrt(n + 1) reaches each cell's last row, where the gather below zeroes it
        roots = _tables(size + 1)[0]
        diag = _diagonal(first.omega, first.Omega, size)
        self.starts = np.array(self.bounds[:-1], dtype=np.intp)
        # each row's photon number, gathered from the tables of the largest cell
        local = np.arange(self.bounds[-1]) - np.repeat(self.starts, self.sizes)
        self.diag = diag[local]
        self.coupling = roots[local[:-1] + 1]
        self.coupling[self.starts[1:] - 1] = 0.0
        self.off = np.repeat([cell[0].g for cell in cells], self.sizes)[:-1] * self.coupling

    def spread(self, values):
        """Per-cell ``values`` repeated over each cell's rows; a single cell's
        value as a scalar."""
        return values[0] if len(self.sizes) == 1 else np.repeat(values, self.sizes)

    def dots(self, lefts: tuple, rights: tuple) -> list:
        """Per pair (lefts[i], rights[i]) of vectors over the batch's rows,
        the list of their inner products over each cell's rows.

        Cells of fewer than ``GRID_MIN_ROWS`` rows sum the stacked products
        by one ``np.add.reduceat`` from their starts, so each sum reads its
        own segment only and does not depend on the other cells. A ``lone``
        cell takes BLAS dot products, the summation its values were always
        computed with: its F_Q amplifies the rounding of E0 by |E0| over the
        sector gap, and another summation would move it by up to 1e-11
        relative at omega/Omega = 1e-4.
        """
        if self.lone:
            return [[float(a @ b)] for a, b in zip(lefts, rights)]
        if len(lefts) == 1:
            return [np.add.reduceat(lefts[0] * rights[0], self.starts).tolist()]
        products = np.array(lefts)
        products *= np.array(rights)
        return np.add.reduceat(products, self.starts, axis=1).tolist()

    def gauge(self, vec: np.ndarray):
        """(psi, pins): each cell's vector with its largest component made
        positive, and the row of that component (the first, on a tie)."""
        size = np.abs(vec)
        if len(self.sizes) == 1:
            pins = size.argmax()
            return (-vec if vec[pins] < 0 else vec), pins
        hits = np.flatnonzero(size == np.repeat(np.maximum.reduceat(size, self.starts),
                                                self.sizes))
        pins = hits[np.searchsorted(hits, self.starts)]
        return vec * np.repeat(np.copysign(1.0, vec[pins]), self.sizes), pins

    def respond(self, psi: np.ndarray, energies: list, pins):
        """Linear response of every cell: (x, pinned system, sums), the sums
        (<V>, |r|^2, |rhs|^2, (V psi).x, x.x) per cell as lists.

        x solves (T - E0) x = rhs = -(V psi - <V> psi) with x orthogonal to
        psi, from the pinned system (``_PinnedSystem``), and r is the residual
        of the unpinned system.
        """
        shift = self.spread(energies)
        vpsi = _coupling_apply(psi, self.coupling)
        (v_mean,) = self.dots((psi,), (vpsi,))
        rhs = self.spread(v_mean) * psi
        rhs -= vpsi
        pinned = _PinnedSystem(self, shift, pins)
        x = pinned.solve(rhs, psi)
        res = _tridiagonal_apply(self.diag, self.off, x)
        res -= shift * x
        res -= rhs
        return x, pinned, [v_mean, *self.dots((res, rhs, vpsi, x), (res, rhs, x, x))]


def _cell_batch(params: ModelParams, cutoff: int) -> _Batch:
    """The batch of the one cell (params, cutoff)."""
    if cutoff < 1:
        raise ParameterDomainError(f"cutoff must be >= 1, got {cutoff}")
    return _Batch([(params, cutoff)])


def sector_tridiagonal(params: ModelParams, cutoff: int):
    """(diagonal, off-diagonal) of the parity -1 sector Hamiltonian.

    In the sector, the spin-x eigenvalue at photon number n is -(-1)^n, and
    the sigma_z coupling hops n -> n+1 within the sector. This is the one-cell
    case of a batch's concatenated matrix.
    """
    batch = _cell_batch(params, cutoff)
    return batch.diag, batch.off


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
                      neighbour: GroundStateResponse | None = None, matrix=None):
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
    quadratic in the vector's. ``matrix``, views (diag, off) of the sector
    matrix that the caller already holds, replaces building it: the row
    engine passes views of its batch's matrix and takes the Rayleigh
    quotients of the whole batch in one segment pass, so the values are then
    None. These are the LAPACK routines behind scipy's ``eigh_tridiagonal``,
    called without its input validation. A nonzero LAPACK ``info`` raises
    QrabiError.
    """
    batch = None
    if matrix is None:
        batch = _cell_batch(params, cutoff)
        matrix = batch.diag, batch.off
    diag, off = matrix
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
    if batch is None:
        return None, vecs
    return np.array(_rayleigh_quotients(batch, vecs[:, 0])[0]), vecs


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


def cell_cutoffs(params: ModelParams) -> tuple[int, int]:
    """(cutoff, truncation) of one cell: ``initial_cutoff`` capped at
    ``HARD_CUTOFF_LIMIT``, the cutoff solved, and ``truncation_cutoff``, the
    truncation it is certified against.

    Raises ``NonconvergenceError``, whose report counts no eigensolve, when
    the cutoff does not exceed its truncation: there is nothing to certify
    against, so the cell is refused before any solve. Every solve of a cell
    starts here, once per cell.
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
    return cutoff, truncation


def _interlacing(head_quotient: float, energy: float) -> float:
    """RQ - E floored at eps |E|, with RQ the Rayleigh quotient of the vector
    cut to the truncation (``interlacing_bound``)."""
    return max(head_quotient - energy, _EPS * abs(energy))


def interlacing_bound(params: ModelParams, cutoff: int, energy: float, vec: np.ndarray) -> float:
    """Upper bound on E(cutoff) - E(N) from the ground pair (energy, vec) at N > cutoff.

    The cutoff-N0 sector matrix is the leading principal submatrix of the
    cutoff-N one, so by Cauchy interlacing E(N) <= E(N0), and E(N0) is at
    most the Rayleigh quotient RQ of any vector on n <= N0. With vec cut to
    n <= N0, RQ - E(N) >= E(N0) - E(N) >= 0. RQ - E(N) carries the rounding
    of E, so the bound is floored at eps |E|: a certificate at rounding reads
    eps |E|, never 0, five orders of magnitude below ``ENERGY_TOL``. The
    certificate of a batch evaluates the same bound for every cell at once.
    """
    batch = _cell_batch(params, vec.size - 1)
    (head,), _ = _cut_quotients(batch.off, vec, _rayleigh_quotients(batch, vec)[1], [0], [cutoff])
    return _interlacing(head, energy)


class _PinnedSystem:
    """LU factors of T - E0 over a batch, with the row and column of each
    cell's pin (the largest component of its psi) replaced by the identity.

    T - E0 is singular along psi; with the pin at a nonzero component of psi
    the pinned matrix is nonsingular, and for a right-hand side b orthogonal
    to psi its solution solves (T - E0) y = b exactly, because the pinned row
    is the one equation the others imply. The matrix is block diagonal, one
    block per cell: zero couplings join the blocks, so each block's factors
    and solution are bitwise those of its cell factored alone.
    """

    def __init__(self, batch: _Batch, shift, pins):
        """The pinned system of ``batch`` at energies ``shift`` (spread over
        the rows), factored by one dgttrf."""
        diag = batch.diag - shift
        diag[pins] = 1.0
        # the couplings of each pin to its neighbours, on a copy padded with
        # one entry that a pin on the first or last row clears instead
        padded = np.empty(diag.size)
        padded[:-1] = batch.off
        padded[pins] = 0.0
        padded[pins - 1] = 0.0
        off = padded[:-1]
        *factors, info = dgttrf(off, diag, off)
        _check_info(info, "dgttrf")
        self.diag, self.off, self.pins, self.batch, self.factors = diag, off, pins, batch, factors

    def _solve_once(self, rhs: np.ndarray) -> np.ndarray:
        y, info = dgttrs(*self.factors, rhs)
        _check_info(info, "dgttrs")
        return y

    def solve(self, rhs: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """y orthogonal to psi with (T - E0) y = rhs in every cell, for rhs
        orthogonal to psi: the pinned solve, one refinement step, then psi
        projected out."""
        pinned_rhs = rhs.copy()
        pinned_rhs[self.pins] = 0.0
        y = self._solve_once(pinned_rhs)
        y += self._solve_once(pinned_rhs - _tridiagonal_apply(self.diag, self.off, y))
        y -= self.batch.spread(self.batch.dots((psi,), (y,))[0]) * psi
        return y


def _pinned_system(state: QuantumState) -> _PinnedSystem:
    """The pinned system of one state's sector, factored alone."""
    pin = np.abs(state.coeffs_plus).argmax()
    return _PinnedSystem(_Batch([(state.params, state.cutoff)]), state.energy, pin)


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
    right-hand side. ``fisher_information`` is F_Q with respect to g,
    4 <d psi|d psi> (the <d psi|psi> term is zero). ``pinned`` holds the
    factors of a response solved alone, which ``dfisher_dg`` solves with
    again; it is None for a response solved in a batch of cells, whose
    ``dfisher_dg`` factors its cell afresh.
    """

    state: QuantumState
    dvec: np.ndarray
    residual: float
    report: ConvergenceReport
    x_plus: float
    dx_plus_dg: float
    fisher_information: float
    pinned: _PinnedSystem | None = field(repr=False)

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
        v_mean = _SQRT2 * self.x_plus
        third = float(x @ _coupling_apply(x)) - v_mean * float(x @ x)
        dg = g - self.state.params.g
        return self.state.energy + dg * (v_mean + dg * (self.dx_plus_dg / _SQRT2
                                                        + dg * third))

    def dfisher_dg(self) -> float:
        """dF_Q/dg = -16 y.(V x - <V> x), with x = dvec and (T - E0) y = x on psi-perp.

        Differentiating (T - E0) x = -(V - <V>) psi once more gives
        (T - E0) dx/dg = -2 (V - <V>) x along psi-perp, and dF_Q/dg = 8 x.dx/dg.
        y comes from the factors behind ``dvec``.
        """
        psi, x = self.state.coeffs_plus, self.dvec
        pinned = _pinned_system(self.state) if self.pinned is None else self.pinned
        y = pinned.solve(x, psi)
        v_mean = float(psi @ _coupling_apply(psi))
        return -16.0 * float(y @ (_coupling_apply(x) - v_mean * x))


def _tridiagonal_apply(diag, off: np.ndarray, vec: np.ndarray) -> np.ndarray:
    out = diag * vec
    out[:-1] += off * vec[1:]
    out[1:] += off * vec[:-1]
    return out


def _coupling_apply(vec: np.ndarray, coupling: np.ndarray | None = None) -> np.ndarray:
    """V vec with V = dT/dg, the sector off-diagonal sqrt(n), or a batch's
    ``coupling``."""
    if coupling is None:
        coupling = _tables(vec.size)[0][1:]
    out = np.empty_like(vec)
    out[:-1] = coupling * vec[1:]
    out[-1] = 0.0
    out[1:] += coupling * vec[:-1]
    return out


def _solve_batch(cells: list, neighbour: GroundStateResponse | None, respond: bool) -> list:
    """Outcomes of one batch of (params, cutoff, truncation) cells, in order:
    per certified cell its ``GroundStateResponse`` (``respond``) or its
    (state, report), and the ``QrabiError`` of every other cell.

    Each cell's eigensolve runs on its view of the batch's matrix, bracketed
    by ``neighbour``; a cell whose eigensolve fails leaves the batch, which is
    built again from the others. A LAPACK failure in the response pass fails
    every cell of the batch.
    """
    outcomes: list = [None] * len(cells)
    batch = _Batch(cells)
    bounds, vectors = batch.bounds, []
    for j, (params, cutoff, _) in enumerate(cells):
        lo, hi = bounds[j], bounds[j + 1]
        try:
            vecs = sector_eigenpairs(params, cutoff, neighbour,
                                     matrix=(batch.diag[lo:hi], batch.off[lo:hi - 1]))[1]
        except QrabiError as exc:
            outcomes[j] = exc
            continue
        vectors.append(vecs[:, 0])
    live = range(len(cells))
    if len(vectors) < len(cells):
        if not vectors:
            return outcomes
        live = [j for j, outcome in enumerate(outcomes) if outcome is None]
        batch = _Batch([cells[j] for j in live])
        bounds = batch.bounds
    vec = vectors[0] if len(vectors) == 1 else np.concatenate(vectors)
    energies, forms = _rayleigh_quotients(batch, vec)
    heads, tails = _cut_quotients(batch.off, vec, forms, bounds,
                                  [start + cells[j][2] for start, j in zip(bounds, live)])
    psi, pins = batch.gauge(vec)
    failure = None
    if respond:
        try:
            x, pinned, (v_mean, res_sq, rhs_sq, slope, norm) = batch.respond(psi, energies, pins)
        except QrabiError as exc:
            failure = exc
        else:
            alone = pinned if len(live) == 1 else None

    for i, (j, energy) in enumerate(zip(live, energies)):
        params, cutoff, truncation = cells[j]
        tail = tails[i]
        delta = _interlacing(heads[i], energy)
        report = ConvergenceReport(final_cutoff=cutoff, energy_delta=delta,
                                   truncation_cutoff=truncation, eigensolves=1)
        if not (delta <= ENERGY_TOL * max(abs(energy), 1e-30) and tail < TAIL_WEIGHT_TOL):
            outcomes[j] = NonconvergenceError(
                f"cutoff {cutoff} fails its certificate against truncation {truncation} "
                f"(energy bound {delta:.3e}, tail weight {tail:.1e}); the polaron ansatz "
                f"is the documented fallback",
                payload=report,
            )
            continue
        lo, hi = bounds[i], bounds[i + 1]
        state = QuantumState(params=params, cutoff=cutoff, energy=energy, coeffs_plus=psi[lo:hi])
        if not respond:
            outcomes[j] = (state, report)
            continue
        if failure is not None:
            outcomes[j] = failure
            continue
        residual = math.sqrt(res_sq[i] / rhs_sq[i])
        if not residual <= RESPONSE_RESIDUAL_TOL:
            outcomes[j] = QrabiError(
                f"linear-response residual {residual:.2e} exceeds "
                f"{RESPONSE_RESIDUAL_TOL:.0e} at cutoff {cutoff}"
            )
            continue
        outcomes[j] = GroundStateResponse(
            state=state, dvec=x[lo:hi], residual=residual, report=report,
            x_plus=v_mean[i] / _SQRT2, dx_plus_dg=_SQRT2 * slope[i],
            fisher_information=4.0 * norm[i], pinned=alone)
    return outcomes


def ground_state_responses(cells: Iterable[ModelParams],
                           neighbour: GroundStateResponse | None = None) -> Iterator:
    """Certified ground states and coupling derivatives of a row of cells at
    one omega and Omega: yields per cell, in order, its
    ``GroundStateResponse`` or the ``QrabiError`` that failed it.

    Each cell is sized by ``cell_cutoffs``, which refuses it before any solve
    when its capped cutoff does not exceed its truncation; a refused cell
    joins no batch. The others are solved in batches whose bounds depend on
    the cutoffs alone: a cell of at least ``GRID_MIN_ROWS`` rows closes the
    batch before it and is solved alone, bracketed by the last response
    before it (``neighbour`` before the first); a batch holds at most
    ``BATCH_ROWS`` rows. Every value of a cell is bitwise that of the cell
    solved alone (``ground_state_response``), whatever the row around it.
    A batch's outcomes are yielded before the next batch is solved, and only
    the last response is kept to bracket the next, so a caller that keeps
    the values and drops the responses holds one batch at a time, however
    long the row. Errors other than ``QrabiError`` propagate.
    """
    # since the last batch solved, per cell: its error, or None for a cell of ``batch``
    queue: list = []
    batch: list = []
    rows = 0
    for params in cells:
        try:
            cutoff, truncation = cell_cutoffs(params)
        except QrabiError as exc:
            queue.append(exc)
            continue
        lone = cutoff + 1 >= GRID_MIN_ROWS
        if batch and (lone or rows + cutoff + 1 > BATCH_ROWS):
            neighbour = yield from _drain(queue, batch, neighbour)
            queue, batch, rows = [], [], 0
        queue.append(None)
        batch.append((params, cutoff, truncation))
        rows += cutoff + 1
        if lone:
            neighbour = yield from _drain(queue, batch, neighbour)
            queue, batch, rows = [], [], 0
    yield from _drain(queue, batch, neighbour)


def _drain(queue: list, batch: list, neighbour):
    """Yield the ``queue``'s outcomes in row order, the cells of ``batch``
    solved; return the last response among them, or ``neighbour``, which
    brackets the next lone cell."""
    solved = iter(_solve_batch(batch, neighbour, True) if batch else ())
    for entry in queue:
        outcome = next(solved) if entry is None else entry
        if isinstance(outcome, GroundStateResponse):
            neighbour = outcome
        yield outcome
    return neighbour


def _solve_alone(params: ModelParams, neighbour: GroundStateResponse | None, respond: bool):
    """The outcome of ``params`` as a batch of one cell, raised if it is an error."""
    (outcome,) = _solve_batch([(params, *cell_cutoffs(params))], neighbour, respond)
    if isinstance(outcome, QrabiError):
        raise outcome
    return outcome


def ground_state(params: ModelParams, neighbour: GroundStateResponse | None = None):
    """Certified ground state, the lowest state of the parity -1 sector, as
    (state, report): the certificate of a one-cell batch.

    Solves once at N = ``initial_cutoff``, capped at ``HARD_CUTOFF_LIMIT``,
    and certifies N against its truncation to N_s = ``truncation_cutoff``:
    the energy change E(N_s) - E(N), bounded by ``interlacing_bound``
    without solving N_s, must be at most ``ENERGY_TOL`` relative, and the
    weight of the removed rows n > N_s below 1e-12. The report carries the
    bound, N_s and the number of eigensolves. A point that fails raises
    ``NonconvergenceError`` with that report: without a solve when the capped
    cutoff lies at or below N_s (``cell_cutoffs``), after the one solve when
    it fails the certificate. ``neighbour`` brackets the eigensolve
    (``sector_eigenpairs``) and changes no value.
    """
    return _solve_alone(params, neighbour, False)


def ground_state_response(params: ModelParams,
                          neighbour: GroundStateResponse | None = None) -> GroundStateResponse:
    """Certified ground state psi (parity -1 sector) and its coupling derivative
    x: the one-cell case of ``ground_state_responses``.

    x solves (T - E0) x = -(V psi - <V> psi) with x orthogonal to psi. T - E0
    is singular along psi (exactly so at g = 0). Pinning x to zero at the
    largest component m of psi, with row and column m replaced by those of
    the identity, leaves a positive-definite tridiagonal matrix; it is
    factored once (dgttrf) and the factors serve the solve and one refinement
    step (dgttrs), then psi is projected out of x. Raises QrabiError when the
    relative residual of the unpinned system exceeds 1e-8, and the error of
    any other failed step. ``neighbour``, a response at the same omega and
    Omega, brackets the eigensolve (``sector_eigenpairs``); every value is the
    same without it.
    """
    return _solve_alone(params, neighbour, True)
