"""qrabi: quantum Rabi model transition location via quantum Fisher information.

Exact-diagonalization and two-polaron variational engines for the ground-state
QFI, closed-form critical couplings with series expansions, transition
observables, and sweep persistence.
"""

from .critical import (
    CriticalEstimate,
    FitResult,
    fit_fourier,
    fit_fractional,
    gc0,
    gc1,
    gc2,
    gc_from_distance,
    gc_xi,
)
from .edsolver import QuantumState, ground_state, sector_gap
from .errors import (
    DerivativeInvalidError,
    NonconvergenceError,
    ParameterDomainError,
    QrabiError,
    SchemaError,
)
from .model import FockHamiltonian, ModelParams, build_hamiltonian, parity_operator
from .polaron import PolaronAnsatz, PolaronSweep, continuation_sweep, optimize
from .qfi import (
    PeakEstimate,
    QfiSample,
    acceleration_condition,
    fidelity_susceptibility,
    find_peak,
    qfi_ed,
    qfi_pp_full,
    qfi_pp_simplified,
)
from .store import SweepRecord, load, save

__version__ = "0.1.0"

__all__ = [
    "CriticalEstimate",
    "DerivativeInvalidError",
    "FitResult",
    "FockHamiltonian",
    "ModelParams",
    "NonconvergenceError",
    "ParameterDomainError",
    "PeakEstimate",
    "PolaronAnsatz",
    "PolaronSweep",
    "QfiSample",
    "QrabiError",
    "QuantumState",
    "SchemaError",
    "SweepRecord",
    "acceleration_condition",
    "build_hamiltonian",
    "continuation_sweep",
    "fidelity_susceptibility",
    "find_peak",
    "fit_fourier",
    "fit_fractional",
    "gc0",
    "gc1",
    "gc2",
    "gc_from_distance",
    "gc_xi",
    "ground_state",
    "load",
    "optimize",
    "parity_operator",
    "qfi_ed",
    "qfi_pp_full",
    "qfi_pp_simplified",
    "save",
    "sector_gap",
    "__version__",
]
