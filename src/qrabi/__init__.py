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
    gc_xi,
)
from .edsolver import QuantumState, ground_state
from .errors import (
    DerivativeInvalidError,
    NonconvergenceError,
    ParameterDomainError,
    QrabiError,
    SchemaError,
)
from .model import ModelParams
from .polaron import PolaronAnsatz, PolaronSweep, continuation_sweep, optimize
from .qfi import (
    PeakEstimate,
    QfiSample,
    acceleration_condition,
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
    "continuation_sweep",
    "find_peak",
    "fit_fourier",
    "fit_fractional",
    "gc0",
    "gc1",
    "gc2",
    "gc_xi",
    "ground_state",
    "load",
    "optimize",
    "qfi_ed",
    "qfi_pp_full",
    "qfi_pp_simplified",
    "save",
    "__version__",
]
