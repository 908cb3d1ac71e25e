"""Predict and validate time-dependent error channels of driven single-qubit
gates from a noise power spectral density.

The pipeline: a PSD (analytic or measured) is filtered through the
drive-dependent spectral windows into a small tuple of integrals, which in
turn fixes every analytic channel description (state maps, process matrices,
Kraus sets, Pauli-twirled and depolarizing approximations, gate errors and a
non-Markovianity measure).  A stochastic Langevin simulator and simulated
process tomography with shot noise provide quasi-exact cross checks.
"""

from .errors import (
    CPViolationError,
    DegenerateDataError,
    FitError,
    GateNoiseError,
    NumericalError,
    TuningWarning,
    ValidationError,
)
from .psd import NoisePsd

__all__ = [
    "NoisePsd",
    "GateNoiseError",
    "ValidationError",
    "DegenerateDataError",
    "NumericalError",
    "CPViolationError",
    "FitError",
    "TuningWarning",
]

__version__ = "0.1.0"
