"""Exception hierarchy shared by all gatenoise modules."""


class GateNoiseError(Exception):
    """Base class for all package errors."""


class ValidationError(GateNoiseError, ValueError):
    """Invalid input: bad arguments, malformed files, broken invariants."""


class DegenerateDataError(ValidationError):
    """Measurement record is missing counts needed by an estimator."""


class NumericalError(GateNoiseError, RuntimeError):
    """A numerical procedure failed to converge or produced nonsense."""


class CPViolationError(NumericalError):
    """A constructed channel has eigenvalues below the CP tolerance.

    Usually signals that the inputs are outside the validity regime of the
    second-order treatment (correlation time comparable to the dephasing
    time).
    """


class FitError(NumericalError):
    """A curve fit failed (e.g. non-decaying benchmarking data)."""


class TuningWarning(UserWarning):
    """Sampler tuning landed outside the recommended operating range."""
