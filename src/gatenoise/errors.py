"""Exception hierarchy shared by all gatenoise modules."""

import numbers


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


def _unique_keys(pairs):
    """``object_pairs_hook`` for ``json.loads``: reject a key given twice in one object."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValidationError(f"JSON key {max(keys, key=keys.count)!r} is given twice")
    return dict(pairs)


def _check_count(name, value, least=1):
    """Raise ``ValidationError`` unless ``value`` is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
