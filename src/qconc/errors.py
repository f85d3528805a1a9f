"""Exception types shared across the package.

Every failure mode raised by the library is a subclass of :class:`QconcError`,
split into input-side problems (:class:`InputError`) and numerical failures
(:class:`NumericalError`).  The CLI maps the former to exit code 1 and the
latter to exit code 2.
"""

from __future__ import annotations


class QconcError(Exception):
    """Base class for all package errors."""


class InputError(QconcError):
    """Invalid argument, malformed data, or violated precondition."""


class NumericalError(QconcError):
    """A computation produced results outside certified tolerances."""


class NonFinite(InputError):
    """NaN or infinite entries in a state or matrix."""


# linalg
class NotHermitian(InputError):
    pass


class NotPSD(InputError):
    pass


class NotSymmetric(InputError):
    pass


class ConvergenceFailure(NumericalError):
    pass


# purestate
class NotNormalized(InputError):
    pass


class ZeroState(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class ProfileMismatch(InputError):
    pass


class NumericalInconsistency(NumericalError):
    pass


# spectra
class BadSpectrum(InputError):
    pass


class OutOfRange(InputError):
    pass


class DegeneratePoint(InputError):
    pass


# mixed
class BadShape(InputError):
    pass


class BadTrace(InputError):
    pass


class BadIndex(InputError):
    pass


class NotFormA(InputError):
    pass


class UnsupportedFamily(InputError):
    pass


# roofopt
class NotIsometry(InputError):
    pass


# sampling
class BadRank(InputError):
    pass


# cli
class ParseError(InputError):
    pass


class ValidationError(InputError):
    pass
