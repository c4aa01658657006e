"""Package-wide error types.

Every operation either returns an exact result, returns a
:class:`gkdirac.report.Report` (named checks with their witnesses), or
raises one of these.  Nothing in the package silently degrades to floating
point or drops a failed certificate.
"""

__all__ = [
    "GkdError",
    "SingularityError",
    "UnsupportedSceneError",
    "CertificateError",
]


class GkdError(Exception):
    """Base class for all package errors."""


class SingularityError(GkdError):
    """A required inverse does not exist (degenerate determinant).

    Carries a rendering of the offending determinant and, when the failure
    was detected at a specific point, that point.
    """

    def __init__(self, message, determinant=None, point=None):
        super().__init__(message)
        self.determinant = determinant
        self.point = point


class UnsupportedSceneError(GkdError):
    """The input is outside the exactly-representable fragment.

    Raised instead of approximating: e.g. a polynomial matrix whose inverse
    has no polynomial entries and which is not a t-series either.
    """


class CertificateError(GkdError):
    """An exactness certificate that should hold by construction failed."""

