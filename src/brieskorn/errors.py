"""Exception hierarchy.

Everything raised on purpose by this package derives from BrieskornError.
The CLI maps exception families to exit codes, so the split below is part of
the public contract:

* ValidationError and its subclasses: the caller handed us something outside
  an operation's domain (bad exponents, wrong dimension, invalid period, ...).
* BudgetExceeded: the request was well-formed but the configured work budget
  (lattice-point count, etc.) would be blown.
* InternalInconsistency: two independent computations of the same quantity
  disagreed.  This is never the caller's fault; it indicates a bug and is
  deliberately loud.
"""

__all__ = [
    "BrieskornError",
    "ValidationError",
    "InvalidExponent",
    "DimensionTooLow",
    "DimensionMismatch",
    "InvalidInstance",
    "PreconditionFailed",
    "ZeroPrincipalIndex",
    "NotMorseBottCover",
    "SchemaError",
    "NotLacunary",
    "BudgetExceeded",
    "InternalInconsistency",
]


class BrieskornError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BrieskornError):
    """A precondition on user-supplied data failed."""


class InvalidExponent(ValidationError):
    """Exponent vector malformed: too short, or an entry is not an integer >= 2."""


class DimensionTooLow(ValidationError):
    """The link dimension is too small for the requested classifier."""


class DimensionMismatch(ValidationError):
    """Operation requires a specific link dimension (e.g. 5 or 7)."""


class InvalidInstance(ValidationError):
    """A family sweep instantiated an exponent below 2."""


class PreconditionFailed(ValidationError):
    """Generic domain violation not covered by a more specific subclass."""


class ZeroPrincipalIndex(ValidationError):
    """The principal orbit has Maslov index zero, so mean values are undefined."""


class NotMorseBottCover(ValidationError):
    """The requested cover of a stratum is not Morse-Bott.

    Raised when some exponent outside the stratum's index set divides the
    total period N*T: the fixed-point set jumps and the index formula for the
    stratum does not apply to that cover.
    """


class NotLacunary(BrieskornError):
    """A first-page rank computation could not be certified lacunary.

    Raised by strict-mode rank averaging when the window check fails, i.e.
    when some differential of the spectral sequence could be non-zero and
    the first-page ranks are only upper bounds for the homology ranks.
    The alternating *sum* of the ranks is exact regardless, which is why
    the averaging functions only raise this on request.
    """


class BudgetExceeded(BrieskornError):
    """A configured work budget (e.g. lattice-point count) would be exceeded."""


class InternalInconsistency(BrieskornError):
    """Two independent computations of the same invariant disagree (a bug)."""


class SchemaError(ValidationError):
    """An imported record file is malformed or fails its cross-checks."""
