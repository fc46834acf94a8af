"""Semantic exception hierarchy shared across the package.

Every error raised on purpose by this library derives from :class:`LemError`,
so callers (including the CLI) can distinguish our failures from genuine bugs.
"""


class LemError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

class NotPositiveDefinite(LemError):
    """A matrix required to be positive definite has a nonpositive pivot."""


class SingularMatrix(LemError):
    """A linear solve failed; signals a collinear design or non-identified fit."""


# ---------------------------------------------------------------------------
# data ingestion / validation
# ---------------------------------------------------------------------------

class ParseError(LemError):
    """A cell could not be parsed; message carries row and column location."""


class MissingColumn(LemError):
    """A column named in the design spec is absent from the file header."""


class DuplicateObservation(LemError):
    """The same (subject, time) pair appears more than once."""


class NonBinaryTreatment(LemError):
    """Treatment value outside {0, 1}."""


class OneArmEmpty(LemError):
    """All observations fall in a single treatment arm."""


# ---------------------------------------------------------------------------
# likelihood / fitting
# ---------------------------------------------------------------------------

class NonFiniteLikelihood(LemError):
    """Pooled objective or score overflowed at a pathological parameter point."""


class SingularDesign(LemError):
    """A design matrix used for initialization or regression is rank deficient."""


class NoConvergence(LemError):
    """The optimizer stopped without reaching a score root.

    ``result`` holds the optimizer diagnostics for the best point reached.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class IndexOutOfRange(LemError):
    """Coefficient selector does not match any fitted parameter."""


class DimensionMismatch(LemError):
    """A supplied vector has the wrong length for the fitted design."""


class UnsortedKnots(LemError):
    """Spline knots are not a strictly increasing sequence of length >= 3."""


# ---------------------------------------------------------------------------
# GEE comparator
# ---------------------------------------------------------------------------

class AllRowsExcluded(LemError):
    """The treatment-excluded variant removed every observation."""
