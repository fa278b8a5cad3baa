"""Exception hierarchy for the qdeq package.

Every error raised by qdeq code subclasses QdeqError, so callers can
catch the whole family with one except clause.  Errors that carry
machine-usable data expose it as attributes (e.g. RootOfUnityDetected.n,
EquationSyntaxError.pos).
"""


class QdeqError(Exception):
    """Base class for all qdeq errors."""


class DivisionByZero(QdeqError, ZeroDivisionError):
    """Division by the zero element of Q(q), or by a zero series unit."""


class EmptyOperator(QdeqError):
    """An operation that needs a nonzero operator got the zero operator."""


class UncertainOrder(QdeqError):
    """The x-adic order of a truncated coefficient cannot be decided.

    Raised when a coefficient that is zero through its truncation could
    still attain the minimum order that the computation depends on.
    """


class UncertainPolygon(QdeqError):
    """A Newton polygon query depends on coefficients of unknown order."""


class IndexOutOfWindow(QdeqError):
    """A shift index outside an equation's window (its indices and 0)."""


class SeedRejected(QdeqError):
    """The seed prefix does not satisfy the equation far enough to extend."""


class InsufficientData(QdeqError):
    """Too few finite entries to run an estimator."""


class DegenerateAfterEvaluation(QdeqError):
    """Evaluating at the given q collapsed the polynomial (leading
    coefficient vanished, or a coefficient had a pole)."""


class RootOfUnityDetected(QdeqError):
    """q turned out to be a root of unity within the scanned range.

    Attribute n holds the smallest witness exponent with q**n = 1.
    """

    def __init__(self, n):
        self.n = n
        super().__init__(f"q is a root of unity: q^{n} = 1")


class EquationSyntaxError(QdeqError):
    """Malformed equation text.  Attribute pos is the 0-based offset."""

    def __init__(self, message, pos):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class MixedKind(QdeqError):
    """An equation mixing series unknowns y[i] and operator symbols S[i]."""


class NegativeXPower(QdeqError):
    """x raised to a negative power; x is a series variable, not a unit."""


class EngineError(QdeqError):
    """Internal failure of a solver engine (verification mismatch)."""


class UsageError(QdeqError):
    """A command-line flag that does not apply, or a value that does not
    parse; the message names the flag."""
