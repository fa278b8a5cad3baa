"""Power series in x over Q(q), truncated, plus exact x-polynomials.

TruncSeries stores the coefficients c_0 .. c_N of a formal series
together with its truncation order N.  It is a record: it has no ring
operations, because series arithmetic is the evaluator's
(nonlinear.Evaluator substitutes a series into an equation).

ord_x on a TruncSeries is honest about what a truncated object can
know: if every stored coefficient vanishes it returns the
ABOVE_TRUNCATION sentinel ("the order is at least N+1"), never 0 and
never a made-up number.

A series owns at most one exact evaluator (set by nonlinear on first
use, or handed over by extend), whose products live as long as it.

XPoly is the exact companion: a genuine polynomial in x over Q(q), with
no truncation, used for operator coefficients that are known exactly.
It is sparse, {exponent: nonzero coefficient}, so x^e costs one term
however large e is, and no operation on it spans the exponents between
its terms.
"""

from operator import index

from .ratfunc import POS_INF, RatQ, fmt_coeff_poly


class _AboveTruncation:
    """ord_x sentinel: every coefficient up to the truncation vanishes."""

    __slots__ = ()

    def __repr__(self):
        return "ABOVE_TRUNCATION"


ABOVE_TRUNCATION = _AboveTruncation()


class TruncSeries:
    """c_0 + c_1 x + ... + c_N x^N + O(x^(N+1)) with c_h in Q(q)."""

    __slots__ = ("coeffs", "trunc", "evaluator")

    def __init__(self, coeffs, trunc=None):
        coeffs = [RatQ.from_value(c) for c in coeffs]
        if trunc is None:
            if not coeffs:
                raise ValueError("empty series needs an explicit truncation")
            trunc = len(coeffs) - 1
        trunc = index(trunc)
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        zeros = (RatQ(0),) * (trunc + 1 - len(coeffs))
        self.coeffs = tuple(coeffs[:trunc + 1]) + zeros
        self.trunc = trunc
        self.evaluator = None

    @property
    def ord_x(self):
        for h, c in enumerate(self.coeffs):
            if not c.is_zero():
                return h
        return ABOVE_TRUNCATION

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def to_json(self):
        return {"trunc": self.trunc, "coeffs": [c.to_text() for c in self.coeffs]}

    def to_text(self):
        return (f"{fmt_coeff_poly(enumerate(self.coeffs), 'x')}"
                f" + O(x^{self.trunc + 1})")

    def __repr__(self):
        return f"TruncSeries({self.to_text()})"


class XPoly:
    """Exact polynomial in a variable (var, x here) over Q(q), stored as
    terms {exponent: nonzero RatQ}, ascending."""

    __slots__ = ("terms",)
    var = "x"

    def __init__(self, terms=()):
        """terms: a dict or an iterable of (exponent, coefficient) pairs.
        This is where terms merge: coefficients that share an exponent
        add, and zeros drop."""
        merged = {}
        for e, c in terms.items() if isinstance(terms, dict) else terms:
            e, c = index(e), RatQ.from_value(c)
            if e < 0:
                raise ValueError(f"negative exponent of {self.var}: {e}")
            prev = merged.get(e)
            merged[e] = c if prev is None else prev + c
        self.terms = {e: c for e, c in sorted(merged.items())
                      if not c.is_zero()}

    def is_zero(self):
        return not self.terms

    @property
    def ord_x(self):
        return next(iter(self.terms), POS_INF)

    def coeff(self, h):
        return self.terms.get(h, RatQ(0))

    def __add__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return XPoly([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return XPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return XPoly((e1 + e2, c1 * c2)
                     for e1, c1 in self.terms.items()
                     for e2, c2 in other.terms.items())

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return type(self) is type(other) and self.terms == other.terms

    def sigma(self, i):
        """a(x) -> a(q^i x)."""
        return XPoly({e: c.shift_q(i * e) for e, c in self.terms.items()})

    def to_json(self):
        return {str(e): c.to_text() for e, c in self.terms.items()}

    def to_text(self):
        return fmt_coeff_poly(self.terms.items(), self.var)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"
