"""Power series in x over Q(q), truncated, plus exact x-polynomials.

TruncSeries stores the coefficients c_0 .. c_N of a formal series
together with its truncation order N.  Everything is dense and eager;
arithmetic propagates the minimum truncation of the operands, because a
sum or product is only trustworthy as far as both inputs are.

ord_x on a TruncSeries is honest about what a truncated object can
know: if every stored coefficient vanishes it returns the
ABOVE_TRUNCATION sentinel ("the order is at least N+1"), never 0 and
never a made-up number.

A series owns at most one exact evaluator (set by nonlinear on first
use, or handed over by extend), whose products live as long as it.

XPoly is the exact companion: a genuine polynomial in x over Q(q), with
no truncation, used for operator coefficients that are known exactly.
"""

from .ratfunc import POS_INF, RatQ, fmt_coeff_poly


class _AboveTruncation:
    """ord_x sentinel: every coefficient up to the truncation vanishes."""

    __slots__ = ()

    def __repr__(self):
        return "ABOVE_TRUNCATION"

    # ranks above every stored order, mirroring "at least N+1"
    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self


ABOVE_TRUNCATION = _AboveTruncation()


def _mul_coeffs(a, b, n):
    """Coefficients 0..n-1 of the product of two ascending coefficient
    lists, skipping zero factors."""
    out = [RatQ(0)] * n
    for i, x in enumerate(a[:n]):
        if x.is_zero():
            continue
        for j, y in enumerate(b[:n - i]):
            if not y.is_zero():
                out[i + j] = out[i + j] + x * y
    return out


class TruncSeries:
    """c_0 + c_1 x + ... + c_N x^N + O(x^(N+1)) with c_h in Q(q)."""

    __slots__ = ("coeffs", "trunc", "evaluator")

    def __init__(self, coeffs, trunc=None):
        coeffs = [RatQ.from_value(c) for c in coeffs]
        if trunc is None:
            if not coeffs:
                raise ValueError("empty series needs an explicit truncation")
            trunc = len(coeffs) - 1
        if trunc < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) < trunc + 1:
            coeffs += [RatQ(0)] * (trunc + 1 - len(coeffs))
        elif len(coeffs) > trunc + 1:
            del coeffs[trunc + 1:]
        self.coeffs = tuple(coeffs)
        self.trunc = trunc
        self.evaluator = None

    @classmethod
    def constant(cls, v, trunc):
        return cls([RatQ.from_value(v)], trunc)

    @property
    def ord_x(self):
        for h, c in enumerate(self.coeffs):
            if not c.is_zero():
                return h
        return ABOVE_TRUNCATION

    def shift_x(self, k):
        """Multiply by x**k (k >= 0); knowledge extends to trunc + k."""
        if k < 0:
            raise ValueError("series cannot absorb a negative x-power")
        return TruncSeries([RatQ(0)] * k + list(self.coeffs), self.trunc + k)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.trunc, other.trunc)
        return TruncSeries(
            [self.coeffs[h] + other.coeffs[h] for h in range(n + 1)], n)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncSeries([-c for c in self.coeffs], self.trunc)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            n = min(self.trunc, other.trunc)
            return TruncSeries(_mul_coeffs(self.coeffs, other.coeffs, n + 1), n)
        c = RatQ.from_value(other)
        return TruncSeries([c * a for a in self.coeffs], self.trunc)

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.trunc, self.coeffs))

    def sigma(self, i):
        """The q-shift sigma^i: y(x) -> y(q^i x), so c_h -> c_h * q^(i*h)."""
        return TruncSeries(
            [c.shift_q(i * h) for h, c in enumerate(self.coeffs)], self.trunc)

    def to_json(self):
        return {"trunc": self.trunc, "coeffs": [c.to_text() for c in self.coeffs]}

    def to_text(self):
        return f"{fmt_coeff_poly(self.coeffs, 'x')} + O(x^{self.trunc + 1})"

    def __repr__(self):
        return f"TruncSeries({self.to_text()})"


class XPoly:
    """Exact polynomial in x with coefficients in Q(q)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [RatQ.from_value(c) for c in coeffs]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not self.coeffs

    @property
    def ord_x(self):
        for h, c in enumerate(self.coeffs):
            if not c.is_zero():
                return h
        return POS_INF

    def coeff(self, h):
        if 0 <= h < len(self.coeffs):
            return self.coeffs[h]
        return RatQ(0)

    def __add__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return XPoly([self.coeff(h) + other.coeff(h) for h in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return XPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, XPoly):
            if self.is_zero() or other.is_zero():
                return XPoly()
            return XPoly(_mul_coeffs(self.coeffs, other.coeffs,
                                     len(self.coeffs) + len(other.coeffs) - 1))
        c = RatQ.from_value(other)
        return XPoly([c * a for a in self.coeffs])

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def sigma(self, i):
        """a(x) -> a(q^i x)."""
        return XPoly([c.shift_q(i * h) for h, c in enumerate(self.coeffs)])

    def to_text(self):
        return fmt_coeff_poly(self.coeffs, "x")

    def __repr__(self):
        return f"XPoly({self.to_text()})"
