"""Exact arithmetic in Q[q], Z[q, q^-1] and the fraction field Q(q).

Three immutable value types:

* QPoly     polynomial in q with rational coefficients, stored as a tuple
            of integers over one positive integer denominator with
            gcd(content, den) = 1 and no trailing zero coefficient;
* QLaurent  Laurent polynomial body * q**shift, where the body has a
            nonzero constant term, so shift is the exact ord_q;
* RatQ      reduced fraction num/den of q-polynomials.  The denominator
            is primitive with integer coefficients and positive leading
            coefficient; all rational scalar content lives in num; the
            zero element is 0/1.

The two valuations deg_q and ord_q take values in Z extended by the
NEG_INF / POS_INF sentinels defined here (never magic integers), and
norm() reports ultrametric norms in exact log form: the exponent of the
base d, with no real arithmetic involved.
"""

import math
from fractions import Fraction

from . import _intpoly as K
from .errors import DivisionByZero


class _Inf:
    """Signed infinity sentinel for valuations of the zero element."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __repr__(self):
        return "POS_INF" if self.sign > 0 else "NEG_INF"

    def __lt__(self, other):
        if other is self:
            return False
        return self.sign < 0

    def __gt__(self, other):
        if other is self:
            return False
        return self.sign > 0

    def __le__(self, other):
        return self is other or self.sign < 0

    def __ge__(self, other):
        return self is other or self.sign > 0

    def __neg__(self):
        return NEG_INF if self.sign > 0 else POS_INF

    def __add__(self, other):
        if isinstance(other, _Inf) and other.sign != self.sign:
            raise ArithmeticError("POS_INF + NEG_INF is undefined")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other) if isinstance(other, _Inf) else self

    def __rsub__(self, other):
        return -self


NEG_INF = _Inf(-1)
POS_INF = _Inf(+1)


def _fmt_ipoly(ints, var="q"):
    """Integer coefficient list (ascending) -> text, descending powers."""
    if not ints:
        return "0"
    out = []
    for e in range(len(ints) - 1, -1, -1):
        c = ints[e]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if c == 1 else f"{c}*{v}"
        out.append(sign + body)
    text = "".join(out)
    return text[1:] if text[0] == "+" else text


def _fmt_terms(pairs, var="q"):
    """[(exponent, nonzero Fraction)] descending -> text; exponents may be < 0."""
    if not pairs:
        return "0"
    out = []
    for e, c in pairs:
        sign = "-" if c < 0 else "+"
        c = abs(c)
        cs = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        if e == 0:
            body = cs
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if c == 1 else f"{cs}*{v}"
        out.append(sign + body)
    text = "".join(out)
    return text[1:] if text[0] == "+" else text


def is_compound(text):
    """Does a coefficient's text need parentheses before "*x"-style
    factors?  True for sums, differences, negations and quotients."""
    return "+" in text or "-" in text or "/" in text


class QPoly:
    """Polynomial in q over Q.  See the module docstring for the layout."""

    __slots__ = ("ints", "den")

    def __init__(self, ints=(), den=1):
        ints = [int(c) for c in ints]
        K.trim(ints)
        den = int(den)
        if den == 0:
            raise DivisionByZero("QPoly denominator is zero")
        if not ints:
            self.ints = ()
            self.den = 1
            return
        if den < 0:
            ints = [-c for c in ints]
            den = -den
        g = math.gcd(K.content(ints), den)
        if g > 1:
            ints = [c // g for c in ints]
            den //= g
        self.ints = tuple(ints)
        self.den = den

    @classmethod
    def from_value(cls, v):
        if isinstance(v, QPoly):
            return v
        if isinstance(v, int):
            return cls((v,))
        if isinstance(v, Fraction):
            return cls((v.numerator,), v.denominator)
        raise TypeError(f"cannot make a QPoly from {type(v).__name__}")

    @classmethod
    def from_fractions(cls, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        return cls([c.numerator * (den // c.denominator) for c in coeffs], den)

    def is_zero(self):
        return not self.ints

    def is_one(self):
        return self.ints == (1,) and self.den == 1

    @property
    def coeffs(self):
        return tuple(Fraction(c, self.den) for c in self.ints)

    def coeff(self, k):
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.den)
        return Fraction(0)

    @property
    def degree(self):
        return len(self.ints) - 1 if self.ints else NEG_INF

    @property
    def ord(self):
        return K.low(list(self.ints)) if self.ints else POS_INF

    def shift_q(self, k):
        if k < 0:
            raise ValueError("QPoly cannot absorb a negative q-power")
        return QPoly(K.shift(list(self.ints), k), self.den)

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, QPoly)):
            return NotImplemented
        other = QPoly.from_value(other)
        l = math.lcm(self.den, other.den)
        a = K.scal(list(self.ints), l // self.den)
        b = K.scal(list(other.ints), l // other.den)
        return QPoly(K.add(a, b), l)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QPoly)):
            return NotImplemented
        return self + (-QPoly.from_value(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, QPoly)):
            return NotImplemented
        return QPoly.from_value(other) + (-self)

    def __neg__(self):
        return QPoly([-c for c in self.ints], self.den)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, QPoly)):
            return NotImplemented
        other = QPoly.from_value(other)
        return QPoly(K.mul(list(self.ints), list(other.ints)), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a QPoly")
        out = QPoly((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def eval(self, v):
        if not self.ints:
            return 0 * v
        return K.eval_at(list(self.ints), v) / self.den

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.from_value(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def __hash__(self):
        return hash((self.ints, self.den))

    def __bool__(self):
        return bool(self.ints)

    def to_text(self):
        return _fmt_terms([(e, Fraction(c, self.den))
                           for e, c in enumerate(self.ints) if c][::-1])

    def __repr__(self):
        return f"QPoly({self.to_text()})"


class QLaurent:
    """Laurent polynomial in q: body * q**shift with body(0) != 0."""

    __slots__ = ("shift", "body")

    def __init__(self, body, shift=0):
        if not isinstance(body, QPoly):
            body = QPoly.from_value(body)
        if body.is_zero():
            self.body = body
            self.shift = 0
            return
        o = body.ord
        if o:
            body = QPoly(body.ints[o:], body.den)
        self.body = body
        self.shift = shift + o

    @classmethod
    def q_power(cls, k):
        return cls(QPoly((1,)), k)

    @classmethod
    def from_value(cls, v):
        if isinstance(v, QLaurent):
            return v
        return cls(QPoly.from_value(v))

    def is_zero(self):
        return self.body.is_zero()

    @property
    def deg_q(self):
        return NEG_INF if self.is_zero() else self.shift + self.body.degree

    @property
    def ord_q(self):
        return POS_INF if self.is_zero() else self.shift

    def coeff(self, e):
        return self.body.coeff(e - self.shift)

    def terms(self):
        """[(exponent, Fraction)] for nonzero coefficients, ascending."""
        return [(e + self.shift, Fraction(c, self.body.den))
                for e, c in enumerate(self.body.ints) if c]

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent)):
            return NotImplemented
        other = QLaurent.from_value(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        m = min(self.shift, other.shift)
        a = self.body.shift_q(self.shift - m)
        b = other.body.shift_q(other.shift - m)
        return QLaurent(a + b, m)

    __radd__ = __add__

    def __neg__(self):
        return QLaurent(-self.body, self.shift)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent)):
            return NotImplemented
        return self + (-QLaurent.from_value(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent)):
            return NotImplemented
        return QLaurent.from_value(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent)):
            return NotImplemented
        other = QLaurent.from_value(other)
        return QLaurent(self.body * other.body, self.shift + other.shift)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a QLaurent")
        out = QLaurent.q_power(0)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            other = QLaurent.from_value(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.shift == other.shift and self.body == other.body

    def __hash__(self):
        return hash((self.shift, self.body))

    def to_ratq(self):
        if self.shift >= 0:
            return RatQ(self.body.shift_q(self.shift))
        return RatQ(self.body, QPoly((1,)).shift_q(-self.shift))

    def to_text(self):
        return _fmt_terms(self.terms()[::-1])

    def __repr__(self):
        return f"QLaurent({self.to_text()})"


def _coerce_qpoly(v):
    if isinstance(v, QLaurent):
        if v.shift < 0:
            raise ValueError("negative q-power needs a RatQ")
        return v.body.shift_q(v.shift)
    return QPoly.from_value(v)


class RatQ:
    """Reduced fraction of q-polynomials; the carrier of deg_q and ord_q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if isinstance(num, QLaurent) and not isinstance(den, QLaurent) and den == 1:
            r = num.to_ratq()
            self.num, self.den = r.num, r.den
            return
        num = _coerce_qpoly(num)
        den = _coerce_qpoly(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator in Q(q)")
        if num.is_zero():
            self.num = QPoly()
            self.den = QPoly((1,))
            return
        n_ints = list(num.ints)
        d_ints = list(den.ints)
        if len(d_ints) > 1:
            g = K.gcd(n_ints, d_ints)
            if len(g) > 1 or g[0] != 1:
                n_ints = K.divexact(n_ints, g)
                d_ints = K.divexact(d_ints, g)
        c = K.content(d_ints)
        if d_ints[-1] < 0:
            c = -c
        if c != 1:
            d_ints = K.exact_scal_div(d_ints, c)
        # scalar bookkeeping: value = (n_ints/num.den) * (den.den/(c*d_ints))
        self.num = QPoly(K.scal(n_ints, den.den), num.den * c)
        self.den = QPoly(d_ints, 1)

    @classmethod
    def from_value(cls, v):
        if isinstance(v, RatQ):
            return v
        return cls(v)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    @property
    def deg_q(self):
        if self.is_zero():
            return NEG_INF
        return self.num.degree - self.den.degree

    @property
    def ord_q(self):
        if self.is_zero():
            return POS_INF
        return self.num.ord - self.den.ord

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent, RatQ)):
            return NotImplemented
        other = RatQ.from_value(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatQ(self.num + other.num, self.den)
        # reduce by the denominator gcd first (Knuth 4.5.1): with both
        # operands already reduced, the only factor the naive num/den
        # cross product can share is inside g, so the one gcd left to
        # take is gcd(t, g) instead of a gcd against d1*d2
        g = K.gcd(list(self.den.ints), list(other.den.ints))
        if len(g) == 1:  # coprime denominators (g is content-free)
            return RatQ(self.num * other.den + other.num * self.den,
                        self.den * other.den)
        d1 = K.divexact(list(self.den.ints), g)
        d2 = K.divexact(list(other.den.ints), g)
        t = self.num * QPoly(d2) + other.num * QPoly(d1)
        if t.is_zero():
            return RatQ(0)
        h = K.gcd(list(t.ints), g)
        if len(h) > 1:
            t = QPoly(K.divexact(list(t.ints), h), t.den)
            g = K.divexact(g, h)
        r = object.__new__(RatQ)
        r.num = t
        r.den = QPoly(K.mul(K.mul(d1, d2), g))
        return r

    __radd__ = __add__

    def __neg__(self):
        r = object.__new__(RatQ)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent, RatQ)):
            return NotImplemented
        return self + (-RatQ.from_value(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent, RatQ)):
            return NotImplemented
        return RatQ.from_value(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent, RatQ)):
            return NotImplemented
        other = RatQ.from_value(other)
        # cross-reduce before multiplying to keep intermediates small
        a = RatQ(self.num, other.den)
        b = RatQ(other.num, self.den)
        r = object.__new__(RatQ)
        r.num = a.num * b.num
        r.den = a.den * b.den
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent, RatQ)):
            return NotImplemented
        other = RatQ.from_value(other)
        if other.is_zero():
            raise DivisionByZero("division by zero in Q(q)")
        return self * RatQ(other.den, other.num)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, QLaurent, RatQ)):
            return NotImplemented
        return RatQ.from_value(other) / self

    def __pow__(self, k):
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("zero to a negative power in Q(q)")
            return RatQ(self.den, self.num) ** (-k)
        out = RatQ(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def shift_q(self, k):
        """Multiply by q**k (either sign of k)."""
        if k >= 0:
            return RatQ(self.num.shift_q(k), self.den)
        return RatQ(self.num, self.den.shift_q(-k))

    def eval(self, v):
        """Numeric evaluation at q = v; raises ZeroDivisionError at poles."""
        return self.num.eval(v) / self.den.eval(v)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QPoly, QLaurent)):
            other = RatQ.from_value(other)
        if not isinstance(other, RatQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def to_text(self):
        """Integer-ratio text form, e.g. (q^2-1)/(q^3+2*q); round-trips by value."""
        p = list(self.num.ints)
        d = K.scal(list(self.den.ints), self.num.den)
        if len(d) == 1 and d[0] == 1:
            return _fmt_ipoly(p)
        ptxt = _fmt_ipoly(p)
        dtxt = _fmt_ipoly(d)
        if sum(1 for c in p if c) > 1:
            ptxt = f"({ptxt})"
        # "1/2*q" would reparse as (1/2)*q, so a monomial like 2*q needs
        # parentheses just as much as a sum does
        if sum(1 for c in d if c) > 1 or "*" in dtxt:
            dtxt = f"({dtxt})"
        return f"{ptxt}/{dtxt}"

    def to_json(self):
        num = [[e, str(c.numerator) if c.denominator == 1
                else f"{c.numerator}/{c.denominator}"]
               for e, c in enumerate(self.num.coeffs) if c]
        den = [[e, str(c)] for e, c in enumerate(self.den.ints) if c]
        return {"num": num, "den": den}

    def __repr__(self):
        return f"RatQ({self.to_text()})"


#: the rational function q itself
Q = RatQ(QPoly((0, 1)))


def deg_q(a):
    """Degree valuation on Q(q); NEG_INF for zero.  Additive on products."""
    if isinstance(a, RatQ):
        return a.deg_q
    if isinstance(a, QLaurent):
        return a.deg_q
    if isinstance(a, QPoly):
        return a.degree
    return RatQ.from_value(a).deg_q


def ord_q(a):
    """Order-at-zero valuation on Q(q); POS_INF for zero."""
    if isinstance(a, RatQ):
        return a.ord_q
    if isinstance(a, QLaurent):
        return a.ord_q
    if isinstance(a, QPoly):
        return a.ord
    return RatQ.from_value(a).ord_q


def pochhammer(a, base, k):
    """(a; q)_k = (1-a)(1-a*q)...(1-a*q^(k-1)), exactly, as a QLaurent.

    base="q_inv" uses ratio q^-1 instead of q.  The empty product (k=0)
    is 1.
    """
    if k < 0:
        raise ValueError("pochhammer length must be nonnegative")
    if base == "q":
        step = 1
    elif base == "q_inv":
        step = -1
    else:
        raise ValueError(f"unknown base {base!r}; use 'q' or 'q_inv'")
    a = QLaurent.from_value(a)
    out = QLaurent(QPoly((1,)))
    for j in range(k):
        out = out * (QLaurent(QPoly((1,))) - a * QLaurent.q_power(step * j))
    return out
