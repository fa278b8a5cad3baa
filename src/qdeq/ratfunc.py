"""Exact arithmetic in Q[q], Z[q, q^-1] and the fraction field Q(q).

Two immutable value types:

* QPoly     polynomial in q with rational coefficients, stored as a tuple
            of integers over one positive integer denominator with
            gcd(content, den) = 1 and no trailing zero coefficient;
* RatQ      the element q^v * n/(s*d) of Q(q), one flat record of
            integers (v, n, s, d).  n and d are integer tuples with
            nonzero constant terms, so v is the exact ord_q and a
            q-power shift touches v alone.  n/d is reduced, d is
            primitive with a positive leading coefficient, and the
            positive integer s carries all rational scalar content,
            with gcd(content(n), s) = 1.  The zero element is
            (0, (), 1, (1,)).  The package reads the record alone, so
            q^v costs one exponent; the num and den properties, dense
            QPolys of size |v|, are kept for the benchmark's checks and
            the tests.

ratq_sum is the one sum in Q(q).  It adds a list of RatQ terms with one
reduction at the end: it groups the terms by denominator, merges the
groups over one common denominator and takes a single gcd.  RatQ.__add__
is ratq_sum of its two operands, so a caller that holds a list of terms
sums it in one call rather than a fold of +.  The exact engine's Cauchy
sums and residual orders go through it, their terms formed by
_mul_unreduced with no gcd, where RatQ.__mul__ would cross-reduce with
two.

QLaurent is a RatQ with d = 1 that prints term by term ("q-1+q^-1");
it adds no arithmetic of its own, and RatQ.from_value turns it back into
a plain RatQ.

The two valuations are the RatQ properties deg_q and ord_q: ints, and
NEG_INF, POS_INF = -math.inf, math.inf at 0, which order against ints and
negate into each other by value (-POS_INF is a new float: compare by ==).

fmt_coeff_poly is the one printer for polynomials over Q(q) in another
variable: truncated series and x-polynomials (series) and resonance
polynomials in T (skewop) all print through it, from (exponent,
coefficient) pairs.  power is the one square and multiply.
"""

import math
from fractions import Fraction
from operator import add, index, sub

from . import _intpoly as K
from .errors import DivisionByZero


NEG_INF, POS_INF = -math.inf, math.inf


def _fmt_terms(pairs, var="q"):
    """[(exponent, nonzero int or Fraction)] descending -> text; exponents
    may be < 0."""
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


def fmt_coeff_poly(terms, var):
    """Ascending (exponent, coefficient over Q(q)) pairs -> text in powers
    of var, such as "1 + (q/(q+1))*x + x^3"; "0" when there are none."""
    parts = []
    for k, c in terms:
        if c.is_zero():
            continue
        t = c.to_text()
        if k == 0:
            parts.append(t)
            continue
        vs = var if k == 1 else f"{var}^{k}"
        if c.is_one():
            parts.append(vs)
        else:
            if is_compound(t):
                t = f"({t})"
            parts.append(f"{t}*{vs}")
    return " + ".join(parts) if parts else "0"


def power(base, k, one):
    """base**k (k >= 0) by square and multiply from one; every factor is
    a power of base, so a * that does not commute gives base**k too."""
    if k < 0:
        raise ValueError(f"negative power of a {type(base).__name__}")
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _reduced(ints, s):
    """The scalar normal form of ints/s, for nonzero s: (tuple, s) with
    s > 0 and gcd(content, s) = 1, so the zero polynomial gives ((), 1).
    QPoly's constructor goes through it, and so does every RatQ
    operation that forms a new numerator: the constructor, * and
    ratq_sum.  _mul_unreduced leaves its product to ratq_sum, and
    _inverse needs only a sign."""
    if s < 0:
        ints, s = [-c for c in ints], -s
    g = math.gcd(K.content(ints), s)
    if g > 1:
        ints, s = [c // g for c in ints], s // g
    return tuple(ints), s


class QPoly:
    """Polynomial in q over Q.  See the module docstring for the layout."""

    __slots__ = ("ints", "den")

    def __init__(self, ints=(), den=1):
        ints = list(map(index, ints))  # exact integers only
        den = index(den)
        if den == 0:
            raise DivisionByZero("QPoly denominator is zero")
        self.ints, self.den = _reduced(K.trim(ints), den)

    @classmethod
    def from_value(cls, v):
        if isinstance(v, QPoly):
            return v
        if isinstance(v, int):
            return cls((v,))
        if isinstance(v, Fraction):
            return cls((v.numerator,), v.denominator)
        raise TypeError(f"cannot make a QPoly from {type(v).__name__}")

    def is_zero(self):
        return not self.ints

    def __add__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        l = math.lcm(self.den, other.den)
        a = K.scal(self.ints, l // self.den)
        b = K.scal(other.ints, l // other.den)
        return QPoly(K.add(a, b), l)

    def __mul__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly(K.mul(list(self.ints), list(other.ints)), self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def __bool__(self):
        return bool(self.ints)

    def to_text(self):
        return _fmt_terms([(e, Fraction(c, self.den))
                           for e, c in enumerate(self.ints) if c][::-1])

    def __repr__(self):
        return f"QPoly({self.to_text()})"


def _lowest_terms(n, d):
    """n and d divided by their gcd, as integer lists."""
    if len(n) > 1 and len(d) > 1:
        _, n, d = K.gcd(n, d)
        return n, d
    return list(n), list(d)


def _mul_ints(a, b):
    """a*b of integer lists or tuples; a unit factor gives its partner
    itself, where K.mul's scal(a, 1) would copy it."""
    if len(a) == 1 == a[0]:
        return b
    return a if len(b) == 1 == b[0] else K.mul(a, b)


def _ratq(v, n, s, d):
    r = object.__new__(RatQ)
    r.v = v
    r.n = n
    r.s = s
    r.d = d
    return r


class RatQ:
    """Element q^v * n/(s*d) of Q(q); the carrier of deg_q and ord_q.

    See the module docstring for the layout.
    """

    __slots__ = ("v", "n", "s", "d")

    def __init__(self, num, den=1):
        num = QPoly.from_value(num)
        den = QPoly.from_value(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator in Q(q)")
        if num.is_zero():
            self.v, self.n, self.s, self.d = 0, (), 1, (1,)
            return
        n_ints = list(num.ints)
        d_ints = list(den.ints)
        o = K.low(n_ints)
        p = K.low(d_ints)
        self.v = o - p
        n_ints, d_ints = _lowest_terms(n_ints[o:], d_ints[p:])
        c, d_ints = K.unit_normal(d_ints)
        # scalar bookkeeping: value = (n_ints/num.den) * (den.den/(c*d_ints))
        if den.den > 1:
            n_ints = K.scal(n_ints, den.den)
        self.n, self.s = _reduced(n_ints, num.den * c)
        self.d = tuple(d_ints)

    @staticmethod
    def from_value(v):
        """v as a plain RatQ (a QLaurent loses its Laurent print form);
        an int, Fraction or QPoly through the constructor."""
        if type(v) is RatQ:
            return v
        if isinstance(v, RatQ):
            return _ratq(v.v, v.n, v.s, v.d)
        return RatQ(v)

    def to_ratq(self):
        """This value as a plain RatQ (a QLaurent drops its print form)."""
        return RatQ.from_value(self)

    @property
    def num(self):
        """Dense reduced numerator, a QPoly: q^v * n/s when v > 0, else
        n/s."""
        return QPoly(K.shift(self.n, self.v) if self.v > 0 else self.n,
                     self.s)

    @property
    def den(self):
        """Dense reduced denominator, a QPoly with integer coefficients:
        q^-v * d when v < 0, else d."""
        return QPoly(K.shift(self.d, -self.v) if self.v < 0 else self.d)

    def is_zero(self):
        return not self.n

    def is_one(self):
        return (self.v == 0 and self.n == (1,) and self.s == 1
                and self.d == (1,))

    @property
    def deg_q(self):
        if self.is_zero():
            return NEG_INF
        return self.v + len(self.n) - len(self.d)

    @property
    def ord_q(self):
        if self.is_zero():
            return POS_INF
        return self.v

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, RatQ)):
            return NotImplemented
        other = RatQ.from_value(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return RatQ.from_value(self)
        return ratq_sum([self, other])

    __radd__ = __add__

    def __neg__(self):
        return _ratq(self.v, tuple([-c for c in self.n]), self.s, self.d)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, RatQ)):
            return NotImplemented
        return self + (-RatQ.from_value(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, RatQ)):
            return NotImplemented
        return RatQ.from_value(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, RatQ)):
            return NotImplemented
        other = RatQ.from_value(other)
        if self.is_zero() or other.is_zero():
            return _ZERO
        # cross-reduce before multiplying to keep intermediates small;
        # by Gauss's lemma the product of the primitive denominators is
        # primitive, so only the numerator's scalar needs reducing
        n1, d2 = _lowest_terms(self.n, other.d)
        n2, d1 = _lowest_terms(other.n, self.d)
        return _ratq(self.v + other.v,
                     *_reduced(_mul_ints(n1, n2), self.s * other.s),
                     tuple(_mul_ints(d1, d2)))

    __rmul__ = __mul__

    def _inverse(self):
        if self.is_zero():
            raise DivisionByZero("division by zero in Q(q)")
        c, n = K.unit_normal(self.n)
        # gcd(content(s*d), c) = gcd(s, c) = 1 (d is primitive and n/s in
        # lowest terms), so only c's sign moves to the numerator
        s = self.s if c > 0 else -self.s
        return _ratq(-self.v, tuple(K.scal(self.d, s)), abs(c), tuple(n))

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, RatQ)):
            return NotImplemented
        return self * RatQ.from_value(other)._inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction, QPoly, RatQ)):
            return NotImplemented
        return RatQ.from_value(other) / self

    def __pow__(self, k):
        if k < 0:
            if self.is_zero():
                raise DivisionByZero("zero to a negative power in Q(q)")
            return self._inverse() ** (-k)
        return power(self, k, RatQ(1))

    def shift_q(self, k):
        """Multiply by q**k (either sign of k; an exact integer)."""
        k = index(k)
        if self.is_zero():
            return _ZERO
        return _ratq(self.v + k, self.n, self.s, self.d)

    def eval(self, x):
        """n(x) x^v / (s d(x)) at q = x; ZeroDivisionError at poles.

        n and d are evaluated separately, so at |x| = 1 cancellation loses
        every digit once the coefficients are large (q-Painleve II's c_30
        comes out with a relative error near 2e5; ROADMAP finding G).
        Never use it for a solution's point values.
        """
        n = K.eval_at(self.n, x) / self.s if self.n else 0 * x
        return n * x ** self.v / K.eval_at(self.d, x)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            other = RatQ(other)
        if not isinstance(other, RatQ):
            return NotImplemented
        return (self.v == other.v and self.n == other.n
                and self.s == other.s and self.d == other.d)

    def __hash__(self):
        return hash((self.v, self.n, self.s, self.d))

    def __bool__(self):
        return not self.is_zero()

    def to_text(self):
        """Integer-ratio text form, e.g. (q^2-1)/(q^3+2*q); round-trips by value."""
        # q^v enters the exponents, never a dense list: v may be huge
        p, d = self.n, K.scal(self.d, self.s)
        ptxt, dtxt = (
            _fmt_terms([(e + k, c) for e, c in enumerate(a) if c][::-1])
            for a, k in ((p, max(self.v, 0)), (d, max(-self.v, 0))))
        if dtxt == "1":
            return ptxt
        if sum(1 for c in p if c) > 1:
            ptxt = f"({ptxt})"
        # "1/2*q" would reparse as (1/2)*q, so a monomial like 2*q needs
        # parentheses just as much as a sum does
        if sum(1 for c in d if c) > 1 or "*" in dtxt:
            dtxt = f"({dtxt})"
        return f"{ptxt}/{dtxt}"

    def __repr__(self):
        return f"RatQ({self.to_text()})"


_ZERO = RatQ(0)


def _mul_unreduced(a, b):
    """a*b with no gcd, as a term for ratq_sum: n/d and the scalar s are
    left as the factors' products give them."""
    return _ratq(a.v + b.v, tuple(_mul_ints(a.n, b.n)), a.s * b.s,
                 tuple(_mul_ints(a.d, b.d)))


def ratq_sum(terms):
    """Sum of RatQ terms, reduced once (fraction-free inner product,
    Knuth 4.5.1).

    Its callers: RatQ.__add__ (so +, - and their reflections),
    ResonancePoly.at_qpow, and the exact engine, where
    ExactDomain.series_mul and, through ExactDomain.mul_term,
    Evaluator.eval pass products from _mul_unreduced.  So the terms need
    not be reduced, only in that layout, and a single term is reduced too.

    All terms are brought to q^v / l with v the least valuation and l the
    lcm of the scalar denominators.  Terms that share a denominator d add
    their numerators with no gcd.  The groups then merge, longest d first,
    over one denominator D: a d that divides D scales its numerator by the
    cofactor D/d, any other d multiplies into D.  So D may exceed the lcm
    of the denominators when two share a factor and neither divides the
    other; the one final gcd strips that excess more cheaply than a gcd
    per merge would keep D at the lcm.  The low zeros of the
    numerator move into v and one gcd with D reduces the result.  D is a
    product of primitive polynomials with positive leading coefficients,
    so it is one too (Gauss), and the result has the canonical layout.
    """
    terms = [t for t in terms if t.n]
    if not terms:
        return _ZERO
    v = min(t.v for t in terms)
    l = math.lcm(*(t.s for t in terms))
    groups = {}
    for t in terms:
        acc = groups.setdefault(t.d, [])
        off, s = t.v - v, l // t.s
        top = off + len(t.n)
        if len(acc) < top:
            acc.extend([0] * (top - len(acc)))
        ints = t.n if s == 1 else K.scal(t.n, s)
        acc[off:top] = map(add, acc[off:top], ints)
    D, N = [1], []
    for d, a in sorted(groups.items(), key=lambda g: -len(g[0])):
        if not K.trim(a):
            continue
        d = list(d)
        if not N:
            D, N = d, a
            continue
        try:
            cofactor = K.divexact(D, d)
        except ValueError:  # d does not divide D
            N = K.add(K.mul(N, d), K.mul(a, D))
            D = K.mul(D, d)
        else:
            N = K.add(N, K.mul(a, cofactor))
    if not N:
        return _ZERO
    o = K.low(N)  # the constant terms cancelled: q^o moves into v
    N, D = _lowest_terms(N[o:], D)
    return _ratq(v + o, *_reduced(N, l), tuple(D))


class QLaurent(RatQ):
    """A Laurent polynomial body * q**shift that prints term by term.

    It is a RatQ with denominator 1 and differs only in to_text, which
    writes "q-1+q^-1" where RatQ writes "(q^2-q+1)/q".  Arithmetic on it
    returns plain RatQ values.
    """

    __slots__ = ()

    def __init__(self, body, shift=0):
        r = RatQ.from_value(body).shift_q(shift)
        if r.d != (1,):
            raise ValueError("a QLaurent has denominator 1")
        self.v, self.n, self.s, self.d = r.v, r.n, r.s, r.d

    @classmethod
    def q_power(cls, k):
        return cls(1, k)

    def terms(self):
        """[(exponent, Fraction)] for nonzero coefficients, ascending."""
        return [(e + self.v, Fraction(c, self.s))
                for e, c in enumerate(self.n) if c]

    def to_text(self):
        if self.s > 1:
            return _fmt_terms(self.terms()[::-1])
        # integer coefficients print as they are, with no Fraction each
        return _fmt_terms([(e + self.v, c) for e, c in enumerate(self.n)
                           if c][::-1])

    def __repr__(self):
        return f"QLaurent({self.to_text()})"


#: the rational function q itself
Q = RatQ(QPoly((0, 1)))


def pochhammer(a, base, k):
    """(a; q)_k = (1-a)(1-a*q)...(1-a*q^(k-1)) for a Laurent polynomial a.

    base must be "q"; (a; q^-1)_k is (a*q^(1-k); q)_k.  The empty
    product (k=0) is 1.  The product runs on integer lists: with a =
    q^v * n/c (n an integer polynomial, c its scalar denominator), c
    times factor j is c - q^(v+j) * n, so each factor costs one scale of
    the running product by c, one product with n (a scal when a is a
    monomial) and one shifted subtraction, and the Laurent offset is an
    int.  One QLaurent over c^k is built at the end.  For k >= 1 an a
    with a nontrivial denominator raises ValueError: the product keeps
    that denominator.
    """
    if k < 0:
        raise ValueError("pochhammer length must be nonnegative")
    if base != "q":
        raise ValueError(f"unknown base {base!r}; use 'q'")
    a = RatQ.from_value(a)
    if k == 0 or a.is_zero():
        return QLaurent(1)
    if a.d != (1,):
        raise ValueError("pochhammer takes a Laurent polynomial")
    n, c = a.n, a.s
    out, o = [1], 0  # the product so far is q^o * out / c^j
    for j in range(k):
        e = a.v + j
        t = _mul_ints(out, n)
        out = K.scal(out, c)  # a new list: t may be out itself
        if e < 0:  # q^o * (c*out - q^e*t) = q^(o+e) * (q^-e*c*out - t)
            out[:0] = [0] * -e
            o += e
            e = 0
        top = e + len(t)
        if len(out) < top:
            out.extend([0] * (top - len(out)))
        out[e:top] = map(sub, out[e:top], t)
        K.trim(out)
    return QLaurent(QPoly(out, c ** k), o)
