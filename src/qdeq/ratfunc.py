"""Exact arithmetic in Z[q, q^-1] and the fraction field Q(q).

One immutable value type, RatQ: the element q^v * n/(s*d) of Q(q), one
flat record of integers (v, n, s, d).  n and d are integer tuples with
nonzero constant terms, so v is the exact ord_q and a q-power shift
touches v alone.  n/d is reduced, d is primitive with a positive leading
coefficient, and the positive integer s carries all rational scalar
content, with gcd(content(n), s) = 1.  The zero element is
(0, (), 1, (1,)).  RatQ(num, den) builds a constant from ints or
Fractions, and RatQ.from_ints(n, s, d, v) any element from integer lists.

The package reads the record alone, so q^v costs one exponent.  The num
and den properties give the dense reduced pair instead, of size |v|, as
read-only Dense records (ints, den) of an integer tuple over a positive
integer: the benchmark's checks and digests read them, and they stay
until those read the record.

ratq_sum is the one sum in Q(q).  It adds a list of RatQ terms with one
reduction at the end: it groups the terms by denominator, merges the
groups over one common denominator and takes a single gcd.  RatQ.__add__
is ratq_sum of its two operands, so a caller that holds a list of terms
sums it in one call rather than a fold of +.  The exact engine's Cauchy
sums and residual orders go through it, their terms formed by
_mul_unreduced with no gcd, where RatQ.__mul__ would cross-reduce with
two.

QLaurent is a print-only subclass: a RatQ with d = 1 that prints term
by term ("q-1+q^-1").  It adds no arithmetic of its own, and
RatQ.from_value turns it back into a plain RatQ.  _terms_text, the one
printer of Q(q), reads an integer list once from its top coefficient,
for RatQ.to_text (n, then s*d, q^v in the exponents) and QLaurent's.

The two valuations are the RatQ properties deg_q and ord_q: ints, and
NEG_INF, POS_INF = -math.inf, math.inf at 0, which order against ints and
negate into each other by value (-POS_INF is a new float: compare by ==).

fmt_coeff_poly prints polynomials over Q(q) in another variable (series
and x-polynomials, resonance polynomials in T) from (exponent,
coefficient) pairs.  power is the one square and multiply.
"""

import math
from collections import namedtuple
from fractions import Fraction
from operator import add, index, sub

from . import _intpoly as K
from .errors import DivisionByZero


NEG_INF, POS_INF = -math.inf, math.inf

#: the dense polynomial ints/den that RatQ.num and RatQ.den return
Dense = namedtuple("Dense", "ints den")


def _terms_text(ints, v, s=1):
    """(text, count of nonzero terms) of q^v * sum_e ints[e] q^e / s, from
    the top term down, each one f-string ("-3*q^-2", "+q", "1/2*q"); "0"
    for none.  A Fraction forms only for s > 1, which a QLaurent passes."""
    out = []
    e = v + len(ints)
    for c in reversed(ints):
        e -= 1
        if not c:
            continue
        sign = "+"
        if c < 0:
            sign, c = "-", -c
        if s > 1:
            c = Fraction(c, s)  # prints as "3/4", or "3" over 1
        if not e:
            out.append(f"{sign}{c}")
        elif c == 1:
            out.append(f"{sign}q" if e == 1 else f"{sign}q^{e}")
        else:
            out.append(f"{sign}{c}*q" if e == 1 else f"{sign}{c}*q^{e}")
    text = "".join(out) or "0"
    return text[1:] if text[0] == "+" else text, len(out)


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
    Every RatQ operation that forms a new numerator goes through it:
    from_ints, * and ratq_sum.  _mul_unreduced leaves its product to
    ratq_sum, and _inverse needs only a sign."""
    if s < 0:
        ints, s = [-c for c in ints], -s
    g = math.gcd(K.content(ints), s)
    if g > 1:
        ints, s = [c // g for c in ints], s // g
    return tuple(ints), s


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
        """The constant num/den, for ints or Fractions num and den."""
        if not (isinstance(num, (int, Fraction))
                and isinstance(den, (int, Fraction))):
            raise TypeError(f"cannot make a RatQ from "
                            f"{type(num).__name__}/{type(den).__name__}")
        if not den:
            raise DivisionByZero("zero denominator in Q(q)")
        x = Fraction(num, den)
        self.v, self.s, self.d = 0, x.denominator, (1,)
        self.n = (x.numerator,) if x else ()

    @staticmethod
    def from_ints(n, s=1, d=(1,), v=0):
        """q^v * n/(s*d) in the canonical layout, for ascending integer
        lists n and d (low zeros and common factors allowed), a nonzero
        integer s and an integer v.  Exact integers only: numpy ints and
        bools pass, a float or a Fraction raises TypeError."""
        n = K.trim(list(map(index, n)))
        d = K.trim(list(map(index, d)))
        s, v = index(s), index(v)
        if not d or not s:
            raise DivisionByZero("zero denominator in Q(q)")
        if not n:
            return _ZERO
        o, p = K.low(n), K.low(d)
        n, d = _lowest_terms(n[o:], d[p:])
        c, d = K.unit_normal(d)
        return _ratq(v + o - p, *_reduced(n, s * c), tuple(d))

    @staticmethod
    def from_value(v):
        """v as a plain RatQ (a QLaurent loses its Laurent print form);
        an int or Fraction through the constructor."""
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
        """Dense reduced numerator, a Dense record: q^v * n over s when
        v > 0, else n over s."""
        return Dense(tuple(K.shift(self.n, self.v)) if self.v > 0 else self.n,
                     self.s)

    @property
    def den(self):
        """Dense reduced denominator, a Dense record over 1: q^-v * d when
        v < 0, else d."""
        return Dense(tuple(K.shift(self.d, -self.v)) if self.v < 0 else self.d,
                     1)

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
        if not isinstance(other, (int, Fraction, RatQ)):
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
        if not isinstance(other, (int, Fraction, RatQ)):
            return NotImplemented
        return self + (-RatQ.from_value(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, RatQ)):
            return NotImplemented
        return RatQ.from_value(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, RatQ)):
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
        if not isinstance(other, (int, Fraction, RatQ)):
            return NotImplemented
        return self * RatQ.from_value(other)._inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction, RatQ)):
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
        if isinstance(other, (int, Fraction)):
            other = RatQ(other)
        if not isinstance(other, RatQ):
            return NotImplemented
        return (self.v == other.v and self.n == other.n
                and self.s == other.s and self.d == other.d)

    def __hash__(self):
        if self.v or len(self.n) > 1 or self.d != (1,):
            return hash((self.v, self.n, self.s, self.d))
        # a constant equals its int or Fraction, so it hashes as one
        c = self.n[0] if self.n else 0
        return hash(c if self.s == 1 else Fraction(c, self.s))

    def __bool__(self):
        return not self.is_zero()

    def to_text(self):
        """Integer-ratio text form, e.g. (q^2-1)/(q^3+2*q); round-trips by
        value.  q^v enters the exponents, never a dense list."""
        ptxt, terms = _terms_text(self.n, max(self.v, 0))
        if self.v >= 0 and self.s == 1 and self.d == (1,):
            return ptxt
        if terms > 1:
            ptxt = f"({ptxt})"
        dtxt, terms = _terms_text(K.scal(self.d, self.s), max(-self.v, 0))
        # "1/2*q" would reparse as (1/2)*q, so a monomial like 2*q needs
        # parentheses just as much as a sum does
        if terms > 1 or "*" in dtxt:
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
        return _terms_text(self.n, self.v, self.s)[0]

    def __repr__(self):
        return f"QLaurent({self.to_text()})"


#: the rational function q itself
Q = RatQ.from_ints((1,), v=1)


def pochhammer(a, base, k):
    """(a; q)_k = (1-a)(1-a*q)...(1-a*q^(k-1)) for a Laurent polynomial a.

    base must be "q"; (a; q^-1)_k is (a*q^(1-k); q)_k.  The empty
    product (k=0) is 1.  The product runs on integer lists: with a =
    q^v * n/c (n an integer polynomial, c its scalar denominator), c
    times factor j is c - q^(v+j) * n, so each factor costs one scale of
    the running product by c, one product with n (a scal when a is a
    monomial) and one shifted subtraction, and the Laurent offset is an
    int.  One QLaurent q^o * out/c^k is built at the end.  For k >= 1 an a
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
    return QLaurent(RatQ.from_ints(out, c ** k, v=o))
