"""The printed form of Q(q): RatQ.to_text and QLaurent.to_text against a
reference printer, and the parse_ratq round trip.

The reference is the two-pass printer the package used before its
one-pass one: it gathers (exponent, coefficient) pairs, reverses them,
formats each from Fraction-like parts, and counts nonzero terms again for
the parentheses.  Every digest, contract row and round trip reads these
bytes, so the two must agree on every value.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qdeq.dsl import parse_ratq
from qdeq.ratfunc import QLaurent, RatQ


def _ref_terms(pairs):
    """[(exponent, nonzero int or Fraction)] descending -> text."""
    if not pairs:
        return "0"
    out = []
    for e, c in pairs:
        sign = "-" if c < 0 else "+"
        c = abs(c)
        cs = (str(c.numerator) if c.denominator == 1
              else f"{c.numerator}/{c.denominator}")
        if e == 0:
            body = cs
        else:
            v = "q" if e == 1 else f"q^{e}"
            body = v if c == 1 else f"{cs}*{v}"
        out.append(sign + body)
    text = "".join(out)
    return text[1:] if text[0] == "+" else text


def ref_ratq_text(r):
    p, d = r.n, [c * r.s for c in r.d]
    ptxt, dtxt = (
        _ref_terms([(e + k, c) for e, c in enumerate(a) if c][::-1])
        for a, k in ((p, max(r.v, 0)), (d, max(-r.v, 0))))
    if dtxt == "1":
        return ptxt
    if sum(1 for c in p if c) > 1:
        ptxt = f"({ptxt})"
    if sum(1 for c in d if c) > 1 or "*" in dtxt:
        dtxt = f"({dtxt})"
    return f"{ptxt}/{dtxt}"


def ref_laurent_text(r):
    return _ref_terms([(e + r.v, Fraction(c, r.s))
                       for e, c in enumerate(r.n) if c][::-1])


# coefficients up to 80 bits, each followed by a run of up to 40 zeros
coeff = st.one_of(st.just(0), st.integers(-3, 3),
                  st.integers(-2 ** 80, 2 ** 80))
ints = st.lists(st.tuples(coeff, st.integers(0, 40)), max_size=6).map(
    lambda runs: [x for c, k in runs for x in [c] + [0] * k])
valuation = st.one_of(st.integers(-8, 8), st.integers(-10 ** 30, 10 ** 30))
scalar = st.one_of(st.just(1), st.integers(2, 12), st.integers(1, 2 ** 80))
values = st.builds(
    lambda n, s, d, v: RatQ.from_ints(n, s, d, v),
    ints, scalar, ints.filter(any), valuation)
laurents = st.builds(lambda n, s, v: QLaurent(RatQ.from_ints(n, s, v=v)),
                     ints, scalar, valuation)


@settings(max_examples=300, deadline=None)
@given(values)
def test_ratq_text_matches_reference_and_round_trips(r):
    text = r.to_text()
    assert text == ref_ratq_text(r)
    assert parse_ratq(text) == r


@settings(max_examples=300, deadline=None)
@given(laurents)
def test_qlaurent_text_matches_reference_and_round_trips(r):
    text = r.to_text()
    assert text == ref_laurent_text(r)
    assert parse_ratq(text) == r


def test_printed_forms():
    # terms descend, q^v enters the exponents, the scalar folds into the
    # denominator, and a monomial denominator with a factor gets
    # parentheses like a sum
    assert RatQ.from_ints((1, 2), 3, v=-2).to_text() == "(2*q+1)/(3*q^2)"
    assert RatQ.from_ints((-1,), 1, (1, 1), 5).to_text() == "-q^5/(q+1)"
    assert RatQ.from_ints((1,), 1, (1, 0, 1), -1).to_text() == "1/(q^3+q)"
    assert RatQ.from_ints((0, 0, 0, 5, 0, 0, -1)).to_text() == "-q^6+5*q^3"
    assert (QLaurent(RatQ.from_ints((2, 0, 3, 4), 4, v=-5)).to_text()
            == "q^-2+3/4*q^-3+1/2*q^-5")
    assert QLaurent(RatQ.from_ints((-1,), v=1)).to_text() == "-q"
