"""Randomized invariants, at least 200 cases per suite.

Suites: valuation additivity in Q(q), the q^v * n/(s*d) layout of RatQ
against its dense reduced pair of integer lists (its text included), +
and the n-ary sum against a fold of cross-multiplied dense pairs
(_dense_add, with schoolbook products from _mul_coeffs), the
canonical layout of every operation's result, skew
composition soundness, polygon translation invariance, the sparse XPoly
against dense coefficient lists (_mul_coeffs), the resonance polynomial
against its dense construction, first-order Taylor agreement of the
linearization, parser round-trip, and exactness of the growth-order
estimator on synthetic quadratic profiles.
"""

import math
import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qdeq.dsl import parse, parse_ratq
from qdeq.growth import estimate_order
from qdeq.nonlinear import eval_at, linearize
from qdeq.ratfunc import (POS_INF, Q, QLaurent, RatQ, _mul_unreduced,
                          fmt_coeff_poly, pochhammer, ratq_sum)
from qdeq.series import TruncSeries, XPoly
from qdeq.skewop import (SkewOp, apply, lowest_row, newton_polygon, op_mul,
                         resonance_poly)

from families import nz_ints, qdeq_polys, ratq_any, ratq_nonzero

COMMON = dict(deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])

xpoly_any = st.lists(ratq_any, min_size=0, max_size=3).map(
    lambda cs: XPoly(enumerate(cs)))
xpoly_nonzero = xpoly_any.filter(lambda p: not p.is_zero())

skewop_exact = st.dictionaries(st.integers(-2, 2), xpoly_nonzero,
                               min_size=1, max_size=3).map(SkewOp)

series_small = st.lists(ratq_any, min_size=3, max_size=7).map(TruncSeries)


# -- valuation additivity in Q(q) ---------------------------------------


@settings(max_examples=250, **COMMON)
@given(ratq_nonzero, ratq_nonzero)
def test_valuations_add_on_products(a, b):
    p = a * b
    assert p.deg_q == a.deg_q + b.deg_q
    assert p.ord_q == a.ord_q + b.ord_q


@settings(max_examples=250, **COMMON)
@given(ratq_nonzero, ratq_nonzero)
def test_valuations_ultrametric_on_sums(a, b):
    s = a + b
    if s.is_zero():
        return
    assert s.deg_q <= max(a.deg_q, b.deg_q)
    assert s.ord_q >= min(a.ord_q, b.ord_q)
    if a.deg_q != b.deg_q:
        assert s.deg_q == max(a.deg_q, b.deg_q)
    if a.ord_q != b.ord_q:
        assert s.ord_q == min(a.ord_q, b.ord_q)


# -- the q^v * n/(s*d) layout against the dense reduced pair -------------


def _imul(a, b):
    """The product of two ascending integer lists, by _mul_coeffs'
    schoolbook loop."""
    if not a or not b:
        return []
    return _mul_coeffs(list(a), list(b), len(a) + len(b) - 1, 0)


def _dense_add(a, b):
    """a + b from the dense reduced pairs of integer lists by
    cross-multiplication, reduced by RatQ.from_ints' gcd: a reference sum
    that never calls ratq_sum or the _intpoly products."""
    a, b = RatQ.from_value(a), RatQ.from_value(b)
    an, ad, bn, bd = a.num, a.den.ints, b.num, b.den.ints
    x = [c * bn.den for c in _imul(an.ints, bd)]
    y = [c * an.den for c in _imul(bn.ints, ad)]
    size = max(len(x), len(y))
    x, y = (z + [0] * (size - len(z)) for z in (x, y))
    return RatQ.from_ints(list(map(operator.add, x, y)), an.den * bn.den,
                          _imul(ad, bd))


def _layout(r):
    return r.v, r.n, r.s, r.d


def _dense_text(r):
    """to_text's reference: the text of the dense reduced pair num/den,
    with num's scalar carried into the denominator."""
    p, d = list(r.num.ints), [c * r.num.den for c in r.den.ints]
    ptxt, dtxt = RatQ.from_ints(p).to_text(), RatQ.from_ints(d).to_text()
    if d == [1]:
        return ptxt
    if sum(map(bool, p)) > 1:
        ptxt = f"({ptxt})"
    if sum(map(bool, d)) > 1 or "*" in dtxt:
        dtxt = f"({dtxt})"
    return f"{ptxt}/{dtxt}"


ratq_shifted = st.builds(lambda r, k: r.shift_q(k), ratq_nonzero,
                         st.integers(-40, 40))


@settings(max_examples=250, **COMMON)
@given(ratq_shifted, ratq_shifted, st.integers(-40, 40))
def test_layout_matches_dense_pair(a, b, k):
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    for got, want in (
            (a + b, _dense_add(a, b)),
            (a * b, RatQ.from_ints(_imul(an.ints, bn.ints), an.den * bn.den,
                                   _imul(ad.ints, bd.ints))),
            (a / b, RatQ.from_ints([c * bn.den
                                    for c in _imul(an.ints, bd.ints)],
                                   an.den, _imul(ad.ints, bn.ints)))):
        assert got == want and hash(got) == hash(want)
    # the constant terms cancel whenever ord_q(a) > ord_q(b)
    assert (a + b) - b == a
    assert a.shift_q(k).shift_q(-k) == a
    assert a.shift_q(k) == a * Q ** k
    assert parse_ratq(a.to_text()) == a
    for r in (a, a / b):
        assert r.to_text() == _dense_text(r)


# -- + and the n-ary sum against a fold of _dense_add ---------------------

# primitive factors whose products give identical, nested, overlapping and
# coprime denominators
SUM_FACTORS = ((1, 1), (2, -1), (1, 1, 1), (1, 0, 3), (-1, 2, 0, 1))


@st.composite
def factored_term(draw):
    """q^v * n / (scalar * product of SUM_FACTORS)."""
    n, s = draw(nz_ints), draw(st.sampled_from((1, 2, 3, 5, 6)))
    d = [1]
    for f, used in zip(SUM_FACTORS, draw(st.lists(
            st.booleans(), min_size=5, max_size=5))):
        if used:
            d = _imul(d, f)
    return RatQ.from_ints(n, s, d, draw(st.integers(-3, 3)))


def _lowest(r):
    """The lowest-order term of a nonzero r, as a constant times q^v."""
    return (RatQ(Fraction(r.n[0], r.s)) / r.d[0]).shift_q(r.v)


@st.composite
def sum_terms(draw):
    """Factored terms, then maybe one more that cancels the whole sum or
    its lowest-order coefficient."""
    terms = [draw(factored_term()) for _ in range(draw(st.integers(0, 6)))]
    total = reduce(operator.add, terms, RatQ(0))
    tail = draw(st.sampled_from(("none", "all", "lowest")))
    if tail == "all":
        terms.append(-total)
    elif tail == "lowest" and not total.is_zero():
        terms.append(-_lowest(total))
    return draw(st.permutations(terms))


@settings(max_examples=300, **COMMON)
@given(sum_terms())
def test_ratq_sum_matches_fold(terms):
    got = ratq_sum(terms)
    want = reduce(_dense_add, terms, RatQ(0))
    assert got == want and hash(got) == hash(want)
    assert _layout(got) == _layout(want)


@st.composite
def add_operands(draw):
    """(kind, a, b): a factored term a and a partner b of the given kind."""
    a = draw(factored_term())
    kind = draw(st.sampled_from(("factored", "zero", "int", "fraction",
                                 "same_den", "cancel_lowest", "laurent")))
    if kind == "factored":
        b = draw(factored_term())
    elif kind == "zero":
        b = draw(st.sampled_from((0, Fraction(0), RatQ(0))))
    elif kind == "int":
        b = draw(st.integers(-5, 5).filter(bool))
    elif kind == "fraction":
        b = Fraction(draw(st.integers(-5, 5).filter(bool)),
                     draw(st.integers(2, 6)))
    elif kind == "same_den":
        b = RatQ.from_ints(draw(nz_ints), draw(st.sampled_from((1, 2, 3))),
                           a.d, draw(st.integers(-3, 3)))
        assume(b.d == a.d)  # n may share a factor with d and reduce
    elif kind == "cancel_lowest":
        # b's lowest term is minus a's, and the rest of b lies higher
        rest = draw(factored_term())
        b = rest.shift_q(a.v - rest.v + draw(st.integers(1, 3))) - _lowest(a)
    else:
        b = QLaurent(RatQ.from_ints(draw(nz_ints)), draw(st.integers(-3, 3)))
    return kind, a, b


@settings(max_examples=300, **COMMON)
@given(add_operands(), st.booleans())
def test_add_matches_dense_add(operands, swap):
    kind, a, b = operands
    x, y = (b, a) if swap else (a, b)  # an int or Fraction x runs __radd__
    for got, want in ((x + y, _dense_add(x, y)),
                      (x - y, _dense_add(x, -y))):
        assert type(got) is RatQ  # a QLaurent operand gives a plain RatQ
        assert _layout(got) == _layout(want)
    if kind == "cancel_lowest":
        s = a + b
        assert s.is_zero() or s.v > a.v  # the constant term cancelled


# -- the canonical layout of every RatQ result ----------------------------


def _assert_canonical(r):
    """(v, n, s, d) as the ratfunc docstring states it: integer tuples n
    and d over an integer s >= 1 with gcd(content(n), s) = 1, d primitive
    with a positive lead, nonzero constant and leading terms, and zero
    exactly (0, (), 1, (1,))."""
    v, n, s, d = _layout(r)
    assert type(n) is tuple and type(d) is tuple
    assert all(type(c) is int for c in (v, s, *n, *d))
    if not n:
        assert (v, n, s, d) == (0, (), 1, (1,))
        return
    assert s >= 1 and math.gcd(*n, s) == 1
    assert d and math.gcd(*d) == 1 and d[-1] > 0
    assert n[0] and n[-1] and d[0]


LAYOUT_OPS = ("init", "add", "sub", "cancel", "mul", "div", "inverse",
              "pow", "shift_q", "sum_unreduced", "pochhammer")

# operands with scalars, shared factors and either sign of v, or numbers
layout_operand = st.one_of(factored_term(), st.integers(-6, 6),
                           st.builds(Fraction, st.integers(-6, 6),
                                     st.integers(1, 12)))


@st.composite
def layout_results(draw):
    """(operation, result) for one operation that builds a RatQ."""
    op = draw(st.sampled_from(LAYOUT_OPS))
    a, b = draw(factored_term()), draw(layout_operand)
    if op == "init":
        # any signs, scalars and low zeros on either side, and either
        # sign of v; the denominator's scalar t scales the numerator
        n = draw(st.lists(st.integers(-6, 6), max_size=5))
        s = draw(st.sampled_from((1, -1, 2, -3, 4, 6, -12)))
        t = draw(st.sampled_from((1, -2, 3, 6)))
        return op, RatQ.from_ints([c * t for c in n], s, draw(nz_ints),
                                  draw(st.integers(-5, 5)))
    if op == "add":
        return op, b + a if draw(st.booleans()) else a + b
    if op == "sub":
        return op, b - a if draw(st.booleans()) else a - b
    if op == "cancel":
        return op, a + (-a) if draw(st.booleans()) else a - a
    if op == "mul":
        return op, b * a if draw(st.booleans()) else a * b
    if op == "div":
        assume(b != 0)
        return op, b / a if draw(st.booleans()) else a / b
    if op == "inverse":
        # / and a negative ** multiply by it, and the product would hide a
        # sign of s that it left negative
        return op, a._inverse()
    if op == "pow":
        return op, a ** draw(st.integers(-3, 3))
    if op == "shift_q":
        return op, a.shift_q(draw(st.integers(-5, 5)))
    if op == "sum_unreduced":
        pairs = draw(st.lists(st.tuples(factored_term(), factored_term()),
                              min_size=1, max_size=4))
        if draw(st.booleans()):  # the whole sum cancels
            pairs += [(-x, y) for x, y in pairs]
        return op, ratq_sum([_mul_unreduced(x, y) for x, y in pairs])
    body = draw(nz_ints)
    base = RatQ.from_ints(body, draw(st.sampled_from((1, 2, 3, 12))))
    return op, pochhammer(base.shift_q(draw(st.integers(-4, 4))), "q",
                          draw(st.integers(0, 6)))


@settings(max_examples=400, **COMMON)
@given(layout_results())
def test_every_result_has_the_canonical_layout(op_result):
    _, r = op_result
    _assert_canonical(r)


# -- skew composition soundness ------------------------------------------


@settings(max_examples=200, **COMMON)
@given(skewop_exact, skewop_exact, series_small)
def test_apply_respects_composition(A, B, y):
    lhs = apply(op_mul(A, B), y)
    rhs = apply(A, apply(B, y))
    assert lhs.trunc == rhs.trunc
    assert lhs.coeffs == rhs.coeffs


@settings(max_examples=200, **COMMON)
@given(skewop_exact, skewop_exact, skewop_exact)
def test_op_mul_is_associative(A, B, C):
    assert op_mul(op_mul(A, B), C) == op_mul(A, op_mul(B, C))


# -- polygon translation invariance --------------------------------------


@settings(max_examples=220, **COMMON)
@given(skewop_exact, st.integers(-3, 3), st.integers(0, 3))
def test_polygon_translates_with_sigma_and_x(A, c, k):
    base = newton_polygon(A)

    shifted = newton_polygon(op_mul(SkewOp({c: XPoly({0: 1})}), A))
    assert shifted.sides == base.sides
    assert shifted.vertices == [(i + c, l) for i, l in base.vertices]

    lifted = newton_polygon(op_mul(SkewOp({0: XPoly({k: 1})}), A))
    assert lifted.sides == base.sides
    assert lifted.vertices == [(i, l + k) for i, l in base.vertices]


# -- the sparse XPoly against dense coefficient lists --------------------

# ascending coefficients with runs of up to 40 zeros between the terms
dense_coeffs = st.lists(st.tuples(st.integers(0, 40), ratq_any),
                        max_size=4).map(
    lambda runs: [c for gap, t in runs for c in [RatQ(0)] * gap + [t]])


def _terms(dense):
    """The nonzero entries of a dense coefficient list, by exponent."""
    return {e: c for e, c in enumerate(dense) if not c.is_zero()}


def _dense(p):
    """p's coefficients x^0 .. x^deg, zeros included."""
    return [p.coeff(e) for e in range(max(p.terms, default=-1) + 1)]


def _mul_coeffs(a, b, n, zero=RatQ(0)):
    """Coefficients 0..n-1 of the product of two ascending coefficient
    lists, of RatQs or of ints (zero=0), skipping zero factors: the dense
    Cauchy product."""
    out = [zero] * n
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in enumerate(b[:n - i]):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


@settings(max_examples=250, **COMMON)
@given(dense_coeffs, dense_coeffs, st.integers(-3, 3))
def test_sparse_xpoly_matches_dense_lists(a, b, i):
    p, r = XPoly(enumerate(a)), XPoly(enumerate(b))
    n = max(len(a), len(b))
    pad_a, pad_b = (c + [RatQ(0)] * (n - len(c)) for c in (a, b))
    for got, dense in (
            (p, a),
            (p + r, [x + y for x, y in zip(pad_a, pad_b)]),
            (p - r, [x - y for x, y in zip(pad_a, pad_b)]),
            (p * r, _mul_coeffs(a, b, len(a) + len(b) - 1) if a and b else []),
            (p.sigma(i), [c.shift_q(i * h) for h, c in enumerate(a)])):
        assert got.terms == _terms(dense)
        assert got.ord_x == next(
            (h for h, c in enumerate(dense) if not c.is_zero()), POS_INF)
        assert got.to_text() == fmt_coeff_poly(enumerate(dense), "x")
        with pytest.raises(TypeError):
            hash(got)


# -- the resonance polynomial against its dense construction --------------

sparse_xpoly_nonzero = dense_coeffs.map(
    lambda cs: XPoly(enumerate(cs))).filter(lambda p: not p.is_zero())
sparse_skewop = st.dictionaries(st.integers(-2, 3), sparse_xpoly_nonzero,
                                min_size=1, max_size=3).map(SkewOp)


def _dense_resonance(op):
    """L(T), ascending and trimmed, from dense rows: lowest_row over every
    coefficient's x^0 .. x^deg, then alpha from the least index up."""
    m0 = min(op.terms)
    l, alpha = lowest_row({i: _dense(a) for i, a in op.terms.items()},
                          RatQ.is_zero)
    L = [alpha.get(i, RatQ(0)).shift_q(-m0 * l)
         for i in range(m0, max(alpha) + 1)]
    while L and L[-1].is_zero():
        L.pop()
    return L


@settings(max_examples=200, **COMMON)
@given(sparse_skewop, st.integers(0, 6))
def test_resonance_poly_matches_dense_rows(op, h):
    L, dense = resonance_poly(op), _dense_resonance(op)
    assert L.terms == _terms(dense)
    assert L.at_qpow(h) == reduce(operator.add, (
        c.shift_q(j * h) for j, c in enumerate(dense)), RatQ(0))


# -- first-order Taylor agreement of linearize ---------------------------


@settings(max_examples=200, **COMMON)
@given(qdeq_polys(), st.data())
def test_linearize_matches_first_order_difference(F, data):
    # perturb by z with ord(z) = 5: quadratic terms land past trunc 8
    N = 8
    y = TruncSeries([data.draw(ratq_any) for _ in range(N + 1)])
    z = TruncSeries([RatQ(0)] * 5
                    + [data.draw(ratq_any) for _ in range(N - 4)])
    yz = TruncSeries([a + b for a, b in zip(y.coeffs, z.coeffs)])
    lhs = [a - b for a, b in zip(eval_at(F, yz).coeffs, eval_at(F, y).coeffs)]
    rhs = apply(linearize(F, y), z)
    assert tuple(lhs) == rhs.coeffs


# -- parser round-trip ----------------------------------------------------


def _par(t):
    return f"({t})"


def _expr_texts(unknown):
    atoms = [st.integers(0, 9).map(str),
             st.just("q"),
             st.builds("q^{}".format, st.integers(-3, 3)),
             st.just("x")]
    if unknown:
        atoms.append(st.builds(f"{unknown}[{{}}]".format, st.integers(-2, 2)))
    divisor = st.one_of(st.integers(1, 9).map(str), st.just("q"),
                        st.builds("q^{}".format, st.integers(1, 3)))
    return st.recursive(
        st.one_of(*atoms),
        lambda inner: st.one_of(
            st.builds("{} + {}".format, inner, inner),
            st.builds("{} - {}".format, inner, inner),
            st.builds("(-{})".format, inner.map(_par)),
            st.builds(lambda a, b: f"{_par(a)}*{_par(b)}", inner, inner),
            st.builds(lambda a, d: f"{_par(a)}/{d}", inner, divisor),
            st.builds(lambda a, k: f"{_par(a)}^{k}", inner,
                      st.integers(1, 2)),
        ),
        max_leaves=12)


equation_texts = st.one_of(_expr_texts("y"), _expr_texts("S"),
                           _expr_texts(None))


@settings(max_examples=1000, **COMMON)
@given(equation_texts)
def test_parser_round_trip(text):
    src = parse(text)
    canon = src.canonical_text()
    again = parse(canon)
    if isinstance(src.parsed, SkewOp):
        # an operator that cancels to zero prints as a bare "0", which
        # cannot announce its operator-hood; skip that sliver
        assume(src.parsed.terms)
        assert again.kind == "linear_operator"
        assert again.parsed == src.parsed
    else:
        assert again.kind == "nonlinear"
        assert again.parsed == src.parsed
    assert again.canonical_text() == canon


# -- growth-order estimator exactness ------------------------------------


@settings(max_examples=300, **COMMON)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.integers(-8, 8), st.integers(-8, 8), st.integers(8, 24))
def test_estimate_order_exact_on_quadratics(s, b, c, length):
    prof = [s * h * (h - 1) / 2 + b * h + c for h in range(length)]
    assert estimate_order(prof, "deg") == s
    assert estimate_order([-v for v in prof], "ord") == s
    assert isinstance(estimate_order(prof, "deg"), Fraction)
