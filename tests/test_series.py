"""Truncated series over Q(q) as records (construction, truncation
honesty, text and JSON), and exact x-polynomials with their arithmetic."""

import pytest

from qdeq.ratfunc import POS_INF, Q, RatQ
from qdeq.series import ABOVE_TRUNCATION, TruncSeries, XPoly


def ts(*vals, trunc=None):
    return TruncSeries([RatQ.from_value(v) if not isinstance(v, RatQ) else v
                        for v in vals], trunc)


def test_construction_and_padding():
    s = ts(1, 2, 3)
    assert s.trunc == 2
    assert s.coeffs[1] == RatQ(2)
    t = TruncSeries([RatQ(1)], trunc=4)
    assert t.trunc == 4 and t.coeffs[4] == RatQ(0)
    u = TruncSeries([RatQ(1), RatQ(2), RatQ(3)], trunc=1)
    assert u.coeffs == (RatQ(1), RatQ(2))
    with pytest.raises(ValueError):
        TruncSeries([], None)
    with pytest.raises(ValueError):
        TruncSeries([RatQ(1)], -1)
    # the truncation is an exact integer, as XPoly's exponents are
    with pytest.raises(TypeError):
        TruncSeries([RatQ(1)], 2.0)
    with pytest.raises(TypeError):
        TruncSeries([RatQ(1), RatQ(2), RatQ(3)], 1.0)


def test_ord_x_honesty():
    assert ts(0, 0, 5).ord_x == 2
    assert ts(1).ord_x == 0
    z = TruncSeries([], 3)
    assert z.ord_x is ABOVE_TRUNCATION


def test_json_round_trip():
    s = TruncSeries([RatQ(1), Q / (1 + Q)], trunc=2)
    obj = s.to_json()
    assert obj == {"trunc": 2, "coeffs": ["1", "q/(q+1)", "0"]}


def test_text():
    s = TruncSeries([RatQ(1), Q / (1 + Q), RatQ(0), RatQ(-2)], 3)
    assert s.to_text() == "1 + (q/(q+1))*x + (-2)*x^3 + O(x^4)"
    assert TruncSeries([], 2).to_text() == "0 + O(x^3)"
    assert ts(0, 1).to_text() == "x + O(x^2)"
    assert XPoly({1: 1 / (1 + Q), 2: -3}).to_text() == "(1/(q+1))*x + (-3)*x^2"
    assert XPoly().to_text() == "0"


def test_xpoly_exact():
    p = XPoly({1: 1, 2: 2})
    assert p.ord_x == 1
    z = XPoly()
    assert z.is_zero()
    assert z.ord_x is POS_INF
    assert XPoly({0: 1, 1: 0}).terms == {0: RatQ(1)}
    with pytest.raises(ValueError):
        XPoly({-1: 1})


def test_xpoly_arith_and_sigma():
    p = XPoly({0: 1, 1: 1})          # 1 + x
    r = p * p
    assert r.terms == {0: RatQ(1), 1: RatQ(2), 2: RatQ(1)}
    assert (p - p).is_zero()
    assert p.sigma(2).terms == {0: RatQ(1), 1: Q ** 2}
    assert (XPoly({0: Q}) * p).terms == {0: Q, 1: Q}
    # a product is of two XPolys; a scalar is promoted first, as parse does
    with pytest.raises(TypeError):
        Q * p
    with pytest.raises(TypeError):
        p * 2
