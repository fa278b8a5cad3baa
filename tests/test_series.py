"""Truncated series over Q(q): truncation honesty, sigma action, arithmetic."""

import pytest

from qdeq.ratfunc import POS_INF, Q, QPoly, RatQ
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


def test_ord_x_honesty():
    assert ts(0, 0, 5).ord_x == 2
    assert ts(1).ord_x == 0
    z = TruncSeries([], 3)
    assert z.ord_x is ABOVE_TRUNCATION
    # the sentinel ranks above every stored order
    assert ABOVE_TRUNCATION > 3
    assert not ABOVE_TRUNCATION < 10**9
    assert ABOVE_TRUNCATION >= ABOVE_TRUNCATION


def test_min_truncation_propagates():
    a = ts(1, 1, 1, 1)           # trunc 3
    b = ts(1, 2, trunc=5)        # trunc 5
    assert (a + b).trunc == 3
    assert (a - b).trunc == 3
    assert (a * b).trunc == 3


def test_add_mul_values():
    a = ts(1, 2, 3)
    b = ts(4, 5, 6)
    assert (a + b).coeffs == (RatQ(5), RatQ(7), RatQ(9))
    # Cauchy product: (1+2x+3x^2)(4+5x+6x^2) = 4 + 13x + 28x^2 + O(x^3)
    assert (a * b).coeffs == (RatQ(4), RatQ(13), RatQ(28))
    assert (a * RatQ(2)).coeffs == (RatQ(2), RatQ(4), RatQ(6))
    assert (2 * a) == a * RatQ(2)
    assert (-a).coeffs == (RatQ(-1), RatQ(-2), RatQ(-3))


def test_sigma_action():
    # y = 1 + x + x^2, sigma y = y(qx) = 1 + qx + q^2 x^2
    s = ts(1, 1, 1)
    g = s.sigma(1)
    assert g.coeffs == (RatQ(1), Q, Q ** 2)
    back = g.sigma(-1)
    assert back == s
    g3 = s.sigma(-2)
    assert g3.coeffs == (RatQ(1), Q ** -2, Q ** -4)
    assert s.sigma(0) == s


def test_scale_and_shift_x():
    s = ts(1, 1, 1)
    sh = s.shift_x(2)
    assert sh.trunc == 4
    assert sh.coeffs == (RatQ(0), RatQ(0), RatQ(1), RatQ(1), RatQ(1))
    with pytest.raises(ValueError):
        s.shift_x(-1)


def test_json_round_trip():
    s = TruncSeries([RatQ(1), Q / (1 + Q)], trunc=2)
    obj = s.to_json()
    assert obj == {"trunc": 2, "coeffs": ["1", "q/(q+1)", "0"]}


def test_text():
    s = TruncSeries([RatQ(1), Q / (1 + Q), RatQ(0), RatQ(-2)], 3)
    assert s.to_text() == "1 + (q/(q+1))*x + (-2)*x^3 + O(x^4)"
    assert TruncSeries([], 2).to_text() == "0 + O(x^3)"
    assert ts(0, 1).to_text() == "x + O(x^2)"
    assert XPoly([0, 1 / (1 + Q), -3]).to_text() == "(1/(q+1))*x + (-3)*x^2"
    assert XPoly().to_text() == "0"


def test_xpoly_exact():
    p = XPoly([RatQ(0), RatQ(1), RatQ(2)])
    assert p.ord_x == 1
    z = XPoly()
    assert z.is_zero()
    assert z.ord_x is POS_INF
    assert XPoly([RatQ(1), RatQ(0)]).coeffs == (RatQ(1),)


def test_xpoly_arith_and_sigma():
    p = XPoly([RatQ(1), RatQ(1)])          # 1 + x
    r = p * p
    assert r.coeffs == (RatQ(1), RatQ(2), RatQ(1))
    assert (p - p).is_zero()
    assert p.sigma(2).coeffs == (RatQ(1), Q ** 2)
    assert (Q * p).coeffs == (Q, Q)
