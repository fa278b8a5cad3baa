"""Skew operators: composition normal form, Newton polygons, T-polynomials."""

from fractions import Fraction

import pytest

from qdeq.errors import EmptyOperator, UncertainOrder
from qdeq.ratfunc import Q, RatQ
from qdeq.series import TruncSeries, XPoly
from qdeq.skewop import (
    NewtonPolygon,
    ResonancePoly,
    SkewOp,
    apply,
    lowest_row,
    newton_polygon,
    op_mul,
    resonance_poly,
)


def xp(*vals):
    return XPoly(enumerate(vals))


ONE = xp(1)
X = xp(0, 1)


def test_commutation_rule():
    # sigma o x = q*x o sigma
    A = SkewOp({1: ONE})
    B = SkewOp({0: X})
    got = op_mul(A, B)
    assert got == SkewOp({1: XPoly({1: Q})})
    # and in the other order nothing moves
    assert op_mul(B, A) == SkewOp({1: X})


def test_op_mul_cross_terms():
    # (sigma - 1)(sigma + 1) = sigma^2 - 1, with exact zero middle dropped
    A = SkewOp({1: ONE, 0: -ONE})
    B = SkewOp({1: ONE, 0: ONE})
    got = A * B
    assert got == SkewOp({2: ONE, 0: -ONE})
    assert 1 not in got.terms


def test_op_add_neg():
    A = SkewOp({1: X, 0: ONE})
    assert (A - A).is_zero()
    assert (A + SkewOp({})) == A
    with pytest.raises(EmptyOperator):
        resonance_poly(SkewOp({}))


def test_exact_terms_that_cancel_leave_the_zero_operator():
    A = SkewOp({1: X, 0: ONE})
    B = SkewOp({1: -X, 0: -ONE})
    assert (A + B).is_zero() and (A + B).terms == {}
    # (S[1] - 1) o x - q*x o S[1] + x = 0 by the commutation rule
    C = SkewOp({1: ONE, 0: -ONE})
    D = SkewOp({1: xp(0, -Q)})
    got = op_mul(C, SkewOp({0: X})) + D + SkewOp({0: X})
    assert got.is_zero() and got == SkewOp({})
    assert SkewOp([(2, X), (2, -X)]).is_zero()


def test_series_terms_that_vanish_through_truncation_stay():
    a = TruncSeries([RatQ(1), RatQ(1)], trunc=1)
    got = SkewOp({0: a, 1: TruncSeries([], 1)})
    assert sorted(got.terms) == [0, 1]
    assert got.terms[1] == TruncSeries([], 1)
    P = newton_polygon(got)
    assert P.vertices == [(0, 0)] and P.uncertain == [1]


def test_apply_exact():
    # x*S[1] - 1 on y = 1 + x + x^2
    A = SkewOp({1: X, 0: -ONE})
    y = TruncSeries([RatQ(1), RatQ(1), RatQ(1)])
    got = apply(A, y)
    assert got.trunc == 2
    assert got.coeffs == (RatQ(-1), RatQ(0), Q - 1)


def test_apply_series_flavor_min_trunc():
    a = TruncSeries([RatQ(1)], trunc=1)
    A = SkewOp({0: a})
    y = TruncSeries([RatQ(2), RatQ(3), RatQ(4)])
    got = apply(A, y)
    assert got.trunc == 1
    assert got.coeffs == (RatQ(2), RatQ(3))


def test_flavor_mixing_rejected():
    with pytest.raises(ValueError):
        SkewOp({0: ONE, 1: TruncSeries([], 2)})
    # operator arithmetic is for exact operators, the zero operator
    # included; a series operator is only inspected and applied
    E, S, Z = SkewOp({0: ONE}), SkewOp({0: TruncSeries([], 2)}), SkewOp({})
    for f in (lambda: E + S, lambda: S + E, lambda: S + S, lambda: Z + S,
              lambda: E - S, lambda: S - E, lambda: -S,
              lambda: op_mul(E, S), lambda: op_mul(S, Z), lambda: S * S):
        with pytest.raises(ValueError, match="exact operators"):
            f()


def test_newton_polygon_vertices_and_slopes():
    A = SkewOp({0: X, 1: ONE, 2: xp(0, 0, 1)})
    P = newton_polygon(A)
    assert P.vertices == [(0, 1), (1, 0), (2, 2)]
    assert P.sides == [(Fraction(-1), 1), (Fraction(2), 1)]
    assert P.slopes == [Fraction(-1), Fraction(2)]
    assert P.uncertain == []


def test_newton_polygon_collinear_points_are_not_vertices():
    A = SkewOp({0: ONE, 1: X, 2: xp(0, 0, 1)})
    P = newton_polygon(A)
    assert P.vertices == [(0, 0), (2, 2)]
    assert P.sides == [(Fraction(1), 2)]


def test_newton_polygon_single_point():
    P = newton_polygon(SkewOp({3: X}))
    assert P.vertices == [(3, 1)]
    assert P.sides == []
    assert P.slopes == []


def test_newton_polygon_empty():
    with pytest.raises(EmptyOperator):
        newton_polygon(SkewOp({}))
    allz = SkewOp({0: TruncSeries([], 3), 1: TruncSeries([], 3)})
    with pytest.raises(EmptyOperator):
        newton_polygon(allz)


def test_newton_polygon_uncertain_indices():
    A = SkewOp({0: TruncSeries([RatQ(1)], trunc=3), 1: TruncSeries([], 3)})
    P = newton_polygon(A)
    assert P.vertices == [(0, 0)]
    assert P.uncertain == [1]
    assert P.to_json() == {"vertices": [[0, "0"]], "slopes": [], "uncertain": [1]}


def test_polygon_json():
    A = SkewOp({0: X, 1: ONE, 2: xp(0, 0, 1)})
    assert newton_polygon(A).to_json() == {
        "vertices": [[0, "1"], [1, "0"], [2, "2"]],
        "slopes": ["-1", "2"],
        "uncertain": [],
    }


def test_lowest_vertex():
    # least order l = 1, reached last at index 3, so L has degree 3
    A = SkewOp({0: xp(0, 0, 1), 2: xp(0, 3), 3: X})
    assert resonance_poly(A) == ResonancePoly({2: 3, 3: 1})


def test_lowest_vertex_uncertainty():
    # masked coefficient with trunc 1 cannot certify orders below 2
    A = SkewOp({0: TruncSeries([RatQ(0), RatQ(0), RatQ(1)], trunc=2),
                1: TruncSeries([], 1)})
    with pytest.raises(UncertainOrder):
        resonance_poly(A)
    # with a deep enough truncation the same shape is fine: the lowest
    # vertex is (0, 2), so L(T) = 1
    B = SkewOp({0: TruncSeries([RatQ(0), RatQ(0), RatQ(1)], trunc=2),
                1: TruncSeries([], 5)})
    assert resonance_poly(B) == ResonancePoly({0: 1})
    # the same rule on bare rows of mixed truncation, in any domain
    def is_zero(v):
        return v == 0
    assert lowest_row({0: [0, 0, 1], 1: [0, 0, 0]}, is_zero) == (2, {0: 1, 1: 0})
    assert lowest_row({0: [0, 0, 1, 5], 1: [0] * 6, 2: [0, 0, 4]},
                      is_zero) == (2, {0: 1, 1: 0, 2: 4})
    with pytest.raises(UncertainOrder):
        lowest_row({0: [0, 0, 1], 1: [0, 0]}, is_zero)
    # rows that vanish throughout have no lowest row
    assert lowest_row({0: [0, 0], 1: [0]}, is_zero) is None
    assert lowest_row({}, is_zero) is None


def test_resonance_poly_support_shift():
    # qx*S[-1] + (1+q)x*S[0] + x*S[1]: after the sigma^{+1} normalization
    # L(T) = q^2 + q(1+q)T + qT^2 = q(T+1)(T+q)
    A = SkewOp({-1: XPoly({1: Q}), 0: XPoly({1: 1 + Q}), 1: X})
    L = resonance_poly(A)
    assert L.terms == {0: Q ** 2, 1: Q + Q ** 2, 2: Q}
    for h in range(1, 11):
        assert not L.at_qpow(h).is_zero()


def test_resonance_poly_eval():
    L = ResonancePoly({0: -1, 2: 1})  # T^2 - 1
    assert L.at_qpow(0).is_zero()
    assert L.at_qpow(3) == Q ** 6 - 1


def test_resonance_poly_text():
    L = ResonancePoly(enumerate([Q ** 2, Q + Q ** 2, Q, 0, -RatQ(1) / 2]))
    assert L.to_text() == "q^2 + (q^2+q)*T + q*T^2 + (-1/2)*T^4"


def test_resonance_poly_trims_lead():
    assert ResonancePoly({0: 1, 1: 0}).terms == {0: RatQ(1)}
    assert ResonancePoly({}).terms == {}
    # the same terms in x are another polynomial
    assert ResonancePoly({0: 1}) != XPoly({0: 1})
    assert XPoly({0: 1}) != ResonancePoly({0: 1})


def test_operator_text():
    A = SkewOp({1: X, 0: -ONE})
    assert A.to_text() == "(-1)*S[0] + x*S[1]"
    assert SkewOp({}).to_text() == "0"
