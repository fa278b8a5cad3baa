from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeq.errors import InsufficientData, UncertainPolygon
from qdeq.growth import (analyze, estimate_order, fit_slack, predicted_orders,
                         valuation_profile, verify_bound)
from qdeq.nonlinear import linearize
from qdeq.ratfunc import NEG_INF, POS_INF, Q, RatQ
from qdeq.series import TruncSeries
from qdeq.skewop import NewtonPolygon, SkewOp, newton_polygon
from qdeq.solver import extend

from families import linear
from test_properties import COMMON


def tri(h):
    return h * (h - 1) // 2


def qpow_tower(n):
    # y_h = q^(h(h-1)/2), the closed-form solution of the one-step equation
    return TruncSeries([RatQ(1).shift_q(tri(h)) for h in range(n + 1)])


# ---------------------------------------------------------------------------
# valuation_profile


def test_profile_of_monomial_tower():
    degs, ords = valuation_profile(qpow_tower(12))
    assert degs == [tri(h) for h in range(13)]
    assert ords == [tri(h) for h in range(13)]


def test_profile_gap_sentinels():
    y = TruncSeries([RatQ(1), RatQ(0), RatQ(1)])
    degs, ords = valuation_profile(y)
    assert degs == [0, NEG_INF, 0]
    assert ords == [0, POS_INF, 0]


def test_profile_length_matches_truncation():
    y = TruncSeries([RatQ(3)], trunc=7)
    degs, ords = valuation_profile(y)
    assert len(degs) == len(ords) == 8
    assert degs[1:] == [NEG_INF] * 7


# ---------------------------------------------------------------------------
# estimate_order


def test_estimate_constructed_quadratic():
    prof = [2 * tri(h) + 3 * h for h in range(12)]
    assert estimate_order(prof, "deg") == Fraction(2)


def test_estimate_linear_is_zero():
    prof = [5 * h for h in range(10)]
    assert estimate_order(prof, "deg") == Fraction(0)


def test_estimate_jones_shape():
    prof = [n * (n - 1) for n in range(26)]
    assert estimate_order(prof, "deg") == Fraction(2)


def test_estimate_exact_on_rational_model():
    # s*h(h-1)/2 + b*h + c with fractional s comes back exactly
    s, b, c = Fraction(1, 3), Fraction(-2, 7), Fraction(5)
    prof = [s * tri(h) + b * h + c for h in range(9)]
    assert estimate_order(prof, "deg") == s


def test_estimate_ord_side_sign():
    falling = [-tri(h) for h in range(10)]
    assert estimate_order(falling, "ord") == Fraction(1)
    rising = [tri(h) for h in range(10)]
    assert estimate_order(rising, "ord") == Fraction(-1)


def test_estimate_needs_five_finite():
    with pytest.raises(InsufficientData):
        estimate_order([0, 1, 3, 6], "deg")


def test_estimate_needs_consecutive_run():
    gappy = [0, NEG_INF, 2, NEG_INF, 4, NEG_INF, 6, NEG_INF, 8, NEG_INF, 10]
    with pytest.raises(InsufficientData):
        estimate_order(gappy, "deg")


def test_estimate_rejects_bad_side():
    with pytest.raises(ValueError):
        estimate_order([0, 1, 2, 3, 4, 5], "up")


# ---------------------------------------------------------------------------
# verify_bound and fit_slack


def test_verify_jones_bound():
    prof = [n * (n - 1) for n in range(26)]
    assert verify_bound(prof, 2, 1, "deg") == (True, None)


def test_verify_fail_witness():
    prof = [h * h for h in range(6)]
    ok, witness = verify_bound(prof, 0, 1, "deg")
    assert not ok
    # h = 3 violates (9 > 3+1) but h = 2 already does (4 > 2+1) and the
    # witness is the smallest violating index
    assert witness == 2


def test_verify_ord_side():
    prof = [-tri(h) for h in range(10)]
    assert verify_bound(prof, 1, 0, "ord").ok
    ok, witness = verify_bound(prof, 0, 0, "ord")
    assert not ok and witness == 2


def test_verify_zero_entries_vacuous():
    prof = [0, NEG_INF, 0, NEG_INF, 100]
    assert verify_bound(prof, 0, 25, "deg").ok


def test_verify_monotone_spot():
    prof = [h * h for h in range(8)]
    assert not verify_bound(prof, 0, 3, "deg").ok
    assert verify_bound(prof, 2, 3, "deg").ok
    assert verify_bound(prof, 2, 30, "deg").ok


def test_fit_slack_is_minimal():
    prof = [h * h for h in range(6)]
    c = fit_slack(prof, 0, "deg")
    assert c == Fraction(25, 6)
    assert verify_bound(prof, 0, c, "deg").ok
    assert not verify_bound(prof, 0, c - Fraction(1, 100), "deg").ok


def test_fit_slack_never_negative():
    prof = [-10 * h for h in range(6)]
    assert fit_slack(prof, 0, "deg") == 0


# ---------------------------------------------------------------------------
# the ord side is the deg side of the negated profile

gappy_profiles = st.lists(
    st.one_of(st.integers(-80, 80), st.integers(-80, 80),
              st.sampled_from([NEG_INF, POS_INF])),
    max_size=14)
small_fractions = st.fractions(-3, 3, max_denominator=4)


def _or_insufficient(f, *args):
    try:
        return f(*args)
    except InsufficientData:
        return InsufficientData


@settings(max_examples=250, **COMMON)
@given(gappy_profiles, small_fractions, small_fractions)
def test_ord_side_mirrors_deg_side(prof, order, slack):
    neg = [-v for v in prof]
    assert (_or_insufficient(estimate_order, prof, "ord")
            == _or_insufficient(estimate_order, neg, "deg"))
    got = verify_bound(prof, order, slack, "ord")
    assert got == verify_bound(neg, order, slack, "deg")
    assert fit_slack(prof, order, "ord") == fit_slack(neg, order, "deg")
    # and the ord side is the lower bound its docstring states
    bad = [h for h, v in enumerate(prof) if v is not NEG_INF
           and v is not POS_INF and v < -(order * tri(h) + slack * (h + 1))]
    assert got == (not bad, bad[0] if bad else None)


# ---------------------------------------------------------------------------
# verify_bound and fit_slack against their Fraction references


def _finite_ref(v):
    return v != NEG_INF and v != POS_INF


def _verify_bound_ref(profile, order, slack, side):
    """verify_bound in Fraction arithmetic at every h."""
    profile = list(profile) if side == "deg" else [-v for v in profile]
    order, slack = Fraction(order), Fraction(slack)
    for h, v in enumerate(profile):
        if _finite_ref(v) and v > order * tri(h) + slack * h + slack:
            return (False, h)
    return (True, None)


def _fit_slack_ref(profile, order, side):
    """fit_slack in Fraction arithmetic at every h."""
    profile = list(profile) if side == "deg" else [-v for v in profile]
    order = Fraction(order)
    best = Fraction(0)
    for h, v in enumerate(profile):
        if _finite_ref(v):
            best = max(best, Fraction(v - order * tri(h), h + 1))
    return best


HUGE = RatQ(1).shift_q(10 ** 400).deg_q
wide_profiles = st.lists(
    st.one_of(st.integers(-80, 80), st.integers(-2 ** 90, 2 ** 90),
              st.sampled_from([NEG_INF, POS_INF, HUGE, -HUGE])),
    max_size=16)
wide_fractions = st.one_of(
    small_fractions, st.integers(-5, 5), st.fractions(),
    st.builds(Fraction, st.sampled_from((HUGE, -HUGE, 3 * HUGE + 1)),
              st.integers(1, 10 ** 6)))


@settings(max_examples=300, **COMMON)
@given(wide_profiles, wide_fractions, wide_fractions,
       st.sampled_from(("deg", "ord")))
def test_bounds_match_fraction_references(prof, order, slack, side):
    got = verify_bound(prof, order, slack, side)
    assert tuple(got) == _verify_bound_ref(prof, order, slack, side)
    fitted = fit_slack(prof, order, side)
    assert type(fitted) is Fraction
    assert fitted == _fit_slack_ref(prof, order, side)
    # and the fitted slack is the least that passes
    assert verify_bound(prof, order, fitted, side).ok
    if fitted > 0:
        assert not verify_bound(prof, order, fitted * (1 - Fraction(1, 10 ** 9)),
                                side).ok


# ---------------------------------------------------------------------------
# predicted_orders


def test_predicted_single_slope():
    P = NewtonPolygon([(0, 0), (1, 1)])
    assert predicted_orders(P) == (Fraction(1), Fraction(0))


def test_predicted_three_slopes():
    P = NewtonPolygon([(0, 2), (2, 1), (4, 1), (6, 2)])
    assert [s for s, _ in P.sides] == [Fraction(-1, 2), 0, Fraction(1, 2)]
    assert predicted_orders(P) == (Fraction(2), Fraction(2))


def test_predicted_flat_only():
    P = NewtonPolygon([(0, 0), (2, 0)])
    assert predicted_orders(P) == (Fraction(0), Fraction(0))


def test_predicted_uncertain_point_matters():
    # hidden coefficient at index 4 could sit as low as order 1,
    # creating a positive slope where none exists
    P = NewtonPolygon([(0, 0), (2, 0)], {4: 1})
    with pytest.raises(UncertainPolygon):
        predicted_orders(P)


def test_predicted_uncertain_point_harmless():
    # hidden point at (3, >= 2) can bend the middle of the hull but not
    # the extremal slopes 1/2 and (none negative)
    P = NewtonPolygon([(0, 0), (2, 1), (4, 10)], {3: 2})
    assert predicted_orders(P) == (Fraction(2), Fraction(0))


def test_predicted_wired_through_operator():
    # a zero-through-truncation coefficient flows into the polygon with
    # its bound attached and blocks the prediction when it could matter
    op = SkewOp({0: TruncSeries([RatQ(1)], trunc=5),
                 2: TruncSeries([], 5)})
    P = newton_polygon(op)
    assert P.uncertain == [2]
    assert P.uncertain_bounds == {2: 6}
    with pytest.raises(UncertainPolygon):
        predicted_orders(P)


# ---------------------------------------------------------------------------
# analyze / GrowthReport


def test_analyze_tower_report():
    rep = analyze(qpow_tower(12))
    assert rep.order_deg == Fraction(1)
    assert rep.order_ord == Fraction(-1)  # orders rise, never fall
    assert rep.passed()
    j = rep.to_json()
    assert j["estimated_order_deg"] == "1"
    assert j["deg_profile"][:4] == [0, 0, 1, 3]
    assert all(v["pass"] for v in j["verdicts"])


def test_analyze_explicit_bounds():
    rep = analyze(qpow_tower(12), order=1, slack=0)
    # rising orders satisfy the lower bound trivially
    assert all(v.ok for v in rep.verdicts.values())
    falling = TruncSeries([RatQ(1).shift_q(-tri(h)) for h in range(13)])
    rep = analyze(falling, order=0, slack=0)
    vo = rep.verdicts[("ord", Fraction(0), Fraction(0))]
    assert not vo.ok and vo.witness == 2


def test_analyze_polynomial_note():
    y = TruncSeries([RatQ(1), Q], trunc=8)
    rep = analyze(y)
    assert any("polynomial" in n for n in rep.notes)


def test_analyze_zero_series():
    rep = analyze(TruncSeries([], 6))
    assert rep.order_deg is None
    assert any("vanishes" in n for n in rep.notes)
    assert rep.passed()  # vacuous bounds at slack 0


def test_analyze_solver_consistency():
    # the one-step equation: measured deg-side order equals the polygon
    # prediction exactly, as rationals
    F = linear().F
    rep_solve = extend(F, [RatQ(1)], 12)
    y = rep_solve.solution
    L = linearize(F, y)
    P = newton_polygon(L)
    s, sp = predicted_orders(P)
    assert s == Fraction(1)
    rep = analyze(y, polygon=P)
    assert rep.order_deg == s
    assert any("within" in n for n in rep.notes)
    assert rep.passed()


def test_report_text_roundtrip():
    rep = analyze(qpow_tower(8))
    txt = rep.to_text()
    assert "estimated order (deg side): 1" in txt
    assert "pass" in txt
