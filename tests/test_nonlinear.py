"""Nonlinear equation polynomials: evaluation, partials, linearization."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeq import _probes
from qdeq.dsl import parse
from qdeq.errors import IndexOutOfWindow, NegativeXPower
from qdeq.nonlinear import (
    Evaluator,
    ExactDomain,
    QdeqPoly,
    eval_at,
    linearize,
    partial,
    partial_rows,
)
from qdeq.ratfunc import Q, RatQ
from qdeq.series import TruncSeries
from qdeq.skewop import newton_polygon, resonance_poly

from test_properties import (COMMON, _mul_coeffs, qdeq_polys, ratq_any,
                             ratq_nonzero)
from test_solver import painleve_like


def test_constructor_canonicalizes():
    # the two keys canonicalize to the same monomial (k = 0 entries drop)
    F = QdeqPoly({(0, ((0, 1),)): RatQ(2), (0, ((0, 1), (1, 0))): RatQ(-2)})
    assert F == QdeqPoly({})
    G = QdeqPoly({(1, ()): RatQ(0)})
    assert G == QdeqPoly({})
    with pytest.raises(NegativeXPower):
        QdeqPoly({(-1, ()): RatQ(1)})


def test_constructor_merges_pairs():
    # repeated keys add, a repeated shift index adds its exponents, and
    # what cancels or falls to exponent 0 drops
    w0, w1 = QdeqPoly.w(0), QdeqPoly.w(1)
    F = QdeqPoly([((0, ((0, 1), (1, 1), (0, 1))), 3),
                  ((0, ((1, 1), (0, 2))), Q),
                  ((1, ((0, 0),)), 5),
                  ((1, ()), -5),
                  ((2, ((1, 1),)), Q),
                  ((2, ((1, 1), (0, 0))), -Q),
                  ((0, ((1, 2),)), 1)])
    assert F.monomials == {(0, ((0, 2), (1, 1))): 3 + Q,
                           (0, ((1, 2),)): RatQ(1)}
    assert F == QdeqPoly.const(3 + Q) * w0 * w0 * w1 + w1 * w1
    assert QdeqPoly([((0, ()), 1), ((0, ()), -1)]) == QdeqPoly({})


def test_partial_by_hand():
    w0, w1 = QdeqPoly.w(0), QdeqPoly.w(1)
    F = w0 * w0 * w1
    assert partial(F, 0) == QdeqPoly.const(2) * w0 * w1
    assert partial(F, 1) == QdeqPoly({(0, ((0, 2),)): 1})
    assert partial(w1, 1) == QdeqPoly({(0, ()): 1})
    assert partial(w1, 0) == QdeqPoly({})
    G = QdeqPoly({(3, ((1, 1),)): Q})  # q*x^3*w1
    assert partial(G, 1) == QdeqPoly({(3, ()): Q})
    assert partial(G, 0) == QdeqPoly({}) and partial(G, 0).window == (0, 0)
    with pytest.raises(IndexOutOfWindow):  # G's window is [0, 1]
        partial(G, -1)


def test_ring_ops():
    w0, one = QdeqPoly.w(0), QdeqPoly.const(1)
    assert (w0 + one) * (w0 - one) == w0 * w0 - one
    assert (w0 + one) * (w0 + one) == w0 * w0 + QdeqPoly.const(2) * w0 + one
    assert w0 - w0 == QdeqPoly({})
    # a number enters an equation through QdeqPoly.const or the DSL only,
    # and neither equations nor exact operators are hashable
    op = parse("x*S[1] - S[0]").parsed
    assert op.flavor == "exact"
    for bad in (lambda: w0 + 1, lambda: 2 * w0, lambda: w0 ** 2,
                lambda: 1 - w0, lambda: w0 * Q, lambda: hash(w0),
                lambda: hash(op)):
        with pytest.raises(TypeError):
            bad()
    wm = QdeqPoly.w(-2)
    assert (w0 * wm).window == (-2, 0)
    assert w0.used_indices() == {0}
    # the window is read from the indices used, and always holds 0
    assert QdeqPoly.w(2).window == (0, 2)
    assert (QdeqPoly.w(2) - QdeqPoly.w(2) + w0).window == (0, 0)


def test_qp2_monomial_count():
    F = painleve_like()
    assert F.window == (-1, 1)
    assert len(F.monomials) == 9


def test_eval_at_constant_one():
    F = painleve_like()
    phi = TruncSeries([1], 2)
    r = eval_at(F, phi)
    assert r.trunc == 2
    assert r.coeffs == (RatQ(0), RatQ(0), -Q)


def test_eval_at_respects_truncation():
    F = QdeqPoly({(3, ()): 1})
    phi = TruncSeries([1], 2)
    assert eval_at(F, phi) == TruncSeries([], 2)
    G = QdeqPoly.w(0) * QdeqPoly({(1, ()): 1})
    r = eval_at(G, TruncSeries([RatQ(1), RatQ(1), RatQ(1)]))
    assert r.coeffs == (RatQ(0), RatQ(1), RatQ(1))


def test_partial():
    F = painleve_like()
    # d/dw1 = (w0 + x) * w0 * (w0*w_{-1} - 1)
    P = partial(F, 1)
    w0 = QdeqPoly.w(0)
    wm = QdeqPoly.w(-1)
    x = QdeqPoly({(1, ()): 1})
    assert P == (w0 + x) * w0 * (w0 * wm - QdeqPoly.const(1))
    with pytest.raises(IndexOutOfWindow):
        partial(F, 2)


def test_linearize_along_qp2_expansion():
    F = painleve_like()
    a = Q / (1 + Q)
    phi = TruncSeries([RatQ(1), a], trunc=1)
    L = linearize(F, phi)
    assert L.flavor == "series"
    assert sorted(L.terms) == [-1, 0, 1]
    assert L.terms[-1].coeffs == (RatQ(0), Q)
    assert L.terms[0].coeffs == (RatQ(0), 1 + Q)
    assert L.terms[1].coeffs == (RatQ(0), RatQ(1))
    P = newton_polygon(L)
    assert P.vertices == [(-1, 1), (1, 1)]
    assert P.sides == [(Fraction(0), 2)]
    R = resonance_poly(L)
    assert R.terms == {0: Q ** 2, 1: Q + Q ** 2, 2: Q}


def test_linearize_drops_structural_zeros():
    F = QdeqPoly({(0, ((1, 1),)): RatQ(1)})  # just w1
    L = linearize(F, TruncSeries([1], 2))
    assert sorted(L.terms) == [1]


def test_json_shape():
    F = QdeqPoly.w(0) * QdeqPoly.w(1) - QdeqPoly({(1, ()): 1})
    obj = F.to_json()
    assert obj["window"] == [0, 1]
    assert {"x": 0, "w": {"0": 1, "1": 1}, "coeff": "1"} in obj["monomials"]
    assert {"x": 1, "w": {}, "coeff": "-1"} in obj["monomials"]


def test_text():
    F = QdeqPoly.w(0) * QdeqPoly.w(1) - QdeqPoly({(1, ()): 1})
    assert F.to_text() == "y[0]*y[1] + (-1)*x"
    assert QdeqPoly.const(0).to_text() == "0"
    G = QdeqPoly.w(-1, 2) * QdeqPoly.const(Q)
    assert G.to_text() == "q*y[-1]^2"


def test_from_operator():
    from qdeq.dsl import parse

    op = parse("x*S[1] - 1").parsed
    F = QdeqPoly.from_operator(op)
    assert F == parse("x*y[1] - y[0]").parsed
    assert F.window == (0, 1)


def test_from_operator_rejects_series_flavor():
    from qdeq.series import TruncSeries
    from qdeq.skewop import SkewOp

    op = SkewOp({0: TruncSeries([1], 3)})
    with pytest.raises(ValueError):
        QdeqPoly.from_operator(op)


# ---------------------------------------------------------------------------
# differential check of the substitution engine


def reference_residual(F, phi):
    """F(phi) from plain coefficient lists, with no Evaluator: sigma^i as
    c_h -> c_h * q^(i*h), products by the dense Cauchy product, x^e by
    padding, and the monomials summed order by order."""
    n = phi.trunc + 1
    acc = [RatQ(0)] * n
    for (e, exps), c in F.monomials.items():
        term = [c]
        for i, k in exps:
            shifted = [a.shift_q(i * h) for h, a in enumerate(phi.coeffs)]
            for _ in range(k):
                term = _mul_coeffs(term, shifted, n)
        term = ([RatQ(0)] * e + term + [RatQ(0)] * n)[:n]
        acc = [a + b for a, b in zip(acc, term)]
    return TruncSeries(acc, phi.trunc)


def assert_engine_matches_reference(F, phi):
    want = reference_residual(F, phi)
    assert eval_at(F, phi) == want
    # the same evaluator in the probe domain: values at random points
    # modulo a prime must be the images of the exact coefficients
    prime = 2147483647
    rnd = random.Random(5)
    dom = _probes.ProbeDomain(prime, _probes._lane_points(prime, 128, rnd))
    vals = [dom.from_ratq(c) for c in phi.coeffs]
    got = Evaluator(vals, dom).eval(F, 0, phi.trunc + 1)
    images = [dom.from_ratq(c) for c in want.coeffs]
    for g, w in zip(got, images):
        assert (g == w).all()


# a generic series, not a solution, so every residual order is nonzero
PHI_GENERIC = TruncSeries([RatQ(1), Q / (1 + Q), RatQ(0), Q ** 2 - 3,
                           (1 - Q) / (2 + Q ** 3), -Q ** -2, RatQ(Fraction(5, 7))])


def test_engine_matches_reference_qp2():
    assert_engine_matches_reference(painleve_like(), PHI_GENERIC)


def test_engine_matches_reference_phi11():
    op = parse("S[-2]*(S[1]-1)*(S[1]+1) - 2*q^-2*x").parsed
    assert_engine_matches_reference(QdeqPoly.from_operator(op), PHI_GENERIC)


def test_engine_matches_reference_linear():
    F = parse("x*y[1] - y[0] + 1").parsed
    assert_engine_matches_reference(F, PHI_GENERIC)


@settings(max_examples=40, **COMMON)
@given(qdeq_polys(), st.lists(ratq_any, min_size=1, max_size=6))
def test_engine_matches_reference_generated(F, coeffs):
    assert_engine_matches_reference(F, TruncSeries(coeffs))


# ---------------------------------------------------------------------------
# the relaxed evaluator against a fresh one on the same prefix


def _same(got, want):
    return len(got) == len(want) and all(
        np.array_equal(g, w) if isinstance(g, np.ndarray) else g == w
        for g, w in zip(got, want))


# (what, value, index or width, lo): "append" c_h, "replace" one earlier
# coefficient, as a scan sample is replaced, or "width": the range of the
# next evaluations, a smaller one too, as the solver reads its rows after
# a wider residual
evaluator_ops = st.lists(
    st.tuples(st.sampled_from(["append", "replace", "width"]), ratq_any,
              st.integers(0, 8), st.integers(0, 9)),
    min_size=1, max_size=8)


@settings(max_examples=60, **COMMON)
@given(qdeq_polys(), st.lists(ratq_any, min_size=1, max_size=3),
       evaluator_ops, st.sampled_from(["exact", "probe"]))
def test_relaxed_evaluator_matches_fresh(F, seed, ops, domain):
    if domain == "exact":
        dom = ExactDomain()
    else:
        prime = 2147483647
        rnd = random.Random(11)
        dom = _probes.ProbeDomain(prime, _probes._lane_points(prime, 48, rnd))
    ev = Evaluator([dom.from_ratq(c) for c in seed], dom)
    width = len(seed) + 1
    for what, c, n, lo in ops:
        if what == "append":
            ev.set(len(ev.phi), dom.from_ratq(c))
        elif what == "replace":
            ev.set(n % len(ev.phi), dom.from_ratq(c))
        else:
            width = n + 1
        lo = min(lo, width)
        fresh = Evaluator(ev.phi, dom)
        got, want = ev.eval(F, lo, width), fresh.eval(F, 0, width)
        assert len(got) == width
        assert _same(got[lo:], want[lo:])
        assert all(dom.is_zero(v) for v in got[:lo])
        rows = partial_rows(F, ev, width)
        want_rows = partial_rows(F, fresh, width)
        assert rows.keys() == want_rows.keys()
        assert all(_same(rows[i], want_rows[i]) for i in rows)


@pytest.mark.parametrize("lo", [0, 1, 3, 6, 7])
def test_eval_sums_only_the_orders_it_computes(lo):
    dom = ExactDomain()
    ev = Evaluator(PHI_GENERIC.coeffs, dom)
    width = PHI_GENERIC.trunc + 1
    with mock.patch.object(dom, "sum", wraps=dom.sum) as summed:
        got = ev.eval(painleve_like(), lo, width)
    assert summed.call_count == width - lo
    assert len(got) == width
    assert all(v.is_zero() for v in got[:lo])
    assert got[lo:] == list(eval_at(painleve_like(), PHI_GENERIC).coeffs[lo:])


# ---------------------------------------------------------------------------
# the product plan


def test_qp2_takes_six_cauchy_products():
    # qp2's six monomials of degree >= 2 are each one shift times another
    # of its own (y0^2*y1 = y0*y1 * y0, ...), so an evaluation forms six
    # products and no chain link such as y0^2 that no monomial needs
    F = painleve_like()
    assert F._plan is None  # planned on first evaluation, not before
    dom = ExactDomain()
    ev = Evaluator(PHI_GENERIC.coeffs, dom)
    width = PHI_GENERIC.trunc + 1
    with mock.patch.object(dom, "series_mul", wraps=dom.series_mul) as mul:
        ev.eval(F, 0, width)
    assert mul.call_count == 6
    # the partials reuse those six and add the four only they need:
    # y0^3*y1, y-1*y0^3, y0^2 and y-1*y0*y1
    with mock.patch.object(dom, "series_mul", wraps=dom.series_mul) as mul:
        partial_rows(F, ev, width)
    assert mul.call_count == 4


@st.composite
def chained_polys(draw):
    """Equations whose monomials divide one another: each is an earlier
    one (or 1) times one or two more shift powers, so the plan builds it
    from that one, where splitting off the last index would not."""
    chain, mons = [()], {}
    for _ in range(draw(st.integers(1, 5))):
        base = draw(st.sampled_from(chain))
        more = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 2)),
                             min_size=1, max_size=2))
        (_, exps), = QdeqPoly({(0, base + tuple(more)): 1}).monomials
        if sum(k for _, k in exps) <= 6:
            chain.append(exps)
            mons[draw(st.integers(0, 2)), exps] = draw(ratq_nonzero)
    return QdeqPoly(mons)


# (what, value, index): "set" c_h at the index, or at one past the end if
# it is beyond, or "eval" through one order past phi F (index 0 mod 3), its
# partials (1) or the second equation (2)
plan_ops = st.lists(
    st.tuples(st.sampled_from(["set", "eval"]), ratq_any, st.integers(0, 4)),
    min_size=1, max_size=6)


@settings(max_examples=200, **COMMON)
@given(chained_polys(), chained_polys(), st.lists(ratq_any, min_size=1,
                                                 max_size=3),
       plan_ops, st.sampled_from(["exact", "probe"]))
def test_planned_products_match_reference(F, G, seed, ops, domain):
    # F, its partials and G share one evaluator and its products, each
    # equation following its own plan, while coefficients are set
    if domain == "exact":
        dom = ExactDomain()
    else:
        prime = 2147483647
        rnd = random.Random(13)
        dom = _probes.ProbeDomain(prime, _probes._lane_points(prime, 32, rnd))
    phi = list(seed)
    ev = Evaluator([dom.from_ratq(c) for c in phi], dom)
    for what, c, n in ops:
        if what == "set":
            h = min(n, len(phi))
            phi[h:h + 1] = [c]
            ev.set(h, dom.from_ratq(c))
            continue
        width = len(phi) + 1
        ref = TruncSeries(phi, width - 1)
        if n % 3 == 1:
            rows = partial_rows(F, ev, width)
            pairs = [(rows[i], partial(F, i)) for i in rows]
        else:
            E = G if n % 3 == 2 else F
            pairs = [(ev.eval(E, 0, width), E)]
        for got, E in pairs:
            want = reference_residual(E, ref).coeffs
            assert _same(got, [dom.from_ratq(w) for w in want])
