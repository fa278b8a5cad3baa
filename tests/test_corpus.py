"""Corpus entries: frozen reference values and entry execution."""

import importlib
from fractions import Fraction

import pytest

from qdeq import growth
from qdeq.corpus import (
    JONES_ANNIHILATOR_TEXT,
    JONES_OPERATOR_TEXT,
    _phi11_coeff,
    CorpusEntry,
    Expectation,
    corpus,
    get_entry,
    jones,
    jones_series,
)
from qdeq.dsl import parse, parse_ratq
from qdeq.errors import InsufficientData
from qdeq.nonlinear import QdeqPoly
from qdeq.ratfunc import RatQ, QLaurent, pochhammer, ratq_sum
from qdeq.series import TruncSeries
from qdeq.skewop import apply, newton_polygon, op_mul
from qdeq.solver import SolveReport, check_solution, extend

from families import phi11


# the package binds the name corpus to the function
corpus_module = importlib.import_module("qdeq.corpus")


def qp(e):
    return QLaurent.q_power(e)


# -- jones values, frozen against hand evaluation of the sum ----------------


def test_jones_small():
    assert jones(0) == qp(0)
    assert jones(1) == qp(0)
    assert jones(2) == qp(2) - qp(1) + qp(0) - qp(-1) + qp(-2)


def test_jones_negative_color():
    with pytest.raises(ValueError):
        jones(-1)


def test_jones_valuations_spot():
    for n in (3, 10, 25):
        j = jones(n)
        assert j.deg_q == n * (n - 1)
        assert j.ord_q == -n * (n - 1)


def test_jones_palindromic():
    # q -> 1/q symmetry of the figure-eight invariant, colors up to 25
    for n in range(26):
        j = jones(n)
        terms = dict(j.terms())
        assert terms == {-e: c for e, c in terms.items()}


def test_jones_series_shape():
    ser = jones_series(6)
    assert ser.trunc == 6
    assert ser.coeffs[2] == qp(2).to_ratq() - qp(1).to_ratq() + RatQ(1) \
        - qp(-1).to_ratq() + qp(-2).to_ratq()


def test_jones_frozen_text():
    assert jones(2).to_text() == "q^2-q+1-q^-1+q^-2"
    assert jones_series(2).coeffs[2].to_text() == "(q^4-q^3+q^2-q+1)/q^2"
    assert type(RatQ.from_value(jones(2))) is RatQ


def _habiro_sum(n):
    """Habiro's sum taken literally: both q-Pochhammer products rebuilt
    for every k, each term a RatQ, the n + 1 terms added in Q(q)."""
    return QLaurent(ratq_sum([
        RatQ(1).shift_q(n * k)
        * pochhammer(RatQ(1).shift_q(-n - k), "q", k)  # (q^(-n-1); q^-1)_k
        * pochhammer(RatQ(1).shift_q(-n + 1), "q", k)
        for k in range(n + 1)]))


def test_jones_matches_literal_habiro_sum():
    # jones runs its sum from the top term down by exact binomial
    # divisions; the literal sum shares none of that
    for n in range(31):
        want, got = _habiro_sum(n), jones(n)
        assert got == want, n
        assert got.to_text() == want.to_text(), n


def test_jones_series_solves_the_dense_annihilator():
    # the solver, seeded with the first three invariants, reproduces the
    # series from the annihilator alone, every step uniquely determined
    F = QdeqPoly.from_operator(parse(JONES_ANNIHILATOR_TEXT).parsed)
    rep = extend(F, [jones(n).to_ratq() for n in range(3)], 15,
                 engine="exact")
    assert rep.solution.coeffs == jones_series(15).coeffs
    assert set(rep.kinds()) == {"unique"}


# -- the factored text, a narrow-window form of it, and the annihilator -----

# row 1 ends in (1-S[1]) instead of (1-S[2]): the polygon's right slope
# becomes 1, and the shift window [-1, 8] is too narrow to carry an
# annihilator of the invariant series
_ROW1_END = "*(q^5-q^2*S[2])*(1-S[2])"
assert JONES_OPERATOR_TEXT.count(_ROW1_END) == 1
_JONES_NARROW_TEXT = JONES_OPERATOR_TEXT.replace(
    _ROW1_END, "*(q^5-q^2*S[2])*(1-S[1])")


def test_jones_polygon_primary():
    poly = newton_polygon(parse(JONES_OPERATOR_TEXT).parsed)
    assert poly.vertices == [(-1, 1), (1, 0), (6, 0), (8, 1)]
    assert poly.sides == [(Fraction(-1, 2), 2), (Fraction(0), 5),
                          (Fraction(1, 2), 2)]


def test_jones_polygon_narrow_variant():
    poly = newton_polygon(parse(_JONES_NARROW_TEXT).parsed)
    assert poly.vertices == [(-1, 1), (1, 0), (6, 0), (8, 2)]
    assert [s for s, _ in poly.sides] == [Fraction(-1, 2), Fraction(0),
                                          Fraction(1)]


def test_jones_polygon_dense_variant():
    poly = newton_polygon(parse(JONES_ANNIHILATOR_TEXT).parsed)
    assert poly.vertices == [(-1, 1), (1, 0), (7, 0), (9, 1)]
    assert [s for s, _ in poly.sides] == [Fraction(-1, 2), Fraction(0),
                                          Fraction(1, 2)]


def test_jones_primary_matches_composed_rows():
    # the entry text is exactly the op_mul composition of its rows
    e = get_entry("jones-figure8")
    row0 = "q*S[1]*(q^2+S[1])*(q^5-S[2])*(1-S[2])"
    row1 = ("S[-1]*(1+S[1])*(q^4 + (q^3-2*q^4)*S[1] + (-q^3+q^4-q^5)*S[2]"
            " + (-2*q^4+q^5)*S[3] + q^4*S[4])*(q^5-q^2*S[2])*(1-S[2])")
    row2 = ("q^5*(1-S[1])*(1+S[1])*(1-q^3*S[2])*(q^8 + (q^9-2*q^8)*S[1]"
            " - (-q^7+q^8-q^9)*S[2] + q^7*S[3] + q^8*S[4])")
    row3 = "q^10*S[1]*(1-S[1])*(1+q^2*S[1])*(1-q^5*S[2])"
    x = parse("x*S[0]").parsed
    ops = [parse(t).parsed for t in (row0, row1, row2, row3)]
    composed = ops[0] - op_mul(x, ops[1]) + op_mul(x, op_mul(x, ops[2])) \
        - op_mul(x, op_mul(x, op_mul(x, ops[3])))
    assert composed == e.source.parsed


def test_dense_annihilator_kills_series():
    op = parse(JONES_ANNIHILATOR_TEXT).parsed
    res = apply(op, jones_series(18))
    assert all(c.is_zero() for c in res.coeffs)


def test_factored_texts_do_not_annihilate():
    ser = jones_series(5)
    for text in (JONES_OPERATOR_TEXT, _JONES_NARROW_TEXT):
        res = apply(parse(text).parsed, ser)
        first = next(h for h, c in enumerate(res.coeffs) if not c.is_zero())
        assert first == 1


# -- entry execution ----------------------------------------------------------


def test_corpus_ids_and_lookup():
    entries = corpus()
    assert [e.id for e in entries] == [
        "q-euler", "jones-figure8", "q-painleve-2", "phi11-basic"]
    assert get_entry("q-euler").id == "q-euler"
    with pytest.raises(KeyError):
        get_entry("nope")


def test_all_entries_pass():
    for e in corpus():
        rep = e.run()
        assert rep.passed(), rep.to_text()


def test_jones_entry_notes_report_residuals():
    rep = get_entry("jones-figure8").run(order=6)
    assert rep.passed()
    assert any("nonzero first at order 1" in n for n in rep.notes)
    assert any("annihilates" in n for n in rep.notes)


def test_qeuler_sample_value():
    e = get_entry("q-euler")
    rep = extend(e.source.parsed, list(e.seeds), 10)
    assert rep.solution.coeffs[10] == RatQ(1).shift_q(45)


def test_qp2_alternate_branch_extends():
    # the other root of the step-1 quadratic extends just as well
    e = get_entry("q-painleve-2")
    rep = extend(e.source.parsed, [RatQ(1), -e.seeds[1]], 8)
    assert set(rep.kinds()) == {"unique"}
    assert check_solution(e.source.parsed, rep.solution) == 8


def test_qp2_run_with_a_wrong_last_coefficient_fails(monkeypatch):
    # c_16 first enters the residual at order 17, the last step's order
    inner = corpus_module.extend

    def planted(F, seed, N, *args):
        rep = inner(F, seed, N, *args)
        if rep.halted():
            return rep
        coeffs = list(rep.solution.coeffs)
        coeffs[N] = coeffs[N] + RatQ(1)
        return SolveReport(TruncSeries(coeffs), rep.events)

    monkeypatch.setattr(corpus_module, "extend", planted)
    rep = get_entry("q-painleve-2").run()
    assert ("solution-extends", "stated", False,
            "residual appears at order 17") in rep.results


def test_phi11_closed_form_spot():
    # phi_2 = q^2 / ((1+q)(1+q^2)(1-q)(1-q^2))
    want = parse_ratq("q^2") / (parse_ratq("(1+q)*(1+q^2)")
                                * parse_ratq("(1-q)*(1-q^2)"))
    assert _phi11_coeff(0) == RatQ(1)
    assert _phi11_coeff(2) == want


def test_phi11_alternate_sign_disagrees():
    # q^2 x in place of q^-2 x: its recurrence ratio q^(2h+2)/(1-q^(2h))
    # does not reproduce the bundled closed form
    rep = extend(*phi11(e=2, N=3)[:3])
    assert rep.solution.coeffs[1] != _phi11_coeff(1)


def test_entry_report_json_shape():
    rep = get_entry("phi11-basic").run(order=6)
    obj = rep.to_json()
    assert obj["entry"] == "phi11-basic"
    assert obj["passed"] is True
    assert {r["name"] for r in obj["expectations"]} == {
        "coefficient-closed-form", "regular-singular-polygon"}
    for r in obj["expectations"]:
        assert r["basis"] in ("stated", "derived", "trivial")


def test_entry_json_shape():
    entry = get_entry("jones-figure8")
    assert entry.to_json() == {
        "id": "jones-figure8", "description": entry.description, "seeds": [],
        "expectations": ["polygon-slopes", "degree-profile", "order-profile"]}


def test_expectation_rejects_unknown_basis():
    with pytest.raises(ValueError):
        Expectation("x", "asserted", lambda ctx, order: (True, ""))


def test_expectation_error_becomes_failure():
    e = Expectation("boom", "trivial", lambda ctx, order: 1 / 0)
    ok, detail = e.run({}, 5)
    assert not ok and "error" in detail


def test_run_rejects_negative_order(monkeypatch):
    ran = []
    monkeypatch.setattr(Expectation, "run",
                        lambda self, ctx, order: ran.append(self.name))
    with pytest.raises(ValueError, match="negative"):
        get_entry("q-euler").run(order=-1)
    for order in (3.0, "3"):  # an order is an exact integer
        with pytest.raises(TypeError):
            get_entry("q-euler").run(order=order)
    assert ran == []  # rejected before any expectation runs


def test_run_rejects_order_below_seeds(monkeypatch):
    ran = []
    monkeypatch.setattr(Expectation, "run",
                        lambda self, ctx, order: (ran.append(self.name)
                                                  or (True, "ran")))
    entry = get_entry("q-painleve-2")
    assert len(entry.seeds) == 2
    with pytest.raises(ValueError, match="below the seed order 1"):
        entry.run(order=0)
    assert ran == []
    entry.run(order=1)  # the seed order itself is a run
    assert ran == [e.name for e in entry.expected]


def test_order_too_small_for_a_claim_is_a_note(monkeypatch):
    # q-Euler's growth order needs 5 nonzero coefficients: below that a
    # chosen order notes the claim unevaluated, the default order asserts it
    entry = get_entry("q-euler")
    for order in (2, 3):
        rep = entry.run(order=order)
        assert rep.passed()
        assert "growth-order" not in [name for name, *_ in rep.results]
        assert rep.notes == [f"growth-order not evaluated at order {order}:"
                             " order estimation needs at least 5 nonzero"
                             " coefficients"]
    rep = entry.run()
    assert rep.passed() and not rep.notes
    assert "growth-order" in [name for name, *_ in rep.results]
    # at the default order, too few coefficients is a failure
    monkeypatch.setattr(growth, "estimate_order", _insufficient)
    rep = entry.run()
    assert not rep.passed() and not rep.notes
    assert ("growth-order", "derived", False, "no data") in rep.results
    # and any other error fails at every order
    monkeypatch.setattr(growth, "estimate_order", _broken)
    rep = entry.run(order=2)
    assert not rep.passed() and not rep.notes
    assert ("growth-order", "derived", False, "error: boom") in rep.results


def _insufficient(*args):
    raise InsufficientData("no data")


def _broken(*args):
    raise RuntimeError("boom")


def test_run_order_override():
    rep = get_entry("q-euler").run(order=5)
    assert rep.passed()
    assert any("through order 5" in d for _, _, _, d in rep.results)
