import pytest

from qdeq import _probes, solver
from qdeq.dsl import parse
from qdeq.errors import EngineError, SeedRejected
from qdeq.nonlinear import Evaluator, ExactDomain, linearize, partial_rows
from qdeq.ratfunc import RatQ
from qdeq.series import TruncSeries
from qdeq.skewop import lowest_row, newton_polygon, resonance_poly
from qdeq.solver import check_solution, extend, resonance_set

from families import (eigen, exact_check, linear, make_domain, outcome, phi11,
                      qp2, scan)

GEOMETRIC = linear().F  # x*y[1] - y[0] + 1: c_h = q^(h(h-1)/2)


def test_geometric_closed_form():
    rep = extend(GEOMETRIC, [1], 12)
    assert rep.resolved_through == 12
    assert rep.kinds() == ["unique"] * 12
    for h, c in enumerate(rep.solution.coeffs):
        assert c == RatQ(1).shift_q(h * (h - 1) // 2)
    assert check_solution(GEOMETRIC, rep.solution) == 12


def test_geometric_events_increasing():
    rep = extend(GEOMETRIC, [1], 6)
    hs = [e["h"] for e in rep.events]
    assert hs == sorted(hs) and len(set(hs)) == len(hs)


def test_painleve_unique_run():
    F, seed = qp2()[:2]
    rep = extend(F, seed, 8, engine="exact")
    assert rep.resolved_through == 8
    assert rep.kinds() == ["unique"] * 7
    assert check_solution(F, rep.solution) == 8
    # the linearization along the solution keeps its single slope-zero side
    L = resonance_poly(linearize(F, rep.solution))
    assert resonance_set(L, 40) == set()


def test_painleve_constant_seed_goes_nonaffine():
    F = qp2().F
    rep = extend(F, [1], 5, engine="exact")
    assert rep.resolved_through == 0
    assert rep.halted()
    ev = rep.events[-1]
    assert ev["kind"] == "nonaffine_step" and ev["h"] == 1
    qq = RatQ(1).shift_q(1)
    assert ev["alpha"] == (1 + qq) * (1 + qq ** -1)
    assert ev["beta"].is_zero()
    assert ev["gamma"] == -qq
    # both roots of the recorded quadratic really are admissible c_1 values
    for sign in (1, -1):
        c1 = sign * qq / (1 + qq)
        assert (ev["alpha"] * c1 ** 2 + ev["gamma"]).is_zero()


def test_obstruction_stops_with_partial_solution():
    rep = extend(eigen(3, True).F, [0], 10)
    assert rep.resolved_through == 2
    assert rep.kinds() == ["unique", "unique", "obstruction_no_solution"]
    assert rep.events[-1]["h"] == 3
    assert rep.halted()


@pytest.mark.parametrize("engine", ["exact", "probe"])
@pytest.mark.parametrize("F, seed, N", [
    # order-4 branch points of the q-Painleve II family
    qp2(2, 1, N=4, branch=False)[:3],
    qp2(3, 0, N=4, branch=False)[:3],
    # the A5 equation
    qp2(N=10, branch=False)[:3],
    eigen(3, True, N=10)[:3],
    # x y^2 = 2x: the scan step finds order 1 nonzero, out of c_1's reach
    scan(1, 0, 2)[:3],
], ids=["branch-1", "branch-2", "a5", "obstruction", "scan-obstruction"])
def test_halted_run_matches_fresh_per_step(F, seed, N, engine, monkeypatch):
    got = coeffs, events = outcome(F, seed, N, engine)
    report = extend(F, seed, N, engine=engine).to_json()  # events' values
    assert events[-1][1] in ("nonaffine_step", "obstruction_no_solution")
    # no scan sample of the halting step is returned as a coefficient
    assert len(coeffs) == events[-1][0]
    # the same run with a fresh evaluator on the current prefix per step
    monkeypatch.setattr(solver, "_eval_poly", lambda F, ev, trunc, dom, lo=0:
                        Evaluator(ev.phi, dom).eval(F, 0, trunc + 1))
    monkeypatch.setattr(solver, "partial_rows", lambda F, ev, width:
                        partial_rows(F, Evaluator(ev.phi, ev.dom), width))
    assert outcome(F, seed, N, engine) == got
    assert extend(F, seed, N, engine=engine).to_json() == report


@pytest.mark.parametrize("domain", ["exact", "probe"])
def test_rows_after_a_wider_residual_match_fresh(domain, monkeypatch):
    # the scan step at h = 2 evaluates the residual through W = 4; the
    # next step reads the rows through order 2 < W on the same evaluator,
    # whose products hold orders past them, and they must be a fresh
    # evaluator's
    F = parse("x^2*(y[0]-1-x) + x*(y[0]-1-x)^2 - x^4").parsed
    dom = make_domain(domain, 32, 7)
    calls = []

    def residual(F, ev, trunc, dom, lo=0):
        calls.append(("residual", trunc))
        return ev.eval(F, lo, trunc + 1)

    def rows(F, ev, width):
        calls.append(("rows", width - 1))
        got = partial_rows(F, ev, width)
        want = partial_rows(F, Evaluator(ev.phi, ev.dom), width)
        assert got.keys() == want.keys()
        for i, row in got.items():
            assert len(row) == width
            assert all(dom.is_zero(dom.sub(a, b))
                       for a, b in zip(row, want[i]))
        return got

    monkeypatch.setattr(solver, "_eval_poly", residual)
    monkeypatch.setattr(solver, "partial_rows", rows)
    coeffs, events, _ = solver._extend_core(F, [RatQ(1), RatQ(1)], 6, dom)
    assert calls == [("residual", 1), ("rows", 1)] + [("residual", 4)] * 3 \
        + [("rows", 2)] + [("residual", W) for W in range(5, 9)]
    assert [(e["h"], e["kind"], e["order"]) for e in events] == [
        (h, "unique", h + 2) for h in range(2, 7)]
    for c, want in zip(coeffs, [1, 1, 1, -1, 2, -5, 14]):
        assert dom.is_zero(dom.sub(c, dom.from_ratq(RatQ(want))))


def test_resonant_free_continues():
    rep = extend(eigen(3, False).F, [0], 6)
    assert rep.resolved_through == 6
    kinds = rep.kinds()
    assert kinds[2] == "resonant_free"
    assert kinds.count("resonant_free") == 1
    assert all(c.is_zero() for c in rep.solution.coeffs)


@pytest.mark.parametrize("F, seed, N, resonant", [
    linear(N=30)[:3] + (set(),),
    qp2()[:3] + (set(),),
    # the other root of the step-1 quadratic
    qp2(sign=-1)[:3] + (set(),),
    phi11(N=20)[:3] + (set(),),
    # q^2 x in place of q^-2 x
    phi11(N=20, e=2)[:3] + (set(),),
] + [eigen(h0, forced)[:3] + ({h0},)
     for h0 in range(1, 5) for forced in (False, True)],
    ids=["q-euler", "qp2", "qp2-alternate", "phi11", "phi11-alternate"]
    + [f"eigen-{h0}-{'forced' if forced else 'free'}"
       for h0 in range(1, 5) for forced in (False, True)])
def test_vanishing_slopes_are_the_resonance_set(F, seed, N, resonant):
    rep = extend(F, seed, N, engine="exact")
    k = len(seed) - 1
    lin = linearize(F, rep.solution)
    l, _ = lowest_row({i: a.coeffs for i, a in lin.terms.items()},
                      RatQ.is_zero)
    # the steps past the lowest row's order l are steady, and each one
    # decides at its slope order h + l
    steady = [e for e in rep.events if e["h"] > l]
    last = rep.events[-1]["h"]
    assert [e["h"] for e in steady] == list(range(max(k, l) + 1, last + 1))
    assert all(e["order"] == e["h"] + l for e in steady)
    vanished = {e["h"] for e in steady if e["kind"] != "unique"}
    assert vanished == {h for h in resonance_set(resonance_poly(lin), N)
                        if k < h <= last}
    assert vanished == resonant


def test_steady_slope_is_unit_times_resonance_poly():
    # qp2: A_h = q^(m0 (l+h)) L(q^h) with m0 = -1, l = 1, so the steady
    # slope and L(q^h) differ by the unit q^-(h+1)
    F, seed = qp2()[:2]
    lin = linearize(F, TruncSeries(seed))
    L = resonance_poly(lin)
    m0 = newton_polygon(lin).vertices[0][0]
    probe = make_domain("probe", 32, 3)
    for dom in (ExactDomain(), probe):
        # the row the solver freezes at its first step, h = 2
        ev = Evaluator([dom.from_ratq(c) for c in seed], dom)
        l, alpha = lowest_row(partial_rows(F, ev, 2), dom.is_zero)
        assert (m0, l) == (-1, 1)
        for h in range(2, 13):
            A = dom.sum([dom.shift(a, i * h) for i, a in alpha.items()])
            want = L.at_qpow(h).shift_q(m0 * (l + h))
            if dom is probe:
                assert (A == dom.from_ratq(want)).all()
            else:
                assert A == want
                assert A / L.at_qpow(h) == RatQ(1).shift_q(-(h + 1))


def test_seed_rejected():
    with pytest.raises(SeedRejected):
        extend(eigen(3, False).F, [1], 6)
    with pytest.raises(SeedRejected):
        extend(GEOMETRIC, [1, 5], 6)
    # the x^1 row is nonzero, and the seed 1 + 0*x leaves -x^2, found by
    # the first steady step rather than the check of orders 0..k
    for engine in ("exact", "probe"):
        with pytest.raises(SeedRejected, match="order 2"):
            extend(scan(1, 1).F, [1, 0], 4, engine=engine)


@pytest.mark.parametrize("engine", ["exact", "probe"])
@pytest.mark.parametrize("family, longer", [
    (scan(5, 1), [1, 1, 0, 0, 0, 0]),
    (scan(2, 2), [1, 0, 1]),
], ids=["1+x", "1+x^2"])
def test_scan_rejects_a_seed_too_short_to_decide(family, longer, engine):
    # every row vanishes through x^(h-1), so c_h first enters at order
    # 2h; with the short seed no order of the scan window decides c_1
    F, short = family[:2]
    with pytest.raises(SeedRejected, match="too short"):
        extend(F, short, 8, engine=engine)
    rep = extend(F, longer, 8, engine=engine)
    assert rep.resolved_through == 8
    assert set(rep.kinds()) == {"unique"}
    assert rep.solution.coeffs == TruncSeries(longer, 8).coeffs
    assert check_solution(F, rep.solution) == 8


@pytest.mark.parametrize("engine", ["exact", "probe"])
def test_scan_step_unique(engine):
    # x*y - x - x^2: every row vanishes at h = 1; c_1 = 1 at order 2
    rep = extend(*scan(1, 1)[:3], engine=engine)
    assert rep.events[0] == {"h": 1, "kind": "unique", "order": 2}
    assert rep.solution.coeffs == TruncSeries([1, 1], 4).coeffs


def test_probe_failure_falls_back_to_exact(monkeypatch):
    want = extend(GEOMETRIC, [1], 8, engine="exact")

    def fail(F, seed, N):
        raise EngineError("24 primes in a row could not serve")

    monkeypatch.setattr(_probes, "solve", fail)
    got = extend(GEOMETRIC, [1], 8, engine="probe")
    assert got.to_json() == want.to_json()


def test_probe_check_falls_back_to_exact(monkeypatch):
    # a pole at every prime raises EngineError; check_solution, which
    # probes a nonlinear F past order 12, then answers in Q(q)
    F, seed = qp2()[:2]
    bad = list(extend(F, seed, 13, engine="exact").solution.coeffs)
    bad[5] = bad[5] + RatQ(1)
    phi = TruncSeries(bad, 13)

    def pole(polys, dom):
        raise _probes._Pole(f"a scalar denominator is 0 mod {dom.p}")

    monkeypatch.setattr(_probes, "_eval_polys", pole)
    with pytest.raises(EngineError):
        _probes.check(F, phi)
    assert check_solution(F, phi) == exact_check(F, phi) == 5


def test_one_resolver_rejects_an_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine 'bogus'") as exc:
        extend(GEOMETRIC, [1], 4, engine="bogus")
    assert exc.traceback[-1].name == "_resolve_engine"


def test_seed_only_run():
    rep = extend(GEOMETRIC, [1], 1)
    assert rep.resolved_through == 1
    assert rep.solution.coeffs == (RatQ(1), RatQ(1))


def test_resonance_set_exact():
    L = resonance_poly(linearize(eigen(3, False).F,
                                 TruncSeries([], 2)))
    assert resonance_set(L, 10) == {3}


def test_check_solution_spots_corruption():
    F = GEOMETRIC
    rep = extend(F, [1], 8)
    good = rep.solution
    assert check_solution(F, good) == 8
    bad = list(good.coeffs)
    bad[5] = bad[5] + RatQ(1)
    assert check_solution(F, TruncSeries(bad, 8)) == 4


def test_report_json():
    rep = extend(GEOMETRIC, [1], 3)
    js = rep.to_json()
    assert js["coeffs"] == ["1", "1", "q", "q^3"]
    assert js["resolved_through"] == 3
    assert js["events"][0] == {"h": 1, "kind": "unique", "order": 1}
