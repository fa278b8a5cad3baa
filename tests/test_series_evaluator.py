"""One exact evaluator per series.

eval_at, linearize and check_solution's exact path substitute a series
through the series' own evaluator, and an exact extend that does not
halt hands the products of its run to its answer.  Whatever a series
has been through, each of them must read on it exactly what it reads on
a fresh copy of the same coefficients.
"""

from hypothesis import given, settings

from qdeq.errors import QdeqError
from qdeq.nonlinear import _exact_evaluator, eval_at, linearize, partial
from qdeq.series import TruncSeries
from qdeq.skewop import newton_polygon
from qdeq.solver import check_solution, extend

from families import eigen, linear, qdeq_polys, qp2, scan, seeded_equations
from test_properties import COMMON


def _fresh(phi):
    return TruncSeries(list(phi.coeffs), phi.trunc)


def _polygon(L):
    try:
        P = newton_polygon(L)
    except QdeqError as exc:
        return type(exc)
    return P.vertices, P.uncertain_bounds


def _readings(F, phi):
    """What the exact substitutions read about F along phi."""
    L = linearize(F, phi)
    return {"check": check_solution(F, phi, mode="exact"),
            "check_auto": check_solution(F, phi),
            "eval_at": eval_at(F, phi),
            # the series' evaluator reads through phi's truncation only
            "raw": _exact_evaluator(phi).eval(F, 0, phi.trunc + 1),
            "rows": dict(L.terms),
            "polygon": _polygon(L)}


def _assert_shared_matches_fresh(phi, *polys):
    """The readings of each F in polys, taken in turn on phi, match those
    of a fresh copy of phi per F; phi's evaluator then holds phi alone."""
    for F in polys:
        assert _readings(F, phi) == _readings(F, _fresh(phi))
    assert phi.evaluator.phi == list(phi.coeffs)


@settings(max_examples=120, **COMMON)
@given(seeded_equations(), qdeq_polys())
def test_exact_answer_reads_like_a_fresh_series(problem, G):
    F, seed, N = problem
    try:
        rep = extend(F, seed, N, engine="exact")
    except QdeqError:  # a rejected seed: its evaluator is made on first use
        _assert_shared_matches_fresh(TruncSeries(seed, N), F, G)
        return
    assert (rep.solution.evaluator is None) == rep.halted()
    _assert_shared_matches_fresh(rep.solution, F, G)


def test_halted_runs_hand_over_nothing():
    for F, seed, N, kind, _ in [qp2(N=5, branch=False),
                                eigen(3, True, N=10), scan(1, 0, 2)]:
        rep = extend(F, seed, N, engine="exact")
        assert rep.kinds()[-1] == kind and rep.solution.evaluator is None
        _assert_shared_matches_fresh(rep.solution, F)


def test_scan_step_run_hands_over_its_products():
    for F, seed, N in [scan(1, 1)[:3], (scan(2, 2).F, [1, 0, 1], 8)]:
        rep = extend(F, seed, N, engine="exact")
        assert rep.solution.evaluator is not None
        _assert_shared_matches_fresh(rep.solution, F, linear().F)


def test_answer_at_the_seed_order():
    F, seed = qp2()[:2]
    rep = extend(F, seed, 1, engine="exact")
    assert rep.events == [] and rep.solution.evaluator is not None
    _assert_shared_matches_fresh(rep.solution, F, partial(F, 0))


def test_probe_answer_gets_its_evaluator_on_first_use():
    F, seed = qp2()[:2]
    rep = extend(F, seed, 14, engine="probe")
    assert rep.solution.evaluator is None
    _assert_shared_matches_fresh(rep.solution, F)


def test_two_equations_on_one_series():
    (F, seed), G = qp2()[:2], linear().F
    rep = extend(F, seed, 8, engine="exact")
    _assert_shared_matches_fresh(rep.solution, G, F, partial(F, 1), G)
