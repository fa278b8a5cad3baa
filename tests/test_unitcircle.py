import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeq.errors import DegenerateAfterEvaluation, RootOfUnityDetected
from qdeq.ratfunc import Q, RatQ
from qdeq.skewop import ResonancePoly
from qdeq.unitcircle import (DEFAULT_C2_GRID, DiophantineScan, roots_of,
                             scan_condition_H, unit_q)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # fractional part of the golden ratio


def close(a, b, tol=1e-8):
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# roots_of


def test_roots_factored_numeric_input():
    # (T - 1)(T - i) expanded with plain complex coefficients
    got = roots_of([1j, -(1 + 1j), 1], unit_q(GOLDEN))
    assert len(got) == 2
    assert any(close(r, 1) for r in got)
    assert any(close(r, 1j) for r in got)


def test_roots_t_squared_plus_one():
    P = ResonancePoly({0: 1, 2: 1})
    got = roots_of(P, unit_q(0.123))
    assert len(got) == 2
    assert any(close(r, 1j) for r in got)
    assert any(close(r, -1j) for r in got)


def test_roots_track_q():
    theta = 0.217
    P = ResonancePoly({0: -RatQ(1).shift_q(5), 1: 1})  # T - q^5
    got = roots_of(P, unit_q(theta))
    assert len(got) == 1
    assert close(got[0], cmath.exp(10j * math.pi * theta))


def test_roots_double_root_clusters():
    # (T - 1)^2: one representative back
    got = roots_of([1, -2, 1], unit_q(GOLDEN))
    assert len(got) == 1
    assert close(got[0], 1, tol=1e-6)


def test_roots_degenerate_leading():
    # leading coefficient q - 1 dies at q = 1
    P = ResonancePoly({0: 1, 1: Q - 1})
    with pytest.raises(DegenerateAfterEvaluation):
        roots_of(P, 1.0 + 0j)
    # same polynomial is fine away from q = 1
    assert len(roots_of(P, unit_q(0.3))) == 1


def test_roots_pole_in_coefficient():
    P = ResonancePoly({0: RatQ(1) / (Q - 1), 1: 1})
    with pytest.raises(DegenerateAfterEvaluation):
        roots_of(P, 1.0 + 0j)


def test_roots_residual_invariant():
    qv = unit_q(0.317)
    P = ResonancePoly(enumerate([RatQ(3), -Q, RatQ(1), RatQ(1).shift_q(2)]))
    cs = P.coeffs_at(qv)
    scale = max(abs(c) for c in cs)
    for r in roots_of(P, qv):
        val = 0j
        for c in reversed(cs):
            val = val * r + c
        assert abs(val) <= 1e-6 * scale


def test_roots_rejects_a_non_root(monkeypatch):
    # whatever the root finder (the companion matrix's eigenvalues)
    # returns is re-substituted; a candidate that is not a root must not
    # come back as one
    monkeypatch.setattr("numpy.linalg.eigvals",
                        lambda a: np.array([0.5 + 0j]))
    with pytest.raises(DegenerateAfterEvaluation):
        roots_of([1j, -(1 + 1j), 1], unit_q(GOLDEN))


def test_roots_constant_poly():
    assert roots_of([5.0], unit_q(0.1)) == []


# ---------------------------------------------------------------------------
# scan_condition_H


def test_rational_theta_is_root_of_unity():
    with pytest.raises(RootOfUnityDetected) as info:
        scan_condition_H(unit_q(Fraction(1, 3)), [1.0 + 0j], 100,
                         theta=Fraction(1, 3))
    assert info.value.n == 3


def test_numeric_root_of_unity_detection():
    # no theta hint: the scan itself notices q^3 = 1
    with pytest.raises(RootOfUnityDetected) as info:
        scan_condition_H(unit_q(1.0 / 3.0), [1.0 + 0j], 10)
    assert info.value.n == 3


def test_rational_theta_beyond_range_scans():
    # denominator 5000 > N = 100: not a root of unity within range
    theta = Fraction(617, 5000)
    scan = scan_condition_H(unit_q(theta), [2.0 + 0j], 100, theta=theta)
    assert scan.passed()


def test_golden_rotation_passes_with_c2_one():
    q = unit_q(GOLDEN)
    scan = scan_condition_H(q, [1.0 + 0j], 10_000)
    assert scan.passed()
    assert scan.verdict["c2"] == Fraction(1)
    assert scan.verdict["c1"] > 0
    # badly approximable: n * |q^n - 1| stays well away from zero
    assert scan.verdict["c1"] > 0.5


def test_off_circle_root_trivial_pass():
    scan = scan_condition_H(unit_q(GOLDEN), [2.0 + 0j], 50)
    assert scan.passed()
    assert close(scan.per_root[0]["c1"], 1.0)
    assert scan.per_root[0]["c2"] is None


def test_hard_failure_witness():
    theta = 0.1234
    q = unit_q(theta)
    u = q ** 7  # the orbit lands on u exactly at n = 7
    scan = scan_condition_H(q, [u], 50)
    assert not scan.passed()
    assert scan.verdict["witness"] == 7
    assert scan.per_root[0]["status"] == "fail"


def test_hard_failure_witness_persists():
    theta = 0.1234
    q = unit_q(theta)
    u = q ** 7
    for N in (10, 40, 200):
        scan = scan_condition_H(q, [u], N)
        assert scan.verdict["witness"] == 7


def test_records_strictly_decreasing():
    scan = scan_condition_H(unit_q(GOLDEN), [1.0 + 0j, 1j], 2000)
    for rows in scan.records.values():
        dists = [d for _, d, _ in rows]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert len(rows) >= 2


def test_mixed_roots_overall_verdict():
    q = unit_q(GOLDEN)
    scan = scan_condition_H(q, [1.0 + 0j, 3.0 + 0j], 5000)
    assert scan.passed()
    # overall c1 covers the weakest root at the overall exponent
    assert scan.verdict["c1"] <= scan.per_root[0]["c1"] + 1e-12


def test_custom_grid_and_validation():
    q = unit_q(GOLDEN)
    scan = scan_condition_H(q, [1.0 + 0j], 3000, c2_grid=[Fraction(3, 2)])
    assert scan.passed()
    assert scan.verdict["c2"] == Fraction(3, 2)
    with pytest.raises(ValueError):
        scan_condition_H(q, [1.0 + 0j], 10, c2_grid=[0])
    for empty in ([], ()):  # an empty grid is an error, not the default
        with pytest.raises(ValueError, match="empty"):
            scan_condition_H(q, [1.0 + 0j], 10, c2_grid=empty)
    with pytest.raises(ValueError):
        scan_condition_H(q, [1.0 + 0j], 0)
    for N in (10.9, 10.0, "12"):  # a scan range is an exact integer
        with pytest.raises(TypeError):
            scan_condition_H(q, [1.0 + 0j], N)
    with pytest.raises(ValueError):
        scan_condition_H(2.0 + 0j, [1.0 + 0j], 10)  # |q| != 1
    with pytest.raises(ValueError, match="unit circle"):
        scan_condition_H(complex("nan"), [1j], 10)


def test_non_finite_root_is_an_error():
    # a NaN or infinite root is neither on nor off the circle: bad input
    for u in (complex("nan"), complex("inf"), complex("nanj"),
              complex(1.0, math.inf)):
        with pytest.raises(ValueError, match="not a finite"):
            scan_condition_H(unit_q(GOLDEN), [1.0 + 0j, u], 10)


def test_unit_q_reduces_a_rational_theta_exactly():
    assert unit_q(Fraction(7 * 10**20 + 1, 7)) == unit_q(Fraction(1, 7))
    assert unit_q(Fraction(-6, 7)) == unit_q(Fraction(1, 7))
    assert unit_q(10**400) == unit_q(0) == 1  # no float overflow
    # a float is taken as given
    assert unit_q(-0.25) == cmath.exp(2j * math.pi * -0.25)


def test_scan_json_shape():
    scan = scan_condition_H(unit_q(GOLDEN), [1.0 + 0j, 2.0 + 0j], 500)
    j = scan.to_json()
    assert j["verdict"]["status"] == "pass"
    assert isinstance(j["verdict"]["c2"], str)
    assert j["roots"][1] == [2.0, 0.0]
    rows = j["records"]["0"]
    assert all(len(r) == 3 for r in rows)
    txt = scan.to_text()
    assert "overall: pass" in txt


def test_empty_root_list():
    scan = scan_condition_H(unit_q(GOLDEN), [], 100)
    assert scan.passed()
    assert scan.verdict["c1"] is None


# ---------------------------------------------------------------------------
# the chunked scan against the per-n loop it replaced


def _loop_scan(q_numeric, roots, N, c2_grid=None, tol=1e-9):
    """scan_condition_H as a plain loop over n, one n at a time: the
    reference the chunked numpy scan must reproduce."""
    grid = tuple(sorted(Fraction(c) for c in (c2_grid or DEFAULT_C2_GRID)))
    roots = [complex(u) for u in roots]
    on_circle = [abs(abs(u) - 1.0) <= 1e-6 for u in roots]
    live = [i for i in range(len(roots)) if on_circle[i]]

    records = {i: [] for i in range(len(roots))}
    best_dist = {i: math.inf for i in live}
    mins = {i: {c: (math.inf, 0) for c in grid} for i in live}
    hard_fail = {}

    z = 1.0 + 0j
    for n in range(1, N + 1):
        z *= q_numeric
        if n % 4096 == 0:
            z /= abs(z)
        if abs(z - 1.0) <= tol:
            raise RootOfUnityDetected(n)
        for i in live:
            if i in hard_fail:
                continue
            d = abs(z - roots[i])
            if d < best_dist[i]:
                best_dist[i] = d
                records[i].append((n, d, n * d))
                if d <= tol:
                    hard_fail[i] = n
                    continue
            for c in grid:
                try:
                    s = d * n ** float(c)
                except OverflowError:  # past the float range: infinite
                    s = math.inf
                if s < mins[i][c][0]:
                    mins[i][c] = (s, n)

    per_root = []
    overall_c2 = grid[0]
    overall_witness = None
    for i, u in enumerate(roots):
        if not on_circle[i]:
            per_root.append({"root": [u.real, u.imag], "status": "pass",
                             "c2": None, "c1": abs(1.0 - abs(u)),
                             "witness": None, "reason": "off the unit circle"})
            continue
        if i in hard_fail:
            n0 = hard_fail[i]
            per_root.append({"root": [u.real, u.imag], "status": "fail",
                             "c2": None, "c1": 0.0, "witness": n0,
                             "reason": f"|q^n - u| <= {tol} at n = {n0}"})
            if overall_witness is None or n0 < overall_witness:
                overall_witness = n0
            continue
        chosen = None
        for c in grid:
            s, argmin = mins[i][c]
            if s > tol and 2 * argmin <= N:
                chosen = c
                break
        if chosen is None:
            s, argmin = mins[i][grid[-1]]
            per_root.append({"root": [u.real, u.imag], "status": "fail",
                             "c2": None, "c1": s, "witness": argmin,
                             "reason": "weighted minimum still falling at "
                                       "every grid exponent"})
            if overall_witness is None or argmin < overall_witness:
                overall_witness = argmin
            continue
        per_root.append({"root": [u.real, u.imag], "status": "pass",
                         "c2": chosen, "c1": mins[i][chosen][0],
                         "witness": None, "reason": None})
        overall_c2 = max(overall_c2, chosen)

    if overall_witness is not None:
        verdict = {"status": "fail", "c1": None, "c2": None,
                   "witness": overall_witness}
    else:
        c1s = [abs(1.0 - abs(u)) if not on_circle[i]
               else mins[i][overall_c2][0] for i, u in enumerate(roots)]
        verdict = {"status": "pass", "c1": min(c1s) if c1s else None,
                   "c2": overall_c2 if c1s else None, "witness": None}
    return records, per_root, verdict


def _assert_same(got, want, where="scan"):
    """Equal structure, types and values, floats to the last bit."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            _assert_same(got[k], want[k], f"{where}[{k!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for k, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, where


def _assert_matches_loop(q, roots, N, **kw):
    scan = scan_condition_H(q, roots, N, **kw)
    records, per_root, verdict = _loop_scan(q, roots, N, **kw)
    _assert_same(scan.records, records, "records")
    _assert_same(scan.per_root, per_root, "per_root")
    _assert_same(scan.verdict, verdict, "verdict")
    return scan


ON_AND_OFF = [1.0 + 0j, 1j, cmath.exp(0.6j * math.pi), 2.0 + 0j, 0.5j]


@pytest.mark.parametrize("N", [1, 4095, 4096, 4097, 9000])
def test_chunked_scan_matches_loop_around_chunk_ends(N):
    scan = _assert_matches_loop(unit_q(GOLDEN), ON_AND_OFF, N)
    # one record list keeps falling across the chunk end at 4096
    if N == 9000:
        assert scan.records[2][-1][0] > 4096


def test_chunked_scan_matches_loop_hard_fail_mid_chunk():
    q = unit_q(GOLDEN)
    scan = _assert_matches_loop(q, [1j, q ** 5000], 9000)
    assert scan.per_root[1]["witness"] == 5000


def test_chunked_scan_stops_records_at_the_hit():
    # 1/pi is close to 113/355: q^355 turns by s, and the orbit passes u
    # in steps of s at n = 5000, 5355, 5710.  With tol = 0.95 s the hit
    # is at 5355, mid-chunk, and the record at 5710 must not follow.
    q = unit_q(1 / math.pi)
    s = cmath.phase(q ** 355)
    u = q ** 5000 * cmath.exp(1.9j * s)
    scan = _assert_matches_loop(q, [u, 1j], 9000, tol=0.95 * s)
    assert scan.records[0][-1][0] == scan.per_root[0]["witness"] == 5355
    assert scan_condition_H(q, [u], 9000, tol=0.0).records[0][-1][0] == 5710


def test_chunked_scan_root_of_unity_in_later_chunk():
    # theta = 2002/6003 as a float, near 1/3: q^6003 = 1 to rounding
    q = unit_q(2002 / 6003)
    with pytest.raises(RootOfUnityDetected) as want:
        _loop_scan(q, [1j], 9000)
    with pytest.raises(RootOfUnityDetected) as got:
        scan_condition_H(q, [1j], 9000)
    assert got.value.n == want.value.n == 6003


def test_chunked_scan_matches_loop_custom_grid():
    q = unit_q(GOLDEN)
    grid = [Fraction(1, 3), Fraction(3, 2)]
    # q^n comes within 1e-8 of the last root at n = 7000 > N/2
    roots = ON_AND_OFF + [q ** 7000 * cmath.exp(1e-8j)]
    scan = _assert_matches_loop(q, roots, 9000, c2_grid=grid)
    assert scan.per_root[-1]["status"] == "fail"
    assert scan.per_root[-1]["witness"] == 7000
    assert scan.per_root[0]["c2"] == Fraction(3, 2)


@pytest.mark.parametrize("roots", [[], [2.0 + 0j, 0.25 - 0.25j]])
def test_chunked_scan_matches_loop_without_live_roots(roots):
    _assert_matches_loop(unit_q(GOLDEN), roots, 9000)


def test_chunked_scan_matches_loop_on_two_entry_chunks():
    # numpy's multiply.accumulate rounds the product of a 2-entry array
    # unlike Python's complex *, which a last chunk of N = 2 mod 4096 hit
    q = unit_q(0.0876346735649226)
    u = 0.672231728594183 + 0.740340801976547j
    _assert_matches_loop(q, [u], 2)
    scan = _assert_matches_loop(q, [q ** 4098 * cmath.exp(1e-7j)], 4098)
    assert scan.records[0][-1][0] == 4098


def test_scores_past_float_range_never_count():
    # n^200 overflows a float from n = 35 on, where Python's ** raises
    # OverflowError; the scan and the loop count those scores as inf
    q = unit_q(GOLDEN)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        long = _assert_matches_loop(q, [1j], 100, c2_grid=[200])
    short = _assert_matches_loop(q, [1j], 30, c2_grid=[200])
    assert long.per_root == short.per_root
    assert long.passed()


# ---------------------------------------------------------------------------
# the chunked scan against the loop on drawn cases

C2_POINTS = [Fraction(1, 10**9), Fraction(1, 1000), Fraction(1, 3),
             Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(4),
             Fraction(200)]


@st.composite
def scan_cases(draw):
    """(q, roots, N, kw) mixing chunk ends, near misses and hits."""
    N = draw(st.one_of(st.sampled_from([1, 2, 3, 4095, 4096, 4097, 4098]),
                       st.integers(1, 9000)))
    rng = draw(st.randoms(use_true_random=True))
    if rng.random() < 0.75:
        theta = rng.random()
    else:
        # a float p/r is a root of unity to rounding, which the scan
        # must notice at the loop's n
        theta = rng.randint(1, 12) / rng.randint(13, 9000)
    q = unit_q(theta)
    turn = st.floats(0.0, 1.0).map(lambda a: cmath.exp(2j * math.pi * a))
    off = st.builds(lambda r, u: r * u,
                    st.sampled_from([0.5, 1 - 1e-5, 1 + 2e-6, 2.0]), turn)
    # 1e-8 to 1e-4 off q^k, log-uniform: below tol = 1e-5 it is a hit
    near = st.builds(lambda k, e, sign: q ** k * cmath.exp(sign * 10.0**e),
                     st.integers(1, N), st.floats(-8.0, -4.0),
                     st.sampled_from([1j, -1j]))
    roots = draw(st.lists(st.one_of(turn, off, near), max_size=3))
    kw = {"tol": draw(st.sampled_from([1e-9, 1e-5])),
          "c2_grid": draw(st.lists(st.sampled_from(C2_POINTS), min_size=1,
                                   max_size=4, unique=True))}
    return q, roots, N, kw


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_chunked_scan_matches_loop_on_drawn_cases(case):
    q, roots, N, kw = case
    try:
        scan = scan_condition_H(q, roots, N, **kw)
    except RootOfUnityDetected as got:
        with pytest.raises(RootOfUnityDetected) as want:
            _loop_scan(q, roots, N, **kw)
        assert got.n == want.value.n
    else:
        _assert_same((scan.records, scan.per_root, scan.verdict),
                     _loop_scan(q, roots, N, **kw))
