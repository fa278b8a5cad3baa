"""Answer checks: digests of canonical answers and independent checks.

None of this is timed.  The independent checks share no code with qdeq:
solutions are read as integer coefficient data and evaluated exactly in
Fraction at a rational point q = r, residuals are rebuilt from the
family parameters (never from the parsed equation), and the unit-circle
scan is recomputed with numpy from n*theta mod 1.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np

from perfbench.jobs import root_values

POINTS = (Fraction(2, 3), Fraction(3, 5), Fraction(5, 7))
GRID = (0.5, 1.0, 2.0, 4.0)   # decay exponents the scan tries, ascending
HIT_TOL = 1e-9                # a distance at or below this is a hit
CIRCLE_TOL = 1e-6
SCAN_TOL = 1e-6


# ---------------------------------------------------------------------------
# digests


def _round(v):
    if isinstance(v, float):
        return float(f"{v:.6g}")
    if isinstance(v, dict):
        return {str(k): _round(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_round(x) for x in v]
    return v


def canonical(answer):
    """Canonical JSON text of an answer, floats at 6 significant digits."""
    return json.dumps(_round(answer), sort_keys=True, separators=(",", ":"))


def digest(answer):
    return hashlib.sha256(canonical(answer).encode()).hexdigest()


# ---------------------------------------------------------------------------
# exact evaluation at q = r


def _horner(ints, r):
    acc = Fraction(0)
    for c in reversed(ints):
        acc = acc * r + c
    return acc


def _at(c, r):
    """Value of a qdeq coefficient (numerator ints / den, over den ints) at r."""
    return _horner(c.num.ints, r) / c.num.den / _horner(c.den.ints, r)


def _mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[:n + 1]):
        if ai:
            for j in range(n + 1 - i):
                out[i + j] += ai * b[j]
    return out


def _shift(y, s, r):
    """Coefficients of y(r^s x)."""
    return [c * r ** (s * h) for h, c in enumerate(y)]


def _xmul(y, k, scalar=1):
    return [Fraction(0)] * k + [scalar * c for c in y[:len(y) - k]]


def _add(*ys):
    return [sum(cs, Fraction(0)) for cs in zip(*ys)]


def _linear_ab(p, r):
    a = Fraction(p["scale"]) * r ** p["shift"] * (1 + r) ** p["dense"]
    b = {"1": Fraction(1), "(1+q)": 1 + r, "(1-q)": 1 - r}[p["b"]]
    return a, b


def _residual(job, y, r):
    """Coefficients 0..N of F(y) at q = r, F rebuilt from the family."""
    n = len(y) - 1
    p = job["params"]
    one = [Fraction(1)] + [Fraction(0)] * n
    if job["family"] == "qp2":
        m, k = p["m"], p["k"]
        lead = _add(y, _xmul(one, 1))
        f1 = _add(_mul(y, _shift(y, 1, r), n), _xmul(one, 0, -1))
        f2 = _add(_mul(y, _shift(y, -1, r), n), _xmul(one, 0, -1))
        return _add(_mul(_mul(lead, f1, n), f2, n),
                    _xmul(y, 2, -m * m * r ** (2 * k + 1)))
    if job["family"] == "linear":
        a, b = _linear_ab(p, r)
        return _add(_xmul(_shift(y, p["s"], r), 1, a),
                    [-b * c for c in y], _xmul(one, 0, b))
    if job["family"] == "phi11":
        c = Fraction(p["num"], p["den"])
        return _add(y, [-v for v in _shift(y, -2, r)], _xmul(y, 1, c / r ** 2))
    raise ValueError(job["family"])


def _closed_form(job, h, r):
    """Known closed form of coefficient h at q = r, or None."""
    p = job["params"]
    if job["family"] == "linear":
        a, b = _linear_ab(p, r)
        return (a / b) ** h * r ** (p["s"] * h * (h - 1) // 2)
    if job["family"] == "phi11":
        c = Fraction(p["num"], p["den"])
        den = Fraction(1)
        for j in range(1, h + 1):
            den *= 1 - r ** (2 * j)
        return c ** h * r ** (h * (h - 1)) / den
    return None


def _solution_at(rep):
    for r in POINTS:
        try:
            return r, [_at(c, r) for c in rep.solution.coeffs]
        except ZeroDivisionError:  # a coefficient has a pole at r
            continue
    raise ValueError("every check point is a pole of the solution")


def _check_solve(job, answer, rep):
    problems = []
    kinds = [e["kind"] for e in answer["report"]["events"]]
    halts = job["family"] == "qp2" and len(job["seed"]) == 1
    if halts:
        # seed [1]: coefficient 1 solves a quadratic, so the run stops at h = 1
        if kinds != ["nonaffine_step"] or answer["report"]["events"][0]["h"] != 1:
            problems.append(f"expected nonaffine_step at h=1, got {kinds}")
        return problems
    N = job["order"]
    if set(kinds) != {"unique"} or answer["report"]["resolved_through"] != N:
        problems.append(f"expected unique steps through {N}, got {kinds}")
    if answer["valid_through"] != N:
        problems.append(f"check_solution says {answer['valid_through']}, not {N}")
    r, y = _solution_at(rep)
    bad = [m for m, v in enumerate(_residual(job, y, r)) if v]
    if bad:
        problems.append(f"residual at q={r} nonzero at orders {bad[:5]}")
    for h, v in enumerate(y):
        want = _closed_form(job, h, r)
        if want is not None and v != want:
            problems.append(f"coefficient {h} differs from the closed form")
            break
    if job["linearize"]:
        s = job["params"]["s"] if job["family"] == "linear" else None
        want = [str(Fraction(1, s))] if s else ["0"]
        if answer["polygon"] is None or answer["polygon"]["slopes"] != want:
            problems.append(f"polygon slopes are not {want}")
    return problems


def _check_jones_value(n, terms):
    """terms: [(exponent, coefficient)] of J(n); deg n(n-1), symmetric,
    and J(n) = 1 at q = 1."""
    problems = []
    exponents = [e for e, _ in terms]
    hi, lo = max(exponents), min(exponents)
    if (hi, lo) != (n * (n - 1), -n * (n - 1)):
        problems.append(f"J({n}) spans q^{lo}..q^{hi}, want +-{n * (n - 1)}")
    if sum(c for _, c in terms) != 1:
        problems.append(f"J({n}) is not 1 at q = 1")
    return problems


def _ratq_terms(c):
    """[(exponent, Fraction)] of a coefficient whose denominator is a power of q."""
    den = list(c.den.ints)
    low = len(den) - 1
    if any(den[:-1]):
        raise ValueError("denominator is not a power of q")
    scale = Fraction(1, c.num.den * den[-1])
    return [(e - low, v * scale) for e, v in enumerate(c.num.ints) if v]


def _check_scan(job, answer, scan):
    if job["rational"]:
        want = job["theta"][1]
        got = answer.get("root_of_unity")
        return [] if got == want else [f"root of unity witness {got}, want {want}"]
    problems = []
    given = root_values(job)
    for u in given:
        if min(abs(u - v) for v in scan.roots) > SCAN_TOL:
            problems.append(f"root {u} was not found")
    N = job["N"]
    n = np.arange(1, N + 1, dtype=np.float64)
    z = np.exp(2j * np.pi * np.mod(n * job["theta"], 1.0))
    for i, u in enumerate(scan.roots):
        got = scan.per_root[i]
        if abs(abs(u) - 1.0) > CIRCLE_TOL:
            if got["status"] != "pass" or abs(got["c1"] - abs(1 - abs(u))) > SCAN_TOL:
                problems.append(f"off-circle root {i} verdict {got}")
            continue
        d = np.abs(z - u)
        if abs(scan.records[i][-1][1] - d.min()) > SCAN_TOL:
            problems.append(f"root {i}: minimum distance {scan.records[i][-1][1]}"
                            f" but n*theta gives {d.min()}")
        if d.min() <= HIT_TOL:
            hit = int(np.argmax(d <= HIT_TOL)) + 1
            if got["status"] != "fail" or abs(d[got["witness"] - 1]) > HIT_TOL + SCAN_TOL \
                    or got["witness"] < hit:
                problems.append(f"root {i}: q^{hit} hits it, scan says {got}")
            continue
        chosen = None
        for c in GRID:
            score = d * n ** c
            k = int(score.argmin())
            if score[k] > HIT_TOL and 2 * (k + 1) <= N:
                chosen = (c, float(score[k]))
                break
        if chosen is None:
            if got["status"] != "fail":
                problems.append(f"root {i} passes, recomputation fails")
        elif (got["status"] != "pass" or float(got["c2"]) != chosen[0]
              or abs(got["c1"] - chosen[1]) > SCAN_TOL * max(1.0, chosen[1])):
            problems.append(f"root {i}: scan says {got['status']} c2={got['c2']}"
                            f" c1={got['c1']}, recomputed c2={chosen[0]}"
                            f" c1={chosen[1]}")
    return problems


def check(job, answer, raw):
    """Independent check of one answer; returns a list of problems."""
    kind = job["kind"]
    if kind == "solve":
        return _check_solve(job, answer, raw)
    if kind == "jones":
        return _check_jones_value(job["n"], raw.terms())
    if kind == "jones_series":
        problems = []
        for n, c in enumerate(raw.coeffs):
            problems += _check_jones_value(n, _ratq_terms(c))
        return problems
    if kind == "scan":
        return _check_scan(job, answer, raw)
    return [f"unknown job kind {kind!r}"]
