"""Bundled worked examples with checkable expectations.

Each CorpusEntry couples an equation (DSL text plus its parsed form)
with seed data and a list of Expectation records.  An expectation is an
exact claim about something the library computes: polygon slopes, the
closed form of a solution's coefficients, valuation growth.  Running an
entry executes every expectation through the same public operations the
CLI exposes and reports pass or fail with a short witness.

basis labels on expectations:
    "stated"   the claim came attached to the example;
    "derived"  established independently while building the library
               (closed forms proved by hand, operators reconstructed
               from the series itself);
    "trivial"  immediate from definitions.

The figure-eight entry deserves a word.  Its factored operator text
does not annihilate the bundled invariant series: the residual is
nonzero at order 1 for every reading of the factored rows, because row
1 carries a trailing factor vanishing at sigma = 1 while row 0 does
not.  The minimal annihilator was therefore reconstructed from the
series itself (modular nullspace plus rational reconstruction, then
verified exactly): JONES_ANNIHILATOR_TEXT, whose residual run() reports
next to the factored text's in its notes.  Both have Newton polygon
slopes exactly {-1/2, 0, 1/2}.  Residual status is reported by run(),
never asserted.
"""

from fractions import Fraction
from operator import add, index

from .dsl import parse, parse_ratq
from .errors import InsufficientData
from .nonlinear import QdeqPoly, eval_at, linearize
from .ratfunc import Q, QLaurent, QPoly, RatQ, pochhammer
from .series import TruncSeries
from .skewop import apply, newton_polygon
from . import _intpoly as K
from . import growth
from .solver import check_solution, extend

_BASES = ("stated", "derived", "trivial")


def jones(n):
    """Colored Jones invariant of the figure-eight knot at color n,
    as an exact Laurent polynomial in q (Habiro's sum):

        sum_{k=0}^{n}  q^{nk} (q^{-n-1}; q^{-1})_k (q^{-n+1}; q)_k

    Since 1 - q^-m = -q^-m (1 - q^m), term k is a power of q times an
    integer polynomial, T_k = q^{-nk} (q^{n-k}; q)_k (q^{n+1}; q)_k, and
    T_n = 0 for n >= 1.  Past its q-power T_{n-1} = (q; q)_{2n-1}/(1 - q^n),
    and T_{k-1} = q^n T_k / ((1 - q^{n-k}) (1 - q^{n+k})): one pochhammer
    product and exact binomial divisions; the n terms are added once.
    """
    if n < 0:
        raise ValueError("color must be a nonnegative integer")
    top = max(n - 1, 0)  # at n = 0 the one term is T_0 = 1
    # a product of factors 1 - q^m (m >= 1): v = 0 and d = 1, so it is n
    p = K.div_binomial(pochhammer(RatQ(1).shift_q(1), "q", 2 * top + 1).n.ints,
                       top + 1)
    total = [0] * (2 * n * top + 1)  # T_k spans q^{-nk} .. q^{nk}
    for k in range(top, -1, -1):
        span = slice(n * (top - k), n * (top - k) + len(p))
        total[span] = map(add, total[span], p)
        if k:
            p = K.div_binomial(K.div_binomial(p, n - k), n + k)
    return QLaurent(QPoly(total), -n * top)


def jones_series(order):
    """Generating series sum_n J(q, n) x^n truncated at the given order."""
    return TruncSeries([jones(n).to_ratq() for n in range(order + 1)])


class Expectation:
    """One checkable claim: the check callable receives (ctx, order) and
    returns (ok, detail)."""

    __slots__ = ("name", "basis", "_check")

    def __init__(self, name, basis, check):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.name = name
        self.basis = basis
        self._check = check

    def run(self, ctx, order):
        try:
            return self._check(ctx, order)
        except InsufficientData as exc:  # too few coefficients: ok is None
            return None, str(exc)
        except Exception as exc:  # a broken expectation must not kill the run
            return False, f"error: {exc}"


class EntryReport:
    __slots__ = ("entry_id", "results", "notes")

    def __init__(self, entry_id, results, notes):
        self.entry_id = entry_id
        self.results = list(results)
        self.notes = list(notes)

    def passed(self):
        return all(ok for _, _, ok, _ in self.results)

    def to_json(self):
        return {
            "entry": self.entry_id,
            "passed": self.passed(),
            "expectations": [
                {"name": n, "basis": b, "pass": ok, "detail": d}
                for n, b, ok, d in self.results
            ],
            "notes": self.notes,
        }

    def to_text(self):
        lines = [f"[{self.entry_id}]"]
        for name, basis, ok, detail in self.results:
            mark = "PASS" if ok else "FAIL"
            lines.append(f"  {mark}  {name} ({basis}): {detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class CorpusEntry:
    """A worked example: equation, seeds and expectations."""

    __slots__ = ("id", "description", "source", "seeds", "expected",
                 "default_order", "_notes")

    def __init__(self, id, description, source, seeds, expected,
                 default_order=16, notes=None):
        self.id = id
        self.description = description
        self.source = source
        self.seeds = tuple(seeds)
        self.expected = list(expected)
        self.default_order = default_order
        self._notes = notes

    def run(self, order=None):
        order = self.default_order if order is None else index(order)
        if order < 0:
            raise ValueError(f"order {order} is negative")
        if order < len(self.seeds) - 1:
            raise ValueError(f"order {order} is below the seed order "
                             f"{len(self.seeds) - 1}")
        ctx, results, notes = {}, [], []
        for e in self.expected:
            ok, detail = e.run(ctx, order)
            if ok is None and order < self.default_order:  # a note, no FAIL
                notes.append(f"{e.name} not evaluated at order {order}: {detail}")
            else:
                results.append((e.name, e.basis, bool(ok), detail))
        notes += self._notes(ctx, order) if self._notes else []
        return EntryReport(self.id, results, notes)

    def to_json(self):
        """The entry as qdeq corpus lists it."""
        return {"id": self.id, "description": self.description,
                "seeds": [c.to_text() for c in self.seeds],
                "expectations": [e.name for e in self.expected]}


def _solved(ctx, F, seeds, order):
    key = ("solve", order)
    if key not in ctx:
        ctx[key] = extend(F, list(seeds), order)
    return ctx[key]


# ---------------------------------------------------------------------------
# q-Euler


def _entry_qeuler():
    src = parse("x*y[1] - y[0] + 1")
    seeds = (RatQ(1),)

    def closed(h):
        return RatQ(1).shift_q(h * (h - 1) // 2)

    def chk_coeffs(ctx, order):
        rep = _solved(ctx, src.parsed, seeds, order)
        for h in range(order + 1):
            got = rep.solution.coeffs[h]
            if got != closed(h):
                return False, f"coefficient {h} is {got.to_text()}"
        return True, f"phi_h = q^(h(h-1)/2) through order {order}"

    def chk_growth(ctx, order):
        rep = _solved(ctx, src.parsed, seeds, order)
        degs, _ = growth.valuation_profile(rep.solution)
        s = growth.estimate_order(degs, "deg")
        return s == Fraction(1), f"measured degree growth order {s}"

    def chk_slope(ctx, order):
        rep = _solved(ctx, src.parsed, seeds, order)
        poly = newton_polygon(linearize(src.parsed, rep.solution))
        slopes = [str(s) for s, _ in poly.sides]
        return slopes == ["1"], f"linearized polygon slopes {slopes}"

    return CorpusEntry(
        "q-euler",
        "one-step equation x y(qx) - y(x) + 1 = 0 with the factorially"
        " divergent solution sum q^(h(h-1)/2) x^h",
        src,
        seeds,
        [
            Expectation("closed-form-coefficients", "derived", chk_coeffs),
            Expectation("growth-order", "derived", chk_growth),
            Expectation("linearized-slope", "derived", chk_slope),
        ],
        default_order=30,
    )


# ---------------------------------------------------------------------------
# figure-eight invariant


_J_ROW0 = "q*S[1]*(q^2+S[1])*(q^5-S[2])*(1-S[2])"
_J_QUARTIC1 = ("(q^4 + (q^3-2*q^4)*S[1] + (-q^3+q^4-q^5)*S[2]"
               " + (-2*q^4+q^5)*S[3] + q^4*S[4])")
_J_QUARTIC2 = ("(q^8 + (q^9-2*q^8)*S[1] - (-q^7+q^8-q^9)*S[2]"
               " + q^7*S[3] + q^8*S[4])")
_J_ROW1 = ("S[-1]*(1+S[1])*" + _J_QUARTIC1 + "*(q^5-q^2*S[2])*(1-S[2])")
_J_ROW2 = "q^5*(1-S[1])*(1+S[1])*(1-q^3*S[2])*" + _J_QUARTIC2
_J_ROW3 = "q^10*S[1]*(1-S[1])*(1+q^2*S[1])*(1-q^5*S[2])"

JONES_OPERATOR_TEXT = (
    f"{_J_ROW0} - x*{_J_ROW1} + x^2*{_J_ROW2} - x^3*{_J_ROW3}")

# Minimal annihilator of the invariant series, reconstructed from the
# series itself and verified exactly through order 40.  x-degree 3,
# shift window [-1, 9]; the sigma^8 and sigma^9 tail is what the
# factored text is missing.
JONES_ANNIHILATOR_TEXT = " + ".join((
    "(-q^11)*x*S[-1]", "(q^11)*x^2*S[-1]",
    "(3*q^11)*x*S[0]", "(-3*q^11)*x^2*S[0]",
    "(q^10)*S[1]", "(q^12-2*q^11-q^10+q^9+q^8)*x*S[1]",
    "(-q^14-q^13+q^12+2*q^11-q^10)*x^2*S[1]", "(-q^12)*x^3*S[1]",
    "(-q^10-q^9)*S[2]", "(-2*q^12-q^11+2*q^10-2*q^9-3*q^8)*x*S[2]",
    "(3*q^14+2*q^13-2*q^12+q^11+2*q^10)*x^2*S[2]", "(q^13+q^12)*x^3*S[2]",
    "(q^9-q^6-q^5)*S[3]", "(2*q^11-2*q^10-q^9+2*q^8+q^7-q^6)*x*S[3]",
    "(q^16-q^15-2*q^14+q^13+2*q^12-2*q^11)*x^2*S[3]",
    "(q^17+q^16-q^13)*x^3*S[3]",
    "(q^6+2*q^5+q^4)*S[4]",
    "(2*q^12-2*q^11+q^10+4*q^9+q^8-2*q^7+2*q^6)*x*S[4]",
    "(-2*q^16+2*q^15-q^14-4*q^13-q^12+2*q^11-2*q^10)*x^2*S[4]",
    "(-q^18-2*q^17-q^16)*x^3*S[4]",
    "(-q^5-q^4+q)*S[5]", "(-q^12+q^11+2*q^10-q^9-2*q^8+2*q^7)*x*S[5]",
    "(-2*q^15+2*q^14+q^13-2*q^12-q^11+q^10)*x^2*S[5]",
    "(-q^21+q^18+q^17)*x^3*S[5]",
    "(-q-1)*S[6]", "(-3*q^10-2*q^9+2*q^8-q^7-2*q^6)*x*S[6]",
    "(2*q^16+q^15-2*q^14+2*q^13+3*q^12)*x^2*S[6]", "(q^22+q^21)*x^3*S[6]",
    "(1)*S[7]", "(q^10+q^9-q^8-2*q^7+q^6)*x*S[7]",
    "(-q^16+2*q^15+q^14-q^13-q^12)*x^2*S[7]", "(-q^22)*x^3*S[7]",
    "(3*q^7)*x*S[8]", "(-3*q^15)*x^2*S[8]",
    "(-q^7)*x*S[9]", "(q^15)*x^2*S[9]",
))


def _entry_jones():
    src = parse(JONES_OPERATOR_TEXT)
    dense = parse(JONES_ANNIHILATOR_TEXT)

    def _invariants(ctx, nmax):
        key = ("jones", nmax)
        if key not in ctx:
            ctx[key] = [jones(n) for n in range(nmax + 1)]
        return ctx[key]

    def chk_slopes(ctx, order):
        poly = newton_polygon(src.parsed)
        slopes = [str(s) for s, _ in poly.sides]
        return slopes == ["-1/2", "0", "1/2"], f"finite slopes {slopes}"

    def chk_deg(ctx, order):
        vals = _invariants(ctx, order)
        for n, j in enumerate(vals):
            if j.deg_q != n * (n - 1):
                return False, f"deg_q at color {n} is {j.deg_q}"
        return True, f"deg_q = n(n-1) through color {order}"

    def chk_ord(ctx, order):
        vals = _invariants(ctx, order)
        for n, j in enumerate(vals):
            if j.ord_q != -n * (n - 1):
                return False, f"ord_q at color {n} is {j.ord_q}"
        return True, f"ord_q = -n(n-1) through color {order}"

    def notes(ctx, order):
        depth = 12
        ser = jones_series(depth)
        out = []
        for label, op in (("factored text", src.parsed),
                          ("dense-annihilator variant", dense.parsed)):
            res = apply(op, ser)
            bad = [h for h, c in enumerate(res.coeffs) if not c.is_zero()]
            if bad:
                out.append(f"residual of the {label} on the invariant series"
                           f" is nonzero first at order {bad[0]}"
                           " (reported, not asserted)")
            else:
                out.append(f"the {label} annihilates the invariant series"
                           f" through order {depth}")
        return out

    return CorpusEntry(
        "jones-figure8",
        "linearized recurrence operator for the generating series of the"
        " figure-eight colored Jones invariants",
        src,
        (),
        [
            Expectation("polygon-slopes", "stated", chk_slopes),
            Expectation("degree-profile", "derived", chk_deg),
            Expectation("order-profile", "derived", chk_ord),
        ],
        default_order=25,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# q-Painleve II


def _entry_qp2():
    src = parse("(y[0]+x)*(y[0]*y[1]-1)*(y[0]*y[-1]-1) - q*x^2*y[0]")
    c1 = parse_ratq("q/(1+q)")
    seeds = (RatQ(1), c1)

    def chk_extends(ctx, order):
        rep = _solved(ctx, src.parsed, seeds, order)
        if not rep.events:
            raise InsufficientData("extend takes no step past the seeds")
        kinds = set(rep.kinds())
        if kinds != {"unique"}:
            return False, f"step kinds {sorted(kinds)}"
        # c_order first enters the residual at the last step's order
        padded = TruncSeries(rep.solution.coeffs, rep.events[-1]["order"])
        v = check_solution(src.parsed, padded)
        if v < padded.trunc:
            return False, f"residual appears at order {v + 1}"
        return True, f"unique affine steps and zero residual through {order}"

    def chk_branch(ctx, order):
        halted = extend(src.parsed, [RatQ(1)], 4)
        ev = halted.events[-1]
        if not (halted.halted() and ev["kind"] == "nonaffine_step"
                and ev["h"] == 1):
            return False, f"seed [1] ended with {ev['kind']} at h={ev['h']}"
        for c in (c1, -c1):
            res = eval_at(src.parsed, TruncSeries([RatQ(1), c]))
            if not all(res.coeffs[i].is_zero() for i in (0, 1)):
                return False, f"candidate {c.to_text()} fails at order 1"
        return True, ("coefficient 1 enters through a quadratic step;"
                      " both roots +-q/(1+q) clear it, the bundled seed"
                      " takes the + branch")

    def chk_polygon(ctx, order):
        rep = _solved(ctx, src.parsed, seeds, order)
        poly = newton_polygon(linearize(src.parsed, rep.solution))
        if poly.sides != [(Fraction(0), 2)]:
            return False, f"sides {poly.sides}"
        return True, "one finite side, slope 0, horizontal length 2"

    return CorpusEntry(
        "q-painleve-2",
        "nonlinear second-order equation"
        " (y+x)(y(x)y(qx)-1)(y(x)y(x/q)-1) = q x^2 y with a convergent"
        " formal solution",
        src,
        seeds,
        [
            Expectation("solution-extends", "stated", chk_extends),
            Expectation("branch-point", "derived", chk_branch),
            Expectation("regular-singular-polygon", "stated", chk_polygon),
        ],
        default_order=16,
    )


# ---------------------------------------------------------------------------
# basic hypergeometric series


def _phi11_coeff(h):
    num = RatQ(1).shift_q(h * (h - 1))
    return num / (pochhammer(-Q, "q", h) * pochhammer(Q, "q", h))


def _entry_phi11():
    # The displayed constant q^2 contradicts the displayed coefficients:
    # substituting the series forces the ratio q^(2h-2)/(1-q^(2h)), which
    # the q^-2 normalization produces.
    src = parse("S[-2]*(S[1]-1)*(S[1]+1) + q^-2*x")
    seeds = (RatQ(1),)

    def chk_coeffs(ctx, order):
        F = QdeqPoly.from_operator(src.parsed)
        rep = _solved(ctx, F, seeds, order)
        for h in range(order + 1):
            got = rep.solution.coeffs[h]
            if got != _phi11_coeff(h):
                return False, f"coefficient {h} is {got.to_text()}"
        return True, (f"phi_h = q^(h(h-1)) / ((-q;q)_h (q;q)_h)"
                      f" through order {order}")

    def chk_polygon(ctx, order):
        poly = newton_polygon(src.parsed)
        if poly.sides != [(Fraction(0), 2)]:
            return False, f"sides {poly.sides}"
        return True, "one finite side, slope 0, horizontal length 2"

    return CorpusEntry(
        "phi11-basic",
        "balanced basic hypergeometric series solving the linear equation"
        " y(x/q^2) scaled against (sigma-1)(sigma+1), with q-Gevrey"
        " coefficients q^(h(h-1)) / ((-q;q)_h (q;q)_h)",
        src,
        seeds,
        [
            Expectation("coefficient-closed-form", "stated", chk_coeffs),
            Expectation("regular-singular-polygon", "stated", chk_polygon),
        ],
        default_order=20,
    )


def corpus():
    """All bundled entries, in a stable order."""
    return [_entry_qeuler(), _entry_jones(), _entry_qp2(), _entry_phi11()]


def get_entry(entry_id):
    for e in corpus():
        if e.id == entry_id:
            return e
    raise KeyError(f"no corpus entry named {entry_id!r}")
