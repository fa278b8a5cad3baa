"""Linear q-difference operators in sigma_q-normal form, and their
Newton polygons.

A SkewOp is a finite sum  sum_i  a_i(x) * sigma^i  with the coefficient
written on the left.  The coefficients are either all exact x-polynomials
(XPoly, "exact" flavor) or all truncated series (TruncSeries, "series"
flavor, the shape produced by linearizing a nonlinear equation along an
approximate solution).

Composition uses the commutation rule  sigma^i o a(x) = a(q^i x) o sigma^i,
which is what op_mul implements.  Sums and composition are for exact
operators: a series operator is an output, to inspect (its Newton
polygon, its resonance_poly) and to apply, and apply runs on
nonlinear.Evaluator.

In series flavor, a coefficient whose stored part is identically zero is
not discarded: the truncated data cannot distinguish a structural zero
from a series of high order, so such indices are kept and reported as
uncertain by the polygon routines instead of being silently dropped.

NewtonPolygon builds the lower hull of whatever points it is given:
newton_polygon passes it an operator's valuation diagram, and growth
prediction passes it the same hull with the truncation-masked points
added back at their lowest possible orders.

ResonancePoly, the polynomial L(T) over Q(q) read off the lowest vertex
of the Newton polygon, is an XPoly in T: the same sparse terms and the
same printer.  An exact operator's lowest row is its x^l terms, l the
least ord_x, so no reader of an exact coefficient, to_json included,
spans the exponents between its terms.  lowest_row
finds the row in any coefficient domain: resonance_poly reads it from a
series operator, and the solver from the linearization's values in its
own domain, so both share one row and one certification rule
(UncertainOrder).
"""

from fractions import Fraction
from operator import index

from .errors import EmptyOperator, UncertainOrder
from .ratfunc import RatQ, is_compound, ratq_sum
from .series import ABOVE_TRUNCATION, TruncSeries, XPoly


class SkewOp:
    """Finite sum of a_i(x) * sigma^i terms, all of one coefficient flavor."""

    __slots__ = ("terms", "flavor")

    def __init__(self, terms):
        """terms: a dict or an iterable of (index, coefficient) pairs.  This
        is where terms merge: coefficients that share an index add, and
        zero exact coefficients drop (a series one stays, see above)."""
        merged = {}
        for i, a in terms.items() if isinstance(terms, dict) else terms:
            if not isinstance(a, (XPoly, TruncSeries)):
                raise TypeError(
                    f"operator coefficient must be XPoly or TruncSeries, "
                    f"not {type(a).__name__}")
            i = index(i)
            prev = merged.get(i)
            merged[i] = a if prev is None else prev + a
        self.terms = {i: a for i, a in merged.items()
                      if isinstance(a, TruncSeries) or not a.is_zero()}
        flavors = {type(a) for a in self.terms.values()}
        if len(flavors) > 1:
            raise ValueError("cannot mix exact and series coefficients")
        self.flavor = "series" if TruncSeries in flavors else "exact"

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, SkewOp):
            return NotImplemented
        _exact(self, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return SkewOp([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        _exact(self)
        return SkewOp({i: -a for i, a in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SkewOp):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SkewOp):
            return NotImplemented
        return op_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, SkewOp):
            return NotImplemented
        return self.flavor == other.flavor and self.terms == other.terms

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for i in sorted(self.terms):
            a = self.terms[i]
            t = a.to_text()
            if is_compound(t) or "*" in t:
                t = f"({t})"
            parts.append(f"{t}*S[{i}]")
        return " + ".join(parts)

    def to_json(self):
        return {"flavor": self.flavor,
                "terms": {str(i): a.to_json()
                          for i, a in sorted(self.terms.items())}}

    def __repr__(self):
        return f"SkewOp({self.to_text()})"


def _exact(*ops):
    """Operator arithmetic needs its coefficients' ring operations, which
    only an exact operator's XPoly coefficients have."""
    if any(op.flavor == "series" for op in ops):
        raise ValueError("operator arithmetic is for exact operators; "
                         "a series operator can only be inspected and applied")


def op_mul(A, B):
    """Compose operators: (A o B), normalizing with sigma^i o b = b(q^i x) o sigma^i."""
    if not isinstance(A, SkewOp) or not isinstance(B, SkewOp):
        raise TypeError("op_mul needs two SkewOp operands")
    _exact(A, B)
    if A.is_zero() or B.is_zero():
        return SkewOp({})
    return SkewOp((i + j, a * b.sigma(i))
                  for i, a in A.terms.items() for j, b in B.terms.items())


def apply(A, y):
    """A acting on a series:  sum_i a_i(x) * y(q^i x), known through y's
    truncation and every series coefficient's.  The evaluator substitutes
    y, cut to that truncation, into the equation sum_i a_i(x) w_i."""
    from .nonlinear import QdeqPoly, eval_at  # nonlinear imports skewop

    if not isinstance(y, TruncSeries):
        raise TypeError("apply expects a TruncSeries argument")
    cut = [a.trunc for a in A.terms.values() if A.flavor == "series"]
    if cut:  # a series operator acts through its stored coefficients
        A = SkewOp({i: XPoly(enumerate(a.coeffs))
                    for i, a in A.terms.items()})
    return eval_at(QdeqPoly.from_operator(A),
                   TruncSeries(y.coeffs, min([y.trunc, *cut])))


# ---------------------------------------------------------------------------
# Newton polygon


class NewtonPolygon:
    """Lower convex hull of the points (i, ord_x a_i).

    vertices          strictly convex corner points, left to right; the
                      first and last are the least and greatest certain
                      index;
    uncertain_bounds  {index: lowest order its coefficient could still
                      have}, for indices whose coefficient vanishes
                      through its truncation (the bound is one past it).
                      They are left out of the hull but reported, so
                      callers know the picture could change beyond the
                      truncation; growth prediction re-adds them to see
                      whether a hidden point matters.

    sides are (slope, horizontal_length) pairs, slopes strictly
    increasing (vertical jumps at the ends are not stored); uncertain is
    the sorted list of uncertain indices.
    """

    __slots__ = ("vertices", "uncertain_bounds")

    def __init__(self, points, uncertain_bounds=()):
        hull = []
        for p in sorted(points):
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                    hull.pop()
                else:
                    break
            hull.append(p)
        self.vertices = hull
        self.uncertain_bounds = dict(uncertain_bounds)

    @property
    def sides(self):
        return [(Fraction(y2 - y1, x2 - x1), x2 - x1)
                for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:])]

    @property
    def slopes(self):
        return [s for s, _ in self.sides]

    @property
    def uncertain(self):
        return sorted(self.uncertain_bounds)

    def to_json(self):
        return {
            "vertices": [[i, str(Fraction(h))] for i, h in self.vertices],
            "slopes": [str(s) for s in self.slopes],
            "uncertain": self.uncertain,
        }

    def to_text(self):
        vs = ", ".join(f"({i}, {h})" for i, h in self.vertices)
        sides = self.sides
        if not sides:
            return f"vertices: {vs}; no finite sides"
        ss = ", ".join(f"slope {s} (length {l})" for s, l in sides)
        out = f"vertices: {vs}; sides: {ss}"
        if self.uncertain_bounds:
            out += f"; uncertain indices: {self.uncertain}"
        return out

    def __repr__(self):
        return f"NewtonPolygon({self.to_text()})"


def _points(op):
    """(certain points, {uncertain index: trunc + 1}) of the valuation
    diagram."""
    if op.is_zero():
        raise EmptyOperator("cannot take the Newton polygon of the zero operator")
    pts = []
    bounds = {}
    for i, a in sorted(op.terms.items()):
        o = a.ord_x
        if o is ABOVE_TRUNCATION:
            bounds[i] = a.trunc + 1
        else:
            pts.append((i, o))
    if not pts:
        raise EmptyOperator(
            "every coefficient vanishes through its truncation; "
            "nothing certain to build a polygon from")
    return pts, bounds


def newton_polygon(op):
    return NewtonPolygon(*_points(op))


def lowest_row(rows, is_zero):
    """(l, alpha) of coefficient rows {i: [x^0, x^1, ...]} in any domain:
    l the least order at which some row is nonzero, alpha = {i: row[l]}.
    None when every row vanishes.  Raises UncertainOrder when a row stops
    at or before l: it vanishes as far as it is known, so its x^l
    coefficient is not."""
    l = None
    for row in rows.values():
        for m, v in enumerate(row[:l]):  # once l is known, only below it
            if not is_zero(v):
                l = m
                break
    if l is None:
        return None
    for i, row in rows.items():
        if len(row) <= l:
            raise UncertainOrder(
                f"coefficient of sigma^{i} vanishes through truncation "
                f"{len(row) - 1}, not enough to certify orders below {l}")
    return l, {i: row[l] for i, row in rows.items()}


def _lowest(op):
    """(m0, l, alpha): m0 the least index whose coefficient does not
    vanish through its truncation, (l, alpha) the lowest_row of op; an
    exact op's is l = min ord_x and alpha_i = the x^l term of a_i."""
    pts, _ = _points(op)
    if op.flavor == "exact":
        l = min(a.ord_x for a in op.terms.values())
        return pts[0][0], l, {i: a.coeff(l) for i, a in op.terms.items()}
    l, alpha = lowest_row({i: a.coeffs for i, a in op.terms.items()},
                          RatQ.is_zero)
    return pts[0][0], l, alpha


# ---------------------------------------------------------------------------
# characteristic-style polynomials in T over Q(q)


class ResonancePoly(XPoly):
    """Polynomial in T over Q(q): an XPoly that prints in T."""

    __slots__ = ()
    var = "T"

    def at_qpow(self, h):
        """Exact value at T = q**h."""
        return ratq_sum([c.shift_q(j * h) for j, c in self.terms.items()])

    def coeffs_at(self, qv):
        """Numeric coefficient list at q = qv, ascending in T; only the
        stored terms are evaluated."""
        zero = RatQ(0).eval(qv)  # an absent power's value
        vals = {j: c.eval(qv) for j, c in self.terms.items()}
        return [vals.get(j, zero) for j in range(max(vals, default=-1) + 1)]


def resonance_poly(op):
    """The polynomial L(T) whose values L(q^h) drive the order-h step.

    Built from the lowest vertex (n', l): shift the support to start at 0
    by composing with sigma^(-m0) on the left (which also substitutes
    q^(-m0) x into every coefficient), then collect the x^l coefficient
    of each term; those below m0 and past n' are zero.
    """
    m0, l, alpha = _lowest(op)
    return ResonancePoly((i - m0, c.shift_q(-m0 * l))
                         for i, c in alpha.items() if i >= m0)
