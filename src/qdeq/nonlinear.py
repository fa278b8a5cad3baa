"""Polynomial q-difference equations in a solution and its q-shifts.

A QdeqPoly is a polynomial over Q(q) in the symbols

    x,  w_m, ..., w_n        (the window [m, n] of shift indices),

where w_i stands for y(q^i x).  It is its monomials, stored sparsely as

    (e_x, ((i_1, k_1), ..., (i_r, k_r)))  ->  coefficient in Q(q)

with the shift exponents sorted by index and all k_j >= 1; zero
coefficients are never stored.  Only the constructor merges monomials
into this form.  The window is read from them: the least and greatest
of the indices used and 0, so an index whose terms all cancel leaves it.

This module also holds the one substitution engine of the package.
Evaluator computes F(phi) order by order in a coefficient domain: the
ExactDomain defined here (Q(q) itself) or the probe engine's
ProbeDomain (modular evaluations, in _probes).  A domain supplies
eleven members and nothing else:

    name                 "exact" or "probe"
    from_ratq(r)         the image of an exact RatQ
    zero(), zeros(k)     zero, and a zero-filled series buffer of k orders
    is_zero(a)           the zero test
    sub(a, b), div(a, b) difference and quotient
    shift(a, e)          a * q^e (a q-shift, with no multiplication in Q(q))
    mul_term(a, b)       a product that only feeds sum (the exact domain
                         leaves it unreduced)
    sum(terms)           one sum over a list of terms (each residual order
                         is collected and summed once)
    series_mul(a, b, lo, hi)
                         orders lo..hi-1 of a Cauchy product

Signs, constants and doublings are spelled with these: -b is
sub(zero(), b) and the integer c is from_ratq(RatQ(c)).
Everything that substitutes a series into a QdeqPoly runs on it, each
call naming the orders it computes: the solve loop in solver, through
one evaluator per run that recomputes only the orders a new coefficient
changes, the probe engine's verification and checks, and the two exact
entry points below, building each equation's products by its plan.
A TruncSeries owns one exact evaluator, made on first use, where every
exact substitution of it runs, so its products live as long as the
series; an exact extend that does not halt hands its run's over.

eval_at substitutes a truncated series phi for y (so w_i becomes
phi(q^i x)) and returns a series with the same truncation as phi.
linearize produces the series-flavor SkewOp of partial derivatives
along phi; a partial that is structurally zero (the symbol w_i never
occurs) contributes no term, while one that merely evaluates to zero
through the truncation is kept and lands in the polygon's uncertain
set.  partial_rows computes those partials' values; the solver reads
the lowest row of the linearization from it in its own domain.
"""

from operator import index

from .errors import IndexOutOfWindow, NegativeXPower
from .ratfunc import _ZERO, RatQ, _mul_unreduced, is_compound, ratq_sum
from .series import TruncSeries
from .skewop import SkewOp


def _canon_exps(exps):
    out = {}
    for i, k in exps:
        i, k = index(i), index(k)
        if k < 0:
            raise ValueError("shift exponents must be nonnegative")
        if k:
            out[i] = out.get(i, 0) + k
    return tuple(sorted(out.items()))


class QdeqPoly:
    """Polynomial in x and the shifted unknowns w_m .. w_n over Q(q).

    The constructor is where monomials merge: it takes a dict or an
    iterable of ((e, exps), coeff) pairs, adds the exponents of a
    repeated shift index, adds the coefficients of equal monomials and
    drops those that come to zero.  The ring operations, partial and
    from_operator emit pairs and leave the normal form to it.

    +, - and * take QdeqPolys only (a number enters through the DSL or
    QdeqPoly.const); equations compare with == and are not hashable.
    """

    __slots__ = ("monomials", "_partials", "_plan")

    def __init__(self, monomials):
        store = {}
        pairs = monomials.items() if isinstance(monomials, dict) else monomials
        for (e, exps), c in pairs:
            e = index(e)
            if e < 0:
                raise NegativeXPower("monomials cannot carry negative x-powers")
            key, c = (e, _canon_exps(exps)), RatQ.from_value(c)
            prev = store.get(key)
            store[key] = c if prev is None else prev + c
        self.monomials = {k: c for k, c in store.items() if not c.is_zero()}
        self._partials = None  # partial_rows builds them on first use
        self._plan = None  # the first evaluation plans its products

    @property
    def window(self):
        """(m, n): the least and greatest of the shift indices used and 0."""
        idx = self.used_indices() | {0}
        return min(idx), max(idx)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, v):
        return cls({(0, ()): RatQ.from_value(v)})

    @classmethod
    def w(cls, i, k=1):
        return cls({(0, ((i, k),)): RatQ(1)})

    @classmethod
    def from_operator(cls, op):
        """View an exact linear operator sum a_i(x) S^i as the equation
        sum a_i(x) w_i = 0, so linear problems run through the nonlinear
        solver unchanged."""
        if op.flavor != "exact":
            raise ValueError("only exact-flavor operators define an equation")
        return cls([((e, ((i, 1),)), c) for i, a in op.terms.items()
                    for e, c in a.terms.items()])

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QdeqPoly):
            return NotImplemented
        return QdeqPoly([*self.monomials.items(), *other.monomials.items()])

    def __neg__(self):
        return QdeqPoly({k: -c for k, c in self.monomials.items()})

    def __sub__(self, other):
        if not isinstance(other, QdeqPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QdeqPoly):
            return NotImplemented
        return QdeqPoly([((e1 + e2, x1 + x2), c1 * c2)
                         for (e1, x1), c1 in self.monomials.items()
                         for (e2, x2), c2 in other.monomials.items()])

    def __eq__(self, other):
        if not isinstance(other, QdeqPoly):
            return NotImplemented
        return self.monomials == other.monomials

    def used_indices(self):
        return {i for _, exps in self.monomials for i, _ in exps}

    # -- serialization -----------------------------------------------------

    def to_json(self):
        mons = []
        for (e, exps), c in sorted(self.monomials.items()):
            mons.append({"x": e,
                         "w": {str(i): k for i, k in exps},
                         "coeff": c.to_text()})
        return {"window": list(self.window), "monomials": mons}

    def to_text(self):
        if not self.monomials:
            return "0"
        parts = []
        for (e, exps), c in sorted(self.monomials.items()):
            factors = []
            if e:
                factors.append("x" if e == 1 else f"x^{e}")
            for i, k in exps:
                factors.append(f"y[{i}]" if k == 1 else f"y[{i}]^{k}")
            if not factors or not c.is_one():
                t = c.to_text()
                factors.insert(0, f"({t})" if is_compound(t) else t)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"QdeqPoly({self.to_text()})"


# ---------------------------------------------------------------------------
# coefficient domains and the substitution engine


class ExactDomain:
    """Coefficient domain Q(q) itself; zero tests are definitive."""

    name = "exact"

    def from_ratq(self, r):
        return r

    def zero(self):
        return _ZERO  # RatQ is immutable: one zero serves every caller

    def sum(self, terms):
        return ratq_sum(terms)

    def sub(self, a, b):
        return a - b

    mul_term = staticmethod(_mul_unreduced)  # sum reduces the terms

    def div(self, a, b):
        return a / b

    def shift(self, a, e):
        return a.shift_q(e)

    def is_zero(self, a):
        return a.is_zero()

    def zeros(self, k):
        return [_ZERO] * k

    def series_mul(self, a, b, lo, hi):
        """Orders lo..hi-1 of the Cauchy product, skipping zero coefficients;
        each order's products are formed unreduced, then summed and
        reduced once."""
        terms = [[] for _ in range(lo, hi)]
        for i, ai in enumerate(a[:hi]):
            if ai.is_zero():
                continue
            for m in range(max(lo, i), hi):
                bj = b[m - i]
                if not bj.is_zero():
                    terms[m - lo].append(_mul_unreduced(ai, bj))
        return [ratq_sum(t) for t in terms]


class Evaluator:
    """Substitution of one coefficient list phi into polynomials F.

    Works in any coefficient domain (ExactDomain here, the probe engine's
    ProbeDomain in _probes); every call names the orders it computes.
    It owns phi and caches the images of F's coefficients and the
    products of F's monomials (a shift w_i is the product ((i, 1),)),
    built by F's plan: each monomial of degree >= 2 from another of F's
    own where one fits, so q-Painleve II takes six Cauchy products, not
    nine, and F's partials extend it with the products only they need.
    The caches are relaxed (online, van der Hoeven 2002): order m of a
    product depends on phi[0..m] alone, so set(h, c) marks only orders
    >= h stale, and a call recomputes just those it reads.  A series'
    exact evaluator keeps its products as long as the series.
    """

    def __init__(self, phi, dom):
        self.dom = dom
        self.phi = list(phi)
        self._products = {}  # exps -> [buffer of orders, count still valid]
        self._coeffs = {}    # RatQ -> its image in dom

    def set(self, h, c):
        """Set c_h of phi, appending it when h == len(phi)."""
        self.phi[h:h + 1] = [c]
        for entry in self._products.values():
            entry[1] = min(entry[1], h)

    def _product(self, exps, width, plan):
        dom = self.dom
        entry = self._products.get(exps)
        if entry is None:
            entry = self._products[exps] = [dom.zeros(width), 0]
        buf, lo = entry
        if lo >= width:
            return buf
        if len(buf) < width:
            entry[0] = grown = dom.zeros(2 * width)
            grown[:lo] = buf[:lo]
            buf = grown
        entry[1] = width
        if exps in plan:
            rest, w = plan[exps]
            buf[lo:width] = dom.series_mul(self._product(rest, width, plan),
                                           self._product(w, width, plan),
                                           lo, width)
        else:  # a single shift w_i: phi's coefficients moved by q^(i*h)
            (i, _), = exps
            for h in range(lo, width):
                c = self.phi[h] if h < len(self.phi) else dom.zero()
                buf[h] = c if i == 0 else dom.shift(c, i * h)
        return buf

    def eval(self, F, lo, width):
        """F(phi) at orders lo..width-1 of a list of width orders; orders
        below lo are left zero."""
        dom = self.dom
        plan = F._plan
        if plan is None:
            plan = F._plan = _plan(F.monomials, {})
        terms = [[] for _ in range(lo, width)]
        for (e, exps), coeff in F.monomials.items():
            if e >= width:
                continue
            c = self._coeffs.get(coeff)
            if c is None:
                c = self._coeffs[coeff] = dom.from_ratq(coeff)
            if not exps:
                if e >= lo:
                    terms[e - lo].append(c)
                continue
            term = self._product(exps, width, plan)
            for m in range(max(lo, e), width):
                terms[m - lo].append(dom.mul_term(term[m - e], c))
        return [dom.zero()] * lo + [dom.sum(t) for t in terms]


def _plan(monomials, plan):
    """Plan each exps of degree >= 2 among monomials' keys (e, exps), by
    ascending degree, as w_i times a rest that is a shift or planned; else
    the rest drops a factor of the last index and is planned first."""
    for d, exps in sorted((sum(k for _, k in x), x) for _, x in monomials):
        if d < 2 or exps in plan:
            continue
        for i, _ in exps:
            rest = tuple((j, k - (j == i)) for j, k in exps if j != i or k > 1)
            if d == 2 or rest in plan:
                break
        else:
            _plan([(0, rest)], plan)
        plan[exps] = (rest, ((i, 1),))
    return plan


def _exact_evaluator(phi):
    """phi's one exact evaluator, made on first use: a cache of products
    that callers read through phi's truncation."""
    if not isinstance(phi, TruncSeries):
        raise TypeError("expected a TruncSeries to substitute")
    if phi.evaluator is None:
        phi.evaluator = Evaluator(phi.coeffs, ExactDomain())
    return phi.evaluator


def eval_at(F, phi):
    """Substitute w_i -> phi(q^i x); the result keeps phi's truncation.
    Runs on phi's own evaluator, reusing the products it holds."""
    return TruncSeries(_exact_evaluator(phi).eval(F, 0, phi.trunc + 1),
                       phi.trunc)


def partial(F, i):
    """Formal partial derivative with respect to w_i, for i in F's window."""
    m, n = F.window
    if not m <= i <= n:
        raise IndexOutOfWindow(f"shift index {i} outside window [{m}, {n}]")
    return QdeqPoly([((e, tuple((j, k - (j == i)) for j, k in exps)), c * k)
                     for (e, exps), c in F.monomials.items()
                     for j, k in exps if j == i])


def partial_rows(F, ev, width):
    """{i: (dF/dw_i)(phi)} at orders 0..width-1 through one evaluator, for
    each i whose partial is not structurally zero (w_i occurs in F).
    F is immutable: its partials, planned over F's plan, are kept on it."""
    if F._partials is None:
        F._partials = {i: partial(F, i) for i in sorted(F.used_indices())}
        base = F._plan if F._plan is not None else _plan(F.monomials, {})
        for dF in F._partials.values():
            dF._plan = _plan(dF.monomials, dict(base))
    return {i: ev.eval(dF, 0, width) for i, dF in F._partials.items()}


def linearize(F, phi):
    """Series-flavor operator of partials along phi:  sum_i (dF/dw_i)(phi) sigma^i.

    Indices whose partial is structurally zero are omitted; partials that
    merely evaluate to zero through the truncation stay, flagged later by
    the polygon as uncertain.  Runs on phi's own evaluator: the partials
    share the products of F's monomials that it holds.
    """
    rows = partial_rows(F, _exact_evaluator(phi), phi.trunc + 1)
    return SkewOp({i: TruncSeries(row, phi.trunc) for i, row in rows.items()})
