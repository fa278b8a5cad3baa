"""Coefficient-by-coefficient solution of nonlinear q-difference equations.

extend() grows a seed c_0..c_k into a series solution of F = 0 through
order N.  Each step treats the next coefficient c as an unknown and
asks how the residual depends on it:

* in the steady regime some row of the linearization is nonzero below
  order h.  skewop.lowest_row, the row resonance_poly reads
  L(T) from, gives the least such order l and the x^l coefficients
  alpha_i, both final.  The residual is then affine in c at the single
  new order h + l, with slope A_h = sum_i alpha_i q^{ih}, so one
  residual evaluation decides the step;
* while every row of the linearization vanishes through order h - 1
  (the scan regime) the solver samples the residual at
  c = 0, 1, 2, fits a quadratic, and reads the outcome off the first
  order where anything is nonzero or c-dependent.  Rows that vanish
  through order h - 1 put c_h at order 2h or later, so only the first
  step, h = k + 1 with window W = 2h, can see it; the scan regime is
  that first step.  When no order through W depends on c_h there, the
  seed is too short to decide it, and the run raises SeedRejected
  rather than guess c_h = 0.

Each step returns its outcome, (c, event): the new coefficient and the
event of the report, with c = None when the event halts the run.

Outcomes per step:

    unique                   affine with A != 0, c = -B/A
    resonant_free            a steady step with A = B = 0; c = 0
    obstruction_no_solution  a nonzero residual order no coefficient
                             can reach; the run stops
    nonaffine_step           c enters nonlinearly at its first
                             constraining order; the run stops

The same control flow runs over two coefficient domains: exact Q(q)
arithmetic (nonlinear.ExactDomain), and (for large nonlinear runs)
vectors of modular evaluations (_probes.ProbeDomain) handled by the
companion probe engine, whose results are reconstructed to exact
coefficients and verified before being reported.  Every residual and
every linearization row comes from the one substitution engine,
nonlinear.Evaluator; _eval_poly is the solve loop's entry point to it.
A run keeps one evaluator, which owns the coefficient list; setting c_h
(or a scan sample of it) changes only orders >= h, so each step
recomputes and checks just the orders it can change.  An exact run
that does not halt hands its evaluator to the series it returns.
"""

from .errors import EngineError, SeedRejected
from .nonlinear import Evaluator, ExactDomain, eval_at, partial_rows
from .ratfunc import RatQ
from .series import TruncSeries
from .skewop import ResonancePoly, lowest_row


def _eval_poly(F, ev, trunc, dom, lo=0):
    """F along ev's coefficients in dom, orders lo..trunc (lower ones 0)."""
    return ev.eval(F, lo, trunc + 1)


def _resolve_engine(choice, F, N):
    """The engine that choice ("auto", "exact" or "probe") runs through
    order N: "auto" is probe for nonlinear F past order 12, exact
    otherwise."""
    if choice not in ("auto", "exact", "probe"):
        raise ValueError(f"unknown engine {choice!r}")
    if choice != "auto":
        return choice
    w = max((sum(k for _, k in exps) for (_, exps) in F.monomials), default=0)
    return "probe" if w >= 2 and N > 12 else "exact"


def _extend_core(F, seed, N, dom):
    """Run the solve loop; returns (coefficients in dom, events, ev)."""
    if not F.used_indices():
        raise SeedRejected("the equation does not involve the unknown at all")
    k = len(seed) - 1
    ev = Evaluator([dom.from_ratq(c) for c in seed], dom)
    events = []

    # orders 0..k depend on the seed alone: reject now if any is nonzero
    r = _eval_poly(F, ev, k, dom)
    for m, v in enumerate(r):
        if not dom.is_zero(v):
            raise SeedRejected(
                f"seed leaves a nonzero residual at order {m}")
    cleared = k

    low = None
    for h in range(k + 1, N + 1):
        if low is None:  # rows known through x^(h-1)
            low = lowest_row(partial_rows(F, ev, h), dom.is_zero)
        if low is None:
            c, event = _scan_step(F, ev, dom, h, h + k + 1, cleared)
        else:
            c, event = _steady_step(F, ev, dom, low, h, cleared)
        events.append(event)
        if c is None:  # no ev: it may hold a scan sample at c_h
            return ev.phi[:h], events, None
        ev.set(h, c)
        # every step event's order is the highest residual order it
        # certified zero
        cleared = event["order"]
    return ev.phi, events, ev


def _steady_step(F, ev, dom, low, h, cleared):
    """One step past the lowest row (l, alpha) of the linearization: the
    residual is affine in c_h at order W = h + l with slope
    A_h = sum_i alpha_i q^(ih) = q^(m0 (l+h)) L(q^h), where
    L = resonance_poly of the linearization and m0 its least index whose
    row does not vanish.  Orders below W are left to clear only on the
    first step, h = k + 1; they are at most k + l, so the seed alone
    decides them."""
    l, alpha = low
    W = h + l
    R = _eval_poly(F, ev, W, dom, cleared + 1)
    for m in range(cleared + 1, W):
        if not dom.is_zero(R[m]):
            raise SeedRejected(
                f"seed leaves a nonzero residual at order {m}")
    B = R[W]
    A = dom.sum([dom.shift(a, i * h) for i, a in alpha.items()])
    if dom.is_zero(A):
        if dom.is_zero(B):
            return dom.zero(), {"h": h, "kind": "resonant_free", "order": W}
        return None, {"h": h, "kind": "obstruction_no_solution", "order": W,
                      "residual": B}
    return (dom.div(dom.sub(dom.zero(), B), A),
            {"h": h, "kind": "unique", "order": W})


def _scan_step(F, ev, dom, h, W, cleared):
    samples = []
    for cv in (0, 1, 2):
        ev.set(h, dom.from_ratq(RatQ(cv)))  # the samples share all orders < h
        samples.append(_eval_poly(F, ev, W, dom, cleared + 1))
    r0, r1, r2 = samples
    for m in range(cleared + 1, W + 1):
        g = r0[m]
        d1 = dom.sub(r1[m], g)
        d2 = dom.sub(r2[m], g)
        if dom.is_zero(d1) and dom.is_zero(d2):
            if dom.is_zero(g):
                continue
            return None, {"h": h, "kind": "obstruction_no_solution",
                          "order": m, "residual": g}
        # fit r(c) = alpha c^2 + beta c + gamma through c = 0, 1, 2
        alpha = dom.div(dom.sub(dom.sub(d2, d1), d1), dom.from_ratq(RatQ(2)))
        beta = dom.sub(d1, alpha)
        if not dom.is_zero(alpha):
            return None, {"h": h, "kind": "nonaffine_step", "order": m,
                          "alpha": alpha, "beta": beta, "gamma": g}
        return (dom.div(dom.sub(dom.zero(), g), beta),
                {"h": h, "kind": "unique", "order": m})
    raise SeedRejected(
        f"no residual order through {W} depends on c_{h}: the seed is "
        f"too short to decide it")


# ---------------------------------------------------------------------------
# public API


def _plain_event(e):
    """An event with JSON-ready values: RatQ as its text, probe-domain
    vectors as "(modular)"."""
    out = {}
    for key, v in e.items():
        if isinstance(v, RatQ):
            v = v.to_text()
        elif not isinstance(v, (int, str)):
            v = "(modular)"
        out[key] = v
    return out


class SolveReport:
    """Outcome of extend(): the solution found and the per-step events.
    fallback is None, or why the probe engine gave way to the exact one;
    to_json leaves it out, as the answer is the same either way."""

    __slots__ = ("solution", "events", "fallback")

    def __init__(self, solution, events, fallback=None):
        self.solution = solution
        self.events = events
        self.fallback = fallback

    @property
    def resolved_through(self):
        return self.solution.trunc

    def kinds(self):
        return [e["kind"] for e in self.events]

    def halted(self):
        return bool(self.events) and self.events[-1]["kind"] in (
            "obstruction_no_solution", "nonaffine_step")

    def to_json(self):
        events = [_plain_event(e) for e in self.events]
        return {
            "coeffs": [c.to_text() for c in self.solution.coeffs],
            "resolved_through": self.resolved_through,
            "events": events,
        }

    def to_text(self):
        lines = [f"resolved through order {self.resolved_through}"]
        kinds = set(self.kinds())
        if kinds == {"unique"}:
            lines.append("steps: all unique")
        else:
            for e in self.events:
                lines.append(f"  h={e['h']}  {e['kind']} order={e['order']}")
        lines.append("coefficients:")
        for h, c in enumerate(self.solution.coeffs):
            lines.append(f"  c[{h}] = {c.to_text()}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"SolveReport(resolved_through={self.resolved_through}, "
                f"kinds={self.kinds()})")


def extend(F, seed, N, engine="auto"):
    """Extend seed coefficients c_0..c_k of F = 0 through order N.

    engine: "exact", "probe", or "auto" (probe for nonlinear equations
    past order 12, exact otherwise; probe results are reconstructed to
    exact coefficients and verified, falling back to exact on any
    engine failure, whose reason the report's fallback keeps).
    """
    seed = [RatQ.from_value(c) for c in seed]
    if not seed:
        raise ValueError("seed must contain at least c_0")
    k = len(seed) - 1
    if N < k:
        raise ValueError(f"target order {N} is below the seed order {k}")
    coeffs = ev = fallback = None
    if _resolve_engine(engine, F, N) == "probe":
        from . import _probes
        try:
            coeffs, events = _probes.solve(F, seed, N)
        except EngineError as exc:
            fallback = str(exc)  # the exact engine runs instead
        else:
            events = [_plain_event(e) for e in events]
    if coeffs is None:
        coeffs, events, ev = _extend_core(F, seed, N, ExactDomain())
    solution = TruncSeries(coeffs)
    solution.evaluator = ev  # set(h, c) left only orders >= h stale
    return SolveReport(solution, events, fallback)


def check_solution(F, phi):
    """Largest order V with residual coefficients 0..V all zero.

    The last l coefficients of an extend answer, whose step h decides c_h
    at order h + l, need it padded with zeros through its last step's order.

    For nonlinear F past order 12 the residual is tested at random
    modular points (sound for nonzero detection, zero with overwhelming
    likelihood), and the exact check runs instead when the points of 24
    primes in a row hit a pole.  Otherwise it is computed in Q(q) on
    phi's evaluator, where an exact extend answer leaves only order N's
    products to compute.
    """
    if _resolve_engine("auto", F, phi.trunc) == "probe":
        from . import _probes
        try:
            return _probes.check(F, phi)
        except EngineError:
            pass  # the exact check runs instead
    r = eval_at(F, phi)
    for m, c in enumerate(r.coeffs):
        if not c.is_zero():
            return m - 1
    return phi.trunc


def resonance_set(L, h_max):
    """{h in [1, h_max] : L(q^h) = 0}, decided exactly."""
    if not isinstance(L, ResonancePoly):
        raise TypeError("resonance_set expects a ResonancePoly")
    return {h for h in range(1, h_max + 1) if L.at_qpow(h).is_zero()}
