"""The suites' equations, one family each, and the one engine comparison.

A family is a function of integer parameters that returns a Family: F
and its text, the seed c_0..c_k, an order N and the regime the solve
reaches there (README's Testing section lists them).  qp2, linear and
phi11 are the benchmark's own job builders (perfbench/workloads.py), so
the suites and the benchmark read one text of each.  A suite draws the
parameters with st.builds(family, ...) and compares the engines with
outcome().
"""

from random import Random
from typing import NamedTuple

from hypothesis import strategies as st

from perfbench.workloads import _linear_job, _phi11_job, _qp2_job
from qdeq import _probes
from qdeq.dsl import parse, parse_ratq
from qdeq.errors import QdeqError
from qdeq.nonlinear import ExactDomain, QdeqPoly, eval_at
from qdeq.ratfunc import RatQ
from qdeq.series import TruncSeries
from qdeq.solver import _extend_core


class Family(NamedTuple):
    F: QdeqPoly
    seed: list  # RatQ c_0..c_k
    N: int
    regime: str
    text: str


def _family(regime, text, seed, order, operator=False, **job):
    """The Family of a text and seed texts, or of a benchmark job."""
    F = parse(text).parsed
    return Family(QdeqPoly.from_operator(F) if operator else F,
                  [parse_ratq(c) for c in seed], order, regime, text)


def qp2(m=1, k=0, sign=1, N=8, branch=True):
    """q-Painleve II, (y + x)(y y(qx) - 1)(y y(x/q) - 1) = m^2 q^(2k+1)
    x^2 y, from seed 1 (a branch point) or on the branch c_1 = sign m
    q^(k+1)/(1+q); m = 1, k = 0 is the paper's equation."""
    return _family("unique" if branch else "nonaffine_step",
                   **_qp2_job(m, k, sign, N, False, branch))


def linear(scale=1, shift=0, dense=0, b="1", s=1, N=8):
    """scale q^shift (1+q)^dense x y(q^s x) - b y + b from seed 1; the
    defaults give q-Euler, x y(qx) - y + 1, with c_h = q^(h(h-1)/2)."""
    return _family("unique", **_linear_job(scale, shift, dense, b, s, N))


def phi11(num=1, den=1, N=8, e=-2):
    """The phi11 operator S[-2](S[1]-1)(S[1]+1) + (num/den) q^-2 x; e = 2
    puts q^2 x in place of q^-2 x."""
    job = _phi11_job(num, den, N)
    job["text"] = job["text"].replace("q^-2", f"q^{e}")
    return _family("unique", **job)


def eigen(h0, forced, N=6):
    """y(qx) = q^h0 y(x) (+ x^h0 when forced) from seed 0: resonant at h0."""
    return _family("obstruction_no_solution" if forced else "resonant_free",
                   f"y[1] - q^{h0}*y[0]" + f" - x^{h0}" * forced, ["0"], N)


def resonant(m):
    """y(qx) - q^m y + x^2 y^2 from seed 0: resonant_free at h = m."""
    return _family("resonant_free", f"y[1] - q^{m}*y[0] + x^2*y[0]^2", ["0"],
                   m + 1)


def scan(e, j, d=1):
    """x^e y^d - x^e - x^(e+j) from seed 1: the first step scans orders
    1..2, which c_1 enters at e = 1 and x^(e+j) at j = 0 and e <= 2."""
    regime = ("obstruction_no_solution" if j == 0 and e <= 2 else
              "scan_unique" if e == 1 else "seed_too_short")
    return _family(regime, f"x^{e}*y[0]^{d} - x^{e} - x^{e + j}", ["1"], 4)


def sqrt(a, N=20):
    """y^2 = 1 + a x from seed 1, q-free: c_h = binomial(1/2, h) a^h."""
    return _family("third_prime", f"y[0]^2 - 1 - {a}*x", ["1"], N)


def big_constant(C, N=6):
    """x y(qx) - y + C from seed C: c_h = C q^(h(h-1)/2)."""
    return _family("third_prime", f"x*y[1] - y[0] + {C}", [str(C)], N)


def qpower(e, N=13):
    """q^e x y(qx) y - y + 1 from seed 1: ord_q(c_h) = e h."""
    return _family("unique", f"q^{e}*x*y[1]*y[0] - y[0] + 1", ["1"], N)


def make_domain(engine, lanes, seed):
    """ExactDomain, or lanes points mod 2^31 - 1 drawn by Random(seed)."""
    if engine == "exact":
        return ExactDomain()
    p = 2147483647
    return _probes.ProbeDomain(p, _probes._lane_points(p, lanes, Random(seed)))


def outcome(F, seed, N, engine):
    """One engine's solve: (coefficients, (h, kind, order, keys) of each
    event), or the type of the QdeqError it raised.  "probe" calls
    _probes.solve and "exact" _extend_core over ExactDomain, so neither
    falls back to the other; probe events carry vectors where exact ones
    carry values, so an event keeps only their keys."""
    seed = [RatQ.from_value(c) for c in seed]
    try:
        if engine == "probe":
            coeffs, events = _probes.solve(F, seed, N)
        else:
            coeffs, events, _ = _extend_core(F, seed, N, ExactDomain())
    except QdeqError as exc:
        return type(exc)
    return (tuple(coeffs),
            [(e["h"], e["kind"], e["order"], sorted(e)) for e in events])


def counted(mp):
    """What probe solves do while mp, a pytest MonkeyPatch, wraps
    _probes: "runs" gets (prime, lanes, grown) of each run _start_run
    returns, "lanes" each _NeedLanes of _reconstruct_coeff (a pool
    growth), and "rejected" each _NeedPrimes of _verify_fresh (a lift
    that failed its check)."""
    got = {"runs": [], "lanes": [], "rejected": []}
    start = _probes._start_run

    def started(F, seed, N, prime, nlanes, run=None):
        out = start(F, seed, N, prime, nlanes, run)
        got["runs"].append((prime, nlanes, run is not None))
        return out

    def raising(inner, exc, into):
        def wrapped(*args):
            try:
                return inner(*args)
            except exc as e:
                into.append(e)
                raise
        return wrapped

    mp.setattr(_probes, "_start_run", started)
    for name, exc, key in (("_reconstruct_coeff", _probes._NeedLanes, "lanes"),
                           ("_verify_fresh", _probes._NeedPrimes, "rejected")):
        mp.setattr(_probes, name, raising(getattr(_probes, name), exc, got[key]))
    return got


# -- small random equations --------------------------------------------------

nz_ints = st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any)
ratq_nonzero = st.builds(lambda n, d: RatQ.from_ints(n, d=d),
                         nz_ints, nz_ints)
ratq_any = st.one_of(st.just(RatQ(0)), ratq_nonzero)


@st.composite
def qdeq_polys(draw):
    m = draw(st.integers(-2, 0))
    n = draw(st.integers(0, 2))
    mons = {}
    for _ in range(draw(st.integers(1, 4))):
        e = draw(st.integers(0, 2))
        idxs = draw(st.lists(st.integers(m, n), unique=True, max_size=2))
        exps = tuple((i, draw(st.integers(1, 2))) for i in idxs)
        key = (e, exps)
        c = draw(ratq_nonzero)
        mons[key] = mons.get(key, RatQ(0)) + c
    return QdeqPoly(mons)


@st.composite
def seeded_equations(draw):
    """A small QdeqPoly F, a seed c_0..c_k and a target order N, with
    k < N <= 6; F's constant monomials move so that the seed clears
    orders 0..k."""
    F = draw(qdeq_polys())
    seed = draw(st.lists(ratq_nonzero, min_size=1, max_size=3))
    k = len(seed) - 1
    r = eval_at(F, TruncSeries(seed, k))
    F = F - QdeqPoly({(m, ()): c for m, c in enumerate(r.coeffs)})
    return F, seed, draw(st.integers(k + 1, 6))
