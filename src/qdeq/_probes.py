"""Modular evaluation engine behind the solver's "probe" mode.

The solve loop of solver._extend_core and the substitution engine
nonlinear.Evaluator are generic in their coefficient domain.  This module
supplies ProbeDomain, whose values are numpy vectors of evaluations at
random points q = x_j modulo a prime p = 1 (mod 2^12) below 2^29
(_intpoly.primes_29), so one step costs a handful of vectorized
convolutions instead of exact Q(q) arithmetic; the verification and
check run the same evaluator in fresh probe domains.  Below 2^29, 32
products of residues fit in an int64 (_intpoly.lazy_terms), so a Cauchy
order of series_mul through m = 31 reduces once, and a Horner pass
reduces once per 31 coefficients.
A nonzero lane proves a value nonzero; an all-zero vector means zero with
overwhelming likelihood, and every "zero" the engine acts on is later
backed by verification:

* the run is repeated over at least two primes and the event sequences
  must agree;
* each solved coefficient is recovered per prime by Newton interpolation
  and extended-Euclidean rational reconstruction, lifted by CRT and
  rational number reconstruction, and checked on reserved lanes that
  took no part in the fit;
* the reconstructed solution's residual is re-probed on a fresh prime.

Any failure raises EngineError and the caller falls back to the exact
domain.  Prime counts escalate on demand.  Each c_h is fitted times G =
den(c_(h-1)), a guess at a factor of den(c_h) that is never trusted: on
q-Painleve II it divides and the fit shrinks, and a wrong G only makes
the fit larger.  Fits are sized from the pairs already fitted, grow by
half on failure and try the whole lane pool once before every prime's
pool doubles in place: the solve starts small (_START_LANES), and a
pool grows by a batch of new points on its own progression, on which
the solve loop runs alone, so no attempt is thrown away.
The kernels keep numpy calls few.  A run's pool lanes are x_i = g r^i,
and interpolation on such a progression has closed forms (Bostan and
Schost, J. Complexity 21, 2005): per run, _dd_inverses forms O(npool)
weight vectors once, Newton's divided differences on a pool prefix are
then one convolution of them and the change to monomial form one more,
and the node poly is the Cauchy q-binomial sum.  Each convolution splits
its residues at 2^15 and keeps three np.convolve sums, each below
n * 2^34, in int64 for n < 2^29 terms (_conv_mod).  The Euclid steps run
on _intpoly.euclid_mod, the GF(p) kernel that _intpoly.gcd runs too,
here on a 2-row (remainder, cofactor) buffer with no inverse, stopped at
the first degree gap (_rat_interp): a fit of num/den takes deg num +
deg den + 2 points and about deg den fused degree-1 steps.  The CRT lift
uses _intpoly.crt_join, as the modular gcd does, and one stacked,
blocked Horner pass evaluates every polynomial a check needs.
"""

import hashlib
import json
from collections import namedtuple
from contextlib import suppress
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from . import _intpoly as K
from .errors import EngineError
from .nonlinear import Evaluator
from .ratfunc import QPoly, RatQ

_RESERVE = 64  # lanes per prime kept out of every interpolation
_START_LANES = 256  # lanes per prime as a solve starts: pool and reserve
_MAX_LANES = 42000  # lanes per prime a pool may grow to
_VERIFY_LANES = 128  # lanes of the fresh-prime verification
_CHECK_PRIMES = 2  # primes and lanes per prime of the probe-mode check
_CHECK_LANES = 160


class _NeedLanes(Exception):
    pass


class _NeedPrimes(Exception):
    pass


# ---------------------------------------------------------------------------
# vectorized GF(p) helpers


def _prefix_prod(a, p):
    out = a.copy()
    s = 1
    while s < len(out):
        out[s:] = out[s:] * out[:-s] % p
        s *= 2
    return out


def _batch_inv(a, p):
    """Elementwise inverses of a vector of residues; ValueError at a zero."""
    n = len(a)
    pref = _prefix_prod(a, p)
    if pref[-1] == 0:
        raise ValueError("batch inverse of a zero residue")
    suff = _prefix_prod(a[::-1], p)[::-1]
    total_inv = pow(int(pref[-1]), p - 2, p)
    left = np.ones(n, dtype=np.int64)
    left[1:] = pref[:-1]
    right = np.ones(n, dtype=np.int64)
    right[:-1] = suff[1:]
    return left * total_inv % p * right % p


def _stack(rows):
    """Ascending coefficient rows, zero-padded into one 2-D int64 array."""
    out = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for dst, src in zip(out, rows):
        dst[: len(src)] = src
    return out


def _eval_qpolys(polys, xs, p):
    """QPolys at the points xs modulo p, one row each, in one stacked
    Horner pass; their scalar denominators are prime to p."""
    at = K.eval_many_mod(_stack([[c % p for c in f.ints] for f in polys]),
                         xs, p)
    scale = np.array([pow(f.den, p - 2, p) for f in polys], dtype=np.int64)
    return at * scale[:, None] % p


# ---------------------------------------------------------------------------
# the lane domain


class ProbeDomain:
    """Vectors of GF(p) evaluations at fixed random points q = x_j.

    Lanes where a division hits zero are marked dead and ignored by
    zero tests from then on; healthy() reports whether enough survive.
    Besides the domain members of nonlinear, qpow, mul and healthy are
    this engine's own.
    """

    name = "probe"

    def __init__(self, prime, qvals):
        self.p = prime
        self.q = qvals.astype(np.int64) % prime
        self.n = len(qvals)
        self.alive = np.ones(self.n, dtype=bool)
        self._qpow = {0: np.ones(self.n, dtype=np.int64),
                      1: self.q, -1: _batch_inv(self.q, prime)}
        self._zero = np.zeros(self.n, dtype=np.int64)

    def qpow(self, e):
        got = self._qpow.get(e)
        if got is None:
            step = 1 if e > 0 else -1
            base = max((k for k in self._qpow if k * step > 0 and abs(k) < abs(e)),
                       key=abs, default=0)
            got = self._qpow[base]
            for k in range(base + step, e + step, step):
                got = got * self._qpow[step] % self.p
                self._qpow[k] = got
        return got

    def from_ratq(self, r):
        return _from_ratqs(self, [r])[0]

    def zero(self):
        return self._zero

    def sum(self, terms):
        """One mod p over the plain int64 sum: residues below p leave room
        for (2^63 - 1) // p terms, 2^34 for primes_29."""
        if not terms:
            return self._zero
        acc = terms[0].copy()
        for t in terms[1:]:
            acc += t
        return acc % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    mul_term = mul  # a product mod p has one form, reduced or not

    def shift(self, a, e):
        return a * self.qpow(e) % self.p

    def div(self, a, b):
        """a / b, row by row for 2-D stacks; a lane where some b is 0 dies."""
        zero = b == 0
        if zero.any():
            self.alive &= ~zero.reshape(-1, self.n).any(axis=0)
            b = np.where(zero, 1, b)
        return a * _batch_inv(b.ravel(), self.p).reshape(b.shape) % self.p

    def is_zero(self, a):
        return not a[self.alive].any()

    def zeros(self, k):
        return np.zeros((k, self.n), dtype=np.int64)

    def series_mul(self, a, b, lo, hi):
        """Orders lo..hi-1 of the Cauchy product of two series held as
        2-D arrays, one row per order.  Order m sums m + 1 products, each
        at most (p - 1)**2: while m + 1 <= K.lazy_terms(p) (32 for
        primes_29) that sum fits in an int64 and the order reduces once;
        a longer order reduces its products first."""
        p, lazy = self.p, K.lazy_terms(self.p)
        out = np.empty((hi - lo, self.n), dtype=np.int64)
        for m in range(lo, hi):
            terms = a[: m + 1] * b[m::-1]
            if m >= lazy:
                terms %= p
            out[m - lo] = terms.sum(axis=0) % p
        return out

    def healthy(self):
        return int(self.alive.sum()) >= max(self.n // 2, _RESERVE + 32)


def _from_ratqs(dom, values):
    """dom.from_ratq of each value, one row each: the numerators and
    denominators in one stacked evaluation, and one division."""
    k, dens = len(values), [r.den for r in values]
    if all(d.is_one() for d in dens):
        return _eval_qpolys([r.num for r in values], dom.q, dom.p)
    at = _eval_qpolys([r.num for r in values] + dens, dom.q, dom.p)
    return dom.div(at[:k], at[k:])


# ---------------------------------------------------------------------------
# rational function reconstruction inside one prime


def _powers(x, n, p):
    """x^k mod p for k < n."""
    return _prefix_prod(np.array([1] + [x] * (n - 1), dtype=np.int64), p)


def _conv_mod(a, b, p):
    """Full convolution of two GF(p) vectors, p < 2^31, exact in int64.
    Each residue splits at 2^15 into parts below 2^16 and 2^15, and
    Karatsuba takes three np.convolve calls; the largest convolves the
    part sums, below 2^17, so a sum of n = min(len(a), len(b)) products
    stays below n * 2^34 and fits an int64 for n < 2^29.  The three are
    reduced and joined at the end, the join below 2^62."""
    a1, a0, b1, b0 = a >> 15, a & 0x7FFF, b >> 15, b & 0x7FFF
    lo, hi = np.convolve(a0, b0), np.convolve(a1, b1)
    mid = np.convolve(a0 + a1, b0 + b1) - lo - hi  # a0 b1 + a1 b0 >= 0
    return ((hi % p << 30) + (mid % p << 15) + lo) % p


_Weights = namedtuple("_Weights", "g r alpha gamma beta rr inv_rr delta")


def _dd_inverses(g, r, n, p):
    """Weights of the pool x_i = g r^i (i < n), from prefix products and
    one batch inverse.  With (r;r)_k = prod_(t=1..k) (1 - r^t) and
    C(k,2) = k(k-1)/2, the inverse divided-difference weight
    1/prod_(j<=k, j!=i) (x_i - x_j) is alpha_i gamma_(k-i) beta_k:
    alpha_i = (-1)^i/(r;r)_i, gamma_t = r^C(t,2)/(r;r)_t and
    beta_k = g^-k r^-C(k,2).  rr and inv_rr hold (r;r)_k and its inverse,
    and delta_t = (-g)^t gamma_t; g and r let the pool grow.  Each vector
    of a longer pool starts with the same residues.  ValueError where
    some r^k = 1: the points repeat."""
    rk = _powers(r, n, p)
    rr = _prefix_prod(np.concatenate(([1], (1 - rk[1:]) % p)), p)
    tri = _prefix_prod(np.concatenate(([1], rk[:-1])), p)  # r^C(k,2)
    inv_rr, inv_tri = np.split(_batch_inv(np.concatenate((rr, tri)), p), 2)
    alpha = inv_rr.copy()
    alpha[1::2] = p - alpha[1::2]
    gamma = tri * inv_rr % p
    beta = _powers(pow(g, p - 2, p), n, p) * inv_tri % p
    delta = _powers(p - g, n, p) * gamma % p
    return _Weights(g, r, alpha, gamma, beta, rr, inv_rr, delta)


def _newton_interp(ys, w, p):
    """Ascending GF(p) poly through (x_i, ys[i]) on the first m = len(ys)
    points of the pool of weights w, by two convolutions: the Newton
    coefficients d = beta conv(alpha ys, gamma)[:m], then the monomial
    ones a_s = 1/(r;r)_s sum_(k>=s) d_k (r;r)_k delta_(k-s)."""
    m = len(ys)
    d = _conv_mod(w.alpha[:m] * ys % p, w.gamma[:m], p)[:m] * w.beta[:m] % p
    a = _conv_mod(d[::-1] * w.rr[m - 1::-1] % p, w.delta[:m], p)
    return np.trim_zeros(a[m - 1::-1] * w.inv_rr[:m] % p, "b")


def _node_poly(m, w, p):
    """prod_(i<m) (q - x_i), ascending, for m below the pool's size: the
    Cauchy q-binomial sum over s of (r;r)_m / ((r;r)_s (r;r)_(m-s))
    (-g)^(m-s) r^C(m-s,2) q^s."""
    return w.rr[m] * w.inv_rr[: m + 1] % p * w.delta[m::-1] % p


def _rat_interp(ys, p, w, node):
    """(num, den) ascending GF(p) polys with den monic and num = den * ys
    on the first n = len(ys) points of the pool of weights w, node their
    node poly; None if no degree gap shows.  K.euclid_mod runs on the
    (remainder, cofactor) rows (r_i, v_i) to the first r_j whose degree is
    2 or more below deg r_(j-1).  Values of a reduced N/D with deg N +
    deg D <= n - 2, D nonzero on the points, give such a gap: (N, D) is
    the row with deg r_j <= deg N < deg r_(j-1) up to a scalar (von zur
    Gathen and Gerhard, Modern Computer Algebra, Thm 5.16), and deg v_j =
    n - deg r_(j-1) = deg D, so the drop is n - deg D - deg N.  An earlier
    drop (an unlucky prime, structured points) gives a wrong pair, which
    the hold-out rejects like any bad fit.  The monic form removes the
    scalar the steps leave."""
    n = len(ys)
    if not ys.any():
        return np.zeros(0, dtype=np.int64), np.ones(1, dtype=np.int64)
    f = _newton_interp(ys, w, p)
    # rows (r, v) with r = v f mod node; deg v = n - dp <= n in cur
    prev, cur = np.zeros((2, 2, n + 1), dtype=np.int64)
    prev[0], cur[0, : len(f)], cur[1, 0] = node, f, 1
    _, cur, dp, dc = K.euclid_mod(prev, cur, n, len(f) - 1, p, gap=True)
    if dc < 0:
        return None
    num, den = cur[0, : dc + 1], cur[1, : n - dp + 1]
    inv = pow(den.item(-1), p - 2, p)
    return num * inv % p, den * inv % p


def _check_fit(num, den, xs, ys, p):
    n_at, d_at = K.eval_many_mod(_stack([num, den]), xs, p)
    return bool((d_at != 0).all() and (n_at == d_at * ys % p).all())


# ---------------------------------------------------------------------------
# lifting to exact rationals


def _wang(c, M):
    """Fraction p/r with p/r = c mod M, |p|, r <= sqrt(M/2); None if absent."""
    bound = isqrt(M // 2)
    r0, r1 = M, c % M
    t0, t1 = 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    num = r1 if t1 > 0 else -r1
    den = abs(t1)
    if gcd(num, den) != 1:  # gcd(0, 1) == 1 keeps the zero case
        return None
    return Fraction(num, den)


def _lift_poly(per_prime, primes):
    """CRT + rational reconstruction of one ascending coefficient list."""
    residues = per_prime[0].tolist()
    modulus = primes[0]
    for arr, p in zip(per_prime[1:], primes[1:]):
        residues = K.crt_join(residues, modulus, arr.tolist(), p)
        modulus *= p
    out = []
    for i, residue in enumerate(residues):
        frac = _wang(residue, modulus)
        if frac is None:
            raise _NeedPrimes(f"coefficient {i} exceeds the lifting bound")
        out.append(frac)
    return out


# ---------------------------------------------------------------------------
# runs


def _fingerprint(F, seed, N, prime, attempt, nlanes):
    blob = json.dumps([F.to_json(), [c.to_text() for c in seed], N,
                       prime, attempt, nlanes], sort_keys=True)
    return int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "big")


def _lane_points(prime, nlanes, rng, avoid=()):
    """nlanes distinct uniform points in [2, p - 2], none in avoid."""
    pts = np.setdiff1d(rng.integers(2, prime - 1, size=2 * nlanes + 16,
                                    dtype=np.int64), avoid)
    rng.shuffle(pts)
    if len(pts) < nlanes:
        raise EngineError("could not sample enough distinct lane points")
    return pts[:nlanes]


def _progression(prime, g, r, npool):
    """(x, w): points x_i = g r^i (i < npool) and their _dd_inverses
    weights, or None unless the points are distinct and in [2, p-2]."""
    xs = g * _powers(r, npool, prime) % prime
    if not ((xs == 1) | (xs == prime - 1)).any():
        with suppress(ValueError):  # some r^k = 1: the points repeat
            return xs, _dd_inverses(g, r, npool, prime)
    return None


def _geometric_pool(prime, npool, rng):
    """(x, w) of _progression for a random g, r, redrawn while None."""
    for _ in range(8):
        got = _progression(prime, *rng.integers(2, prime - 1, size=2).tolist(),
                           npool)
        if got is not None:
            return got
    raise EngineError(f"no geometric pool of {npool} points at prime {prime}")


class _Run:
    __slots__ = ("prime", "dom", "coeffs", "events", "w", "cands", "scaled")

    def __init__(self, prime, dom, coeffs, events, w):
        self.prime = prime
        self.dom = dom  # pool lanes, all alive, are the points of w
        self.coeffs = coeffs
        self.events = events
        self.w = w
        self.cands = {}  # (h, n_try) -> (num, den) of c_h * G, or None
        self.scaled = None, 0, None  # (h, lanes, c_h * G at the lanes)

    def pool(self):
        return range(self.dom.n - _RESERVE)

    def reserve(self):
        base = self.dom.n - _RESERVE
        return base + np.nonzero(self.dom.alive[base:])[0]


def _event_sig(events):
    return [(e["h"], e["kind"], e.get("order")) for e in events]


def _start_run(F, seed, N, prime, nlanes, run=None):
    """A run of the solve loop at prime over nlanes lanes [pool | reserve]:
    pool lanes x_i = g r^i, all alive, and _RESERVE independent uniform
    ones.  Given run, its pool grows in place to nlanes - _RESERVE lanes
    instead: its progression continues, the loop runs on the new points
    alone and must give run's events, and their columns join the pool,
    so every pool prefix and cached fit stays.  Growth returns whether
    the new points joined: not where one is +-1 or a reserve point, some
    r^k = 1 or a new lane dies."""
    from .solver import _extend_core
    if run is not None:
        old, reserve = len(run.pool()), run.dom.q[-_RESERVE:]
        got = _progression(prime, run.w.g, run.w.r, nlanes - _RESERVE)
        if got is None or np.isin(got[0][old:], reserve).any():
            return False
        xs, w = got
        dom = ProbeDomain(prime, xs[old:])
        coeffs, events = _extend_core(F, seed, N, dom)
        if not dom.alive.all():
            return False
        if _event_sig(events) != _event_sig(run.events):
            raise EngineError(f"event mismatch within prime {prime}")
        grown = ProbeDomain(prime, np.concatenate((xs, reserve)))
        grown.alive[-_RESERVE:] = run.dom.alive[-_RESERVE:]
        run.coeffs = [np.concatenate((c[:old], new, c[old:]))
                      for c, new in zip(run.coeffs, coeffs)]
        run.dom, run.w = grown, w
        return True
    for attempt in range(3):
        rng = np.random.default_rng(
            _fingerprint(F, seed, N, prime, attempt, nlanes))
        pool, w = _geometric_pool(prime, nlanes - _RESERVE, rng)
        dom = ProbeDomain(prime, np.concatenate(
            (pool, _lane_points(prime, _RESERVE, rng, pool))))
        coeffs, events = _extend_core(F, seed, N, dom)
        if dom.alive[: len(pool)].all():  # a fit takes pool lanes 0..n-1
            return _Run(prime, dom, coeffs, events, w)
    raise EngineError(f"lanes kept dying at prime {prime}")


def _reconstruct_coeff(runs, h, n_start, grow, G):
    """(value, points, need) for coefficient h from the runs' lane data:
    the exact RatQ, the points fitted and len(num) + len(den) of the pair
    fitted to c_h * G.  Fit n_start points per prime, times grow after
    each failure, and the whole pool once before asking for more lanes."""
    cap = min(len(run.pool()) for run in runs) - 16
    n_try = min(n_start, cap)
    for run in runs:  # G at the lanes once per coefficient and pool size
        if run.scaled[:2] != (h, run.dom.n):
            p = run.dom.p
            at = _eval_qpolys([G], run.dom.q, p)[0]
            run.scaled = h, run.dom.n, run.coeffs[h] * at % p
    scaled = [run.scaled[2] for run in runs]
    while True:
        for run, ys in zip(runs, scaled):
            if (h, n_try) not in run.cands:
                p, hold = run.dom.p, slice(n_try, n_try + 16)
                got = _rat_interp(ys[:n_try], p, run.w,
                                  _node_poly(n_try, run.w, p))
                if got is not None and not _check_fit(
                        *got, run.dom.q[hold], ys[hold], p):
                    got = None
                run.cands[h, n_try] = got
        cands = [run.cands[h, n_try] for run in runs]
        good = [c for c in cands if c is not None]
        if len(good) >= 2:
            # an unlucky prime can only lose leading coefficients, so the
            # largest shape seen is the true one; lift from primes agreeing
            shape = max((len(c[0]), len(c[1])) for c in good)
            group = [i for i, c in enumerate(cands)
                     if c is not None and (len(c[0]), len(c[1])) == shape]
            if len(group) < 2:
                raise _NeedPrimes(f"only one prime sees the full shape "
                                  f"of coefficient {h}")
            break
        if n_try >= cap:
            raise _NeedLanes(f"coefficient {h} needs more than "
                             f"{cap + 16} lanes")
        n_try = min(max(n_try + 1, int(n_try * grow)), cap)
    primes = [runs[i].prime for i in group]
    num = _lift_poly([cands[i][0] for i in group], primes)
    den = _lift_poly([cands[i][1] for i in group], primes)
    value = RatQ(QPoly.from_fractions(num), QPoly.from_fractions(den) * G)
    # num == c_h * den on the reserved lanes wherever den is nonzero
    for run in runs:
        p, res = run.dom.p, run.reserve()
        n_at, d_at = _eval_qpolys([value.num, value.den], run.dom.q[res], p)
        if ((n_at != run.coeffs[h][res] * d_at % p) & (d_at != 0)).any():
            raise _NeedPrimes(f"coefficient {h} fails the reserved-lane check")
    return value, n_try, len(num) + len(den)


def solve(F, seed, N):
    """Probe-mode extend: returns (exact coefficient list, events); event
    values such as residuals stay probe-domain vectors.  Every prime
    starts at _START_LANES lanes, and all pools double in place when a
    fit outgrows them, up to _MAX_LANES lanes."""
    return _solve_at(F, seed, N, _START_LANES)


def _solve_at(F, seed, N, nlanes):
    prime_iter = K.primes_29()
    runs = [_start_run(F, seed, N, next(prime_iter), nlanes)]
    sig = _event_sig(runs[0].events)

    def draw():  # a fresh prime at the current size
        run = _start_run(F, seed, N, next(prime_iter), nlanes)
        if _event_sig(run.events) != sig:
            raise EngineError("event mismatch between primes")
        return run

    def add_run():
        if len(runs) >= 24:
            raise EngineError("prime escalation exhausted")
        runs.append(draw())

    add_run()
    k = len(seed) - 1
    exact = list(seed)
    # fit sizes: 32 and doubling until three coefficients show their need,
    # then the last need plus the larger of its last two increments (they
    # alternate with the parity of h on q-Painleve II) and a margin
    needs = []
    n_hint = 32
    h = k + 1
    while h < len(runs[0].coeffs):
        if len(needs) < 3:
            n_start, grow = n_hint, 2
        else:
            n_start = needs[-1] + 16 + max(needs[-1] - needs[-2],
                                           needs[-2] - needs[-3])
            grow = 1.5
        try:
            value, n_hint, need = _reconstruct_coeff(runs, h, n_start, grow,
                                                     exact[-1].den)
        except _NeedPrimes:
            add_run()
            if len(runs) >= 4:  # large integers: grow the modulus faster
                add_run()
            continue
        except _NeedLanes:
            nlanes = 2 * nlanes - _RESERVE  # twice the pool
            if nlanes > _MAX_LANES:
                raise EngineError("lane escalation exhausted") from None
            # a prime whose pool cannot grow gives way to a fresh one
            runs[:] = [run if _start_run(F, seed, N, run.prime, nlanes, run)
                       else draw() for run in runs]
            continue
        exact.append(value)
        needs.append(need)
        h += 1

    _verify_fresh(F, exact, prime_iter, {run.prime for run in runs})
    return exact, runs[0].events


def _first_nonzero(F, coeffs, prime, salt, nlanes):
    """Lowest order at which F along coeffs is nonzero on fresh lanes mod
    prime, through x^(len(coeffs) - 1), or len(coeffs) when no order is.
    Raises EngineError when too many lanes die."""
    rng = np.random.default_rng(prime ^ salt)
    dom = ProbeDomain(prime, _lane_points(prime, nlanes, rng))
    res = Evaluator(_from_ratqs(dom, coeffs), len(coeffs) - 1, dom).eval(F)
    if not dom.healthy():
        raise EngineError(f"probe lanes died at prime {prime}")
    return next((m for m, v in enumerate(res) if not dom.is_zero(v)),
                len(coeffs))


def _verify_fresh(F, exact, prime_iter, used):
    prime = next(prime_iter)
    while prime in used:
        prime = next(prime_iter)
    m = _first_nonzero(F, exact, prime, 0x9E3779B97F4A7C15, _VERIFY_LANES)
    if m < len(exact):
        raise EngineError(f"reconstructed solution fails at order {m}")


def check(F, phi):
    """Probe-mode check_solution: largest V with residual zero through V.
    Raises EngineError when too many lanes die."""
    best = phi.trunc
    prime_iter = K.primes_29()
    for _ in range(_CHECK_PRIMES):
        m = _first_nonzero(F, phi.coeffs, next(prime_iter),
                           0xD1B54A32D192ED03, _CHECK_LANES)
        best = min(best, m - 1)
    return best
