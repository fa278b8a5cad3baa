"""Modular evaluation engine behind the solver's "probe" mode.

The solve loop of solver._extend_core and the substitution engine
nonlinear.Evaluator are generic in their coefficient domain.  This module
supplies ProbeDomain, whose values are numpy vectors of evaluations at
random points q = x_j modulo a prime p = 1 (mod 2^12) below 2^29
(_intpoly.primes_29), so one step costs a handful of vectorized
convolutions instead of exact Q(q) arithmetic; the verification and
check (on _intpoly.check_primes) run the engine in fresh domains.  The
points at p come from random.Random(p), not numpy.random, and no prime
serves two domains of one solve.  Below 2^29, 32 products of residues
fit in an int64 (_intpoly.lazy_terms), so a Cauchy order of series_mul
through m = 31 reduces once, and a Horner pass reduces once per 31
coefficients.
A nonzero lane proves a value nonzero; an all-zero vector means zero with
overwhelming likelihood, and every "zero" the engine acts on is later
backed by verification:

* the run is repeated over at least two primes and the event sequences
  must agree;
* each solved coefficient is fitted per prime by Newton interpolation
  and extended-Euclidean rational reconstruction, and each fit is tested
  on the 16 points past it (the hold-out);
* the fits of two or more primes are lifted by CRT and rational number
  reconstruction, and each lift is tested as it is made: its step's
  residual must vanish on fresh lanes at a prime that no run takes
  (_verify_fresh).  A lift is congruent to its fits at every run prime,
  so only such a prime can see a wrong one.

Escalation follows two rules.  A prime's points serve whole, or the
prime gives way to the next one: a divisor that vanishes at a lane, or
a scalar denominator that p divides, raises _Pole, and _serving takes
the next prime (EngineError after 24 in a row).  A fit tries one size,
3/2 of the points the previous coefficient took plus 16, then the whole
pool; when that falls short too, every prime's pool doubles in place:
its progression continues, and the solve loop runs on the new points
alone, so no attempt is thrown away.  A lift that fails its test asks
for more primes.  What no rule mends (events that disagree, a spent
budget) raises EngineError, and the caller falls back to the exact
domain; so does a coefficient of F or of the seed that spans more
powers of q than a pool may hold lanes, which solve declines before any
run.  Each c_h is fitted times G = d(c_(h-1)), the denominator of
c_(h-1) = q^v n/d without its q-power: a guess at a factor of den(c_h)
that is never trusted, formed at the lanes once per reconstruction
call.  On q-Painleve II it divides and the fit shrinks, and a wrong G
only makes the fit larger.  Every exact value enters the lanes as (v, n, d), with
q^v a power of the lanes (ProbeDomain.qpow).
The kernels keep numpy calls few.  A run's pool lanes are x_i = g r^i,
on which interpolation has closed forms (Bostan and Schost, J.
Complexity 21, 2005): two convolutions (_conv_mod) of per-run weights
(_dd_inverses), and a node poly that is a Cauchy q-binomial sum.  The
Euclid steps run on euclid_mod, which _intpoly's modular gcd runs too,
stopped at the first degree gap (_rat_interp), so a fit of num/den
takes deg num + deg den + 2 points.  The CRT lift (_lift_poly) uses
_intpoly.crt_join and returns integers over one denominator.
"""

from collections import namedtuple
from contextlib import suppress
from math import gcd, isqrt, lcm
from random import Random

import numpy as np

from . import _intpoly as K
from .errors import EngineError
from .nonlinear import Evaluator
from .ratfunc import QPoly, RatQ

_START_LANES = 192  # pool lanes per prime as a solve starts
_MAX_LANES = 42000  # lanes per prime a pool may grow to
_VERIFY_LANES = 128  # lanes of the fresh-prime verification
_CHECK_PRIMES = 2  # primes and lanes per prime of the probe-mode check
_CHECK_LANES = 160


class _NeedLanes(Exception):
    pass


class _NeedPrimes(Exception):
    pass


class _Pole(Exception):
    """This prime's points cannot serve: a value has a pole at some lane,
    or the points themselves are unusable."""


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


def np_mod(a, p):
    """Reduce a coefficient list mod p into an ascending numpy int64 array."""
    return np.array([c % p for c in a], dtype=np.int64)


def euclid_mod(prev, cur, dp, dc, p, gap=False):
    """Euclid steps over GF(p), in place, until the remainder is zero or,
    with gap, until dc <= dp - 2 (so every step has a degree-1 quotient).

    prev and cur are (rows, L) int64 buffers with entries in [0, p), p a
    prime below 2**31: primes_31 for the modular gcd, primes_29 for probe
    reconstruction.  Every product term stays below 2**62, so each
    elimination reduces once.  Row 0 of each is a remainder, of degree
    dp in prev and dc <= dp in cur, zero above it; further rows (cofactors,
    which the caller fits in L) take the same row operations over all L
    columns, a lone row over its first dp + 1.  A step takes no inverse:
    it scales the older pair by lc, the lead of the newer remainder, so
    every row carries a nonzero scalar that the caller's monic form
    removes.  A degree-1 quotient is one fused pass, any other is
    eliminated term by term.  Returns (prev, cur, dp, dc) after the last
    step; dc is -1 when the remainder reached zero, prev then the gcd."""
    while dc >= 0 and not (gap and dp - dc >= 2):
        lc = cur.item(0, dc)
        w = dp + 1 if len(prev) == 1 else prev.shape[1]
        head, tail = prev[:, :w], cur[:, :w]
        if dp == dc + 1:
            t = prev.item(0, dp)
            below = cur.item(0, dc - 1) if dc else 0
            e = (lc * prev.item(0, dp - 1) - t * below) % p
            # lc^2 (r0, v0) - (lc t x + e) (r1, v1); every term below 2^62
            head *= lc * lc % p
            head[:, 1:] -= lc * t % p * tail[:, :-1]
            head -= e * tail
            head %= p
        else:
            for d in range(dp, dc - 1, -1):
                t = prev.item(0, d)
                if t:
                    head *= lc
                    head[:, d - dc:] -= t * tail[:, : w - d + dc]
                    head %= p
        d = dc - 1
        while d >= 0 and not prev.item(0, d):
            d -= 1
        prev, cur, dp, dc = cur, prev, dc, d
    return prev, cur, dp, dc


def eval_many_mod(a, xs, p):
    """Horner at a vector of points; xs is a numpy int64 array with values
    in [0, p).  a is one coefficient list, or a 2-D int64 stack of them
    with entries in [0, p), one polynomial and one row of values per row.

    Blocked Horner, B = lazy_terms(p) - 1 coefficients per step (fewer
    if the polynomials are shorter): with x^0..x^B formed once by
    doubling, acc <- acc * x^B + (block @ x^0..x^(B-1)) sums B + 1
    products, each at most (p - 1)**2, so at most 2**63 - 1, and reduces
    once.  B is 31 for primes_29 and 1, plain Horner, near 2**31.
    """
    rows = a if getattr(a, "ndim", 1) == 2 else np_mod(a, p)[None, :]
    width = rows.shape[1]
    B = max(1, min(K.lazy_terms(p) - 1, width))
    X = np.empty((B + 1, len(xs)), dtype=np.int64)  # X[k] = x^k mod p
    X[0], X[1] = 1, xs
    k = 1
    while k < B:
        top = min(2 * k, B)
        X[k + 1: top + 1] = X[1: top - k + 1] * X[k] % p
        k = top
    acc = np.zeros((len(rows), len(xs)), dtype=np.int64)
    for lo in range((width - 1) // B * B, -1, -B):
        block = rows[:, lo: lo + B]  # only the first may be short; acc is 0
        acc *= X[B]
        acc += block @ X[: block.shape[1]]
        acc %= p
    return acc if rows is a else acc[0]


def _stack(rows):
    """Ascending coefficient rows, zero-padded into one 2-D int64 array."""
    out = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for dst, src in zip(out, rows):
        dst[: len(src)] = src
    return out


def _eval_qpolys(polys, xs, p):
    """QPolys at the points xs modulo p, one row each, in one stacked
    Horner pass; _Pole where p divides a scalar denominator."""
    try:
        scale = np.array([pow(f.den, -1, p) for f in polys], dtype=np.int64)
    except ValueError:
        raise _Pole(f"a scalar denominator is 0 mod {p}") from None
    at = eval_many_mod(_stack([[c % p for c in f.ints] for f in polys]),
                       xs, p)
    return at * scale[:, None] % p


# ---------------------------------------------------------------------------
# the lane domain


class ProbeDomain:
    """Vectors of GF(p) evaluations at fixed random points q = x_j.

    Every lane serves every value: a division by a vector that is 0 at
    some lane raises _Pole, and so does a value whose scalar denominator
    p divides, so a zero test reads all lanes.  Besides the domain
    members of nonlinear, qpow is this engine's own.
    """

    name = "probe"

    def __init__(self, prime, qvals):
        self.p = prime
        self.q = qvals.astype(np.int64) % prime
        self.n = len(qvals)
        self._qpow = {0: np.ones(self.n, dtype=np.int64),
                      1: self.q, -1: _batch_inv(self.q, prime)}
        self._zero = np.zeros(self.n, dtype=np.int64)

    def qpow(self, e):
        """q^e at the lanes as (q^(e//2))^2 q^(e mod 2), down to the entries
        for 0 and +-1: O(log |e|) products, each power kept."""
        got = self._qpow.get(e)
        if got is None:
            half = self.qpow(e // 2)
            got = half * half % self.p
            if e & 1:
                got = got * self.q % self.p
            self._qpow[e] = got
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

    def mul_term(self, a, b):  # a product mod p has one form
        return a * b % self.p

    def shift(self, a, e):
        return a * self.qpow(e) % self.p

    def div(self, a, b):
        """a / b, row by row for 2-D stacks; _Pole where some b is 0."""
        try:
            inv = _batch_inv(b.ravel(), self.p)
        except ValueError:
            raise _Pole(f"a divisor vanishes at a lane mod {self.p}") from None
        return a * inv.reshape(b.shape) % self.p

    def is_zero(self, a):
        return not a.any()

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


def _from_ratqs(dom, values):
    """dom.from_ratq of each value q^v n/d, one row each: every n and d in
    one stacked evaluation, q^v by dom.qpow, and one division; _Pole
    where a value has a pole at a lane."""
    k = len(values)
    dens = [] if all(r.d.is_one() for r in values) else [r.d for r in values]
    at = _eval_qpolys([r.n for r in values] + dens, dom.q, dom.p)
    for row, r in zip(at, values):
        if r.v:
            row[:] = dom.shift(row, r.v)
    return dom.div(at[:k], at[k:]) if dens else at


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
    node poly; None if no degree gap shows.  euclid_mod runs on the
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
    _, cur, dp, dc = euclid_mod(prev, cur, n, len(f) - 1, p, gap=True)
    if dc < 0:
        return None
    num, den = cur[0, : dc + 1], cur[1, : n - dp + 1]
    inv = pow(den.item(-1), p - 2, p)
    return num * inv % p, den * inv % p


def _check_fit(num, den, xs, ys, p):
    n_at, d_at = eval_many_mod(_stack([num, den]), xs, p)
    return bool((d_at != 0).all() and (n_at == d_at * ys % p).all())


# ---------------------------------------------------------------------------
# lifting to exact rationals


def _wang(c, M):
    """Coprime (p, r > 0) with p/r = c mod M, |p|, r <= sqrt(M/2); or None."""
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
    return num, den


def _lift_poly(per_prime, primes):
    """CRT + rational reconstruction of one ascending coefficient list,
    as one QPoly over the lcm of the denominators."""
    residues = per_prime[0].tolist()
    modulus = primes[0]
    for arr, p in zip(per_prime[1:], primes[1:]):
        residues = K.crt_join(residues, modulus, arr.tolist(), p)
        modulus *= p
    pairs = [_wang(c, modulus) for c in residues]
    if None in pairs:
        raise _NeedPrimes(f"coefficient {pairs.index(None)} cannot lift")
    den = lcm(*(d for _, d in pairs))
    return QPoly([n * (den // d) for n, d in pairs], den)


# ---------------------------------------------------------------------------
# runs


def _lane_points(prime, nlanes, rnd):
    """nlanes uniform points in [2, p - 2], drawn by the random.Random rnd
    without replacement: distinct by construction, for nlanes <= p - 3."""
    return np.array(rnd.sample(range(2, prime - 1), nlanes), dtype=np.int64)


def _progression(prime, g, r, npool):
    """(x, w): points x_i = g r^i (i < npool) and their _dd_inverses
    weights; _Pole unless the points are distinct and in [2, p-2]."""
    xs = g * _powers(r, npool, prime) % prime
    if not ((xs == 1) | (xs == prime - 1)).any():
        with suppress(ValueError):  # some r^k = 1: the points repeat
            return xs, _dd_inverses(g, r, npool, prime)
    raise _Pole(f"the progression of ratio {r} mod {prime} is unusable")


def _serving(primes, build):
    """build(p) for the first p of primes at which it does not raise
    _Pole; EngineError after 24 such primes in a row."""
    for _, prime in zip(range(24), primes):
        with suppress(_Pole):
            return build(prime)
    raise EngineError("24 primes in a row could not serve")


class _Run:
    __slots__ = ("prime", "dom", "coeffs", "events", "w", "cands")

    def __init__(self, prime, dom, coeffs, events, w):
        self.prime = prime
        self.dom = dom  # pool lanes are the points of w
        self.coeffs = coeffs
        self.events = events
        self.w = w
        self.cands = {}  # (h, points) -> (num, den) of c_h * G, or None


def _event_sig(events):
    return [(e["h"], e["kind"], e.get("order")) for e in events]


def _start_run(F, seed, N, prime, nlanes, run=None):
    """A run of the solve loop at prime over a pool of nlanes lanes
    x_i = g r^i, g and r in [2, p - 2] drawn by random.Random(prime).
    Given run, its pool grows in place to nlanes lanes instead: its
    progression continues, the loop runs on the new points alone and must
    give run's events, and their columns join the pool, so every pool
    prefix and cached fit stays.  _Pole where the points are unusable
    (+-1 or a repeat) or meet a pole; run stays as it was."""
    from .solver import _extend_core
    if run is not None:
        old = run.dom.n
        xs, w = _progression(prime, run.w.g, run.w.r, nlanes)
        coeffs, events, _ = _extend_core(F, seed, N, ProbeDomain(prime, xs[old:]))
        if _event_sig(events) != _event_sig(run.events):
            raise EngineError(f"event mismatch within prime {prime}")
        run.coeffs = [np.concatenate((c, new))
                      for c, new in zip(run.coeffs, coeffs)]
        run.dom, run.w = ProbeDomain(prime, xs), w
        return run
    rnd = Random(prime)
    g, r = rnd.randrange(2, prime - 1), rnd.randrange(2, prime - 1)
    pool, w = _progression(prime, g, r, nlanes)
    dom = ProbeDomain(prime, pool)
    coeffs, events, _ = _extend_core(F, seed, N, dom)
    return _Run(prime, dom, coeffs, events, w)


def _reconstruct_coeff(runs, h, guess, G):
    """(value, need) for coefficient h from the runs' lane data: the lift
    num/den of the pairs fitted to c_h * G, as the exact RatQ num/(den G),
    and len(num) + len(den).  Fit guess points per prime, then the whole
    pool if fewer than two primes fit, and raise _NeedLanes if they still
    do not; the next 16 points hold each fit out.  c_h * G at a run's lanes
    is formed once per call, and only for a run that fits.  The lift is
    not evaluated here: _verify_fresh tests it on a prime of its own."""
    cap = min(run.dom.n for run in runs) - 16
    scaled = {}  # run -> c_h * G at its lanes
    for n in sorted({min(guess, cap), cap}):
        for run in runs:
            if (h, n) not in run.cands:
                p, hold = run.dom.p, slice(n, n + 16)
                if run not in scaled:
                    at = _eval_qpolys([G], run.dom.q, p)[0]
                    scaled[run] = run.coeffs[h] * at % p
                ys = scaled[run]
                got = _rat_interp(ys[:n], p, run.w, _node_poly(n, run.w, p))
                if got is not None and not _check_fit(
                        *got, run.dom.q[hold], ys[hold], p):
                    got = None
                run.cands[h, n] = got
        cands = [run.cands[h, n] for run in runs]
        shapes = [None if c is None else (len(c[0]), len(c[1])) for c in cands]
        if len(cands) - shapes.count(None) >= 2:
            break
    else:
        raise _NeedLanes(f"coefficient {h} needs more than {cap + 16} lanes")
    # an unlucky prime can only lose leading coefficients, so the largest
    # shape seen is the true one; lift from the primes that agree on it
    shape = max(s for s in shapes if s is not None)
    group = [i for i, s in enumerate(shapes) if s == shape]
    if len(group) < 2:
        raise _NeedPrimes(f"only one prime sees the full shape "
                          f"of coefficient {h}")
    primes = [runs[i].prime for i in group]
    num = _lift_poly([cands[i][0] for i in group], primes)
    den = _lift_poly([cands[i][1] for i in group], primes)
    return RatQ(num, den * G), sum(shape)


def solve(F, seed, N):
    """Probe-mode extend: returns (exact coefficient list, events); event
    values such as residuals stay probe-domain vectors.  Every prime
    starts at a pool of _START_LANES lanes, and all pools double in place
    when a fit outgrows them, up to _MAX_LANES lanes.  A coefficient
    q^v n/d of F or of the seed that spans more powers of q,
    |v| + len(n) + len(d), than that raises EngineError before any run:
    the coefficients solved from it would outgrow every pool.  Each lift
    is accepted by _verify_fresh alone."""
    if any(abs(r.v) + len(r.n.ints) + len(r.d.ints) > _MAX_LANES
           for r in [*F.monomials.values(), *seed]):
        raise EngineError("a coefficient spans more powers of q than a pool")
    return _solve_at(F, seed, N, _START_LANES)


def _solve_at(F, seed, N, nlanes):
    """The probe solve from pools of nlanes lanes.  One evaluator over
    fresh lanes, at a prime of the solve's own primes that no run takes,
    first checks the seed's orders 0..k; then each lift c_h must clear
    step h's orders on it, from one past the previous step's event order
    through its own (_verify_fresh), or more primes lift c_h again.
    This tests the lift:

    * c_j first enters the residual at order j + l, so the orders through
      step h's depend on c_0..c_h alone, and the orders checked over the
      solve are 0 through the last step's, as in one check at the end;
    * at a unique step the residual at its order is affine in c_h with
      slope A_h != 0 (beta at the scan step), so a wrong c_h leaves it
      nonzero in Q(q); a resonant_free step lifts c_h = 0 from lanes that
      are all zero;
    * a wrong fit at a run prime enters the lift, so this sees it too;
      the hold-out tests each fit before it is lifted."""
    primes, runs = K.primes_29(), []

    def draw():  # a fresh prime at the current size
        run = _serving(primes, lambda p: _start_run(F, seed, N, p, nlanes))
        if runs and _event_sig(run.events) != _event_sig(runs[0].events):
            raise EngineError("event mismatch between primes")
        return run

    def grow(run):  # run at the current size, or a fresh prime in its place
        with suppress(_Pole):
            return _start_run(F, seed, N, run.prime, nlanes, run)
        return draw()

    def add_run():
        if len(runs) >= 24:
            raise EngineError("prime escalation exhausted")
        runs.append(draw())

    add_run()
    add_run()
    exact, events, h = list(seed), runs[0].events, len(seed)
    order = {h - 1: h - 1, **{e["h"]: e["order"] for e in events}}
    fresh = _verify_fresh(F, None, exact, h, h - 1, primes)
    need = 0  # points the pair fitted to the previous coefficient took
    while h < len(runs[0].coeffs):
        try:
            value, took = _reconstruct_coeff(runs, h, 3 * need // 2 + 16,
                                             exact[-1].d)
            fresh = _verify_fresh(F, fresh, exact + [value],
                                  order[h - 1] + 1, order[h], primes)
        except _NeedPrimes:
            add_run()
            if len(runs) >= 4:  # large integers: grow the modulus faster
                add_run()
            continue
        except _NeedLanes:
            nlanes *= 2
            if nlanes > _MAX_LANES:
                raise EngineError("lane escalation exhausted") from None
            runs[:] = [grow(run) for run in runs]
            continue
        exact.append(value)
        need = took
        h += 1
    return exact, events


def _fresh(F, coeffs, width, nlanes, prime):
    """(ev, orders 0..width-1 of F along coeffs) for an evaluator ev of
    coeffs over nlanes uniform lanes at prime, drawn by
    random.Random(prime); _Pole where a value has a pole at a lane."""
    dom = ProbeDomain(prime, _lane_points(prime, nlanes, Random(prime)))
    ev = Evaluator(_from_ratqs(dom, coeffs), dom)
    return ev, ev.eval(F, 0, width)


def _verify_fresh(F, ev, coeffs, lo, hi, primes):
    """Test c_h, the last of coeffs, on the fresh evaluator ev: set it and
    evaluate orders lo..hi, step h's, of F; returns the evaluator.  A
    nonzero order there raises _NeedPrimes.  With ev None, or where c_h
    has a pole at ev's lanes, the evaluator is rebuilt from coeffs at the
    next prime of primes that serves and evaluates orders 0..hi; one
    below lo, which earlier steps cleared, raises EngineError if
    nonzero."""
    res = None
    if ev is not None:
        with suppress(_Pole):
            ev.set(len(coeffs) - 1, ev.dom.from_ratq(coeffs[-1]))
            res = ev.eval(F, lo, hi + 1)
    if res is None:
        ev, res = _serving(primes, lambda p: _fresh(
            F, coeffs, hi + 1, _VERIFY_LANES, p))
    m = next((m for m, v in enumerate(res) if v.any()), hi + 1)
    if m < lo:
        raise EngineError(f"reconstructed solution fails at order {m}")
    if m <= hi:
        raise _NeedPrimes(f"c_{len(coeffs) - 1} leaves order {m} nonzero")
    return ev


def check(F, phi):
    """Probe-mode check_solution: largest V with residual zero through V,
    on _CHECK_PRIMES primes.  Raises EngineError when 24 primes in a row
    meet a pole."""
    best = phi.trunc
    primes = K.check_primes()
    for _ in range(_CHECK_PRIMES):
        _, res = _serving(primes, lambda p: _fresh(
            F, phi.coeffs, len(phi.coeffs), _CHECK_LANES, p))
        best = min(best, next((m for m, v in enumerate(res) if v.any()),
                              len(res)) - 1)
    return best
