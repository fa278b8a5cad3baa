import random
from contextlib import suppress
from fractions import Fraction
from functools import reduce
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeq import _intpoly as K
from qdeq import parse
from qdeq import _probes as P
from qdeq.errors import EngineError
from qdeq.nonlinear import ExactDomain
from qdeq.ratfunc import Q, RatQ
from qdeq.series import TruncSeries
from qdeq.solver import check_solution, extend

from families import (big_constant, counted, linear, make_domain, outcome, qp2,
                      qpower, ratq_any, ratq_nonzero, resonant,
                      seeded_equations, sqrt)
from test_properties import COMMON, ratq_shifted

MP = 2147483647  # 2**31 - 1, prime


def _draw_pool(p, npool, rng, tries=100):
    """(x, w) of P._progression for random g and r, drawn again while it
    refuses them with _Pole (mod 101 most ratios have too small an order
    or run the points into +-1); None after tries draws."""
    for _ in range(tries):
        with suppress(P._Pole):
            return P._progression(
                p, *rng.integers(2, p - 1, size=2).tolist(), npool)
    return None


def _geometric_run(prime, nlanes, rng):
    """A run with no data over a pool of nlanes lanes, laid out as
    _start_run lays them."""
    pool, w = _draw_pool(prime, nlanes, rng)
    return P._Run(prime, P.ProbeDomain(prime, pool), [], [], w)


def test_batch_inv():
    # the prefix products double their stride, so lengths at and around
    # a power of two are the edges
    rng = np.random.default_rng(7)
    for n in (1, 2, 63, 64, 65, 300, 4097):
        a = rng.integers(1, MP, size=n, dtype=np.int64)
        inv = P._batch_inv(a, MP)
        assert len(inv) == n
        assert (a * inv % MP == 1).all()


@pytest.mark.parametrize("a", [[3, 0, 5], [0], [3, 101, 5]])
def test_batch_inv_refuses_a_zero_residue(a):
    # pow(0, p - 2, p) is 0, which would zero every inverse silently
    with pytest.raises(ValueError):
        P._batch_inv(np.array(a, dtype=np.int64), 101)


def test_progression_refuses_unusable_points():
    # mod 101, 10 has order 4, so 8 points of ratio 10 repeat; 51 * 2 = 1,
    # so g = 51 with ratio 2 puts x_1 = 1 in the pool; 2 has order 100
    for g, r in ((3, 10), (51, 2)):
        with pytest.raises(P._Pole):
            P._progression(101, g, r, 8)
    pool, w = P._progression(101, 3, 2, 8)
    assert pool.tolist() == [3 * 2 ** i % 101 for i in range(8)]
    rr = [1]  # (2;2)_k
    for t in range(1, 8):
        rr.append(rr[-1] * (1 - 2 ** t) % 101)
    assert w.rr.tolist() == rr


@settings(max_examples=240, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([101, 65537, MP]),
       npool=st.integers(1, 60))
def test_geometric_weights_match_fermat(seed, p, npool):
    # every weight alpha_i gamma_(k-i) beta_k against the inverse of the
    # product of differences itself, and each per-run vector against its
    # definition; mod 101 most ratios have an order below npool, and such
    # a progression is refused
    rng = np.random.default_rng(seed)
    got = _draw_pool(p, npool, rng, tries=8)
    if got is None:
        assert p == 101
        return
    pool, w = got
    xs = pool.tolist()
    assert len(set(xs)) == npool and 2 <= min(xs) and max(xs) <= p - 2
    g = xs[0]
    r = xs[1] * pow(g, p - 2, p) % p if npool > 1 else 0
    alpha, gamma, beta = w.alpha.tolist(), w.gamma.tolist(), w.beta.tolist()
    for i, x in enumerate(xs):
        prod = 1
        for j in range(i):
            prod = prod * (x - xs[j]) % p
        for k in range(i, npool):
            if k > i:
                prod = prod * (x - xs[k]) % p
            assert alpha[i] * gamma[k - i] * beta[k] % p == pow(prod, p - 2, p)
    rr = 1
    for k in range(npool):
        rr = rr * (1 - pow(r, k, p)) % p if k else 1
        tri = pow(r, k * (k - 1) // 2, p)
        assert w.rr[k] == rr and w.inv_rr[k] * rr % p == 1
        assert alpha[k] == (-1) ** k * w.inv_rr[k] % p
        assert gamma[k] == tri * w.inv_rr[k] % p
        assert beta[k] * pow(g, k, p) % p * tri % p == 1
        assert w.delta[k] == pow(-g, k, p) * gamma[k] % p


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([101, 7919, 65537, 536813569, 2**31 - 1]),
       la=st.integers(1, 60), lb=st.integers(1, 60), full=st.booleans())
def test_conv_mod_matches_reduced_convolution(seed, p, la, lb, full):
    rng = np.random.default_rng(seed)
    if full:  # every residue p - 1: the largest parts and part sums
        a, b = (np.full(n, p - 1, dtype=np.int64) for n in (la, lb))
    else:
        a, b = (rng.integers(0, p, size=n, dtype=np.int64) for n in (la, lb))
    got = P._conv_mod(a, b, p)
    assert len(got) == la + lb - 1
    assert _ref_trim(got.tolist()) == _ref_mul(a.tolist(), b.tolist(), p)


def test_conv_mod_long_all_top_residues():
    # a few thousand terms of p - 1 at p = 2^31 - 1: output j sums
    # min(j + 1, la, lb, la + lb - 1 - j) products (p - 1)^2; the int64
    # bound of the docstring covers up to 2^29 terms
    for la, lb in ((3000, 3000), (4096, 1500)):
        a, b = (np.full(n, MP - 1, dtype=np.int64) for n in (la, lb))
        want = [min(j + 1, la, lb, la + lb - 1 - j) * (MP - 1) ** 2 % MP
                for j in range(la + lb - 1)]
        assert P._conv_mod(a, b, MP).tolist() == want


def _table(xs, width, p):
    """The power table of the points xs for polynomials of width
    coefficients, sized as ProbeDomain._horner sizes its own."""
    base = np.stack((np.ones_like(xs), xs))
    return P._power_table(base, max(1, min(width, K.lazy_terms(p) - 1)), p)


def _eval_row(a, xs, p):
    """One coefficient list with entries in [0, p) at the points xs:
    eval_many_mod's row 0 for the one-row stack of a."""
    return P.eval_many_mod(P._stack([a]), _table(xs, len(a), p), p)[0]


def _ref_node(xs, p):
    """prod (q - x) over xs, folded with the textbook product."""
    return reduce(lambda f, x: _ref_mul(f, [-int(x) % p, 1], p), xs, [1])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([101, 7919, 65537, 536813569, 2**31 - 1]),
       npool=st.integers(1, 80), data=st.data())
def test_interpolation_on_pool_prefixes(seed, p, npool, data):
    # the closed forms on the first m points of a geometric pool: the
    # interpolant has degree below m and takes the values, a planted
    # poly of lower degree comes back exactly, and the node poly is the
    # product of the (q - x_i)
    rng = np.random.default_rng(seed)
    pool, w = _some_pool(p, min(npool, 40) if p == 101 else npool,
                                   rng)
    m = data.draw(st.integers(1, len(pool)))
    xs = pool[:m]
    ys = rng.integers(0, p, size=m, dtype=np.int64)
    got = P._newton_interp(ys, w, p)
    assert len(got) <= m and (len(got) == 0 or got[-1] != 0)
    assert (_eval_row(got, xs, p) == ys).all()
    planted = rng.integers(0, p, size=data.draw(st.integers(1, m)),
                           dtype=np.int64)
    planted[-1] = rng.integers(1, p)
    assert (P._newton_interp(_eval_row(planted, xs, p), w, p)
            == planted).all()
    if m < len(pool):
        assert P._node_poly(m, w, p).tolist() == _ref_node(xs, p)


PP = next(K.primes_29())  # the first probe prime, 536813569
PRIMES = [101, 65537, PP, MP]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 6),
       width=st.integers(0, 100), m=st.integers(1, 40),
       p=st.sampled_from(PRIMES), full=st.booleans())
def test_stacked_eval_matches_rowwise(seed, k, width, m, p, full):
    # widths past lazy_terms(p) - 1 = 31 at PP run several Horner blocks;
    # coefficients p - 1 make each block's unreduced sum the largest its
    # points allow
    rng = np.random.default_rng(seed)
    if full:
        stack = np.full((k, width), p - 1, dtype=np.int64)
        xs = np.full(m, p - 1, dtype=np.int64)
    else:
        stack = rng.integers(0, p, size=(k, width), dtype=np.int64)
        xs = rng.integers(0, p, size=m, dtype=np.int64)
    got = P.eval_many_mod(stack, _table(xs, width, p), p)
    assert got.shape == (k, m)
    for row, values in zip(stack, got):
        coeffs = row.tolist()
        assert values.tolist() == [K.eval_mod(coeffs, int(x), p) for x in xs]
        # one polynomial, as a one-row stack, reads the same
        assert (_eval_row(coeffs, xs, p) == values).all()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([97, 101, *islice(K.primes_29(), 3)]),
       widths=st.lists(st.integers(0, 100), min_size=1, max_size=4),
       full=st.booleans(), data=st.data())
def test_domain_power_table_matches_eval_mod(seed, p, widths, full, data):
    # one domain's table serves widths up to 100 in any order, past the
    # block of lazy_terms(p) - 1 = 31 coefficients at primes_29; at 97
    # and 101 lazy_terms(p) is about 10^15, so the table is exactly as
    # wide as the widest polynomial so far.  A column slice of 16 lanes,
    # as the hold-out reads, evaluates like the whole table
    rng = random.Random(seed)
    dom = P.ProbeDomain(p, P._lane_points(p, min(p - 3, 48), rng))
    for i, width in enumerate(widths):
        rows = [[p - 1 if full else rng.randrange(p) for _ in range(width)]
                for _ in range(3)]
        X = dom._horner(width)
        assert len(X) == 1 + max(1, min(max(widths[: i + 1]),
                                        K.lazy_terms(p) - 1))
        assert not X.flags.writeable
        lo = data.draw(st.integers(0, dom.n - 1))
        cols = slice(lo, lo + 16)
        got = P.eval_many_mod(P._stack(rows), X[:, cols], p)
        assert got.tolist() == [[K.eval_mod(row, x, p)
                                 for x in dom.q[cols].tolist()]
                                for row in rows]
        whole = P.eval_many_mod(P._stack(rows), X, p)
        assert (whole[:, cols] == got).all()


def test_lazy_terms_bound():
    # lazy_terms(p) products of residues fit in an int64, one more may not
    for p in PRIMES:
        n = K.lazy_terms(p)
        assert n * (p - 1) ** 2 <= 2**63 - 1 < (n + 1) * (p - 1) ** 2
    assert K.lazy_terms(PP) == 32 and K.lazy_terms(MP) == 2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([PP, MP]),
       lo=st.integers(0, 40), span=st.integers(1, 30),
       full=st.booleans())
def test_series_mul_matches_reduced_terms(seed, p, lo, span, full):
    # windows up to hi = 70: orders on both sides of lazy_terms(p) = 32 at
    # PP sum unreduced or reduce their terms first; every product of the
    # all-(p - 1) rows is (p - 1)^2
    hi = min(lo + span, 70)
    rng = np.random.default_rng(seed)
    dom = P.ProbeDomain(p, P._lane_points(p, 8, random.Random(seed)))
    if full:
        a = b = np.full((hi, dom.n), p - 1, dtype=np.int64)
    else:
        a, b = rng.integers(0, p, size=(2, hi, dom.n), dtype=np.int64)
    want = [[sum(int(a[i, j]) * int(b[m - i, j]) % p for i in range(m + 1)) % p
             for j in range(dom.n)] for m in range(lo, hi)]
    assert dom.series_mul(a, b, lo, hi).tolist() == want


def test_newton_interp_matches_eval():
    rng = np.random.default_rng(11)
    poly = rng.integers(0, MP, size=9, dtype=np.int64)
    pool, w = _draw_pool(MP, 20, rng)
    xs = pool[:15]
    ys = _eval_row(poly, xs, MP)
    got = P._newton_interp(ys, w, MP)
    assert len(got) <= 15
    assert (_eval_row(got, xs, MP) == ys).all()
    # degree-8 data through 15 points comes back exactly
    assert list(got) == list(poly)


def test_rat_interp_recovers_planted():
    num = np.array([1, 0, 3], dtype=np.int64)
    den = np.array([5, 1], dtype=np.int64)  # monic
    pool, w = _draw_pool(MP, 24, np.random.default_rng(3))
    xs = pool[:23]
    ys = (_eval_row(num, xs, MP)
          * P._batch_inv(_eval_row(den, xs, MP), MP) % MP)
    got = P._rat_interp(ys, MP, w, P._node_poly(23, w, MP))
    assert got is not None
    assert list(got[0]) == [1, 0, 3] and list(got[1]) == [5, 1]


# -- textbook extended Euclid, the reference for _rat_interp ----------------


def _ref_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_mul(a, b, p):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _ref_trim(out)


def _ref_sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _ref_trim(out)


def _ref_divmod(u, v, p):
    """(quotient, remainder) of ascending GF(p) lists by long division
    with the inverse of v's leading coefficient; v nonzero."""
    dv = len(v) - 1
    if len(u) < len(v):
        return [], list(u)
    inv = pow(v[-1], p - 2, p)
    r = list(u)
    quo = [0] * (len(u) - dv)
    for k in range(len(u) - dv - 1, -1, -1):
        c = r[k + dv] * inv % p
        quo[k] = c
        for i, y in enumerate(v):
            r[k + i] = (r[k + i] - c * y) % p
    return _ref_trim(quo), _ref_trim(r[:dv])


def _ref_rat_interp(xs, ys, p):
    """(num, den) or None as _rat_interp returns them, by Lagrange
    interpolation and the textbook remainder sequence, stopped at the
    first row whose remainder degree is 2 or more below the row before."""
    xs, ys = [int(x) for x in xs], [int(y) for y in ys]
    if not any(ys):
        return [], [1]
    node = [1]
    for x in xs:
        node = _ref_mul(node, [-x % p, 1], p)
    f = []
    for i, x in enumerate(xs):
        basis, _ = _ref_divmod(node, [-x % p, 1], p)
        w = ys[i] * pow(K.eval_mod(basis, x, p), p - 2, p) % p
        f = _ref_sub(f, [-w * c % p for c in basis], p)
    r0, r1, v0, v1 = node, f, [], [1]
    while r1 and len(r0) - len(r1) < 2:
        quo, rem = _ref_divmod(r0, r1, p)
        r0, r1, v0, v1 = r1, rem, v1, _ref_sub(v0, _ref_mul(quo, v1, p), p)
    if not r1:
        return None
    inv = pow(v1[-1], p - 2, p)
    return [c * inv % p for c in r1], [c * inv % p for c in v1]


def _some_pool(p, npool, rng):
    """_draw_pool, which must find a pool."""
    got = _draw_pool(p, npool, rng)
    assert got is not None, f"no geometric pool of {npool} points mod {p}"
    return got


def _negation_closed_pool(p, pairs, rng):
    """(x, w) of a geometric pool x_i = g r^i, i < 2m, where r has order
    2m, so r^m = -1 and x_(i+m) = -x_i; g outside the powers of r keeps
    +-1 out.  2m is the least even divisor of p - 1 from 2 * pairs on, or
    (p - 1) / 2 if that is smaller."""
    half = (p - 1) // 2
    m2 = next(d for d in range(min(2 * pairs, half), half + 1)
              if d % 2 == 0 and (p - 1) % d == 0)
    rk = []
    while len(set(rk)) < m2:  # until r has order m2 exactly
        r = pow(int(rng.integers(2, p - 1)), (p - 1) // m2, p)
        rk = [pow(r, k, p) for k in range(m2)]
    g = 1
    while pow(g, m2, p) == 1:
        g = int(rng.integers(2, p - 1))
    rk = np.array(rk, dtype=np.int64)
    return g * rk % p, P._dd_inverses(g, r, m2, p)


def _interp_data(seed, p, dn, dd, extra, mode, tight=False):
    """Values, weights and node poly for a fit on a pool prefix: a
    planted num/den ("plain"), one in q^2 over a whole negation-closed
    pool, so values repeat in pairs and every quotient has even degree
    ("even"), or values from {0, 1, 2} ("few"); also the nodes.  The
    planted den is redrawn while it vanishes on a node.  The points are
    extra more than a balanced fit of the degrees takes, or with tight
    than the deg num + deg den + 2 the gap rule takes."""
    rng = np.random.default_rng(seed)
    step = 2 if mode == "even" else 1
    n = (step * (dn + dd) + 2 if tight
         else max(2 * step * dn + 1, 2 * step * dd, 2)) + extra
    n += n % step  # whole pairs
    num = np.zeros(step * dn + 1, dtype=np.int64)
    num[::step] = rng.integers(0, p, size=dn + 1)
    num[-1] = rng.integers(1, p)
    if mode == "even":
        pool, w = _negation_closed_pool(p, n // 2, rng)
        xs = pool
    else:
        pool, w = _some_pool(p, n + 1, rng)
        xs = pool[:n]
    den = np.zeros(step * dd + 1, dtype=np.int64)
    while not _eval_row(den, xs, p).all():
        den[::step] = rng.integers(0, p, size=dd + 1)
        den[-1] = 1
    if mode == "few":
        ys = rng.integers(0, 3, size=len(xs), dtype=np.int64)
    else:
        ys = (_eval_row(num, xs, p)
              * P._batch_inv(_eval_row(den, xs, p), p) % p)
    # the closed-form node poly needs (r;r)_n != 0, so n below the order
    # of r, and the ratio of a whole negation-closed pool has order n
    node = (_ref_node(xs, p) if mode == "even"
            else P._node_poly(n, w, p).tolist())
    return xs, ys, w, np.array(node, dtype=np.int64)


def _fit(ys, p, w, node):
    got = P._rat_interp(ys, p, w, node)
    return None if got is None else (got[0].tolist(), got[1].tolist())


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([101, 7919, MP]),
       dn=st.integers(0, 10), dd=st.integers(0, 10), extra=st.integers(0, 20),
       mode=st.sampled_from(["plain", "even", "few"]))
def test_rat_interp_matches_textbook_euclid(seed, p, dn, dd, extra, mode):
    xs, ys, w, node = _interp_data(seed, p, dn, dd, extra, mode)
    got = _fit(ys, p, w, node)
    want = _ref_rat_interp(xs, ys, p)
    assert got == want
    if got is not None:
        num, den = got
        assert (_eval_row(num, xs, p)
                == _eval_row(den, xs, p) * ys % p).all()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([536813569, MP]),
       big=st.integers(40, 100), small=st.integers(0, 3),
       extra=st.integers(0, 2), num_first=st.booleans())
def test_rat_interp_fits_unbalanced_degrees(seed, p, big, small, extra,
                                            num_first):
    # one degree far above the other, from deg num + deg den + 2 points
    # (and up to 2 more), where a balanced stop would need 2 max + 1
    dn, dd = (big, small) if num_first else (small, big)
    xs, ys, w, node = _interp_data(seed, p, dn, dd, extra, "plain",
                                   tight=True)
    got = _fit(ys, p, w, node)
    assert got == _ref_rat_interp(xs, ys, p)
    # a reduced pair of these degrees that fits len(xs) >= dn + dd + 2
    # points is the planted one
    num, den = got
    assert (len(num), len(den)) == (dn + 1, dd + 1)
    assert (_eval_row(num, xs, p)
            == _eval_row(den, xs, p) * ys % p).all()


def test_rat_interp_takes_quotients_of_degree_two():
    # values of a function of q^2 at +-x pairs: the remainder degrees drop
    # by two from the first row on, so the gap rule stops there, before
    # any quotient, and returns the interpolating polynomial over 1; on
    # these points it is a wrong fit that only a hold-out can reject
    for seed in range(5):
        xs, ys, w, node = _interp_data(seed, MP, 4, 5, 3, "even")
        want = _ref_rat_interp(xs, ys, MP)
        assert _fit(ys, MP, w, node) == want
        assert len(want[0]) == len(xs) - 1 and want[1] == [1]


# -- the same kernel in gcd mode, against textbook long division --------


def _ref_gcd(u, v, p):
    """Monic gcd of ascending GF(p) lists by the textbook remainder
    sequence."""
    while v:
        u, v = v, _ref_divmod(u, v, p)[1]
    inv = pow(u[-1], p - 2, p)
    return [c * inv % p for c in u]


def _gcd_mod(a, b, p):
    """P.euclid_mod run on one row each down to a zero remainder, made
    monic; a, b nonzero ascending lists with entries in [0, p)."""
    if len(a) < len(b):
        a, b = b, a
    prev, cur = np.zeros((2, 1, len(a)), dtype=np.int64)
    prev[0], cur[0, : len(b)] = a, b
    r, _, d, dc = P.euclid_mod(prev, cur, len(a) - 1, len(b) - 1, p)
    assert dc == -1
    return (r[0, : d + 1] * pow(r.item(0, d), p - 2, p) % p).tolist()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([101, 7919, MP]),
       dg=st.integers(0, 6), du=st.integers(0, 30), dv=st.integers(0, 30),
       sparse=st.booleans())
def test_euclid_mod_gcd_matches_textbook(seed, p, dg, du, dv, sparse):
    # a planted common factor of degree dg; dg = 0 leaves coprime
    # operands, whose remainder sequence ends at degree 0
    rng = np.random.default_rng(seed)

    def poly(d):
        c = rng.integers(0, p, size=d + 1)
        if sparse:  # long zero runs between the ends
            c[1:d] *= rng.random(max(d - 1, 0)) < 0.15
        c[d] = rng.integers(1, p)
        return c.tolist()

    g = poly(dg)
    a, b = _ref_mul(g, poly(du), p), _ref_mul(g, poly(dv), p)
    want = _ref_gcd(*sorted((a, b), key=len, reverse=True), p)
    assert _gcd_mod(a, b, p) == want
    assert len(want) >= dg + 1


def test_euclid_mod_fused_step_at_degree_zero():
    # x^2 + 1 and x + 1: remainders of degree 1, then 0, then zero; the
    # last step is a degree-1 quotient whose divisor has degree 0, as in
    # a _rat_interp whose remainder reaches zero before any degree gap
    for p in (101, 7919, MP):
        assert _gcd_mod([1, 0, 1], [1, 1], p) == [1]
        assert _gcd_mod([p - 1, 0, 1], [1, 1], p) == [1, 1]


def test_crt_join():
    # residues of either sign mod M, joined with residues mod a fresh prime
    p1, p2, p = list(islice(K.primes_31(), 3))
    M = p1 * p2
    xs = [0, 5, -7, M - 1, -(M // 2), 12345678901234567]
    ys = [3, 0, p - 1, 17, 2, p // 2]
    for x, y, z in zip(xs, ys, K.crt_join(xs, M, ys, p)):
        assert z % M == x % M and z % p == y


def test_wang_lift():
    M = 2147483647 * 2147483629
    for frac in (Fraction(-3, 7), Fraction(22, 1), Fraction(0),
                 Fraction(10**6, 10**6 + 1)):
        c = frac.numerator * pow(frac.denominator, -1, M) % M
        assert P._wang(c, M) == (frac.numerator, frac.denominator)
    # a numerator past the bound cannot lift
    assert P._wang(Fraction(2**40, 3).numerator * pow(3, -1, M) % M, M) is None


def test_lift_poly_is_one_integer_list_over_the_lcm():
    # -3/7 + 22 q + q^2 / 6 from two primes: integers over 42, in lowest
    # terms; an empty list lifts to zero
    primes = list(islice(K.primes_29(), 2))
    per_prime = [np.array([-18 * pow(42, -1, p) % p, 22, pow(6, -1, p)])
                 for p in primes]
    assert P._lift_poly(per_prime, primes) == ([-18, 924, 7], 42)
    empty = [np.zeros(0, dtype=np.int64)] * 2
    assert P._lift_poly(empty, primes) == ([], 1)


def test_lane_points_take_the_whole_range():
    # 94 of the 94 points in [2, 95] mod 97: distinct by construction
    for seed in range(20):
        pts = P._lane_points(97, 94, random.Random(seed))
        assert sorted(pts.tolist()) == list(range(2, 96))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([*islice(K.primes_29(), 3), 97, 101]),
       data=st.data())
def test_points_depend_on_the_prime_alone(p, data):
    # a fresh evaluator's lanes and a run's (g, r) are drawn by
    # random.Random(p) alone: two draws at p agree, and at 97 and 101 the
    # lanes may take the whole range [2, p - 2]
    nlanes = data.draw(st.integers(1, min(p - 3, 200)))
    F = parse("y[0] - 1").parsed
    lanes = [P._fresh(F, [RatQ(1)], 1, nlanes, p)[0].dom.q.tolist()
             for _ in range(2)]
    assert lanes[0] == lanes[1]
    assert lanes[0] == P._lane_points(p, nlanes, random.Random(p)).tolist()
    assert len(set(lanes[0])) == nlanes
    assert all(2 <= x <= p - 2 for x in lanes[0])
    # _start_run hands its (g, r) to _progression, which refuses them here
    drawn = []

    def refuse(prime, g, r, npool):
        drawn.append((prime, g, r))
        raise P._Pole("recorded")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "_LANES", {})  # a cached pool would skip refuse
        mp.setattr(P, "_progression", refuse)
        for _ in range(2):
            with pytest.raises(P._Pole):
                P._start_run(F, [RatQ(1)], 1, p, nlanes)
    assert drawn[0] == drawn[1]
    assert drawn[0][0] == p and all(2 <= v <= p - 2 for v in drawn[0][1:])


def test_probe_domain_roundtrip():
    dom = make_domain("probe", 64, 3)
    val = (Q ** 2 - 1) / (Q ** 3 + 2 * Q)
    lanes = dom.from_ratq(val)
    x = dom.q
    num = (x * x - 1) % MP
    den = (x * x % MP * x + 2 * x) % MP
    assert (lanes * den % MP == num % MP).all()


def test_probe_matches_exact_linear():
    rep = extend(linear().F, [1], 20, engine="probe")
    assert rep.resolved_through == 20
    for h, c in enumerate(rep.solution.coeffs):
        assert c == RatQ(1).shift_q(h * (h - 1) // 2)


def _solves_match_exact(monkeypatch, N):
    """Both qp2 branches through N agree with the exact engine, events
    included; returns the lanes of every _solve_at."""
    lanes, inner = [], P._solve_at

    def sized(*args):
        lanes.append(args[3])
        return inner(*args)

    monkeypatch.setattr(P, "_solve_at", sized)
    for sign in (1, -1):
        F, seed = qp2(sign=sign)[:2]
        assert outcome(F, seed, N, "probe") == outcome(F, seed, N, "exact")
    return lanes


def test_probe_matches_exact_nonlinear(monkeypatch):
    # one _solve_at per branch, at the start size: a pool grows inside it
    assert _solves_match_exact(monkeypatch, 14) == [P._START_LANES] * 2


def test_a_grown_solve_matches_exact(monkeypatch):
    # c_14 times den(c_13) takes about 170 points, so a 48-lane start
    # pool grows at least twice on each branch
    grown, inner = [], P._start_run

    def start(*args):
        try:
            got = inner(*args)
        except P._Pole:
            if len(args) > 5:
                grown.append(None)  # a refused growth
            raise
        if len(args) > 5:
            grown.append(got)
        return got

    monkeypatch.setattr(P, "_START_LANES", 48)
    monkeypatch.setattr(P, "_start_run", start)
    assert _solves_match_exact(monkeypatch, 14) == [48] * 2
    assert len(grown) >= 2 * 2 * 2 and all(grown)


def test_probe_deterministic():
    F, seed = qp2()[:2]
    r1 = extend(F, seed, 13)
    r2 = extend(F, seed, 13)
    assert r1.solution.coeffs == r2.solution.coeffs


def test_probe_check_solution():
    F, seed = qp2()[:2]
    rep = extend(F, seed, 16)
    assert check_solution(F, rep.solution, mode="probe") == 16
    bad = list(rep.solution.coeffs)
    bad[9] = bad[9] + RatQ(1)
    # the linearized operator starts at x^1, so the damage surfaces at order 10
    assert check_solution(F, TruncSeries(bad, 16), mode="probe") == 9


def _qp2_wrong_last(N):
    """F, the exact qp2 report through N, and its answer with 1 added to
    c_N."""
    F, seed = qp2()[:2]
    rep = extend(F, seed, N, engine="exact")
    bad = list(rep.solution.coeffs)
    bad[N] = bad[N] + RatQ(1)
    return F, rep, bad


def test_verify_fresh_rejects_a_wrong_last_coefficient():
    # step h decides c_h at order h + 1, so c_12 first enters the
    # residual at order 13: only step 12's check, at order 13, shows c_12
    F, rep, bad = _qp2_wrong_last(12)
    assert [e["order"] for e in rep.events][-2:] == [12, 13]
    assert check_solution(F, TruncSeries(bad, 12), mode="exact") == 12
    assert check_solution(F, TruncSeries(bad, 13), mode="exact") == 12
    assert check_solution(F, TruncSeries(rep.solution.coeffs, 13),
                          mode="exact") == 13
    good, primes = list(rep.solution.coeffs), K.primes_29()
    # c_0..c_11 accepted: orders 0..12 vanish on the fresh lanes
    ev = P._verify_fresh(F, None, good[:12], 13, 12, primes)
    with pytest.raises(P._NeedPrimes, match="c_12 leaves order 13 nonzero"):
        P._verify_fresh(F, ev, bad, 13, 13, primes)
    # the same evaluator takes the right c_12 in its place
    assert P._verify_fresh(F, ev, good, 13, 13, primes) is ev
    # a wrong coefficient that earlier steps accepted fails a rebuild
    with pytest.raises(EngineError, match="fails at order 13"):
        P._verify_fresh(F, None, bad + [RatQ(0)], 14, 14, primes)


def _plant_at_12(monkeypatch, times):
    """1 is added to the first `times` lifts of c_12."""
    inner, planted = P._reconstruct_coeff, []

    def lift(runs, h, *args):
        value, need = inner(runs, h, *args)
        if h == 12 and len(planted) < times:
            planted.append(value)
            value = value + RatQ(1)
        return value, need

    monkeypatch.setattr(P, "_reconstruct_coeff", lift)


def test_a_wrong_lift_costs_one_more_prime(monkeypatch):
    # the step check rejects the planted c_12, the solve adds a prime
    # and lifts c_12 again, and the answer is exact
    F, rep, _ = _qp2_wrong_last(12)
    _plant_at_12(monkeypatch, 1)
    got = counted(monkeypatch)
    coeffs, _ = P.solve(F, qp2().seed, 12)
    assert tuple(coeffs) == rep.solution.coeffs
    assert len(got["rejected"]) == 1 and len(got["runs"]) == 3


def test_a_wrong_last_coefficient_falls_back_to_exact(monkeypatch):
    # a wrong c_12 at every retry spends the prime budget: the probe solve
    # raises EngineError, and extend answers in Q(q)
    (F, rep, _), seed = _qp2_wrong_last(12), qp2().seed
    _plant_at_12(monkeypatch, 24)
    raised = counted(monkeypatch)["rejected"]
    with pytest.raises(EngineError, match="prime escalation exhausted"):
        P.solve(F, seed, 12)
    assert raised
    got = extend(F, seed, 12, engine="probe")
    assert got.solution.coeffs == rep.solution.coeffs
    assert got.events == rep.events


@pytest.mark.parametrize("family, reach", [
    # a fit outgrows the 192-lane start pools: one pool growth, 5 runs
    (qp2(N=20), {"lanes": 1, "runs": 5}),
    # with two primes, Wang's reconstruction lifts c_1 as a wrong
    # fraction: the fresh-prime check rejects three lifts, and a third
    # and a fourth prime join (7 runs)
    (big_constant(10 ** 30 + 1), {"rejected": 3, "runs": 7}),
    # the same for c_16 = -9694845/2^31 of sqrt(1 + x), a q-free
    # algebraic series: one rejected lift, 3 runs
    (sqrt(1), {"rejected": 1, "runs": 3}),
    # a resonant_free step at h = 13, past auto's order-12 switch
    (resonant(13), {"resonant_free": 13}),
], ids=["qp2-pool-growth", "30-digit-constant", "sqrt-1-plus-x",
        "resonant-free-at-13"])
def test_a_lift_past_the_bound_asks_for_a_prime(family, reach, monkeypatch):
    # each row reaches its regime, counted by wrapping the probe solve's
    # steps; its reach is the counts measured when it was written, so a
    # change that makes a row easier fails here; the answer and events
    # are the exact domain's
    F, seed, N = family[:3]
    seen = counted(monkeypatch)
    answer = outcome(F, seed, N, "probe")
    assert answer == outcome(F, seed, N, "exact")
    got = {"lanes": len(seen["lanes"]), "rejected": len(seen["rejected"]),
           "runs": sum(not grown for _, _, grown in seen["runs"]),
           "resonant_free": max((h for h, kind, _, _ in answer[1]
                                 if kind == "resonant_free"), default=0)}
    assert all(got[k] >= v for k, v in reach.items()), got


def _runs_holding(value, h, nlanes, k=2):
    """Runs over the first k probe primes whose lanes hold value as c_h."""
    runs = []
    for prime in islice(K.primes_29(), k):
        run = _geometric_run(prime, nlanes, np.random.default_rng(prime))
        run.coeffs = [None] * h + [run.dom.from_ratq(value)]
        runs.append(run)
    return runs


def _planted_value():
    # q^2 * n/d with deg n = 40 and deg d = 48: a fit of the pair's
    # 43 + 49 coefficients needs 92 points
    rnd = random.Random(5)
    n = [rnd.randint(-9, 9) for _ in range(40)] + [1]
    d = [1] + [rnd.randint(-9, 9) for _ in range(47)] + [2]
    value = (RatQ.from_ints(n) / RatQ.from_ints(d)).shift_q(2)
    assert (len(value.num.ints) - 1, len(value.den.ints) - 1) == (42, 48)
    return value


def _sizes_tried(runs, h):
    return [sorted(n for k, n in run.cands if k == h) for run in runs]


def test_reconstruct_grows_from_a_small_start():
    # a guess of 8 points falls short, and the fit takes the whole pool:
    # 512 pool lanes less the 16-point hold-out
    value = _planted_value()
    runs = _runs_holding(value, 3, 512)
    assert P._reconstruct_coeff(runs, 3, 8, (1,), 0) == (value, 92)
    assert _sizes_tried(runs, 3) == [[8, 496]] * 2


@pytest.mark.parametrize("guess, tried", [
    (91, [91, 496]), (92, [92]), (200, [200]), (496, [496]), (900, [496]),
])
def test_a_guess_is_used_as_given_or_the_whole_pool_after_it(guess, tried):
    # the planted pair needs 92 points: a guess below that falls back to
    # the whole pool, one at or above it is the only fit, and no fit
    # takes more than the pool
    value = _planted_value()
    runs = _runs_holding(value, 3, 512)
    assert P._reconstruct_coeff(runs, 3, guess, (1,), 0) == (value, 92)
    assert _sizes_tried(runs, 3) == [tried] * 2


def test_reconstruct_takes_any_denominator_guess():
    # the guesses G and v scale the fitted values by G q^-v; a factor of
    # den(c_h) or v = ord_q(c_h) shrinks the fit, a G prime to den(c_h) or
    # another v grows it, and every guess gives the value
    rnd = random.Random(8)
    d1 = (1,) + tuple(rnd.randint(-9, 9) for _ in range(19)) + (3,)
    d2 = (2,) + tuple(rnd.randint(-9, 9) for _ in range(9)) + (1,)
    n = [rnd.randint(-9, 9) for _ in range(30)] + [1]
    value = RatQ.from_ints(n) / RatQ.from_ints(K.mul(d1, d2))
    assert len(value.den.ints) - 1 == 30 and value.ord_q == 0
    coprime = (1, 1, 0, 0, 0, 3)
    assert len((1 / RatQ.from_ints(K.mul(coprime, value.den.ints))
                ).den.ints) - 1 == 35
    for G, e, v, need in (((1,), 0, 0, 31 + 31), (d1, 0, 0, 31 + 11),
                          (coprime, 0, 0, 36 + 31), ((1,), 0, 3, 31 + 34),
                          ((1,), 40, 40, 31 + 31), ((1,), 40, 0, 71 + 31)):
        # fresh runs: their fits are cached by (h, points), not by G or v
        runs = _runs_holding(value.shift_q(e), 3, 512)
        assert P._reconstruct_coeff(runs, 3, 16, G, v) == (
            value.shift_q(e), need)


def _kill_lane(monkeypatch, pick):
    """Lane pick(dom) of each probe domain for which it is not None dies:
    every divisor is 0 there, so the domain's first division raises
    _Pole.  Returns the domains hit, once per division."""
    inner, hit = P.ProbeDomain.div, []

    def div(self, a, b):
        lane = pick(self)
        if lane is not None:
            hit.append(self)
            b = b.copy()
            b.reshape(-1, self.n)[:, lane] = 0
        return inner(self, a, b)

    monkeypatch.setattr(P.ProbeDomain, "div", div)
    return hit


def _solves_past_a_dead_lane(monkeypatch, lane):
    # the first prime's run has a pole at lane: it gives way, the next two
    # primes serve, and the solve gives the exact answer
    F, seed, N = qp2(N=10)[:3]
    hit = _kill_lane(monkeypatch, lambda dom: lane % dom.n if (
        dom.p == PP and dom.n == P._START_LANES) else None)
    started = counted(monkeypatch)["runs"]
    assert outcome(F, seed, N, "probe") == outcome(F, seed, N, "exact")
    assert len(hit) == 1
    assert [p for p, _, _ in started][:2] == list(islice(K.primes_29(), 1, 3))
    assert PP not in [p for p, _, _ in started]


def test_a_dead_pool_lane_redraws_the_run(monkeypatch):
    _solves_past_a_dead_lane(monkeypatch, 5)


def test_an_unusable_progression_gives_way_to_the_next_prime(monkeypatch):
    # _start_run raises _Pole where the drawn g, r give no usable pool (a
    # point at +-1 or a repeat), and the next prime serves instead
    F, seed, N = qp2(N=10)[:3]
    inner = P._progression

    def progression(prime, *args):
        if prime == PP:
            raise P._Pole("unusable")
        return inner(prime, *args)

    monkeypatch.setattr(P, "_LANES", {})  # a cached pool would skip it
    monkeypatch.setattr(P, "_progression", progression)
    with pytest.raises(P._Pole):
        P._start_run(F, seed, N, PP, P._START_LANES)
    started = counted(monkeypatch)["runs"]
    assert outcome(F, seed, N, "probe") == outcome(F, seed, N, "exact")
    assert PP not in [p for p, _, _ in started]


def test_the_lane_cache_never_changes_an_answer(monkeypatch):
    # in one process, a probe solve and check cold and then warm give
    # the same coefficients, events and verdicts, and the warm pass
    # draws no lanes; every cached array is read-only
    monkeypatch.setattr(P, "_LANES", {})
    F, seed, N = qp2(N=14)[:3]
    passes = []
    for _ in range(2):
        cached = dict(P._LANES)
        coeffs, events = P.solve(F, seed, N)
        phi = TruncSeries(coeffs, N)
        passes.append((coeffs, P._event_sig(events), P.check(F, phi),
                       check_solution(F, phi, mode="probe"),
                       extend(F, seed, N, engine="probe").to_json()))
    assert passes[0] == passes[1]
    assert cached and P._LANES.keys() == cached.keys()
    assert all(P._LANES[key] is got for key, got in cached.items())
    assert passes[0][0] == list(extend(F, seed, N, engine="exact")
                                .solution.coeffs)
    for dom, w in P._LANES.values():
        arrays = [dom.q, dom._zero, dom._X, *dom._qpow.values(),
                  *(w[2:] if w else ())]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            dom.q[0] = 0


def test_a_grown_solve_caches_no_grown_size(monkeypatch):
    # qp2 N=20 outgrows its 192-lane pools; only the start sizes are
    # kept, a pool at 192 and the verification's and check's lanes
    monkeypatch.setattr(P, "_LANES", {})
    started = counted(monkeypatch)["runs"]
    F, seed, N = qp2(N=20)[:3]
    coeffs, _ = P.solve(F, seed, N)
    P.check(F, TruncSeries(coeffs, N))
    assert any(grown for _, _, grown in started)
    assert {(n, pooled) for _, n, pooled in P._LANES} == {
        (P._START_LANES, True), (P._VERIFY_LANES, False),
        (P._CHECK_LANES, False)}


def test_a_dead_verification_lane_gives_way(monkeypatch):
    # the first prime of the fresh-prime verification meets a pole; the
    # next one verifies, and the solve stands
    F, seed, N = qp2(N=10)[:3]
    verifying = []

    def pick(dom):
        if dom.n == P._VERIFY_LANES:
            verifying.append(dom.p)
            return 0 if dom.p == verifying[0] else None
        return None

    hit = _kill_lane(monkeypatch, pick)
    assert outcome(F, seed, N, "probe") == outcome(F, seed, N, "exact")
    assert len(hit) == 1 and len(set(verifying)) == 2


def test_a_dead_check_lane_gives_way(monkeypatch):
    # the check's first prime meets a pole: the next two primes check, and
    # the answers are those of a check with no pole
    (F, seed), first = qp2()[:2], next(K.check_primes())
    phi = extend(F, seed, 12, engine="exact").solution
    bad = list(phi.coeffs)
    bad[9] = bad[9] + RatQ(1)
    bad = TruncSeries(bad, 12)
    want = [P.check(F, phi), P.check(F, bad)]
    assert want == [12, 9]
    checking = []

    def pick(dom):
        if dom.n == P._CHECK_LANES:
            checking.append(dom.p)
            return 0 if dom.p == first else None
        return None

    hit = _kill_lane(monkeypatch, pick)
    assert [P.check(F, phi), P.check(F, bad)] == want
    assert len(hit) == 2
    assert sorted(set(checking)) == sorted(islice(K.check_primes(), 3))


def test_the_check_sees_an_error_that_is_a_multiple_of_the_run_primes():
    # a probe answer's lifted coefficients are exact modulo its runs'
    # primes, the first primes_29; an error that is their product is zero
    # there, and only the check's own primes see it
    F, seed = qp2()[:2]
    phi = extend(F, seed, 14, engine="probe").solution
    p1, p2 = islice(K.primes_29(), 2)
    bad = list(phi.coeffs)
    bad[13] = bad[13] + RatQ(p1 * p2)
    bad = TruncSeries(bad, 14)
    assert check_solution(F, bad, mode="exact") == 13
    assert check_solution(F, bad, mode="probe") == 13


def test_24_dead_primes_in_a_row_raise_engine_error(monkeypatch):
    # a prime gives way at most 24 times in a row; then the engine gives
    # up, and extend and check_solution answer in Q(q) instead
    F, seed, N = qp2(N=10)[:3]
    phi = extend(F, seed, N, engine="exact").solution
    tried = []

    def pick(dom):  # lane 0 of every domain
        tried.append(dom.p)
        return 0

    _kill_lane(monkeypatch, pick)
    for call, primes in ((lambda: P.solve(F, seed, N), K.primes_29),
                         (lambda: P.check(F, phi), K.check_primes)):
        tried.clear()
        with pytest.raises(EngineError, match="24 primes in a row"):
            call()
        assert tried == list(islice(primes(), 24))
    assert extend(F, seed, N, engine="probe").solution.coeffs == phi.coeffs
    assert check_solution(F, phi, mode="probe") == N


@pytest.mark.parametrize("F, seed", [
    ("q^100000000000000000000*x*y[1]*y[0] - y[0] + 1", [1]),
    ("y[1]*y[0] - y[0]^2", [Q ** 50000]),
    ("y[1]*y[0] - y[0]^2", [1 / (1 - Q ** 50000)]),
], ids=["equation", "seed-q-power", "seed-denominator"])
def test_a_coefficient_no_pool_can_fit_is_declined(F, seed, monkeypatch):
    # a coefficient spanning more powers of q than _MAX_LANES lanes could
    # never be fitted: the probe engine declines before any run, and
    # extend answers in Q(q)
    F = parse(F).parsed
    want = extend(F, seed, 3, engine="exact").solution.coeffs

    def no_run(*args):
        raise AssertionError("a declined solve started a run")

    monkeypatch.setattr(P, "_start_run", no_run)
    with pytest.raises(EngineError, match="spans more powers of q"):
        P.solve(F, [RatQ.from_value(c) for c in seed], 3)
    assert extend(F, seed, 3, engine="probe").solution.coeffs == want


def test_the_decline_reads_the_lane_ceiling(monkeypatch):
    # q^12 spans |12| + 1 + 1 = 14 powers of q: a ceiling of 14 lanes
    # lets the probe engine solve, and one of 13 declines
    F, seed = qpower(12)[:2]
    monkeypatch.setattr(P, "_MAX_LANES", 14)
    assert outcome(F, seed, 3, "probe") == outcome(F, seed, 3, "exact")
    monkeypatch.setattr(P, "_MAX_LANES", 13)
    with pytest.raises(EngineError, match="spans more powers of q"):
        P.solve(F, seed, 3)


def test_the_first_fit_leaves_its_qpower_out(monkeypatch):
    # c_1 = q^5000 from seed 1: one exact step guesses ord_q(c_1), so no
    # pool grows, where the guess ord_q(c_0) = 0 grew every pool five times
    F, seed, N = qpower(5000)[:3]
    seen = counted(monkeypatch)
    assert outcome(F, seed, N, "probe") == outcome(F, seed, N, "exact")
    assert seen["lanes"] == []


@pytest.mark.parametrize("text, c0, v", [
    ("q^7*x*y[1]*y[0] - y[0] + 1", RatQ(1), 7),  # c_1 = q^7
    ("y[0] - q^3", Q ** 3, 3),  # c_1 = 0
    ("y[0] - 1", Q ** 3, 3),  # the seed is rejected
    # a branch point: the first step halts, nonaffine
    ("(y[0]+q^3*x)*(y[0]*y[1]-q^6)*(y[0]*y[-1]-q^6) - q^13*x^2*y[0]",
     Q ** 3, 3),
], ids=["unique", "zero", "rejected", "nonaffine"])
def test_the_first_qpower_guess_is_ord_c0_unless_c1_is_found(text, c0, v):
    assert P._first_qpower(parse(text).parsed, [c0]) == v


def test_a_two_coefficient_seed_takes_no_exact_step(monkeypatch):
    def no_step(F, seed):
        raise AssertionError("an exact step for a two-coefficient seed")

    monkeypatch.setattr(P, "_first_qpower", no_step)
    F, seed = qp2().F, qp2().seed
    assert outcome(F, seed, 13, "probe") == outcome(F, seed, 13, "exact")


def test_a_probe_fallback_is_on_the_report_and_not_in_its_json():
    # c_13 needs about 365 bits, more than 24 primes lift
    F = parse("y[0]^2 - 1 - 123456789*x").parsed
    got = extend(F, [1], 13)
    assert got.fallback == "prime escalation exhausted"
    exact = extend(F, [1], 13, engine="exact")
    assert exact.fallback is None and got.to_json() == exact.to_json()
    assert extend(*qp2(N=13)[:3]).fallback is None


def _over_a_probe_prime():
    # p^2 y^2 = 1 with c_0 = 1/p for the first probe prime p: c_0 has no
    # residue mod p, so p must give way to the next prime
    return parse(f"{PP * PP}*y[0]^2 - 1").parsed, [Fraction(1, PP)]


def test_check_gives_way_where_a_probe_prime_divides_a_denominator():
    F, seed = _over_a_probe_prime()
    phi = extend(F, seed, 13, engine="exact").solution
    for mode in ("auto", "probe", "exact"):
        assert check_solution(F, phi, mode=mode) == 13


def test_extend_gives_way_where_a_probe_prime_divides_a_denominator():
    F, seed = _over_a_probe_prime()
    want = extend(F, seed, 13, engine="exact")
    assert want.resolved_through == 13
    # the probe engine itself serves the answer, with no EngineError
    assert outcome(F, seed, 13, "probe") == outcome(F, seed, 13, "exact")
    assert extend(F, seed, 13).to_json() == want.to_json()


def test_need_lanes_only_after_the_whole_pool():
    value = _planted_value()
    runs = _runs_holding(value, 3, 96)
    cap = min(run.dom.n for run in runs) - 16
    assert cap < 92
    for guess in (32, cap, 900):
        with pytest.raises(P._NeedLanes):
            P._reconstruct_coeff(runs, 3, guess, (1,), 0)
        # every run tried a fit over its whole usable pool, and at most
        # one other size
        assert all((3, cap) in run.cands for run in runs)
    assert _sizes_tried(runs, 3) == [[32, cap]] * 2


def test_g_is_evaluated_once_per_coefficient_and_pool(monkeypatch):
    # a re-call at the same h, as after _NeedPrimes, reuses G's values
    value, G, calls = _planted_value(), (1, 1), []
    runs, inner = _runs_holding(value / RatQ.from_ints(G), 3, 512), P._eval_polys

    def evaluate(polys, dom):
        if len(polys) == 1:
            calls.append(dom.n)
        return inner(polys, dom)

    monkeypatch.setattr(P, "_eval_polys", evaluate)
    for _ in range(2):
        got = P._reconstruct_coeff(runs, 3, 8, G, 0)[0]
        assert got == value / RatQ.from_ints(G)
    assert calls == [512, 512]


def test_fits_survive_a_recall_with_one_more_prime(monkeypatch):
    # after _NeedPrimes the solve adds a prime and asks again at the same
    # h: the runs it had keep their fits, and only the new one fits
    value = _planted_value()
    runs = _runs_holding(value, 3, 512, k=3)
    first = P._reconstruct_coeff(runs[:2], 3, 100, (1,), 0)
    fits, inner = [], P._rat_interp

    def fit(ys, p, w, node):
        fits.append(p)
        return inner(ys, p, w, node)

    monkeypatch.setattr(P, "_rat_interp", fit)
    assert P._reconstruct_coeff(runs, 3, 100, (1,), 0) == first
    assert fits == [runs[2].prime]


def test_a_grown_pool_is_the_longer_progression():
    # the same (g, r) for the larger pool gives the same points and
    # weights bit for bit
    F, seed, N = qp2(N=8)[:3]
    run = P._start_run(F, seed, N, PP, 40)
    g, r = run.w.g, run.w.r
    assert P._start_run(F, seed, N, PP, 80, run) is run
    xs, w = P._progression(PP, g, r, 80)
    assert (run.dom.q == xs).all()
    assert all(np.array_equal(a, b) for a, b in zip(run.w, w))
    # the new columns hold the solution's coefficients at the new points
    exact = extend(F, seed, N, engine="exact").solution.coeffs
    for c, val in zip(run.coeffs, exact):
        assert (c == run.dom.from_ratq(val)).all()


def test_growth_keeps_every_cached_fit():
    # pool prefixes are unchanged, so fits cached before the growth are
    # the fits made again after it
    F, seed, N = qp2(N=8)[:3]
    runs = [P._start_run(F, seed, N, p, 64)
            for p in islice(K.primes_29(), 2)]
    before = P._reconstruct_coeff(runs, 2, 16, seed[-1].d, 0)
    cached = [dict(run.cands) for run in runs]
    assert all(cached)
    for run, old in zip(runs, cached):
        assert P._start_run(F, seed, N, run.prime, 128, run)
        assert run.cands.keys() == old.keys()  # growth keeps the cache
        run.cands.clear()
    assert P._reconstruct_coeff(runs, 2, 16, seed[-1].d, 0) == before
    for run, old in zip(runs, cached):
        assert run.cands.keys() == old.keys()
        for key, fit in old.items():
            if fit is None:
                assert run.cands[key] is None
            else:
                assert all(np.array_equal(a, b)
                           for a, b in zip(run.cands[key], fit))


def test_a_dead_lane_in_a_growth_batch_brings_a_fresh_prime(monkeypatch):
    # lane 5 of the first prime's first growth batch (its 48 new points)
    # dies: that prime's run is dropped and a fresh prime joins at the
    # grown size, with no EngineError
    F, seed, N = qp2(N=10)[:3]
    monkeypatch.setattr(P, "_START_LANES", 48)
    at_pp = []  # the 48-lane domains at PP: the start run's, then a batch's

    def pick(dom):
        if dom.p != PP or dom.n != 48:
            return None
        if not any(d is dom for d in at_pp):
            at_pp.append(dom)
        return None if dom is at_pp[0] else 5

    hit = _kill_lane(monkeypatch, pick)
    started = counted(monkeypatch)["runs"]
    assert outcome(F, seed, N, "probe") == outcome(F, seed, N, "exact")
    assert len(hit) == 1
    assert (PP, 48, False) in started
    assert not any(p == PP and grown for p, _, grown in started)
    assert any(p != PP and n == 96 and not grown
               for p, n, grown in started)


@pytest.mark.parametrize("ceiling, N", [(63, 8), (64, 6)])
def test_lane_growth_stops_at_the_ceiling(monkeypatch, ceiling, N):
    # a 32-lane start pool holds fits of 16 points; c_4 needs 20, so the
    # pool grows to 64 lanes, which a ceiling of 63 refuses
    monkeypatch.setattr(P, "_START_LANES", 32)
    monkeypatch.setattr(P, "_MAX_LANES", ceiling)
    F, seed = qp2()[:2]
    if ceiling < 64:
        with pytest.raises(EngineError, match="lane escalation exhausted"):
            P.solve(F, seed, N)
    else:
        assert outcome(F, seed, N, "probe") == outcome(F, seed, N, "exact")


def test_probe_domain_sum_matches_folded_add():
    rng = np.random.default_rng(11)
    dom = make_domain("probe", 64, 11)
    for k in range(6):
        terms = [rng.integers(0, MP, size=dom.n, dtype=np.int64)
                 for _ in range(k)]
        # the largest residue, so the plain int64 sum passes p
        terms.append(np.full(dom.n, MP - 1, dtype=np.int64))
        for some in (terms[:-1], terms):
            want = reduce(lambda a, b: (a + b) % MP, some, dom.zero())
            assert (dom.sum(some) == want).all()


# -- the coefficient-domain protocol ---------------------------------------

_PROTOCOL = {"name", "from_ratq", "zero", "zeros", "is_zero", "sub", "div",
             "shift", "mul_term", "sum", "series_mul"}


def _public(cls):
    return {n for n in dir(cls) if not n.startswith("_")}


def test_domains_expose_one_protocol():
    assert _public(ExactDomain) == _PROTOCOL
    # the probe engine's own, used outside the solve loop
    assert _public(P.ProbeDomain) - {"qpow"} == _PROTOCOL


ratq_maybe_zero = st.builds(lambda r, k: r.shift_q(k), ratq_any,
                            st.integers(-12, 12))


@settings(max_examples=150, **COMMON)
@given(ratq_maybe_zero, ratq_shifted, st.integers(-30, 30), st.integers(0, 2))
def test_probe_domain_conforms_to_exact(a, b, e, lo):
    ex = ExactDomain()
    dom = make_domain("probe", 48, 5)

    def same(got, want):
        assert (got == dom.from_ratq(want)).all()

    pa, pb = dom.from_ratq(a), dom.from_ratq(b)
    same(dom.shift(pa, e), ex.shift(a, e))
    same(dom.sub(pa, pb), ex.sub(a, b))
    same(dom.div(pa, pb), ex.div(a, b))
    pairs = [(a, b), (b, b), (a.shift_q(e), b)]
    same(dom.sum([dom.mul_term(dom.from_ratq(x), dom.from_ratq(y))
                  for x, y in pairs]),
         ex.sum([ex.mul_term(x, y) for x, y in pairs]))
    assert dom.is_zero(dom.sub(pa, pa)) and ex.is_zero(ex.sub(a, a))
    assert dom.is_zero(dom.zero()) and ex.is_zero(ex.zero())
    sa, sb = [a, b, a.shift_q(e)], [b, ex.zero(), a]
    got = dom.series_mul(np.array([dom.from_ratq(x) for x in sa]),
                         np.array([dom.from_ratq(x) for x in sb]), lo, 3)
    want = ex.series_mul(sa, sb, lo, 3)
    assert len(got) == len(want) == 3 - lo
    for g, w in zip(got, want):
        same(g, w)
    assert dom.zeros(4).shape == (4, dom.n) and ex.zeros(4) == [0] * 4


@settings(max_examples=100, **COMMON)
@given(st.lists(ratq_maybe_zero, min_size=1, max_size=5),
       st.sampled_from([101, MP]))
def test_stacked_from_ratq_matches_one_by_one(values, p):
    # the probe check converts all coefficients at once; each value, and
    # a pole at any lane (frequent mod 101), must be what one conversion
    # at a time gives
    dom = P.ProbeDomain(p, P._lane_points(p, 48, random.Random(5)))

    def converted(convert):
        try:
            return np.array(convert())
        except P._Pole:
            return None

    rows = converted(lambda: [dom.from_ratq(v) for v in values])
    stacked = converted(lambda: P._from_ratqs(dom, values))
    assert (rows is None) == (stacked is None)
    assert rows is None or (stacked == rows).all()


# -- whole solves: exact against probe -------------------------------------


@settings(max_examples=30, **COMMON)
@given(seeded_equations())
def test_exact_and_probe_solves_agree(problem):
    F, seed, N = problem
    assert outcome(F, seed, N, "exact") == outcome(F, seed, N, "probe")


@settings(max_examples=30, **COMMON)
@given(seeded_equations(), st.data())
def test_probe_check_agrees_with_the_exact_check(problem, data):
    # on the exact answer and on a copy with one coefficient perturbed,
    # which moves V off phi.trunc; _probes.check is called itself, so an
    # EngineError fails the test instead of rerunning exact
    F, seed, N = problem
    got = outcome(F, seed, N, "exact")  # on an error, the seed clears 0..k
    coeffs = list(seed if isinstance(got, type) else got[0])
    bad = list(coeffs)
    i = data.draw(st.integers(0, len(bad) - 1))
    bad[i] = bad[i] + data.draw(ratq_nonzero)
    for cs in (coeffs, bad):
        want = check_solution(F, TruncSeries(cs), mode="exact")
        assert P.check(F, TruncSeries(cs)) == want
