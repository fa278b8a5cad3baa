"""Exact q-rational arithmetic: kernel and public value types."""

import math
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeq import _intpoly as K
from qdeq.errors import DivisionByZero
from qdeq.nonlinear import QdeqPoly
from qdeq.ratfunc import (
    NEG_INF,
    POS_INF,
    Q,
    QLaurent,
    RatQ,
    _mul_unreduced,
    pochhammer,
    ratq_sum,
)
from qdeq.series import XPoly
from qdeq.skewop import SkewOp
from test_properties import _dense_add, _imul, _layout


# ---------------------------------------------------------------------------
# integer-polynomial kernel


def test_kernel_basics():
    assert K.trim([1, 2, 0, 0]) == [1, 2]
    assert K.trim([0, 0]) == []
    assert K.low([0, 0, 5]) == 2
    assert K.add([1, 2], [3, -2]) == [4]
    assert K.mul([1, 1], [-1, 1]) == [-1, 0, 1]
    assert K.mul([], [1, 2]) == []
    assert K.content([6, -9, 12]) == 3
    assert K.unit_normal([6, -9, 12]) == (3, [2, -3, 4])
    assert K.unit_normal([-6, -9]) == (-3, [2, 3])
    assert K.unit_normal([0, 5, -1]) == (-1, [0, -5, 1])


def _primitive(a):
    """a over the gcd of its coefficients, sign kept; [] for zero."""
    c = reduce(math.gcd, a, 0)
    return [x // c for x in a] if c else []


def _positive(a):
    """a or -a, whichever has a positive lead."""
    return [-c for c in a] if a and a[-1] < 0 else a


def test_kernel_mul_kronecker_agrees_with_schoolbook():
    rng = random.Random(7)
    for _ in range(20):
        a = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 200))]
        b = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 200))]
        assert K.trim(K._kron_mul(a, b)) == K.trim(K._school_mul(a, b))


def _naive_mul(a, b):
    """The plain double-loop convolution, trimmed."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return K.trim(out)


def _school_divexact(a, b):
    """a/b over Z by the plain low-end division loop; ValueError when b
    does not divide a."""
    oa, ob = K.low(a), K.low(b)
    A, B = a[oa:], b[ob:]
    if oa < ob or len(A) < len(B):
        raise ValueError("not divisible")
    r, q = list(A), [0] * (len(A) - len(B) + 1)
    for k in range(len(q)):
        q[k], rem = divmod(r[k], B[0])
        if rem:
            raise ValueError("not divisible")
        for j, d in enumerate(B):
            r[k + j] -= q[k] * d
    if any(r):
        raise ValueError("not divisible")
    return K.shift(K.trim(q), oa - ob)


def _prs_gcd(a, b):
    """The primitive gcd of a and b by a primitive remainder sequence: an
    independent reference for the kernel's gcd, fine for small operands."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        dv, lv = len(b) - 1, b[-1]
        r = list(a)
        while len(r) > dv:
            dr, lead = len(r) - 1, r[-1]
            r = [lv * c for c in r[:-1]]
            for i in range(dv):
                r[dr - dv + i] -= lead * b[i]
            K.trim(r)
        a, b = b, _primitive(r)
    return _positive(a)


nonzero = st.one_of(st.integers(-9, 9),
                    st.integers(-2 ** 80, 2 ** 80)).filter(bool)


def _add_ref(a, b):
    """K.add's reference: a per-index loop, then the trailing zeros go."""
    out = [0] * max(len(a), len(b))
    for p in (a, b):
        for i, c in enumerate(p):
            out[i] += c
    return K.trim(out)


trimmed = st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12).map(K.trim)


@settings(max_examples=250, deadline=None)
@given(trimmed, trimmed, st.sampled_from(("drawn", "negated", "top cancels")),
       st.booleans())
def test_kernel_add_matches_loop(a, b, case, swap):
    if case == "negated":
        b = [-c for c in a]
    elif case == "top cancels" and a:
        # b below a's top terms, then a's top terms negated
        b = b[:len(a) - 1]
        b = b + [-c for c in a[len(b):]]
    if swap:
        a, b = b, a
    a0, b0 = list(a), list(b)
    got = K.add(a, b)
    assert got == _add_ref(a, b)
    assert (a, b) == (a0, b0)  # the operands are not mutated
    assert not got or got[-1]  # the sum is trimmed
    if case == "negated":
        assert got == []
    elif case == "top cancels" and a and b:
        assert len(got) < max(len(a), len(b))


def binomials(kmin):
    """+-1 +- c*q^k with kmin <= k <= 300: a Pochhammer product's factor."""
    return st.builds(lambda s, c, k: [s] + [0] * (k - 1) + [c],
                     st.sampled_from((1, -1)), nonzero, st.integers(kmin, 300))


# nonzero terms separated by zero runs of up to 80
sparse_polys = st.lists(st.tuples(st.integers(0, 80), nonzero),
                        min_size=1, max_size=8).map(
    lambda runs: [x for gap, c in runs for x in [0] * gap + [c]])


def dense_polys(lo, hi):
    return st.lists(nonzero, min_size=lo, max_size=hi)


any_polys = st.one_of(binomials(1), sparse_polys, dense_polys(1, 120))


@settings(max_examples=150, deadline=None)
@given(any_polys, any_polys)
def test_kernel_mul_matches_convolution(a, b):
    want = _naive_mul(a, b)
    assert K.trim(K._school_mul(a, b)) == want
    assert K.mul(a, b) == want == K.mul(b, a)


@settings(max_examples=40, deadline=None)
@given(dense_polys(100, 160), st.one_of(binomials(1), sparse_polys),
       st.booleans())
def test_kernel_mul_dense_by_sparse(a, b, swap):
    if swap:
        a, b = b, a
    want = _naive_mul(a, b)
    assert K.trim(K._school_mul(a, b)) == want
    assert K.mul(a, b) == want


# 4 to 8 terms, each after a zero run of 20 to 80: a 16th dense or less
spread_polys = st.lists(st.tuples(st.integers(20, 80), nonzero),
                        min_size=4, max_size=8).map(
    lambda runs: [x for gap, c in runs for x in [0] * gap + [c]])

# operand pairs for each branch of K.mul, and the routine it should call
MUL_BRANCHES = {
    "school by size": (st.tuples(dense_polys(2, 16), dense_polys(2, 16)),
                       "_school_mul"),
    "school by few terms": (st.tuples(dense_polys(90, 200),
                                      st.one_of(binomials(1),
                                                dense_polys(3, 3))),
                            "_school_mul"),
    "school by sparsity": (st.tuples(dense_polys(100, 200), spread_polys),
                           "_school_mul"),
    "kronecker": (st.tuples(dense_polys(17, 150), dense_polys(17, 150)),
                  "_kron_mul"),
}


@pytest.mark.parametrize("branch", sorted(MUL_BRANCHES))
def test_kernel_mul_branches(branch):
    pairs, routine = MUL_BRANCHES[branch]

    @settings(max_examples=25, deadline=None)
    @given(pairs)
    def check(pair):
        a, b = pair
        with mock.patch.object(K, "_school_mul", wraps=K._school_mul) as school, \
                mock.patch.object(K, "_kron_mul", wraps=K._kron_mul) as kron:
            got = K.mul(a, b), K.mul(b, a)
        called = [name for name, spy in (("_school_mul", school),
                                         ("_kron_mul", kron)) if spy.called]
        assert called == [routine]
        assert got == (_naive_mul(a, b),) * 2

    check()


def test_kernel_kronecker_negative_coefficients():
    assert K._kron_mul([-5, 3], [7, -2]) == [-35, 31, -6]


def _bytes_pack(a, nbytes):
    """_pack's reference: the byte-string packing it replaced."""
    pos = b"".join((c if c > 0 else 0).to_bytes(nbytes, "little") for c in a)
    val = int.from_bytes(pos, "little")
    if any(c < 0 for c in a):
        negb = b"".join((-c if c < 0 else 0).to_bytes(nbytes, "little")
                        for c in a)
        val -= int.from_bytes(negb, "little")
    return val


def _bytes_unpack(v, nbytes):
    """_unpack's reference: every digit offset by half the base, so the
    digits are v's bytes read with no carries."""
    half = 1 << (8 * nbytes - 1)
    n = (v.bit_length() + 1) // (8 * nbytes) + 1
    v += int.from_bytes(half.to_bytes(nbytes, "little") * n, "little")
    raw = v.to_bytes(nbytes * n, "little")
    return K.trim([int.from_bytes(raw[i:i + nbytes], "little") - half
                   for i in range(0, nbytes * n, nbytes)])


@st.composite
def _pack_operands(draw):
    """(a, nbytes): 0..5,000 coefficients of up to 80 bits, so lists
    within one leaf and past several halvings, with a zero run of any
    length, a negative lead half the time, and slots of up to 2 bytes
    more than the coefficients need."""
    n = draw(st.one_of(st.integers(0, 70), st.integers(0, 5000)))
    bits = draw(st.sampled_from((1, 4, 31, 80)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
    start = draw(st.integers(0, n))
    stop = draw(st.integers(start, n))
    a[start:stop] = [0] * (stop - start)
    if a and draw(st.booleans()):
        a[-1] = -abs(a[-1]) or -1
    return a, (bits + 9 >> 3) + draw(st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(_pack_operands(), st.integers(-3, 3))
def test_kernel_pack_matches_bytes(ops, m):
    a, nbytes = ops
    v = K._pack(a, nbytes)
    assert v == _bytes_pack(a, nbytes) == K._pack(tuple(a), nbytes)
    assert K._unpack(v, nbytes) == K.trim(list(a))
    # the digits of any integer, not only of a packed list
    w = v * m + m
    assert K._unpack(w, nbytes) == _bytes_unpack(w, nbytes)


def test_kernel_divexact():
    assert K.divexact([-1, 0, 1], [1, 1]) == [-1, 1]
    assert K.divexact([0, -1, 0, 1], [0, 1]) == [-1, 0, 1]
    with pytest.raises(ValueError):
        K.divexact([1, 0, 1], [1, 1])
    with pytest.raises(ValueError):
        K.divexact([1, 1], [0, 1])
    rng = random.Random(3)
    for _ in range(20):
        a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 30))]
        b = [rng.randint(-50, 50) for _ in range(rng.randint(1, 30))]
        K.trim(a)
        K.trim(b)
        if not a or not b:
            continue
        assert K.divexact(K.mul(a, b), b) == a


@st.composite
def _div_factor(draw, lo, hi):
    """lo..hi nonzero coefficients from a seeded generator, a drawn share
    of them 80-bit and the rest single digits, and one zero run of up to
    80 between the constant term and the lead."""
    n = draw(st.integers(lo, hi))
    wide = draw(st.sampled_from((0.0, 0.5, 1.0)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = [rng.choice((-1, 1)) * rng.randint(1, 2 ** 80 if rng.random() < wide
                                           else 9) for _ in range(n)]
    start = draw(st.integers(1, max(n - 1, 1)))
    stop = min(draw(st.integers(start, start + 80)), n - 1)
    a[start:stop] = [0] * (stop - start)
    return a


@st.composite
def _div_operands(draw, side):
    """(a, b, q): b = x^j * f and a = x^i * q * b, i, j in 0..3, with q and
    f on one side of divexact's Kronecker crossover (len(q)*len(f) > 4096);
    half the time a is bumped at one coefficient and q is None, which
    makes most of those pairs non-divisors."""
    lo, hi = (1, 60) if side == "school" else (65, 110)
    q = draw(_div_factor(lo, hi))
    f = draw(_div_factor(lo, hi))
    j = draw(st.integers(0, 3))
    b = K.shift(f, j)
    a = K.shift(K.mul(q, f), j + draw(st.integers(0, 3)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(a) - 1))
        a[i] += draw(st.sampled_from((1, -1, 2 ** 80 + 1)))
        a = K.trim(a)
        q = None
    return a, b, q


@pytest.mark.parametrize("side", ["school", "kronecker"])
def test_kernel_divexact_matches_schoolbook(side):
    @settings(max_examples=120, deadline=None)
    @given(_div_operands(side))
    def check(ops):
        a, b, q = ops
        try:
            want = _school_divexact(a, b)
        except ValueError:
            want = None
        with mock.patch.object(K, "_pack", wraps=K._pack) as pack:
            if want is None:
                with pytest.raises(ValueError):
                    K.divexact(a, b)
            else:
                assert K.divexact(a, b) == want
        # (a bumped operand may fail the low-order check before either)
        if side == "school" or q is not None:
            assert pack.called == (side == "kronecker")
        if q is not None:
            assert want == K.shift(q, K.low(a) - K.low(b))

    check()


@settings(max_examples=250, deadline=None)
@given(st.one_of(_div_factor(1, 60), _div_factor(65, 200)),
       st.integers(1, 300), st.integers(0, 3),
       st.one_of(st.none(), st.tuples(st.integers(0, 10 ** 6),
                                      st.sampled_from((1, -1, 2 ** 80 + 1)))))
def test_kernel_div_binomial_matches_divexact(f, m, j, bump):
    # a = x^j * f * (1 - x^m); bumped at one coefficient it is no multiple
    # of 1 - x^m, which vanishes at x = 1 where the bump does not
    want = K.shift(f, j)
    binomial = [1] + [0] * (m - 1) + [-1]
    a = K.mul(want, binomial)
    if bump is not None:
        i, e = bump
        a[i % len(a)] += e
        a = K.trim(a)
    before = list(a)
    if bump is None:
        assert K.div_binomial(a, m) == want == K.divexact(a, binomial)
    else:
        with pytest.raises(ValueError):
            K.div_binomial(a, m)
        with pytest.raises(ValueError):
            K.divexact(a, binomial)
    assert a == before


def test_kernel_div_binomial_edges():
    assert K.div_binomial([], 4) == []
    assert K.div_binomial([1, 0, 0, -1], 3) == [1]
    for a, m in (([1], 1), ([1, 1], 1), ([0, 0, 1], 5), ([1, -1], 2)):
        with pytest.raises(ValueError):
            K.div_binomial(a, m)
    with pytest.raises(ValueError):
        K.div_binomial([1, -1], 0)  # 1 - x^0 is zero, not a binomial


def test_kernel_quotients_wider_than_the_operands():
    # (x^n - 1)^2 / (x - 1)^2 = (1 + x + ... + x^(n-1))^2 has coefficients
    # up to n, the operands none above 2: the first xi is too narrow for
    # the quotient's digits, so the proof fails and a wider xi is tried
    def check(call, want):
        with mock.patch.object(K, "_read_quotient",
                               wraps=K._read_quotient) as read:
            assert call() == want
        nbytes = [c.args[3] for c in read.call_args_list]
        assert nbytes[0] == 1 and max(nbytes) > 1

    n = 700  # 3 * (2n - 1) limb products: above divexact's crossover
    ones2 = _naive_mul([1] * n, [1] * n)
    a = [1] + [0] * (n - 1) + [-2] + [0] * (n - 1) + [1]
    check(lambda: K.divexact(a, [1, -2, 1]), ones2)
    check(lambda: K.gcd(a, [2, -3, 0, 1]), ([1, -2, 1], ones2, [2, 1]))


def test_kernel_gcd_values():
    assert K.gcd([-1, 0, 1], [1, -2, 1]) == ([-1, 1], [1, 1], [-1, 1])
    assert K.gcd([0, 0, -1, 1], [0, 0, 1]) == ([0, 0, 1], [-1, 1], [1])
    assert K.gcd([2, 2], [4]) == ([1], [2, 2], [4])
    assert K.gcd([], [3, -6]) == ([-1, 2], [], [-3])
    assert K.gcd([-2, 1], []) == ([-2, 1], [1], [])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 80, 2 ** 80), max_size=12), nonzero,
       st.sampled_from((1, -1, 6, -2 ** 40 - 3, 2 ** 80 + 1)))
def test_kernel_unit_normal(body, lead, scale):
    # c carries the content and the lead's sign; a/c is primitive with a
    # positive lead
    a = K.scal(body + [lead], scale)
    c, p = K.unit_normal(a)
    assert p[-1] > 0 and K.content(p) == 1
    assert K.scal(p, c) == a
    assert (c < 0) == (a[-1] < 0)


def test_kernel_gcd_prs_vs_modular():
    rng = random.Random(11)
    for _ in range(10):
        g = [rng.randint(-9, 9) for _ in range(6)] + [1]
        a = K.mul(g, [rng.randint(-9, 9) for _ in range(5)] + [1])
        b = K.mul(g, [rng.randint(-9, 9) for _ in range(4)] + [1])
        if a[0] == 0 or b[0] == 0:
            continue
        pa, pb = _primitive(a), _primitive(b)
        g1 = _prs_gcd(pa, pb)
        g2, qa, qb = K._modular_gcd(list(pa), list(pb))
        assert g1 == g2
        assert qa == K.divexact(pa, g1) and qb == K.divexact(pb, g1)


def test_kernel_gcd_large_coefficients():
    # degree 35 and 27-bit coefficients with a planted factor
    rng = random.Random(5)
    g = [rng.randint(-10**8, 10**8) for _ in range(20)] + [1]
    while g[0] == 0:
        g[0] = rng.randint(-10**8, 10**8)
    u = [rng.randint(-10**8, 10**8) for _ in range(15)] + [1]
    v = [rng.randint(-10**8, 10**8) for _ in range(14)] + [3]
    a, b = K.mul(g, u), K.mul(g, v)
    got, qa, qb = K.gcd(a, b)
    # u and v are coprime with overwhelming likelihood, so gcd == +-g
    assert got == _positive(_primitive(g))
    assert K.mul(got, qa) == a and K.mul(got, qb) == b


@st.composite
def _gcd_factor(draw, lo, hi):
    """lo..hi coefficients, small or 80-bit, the constant term and the
    lead nonzero, and one zero run that may span all between them."""
    n = draw(st.integers(lo, hi))
    a = draw(st.lists(nonzero, min_size=n, max_size=n))
    start = draw(st.integers(1, max(n - 1, 1)))
    stop = min(draw(st.integers(start, start + 30)), n - 1)
    a[start:stop] = [0] * (stop - start)
    return a


@st.composite
def _gcd_operands(draw):
    """(a, b) = (s c x^i g u, t d x^j g v): a planted common factor g,
    cofactors u, v, signs, contents and x-powers of their own, and now
    and then a zero operand.  The primitive parts stay within 24
    coefficients or pass them in a."""
    if draw(st.booleans()):
        g = draw(_gcd_factor(1, 12))
        u = draw(_gcd_factor(1, 25 - len(g)))
        v = draw(_gcd_factor(1, 25 - len(g)))
    else:
        g = draw(_gcd_factor(1, 16))
        u = draw(_gcd_factor(26 - len(g), 34 - len(g)))
        v = draw(_gcd_factor(2, 24))
    ops = []
    for f in (u, v):
        scale = draw(st.sampled_from((1, -1, 6, -2 ** 40 - 3)))
        ops.append(K.shift(K.scal(K.mul(g, f), scale),
                           draw(st.integers(0, 3))))
    zero = draw(st.sampled_from((None,) * 8 + (0, 1)))
    if zero is not None:
        ops[zero] = []
    return ops


# how _heu_gcd is patched: the evaluation gcd itself, or one that fails
GCD_PATHS = {"heuristic": {"wraps": K._heu_gcd},
             "fallback": {"return_value": None}}


@pytest.mark.parametrize("path", sorted(GCD_PATHS))
def test_kernel_gcd_cofactors(path):
    @settings(max_examples=120, deadline=None)
    @given(_gcd_operands())
    def check(ops):
        a, b = ops
        with mock.patch.object(K, "_heu_gcd", **GCD_PATHS[path]), \
                mock.patch.object(K, "_modular_gcd",
                                  wraps=K._modular_gcd) as modular:
            g, qa, qb = K.gcd(a, b)
        assert K.mul(g, qa) == a and K.mul(g, qb) == b
        assert g == _prs_gcd(a, b)
        assert g[-1] > 0 and K.content(g) == 1
        # both primitive parts non-constant: the only case either path runs
        nonconstant = all(f and len(f) - K.low(f) > 1 for f in (a, b))
        assert modular.called == (path == "fallback" and nonconstant)

    check()


def _wrong_inverse_join(xs, M, ys, p):
    """crt_join with a wrong inverse of M mod p: its images never settle."""
    inv = pow(M % p, p - 3, p)
    return [x + M * ((y - x) % p * inv % p) for x, y in zip(xs, ys)]


def test_kernel_modular_gcd_prime_budget():
    # an 80-bit coefficient, so the gcd needs several primes to settle
    g = [7, -3, 2 ** 80 + 1, 5, 1]
    a, b = K.mul(g, [2, 9, -4, 1]), K.mul(g, [-6, 1, 1])
    assert K._modular_gcd(a, b) == (g, [2, 9, -4, 1], [-6, 1, 1])
    t0 = time.perf_counter()
    with mock.patch.object(K, "crt_join", _wrong_inverse_join), \
            pytest.raises(RuntimeError, match="prime budget"):
        K._modular_gcd(a, b)
    assert time.perf_counter() - t0 < 5


def test_kernel_primes():
    it = K.primes_31()
    ps = [next(it) for _ in range(5)]
    assert ps == sorted(ps, reverse=True)
    assert all(p > 1 << 30 for p in ps)
    assert all(K._is_prime(p) for p in ps)
    assert not K._is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


def test_kernel_probe_primes():
    # a fresh cache: the first call searches, the second replays it
    with mock.patch.object(K, "_PRIMES_29", []), \
            mock.patch.object(K, "_is_prime", wraps=K._is_prime) as tested:
        first = list(islice(K.primes_29(), 40))
        searched = tested.call_count
        assert list(islice(K.primes_29(), 40)) == first
        assert tested.call_count == searched
    assert first == sorted(set(first), reverse=True)
    assert all(p < 1 << 29 and p % 4096 == 1 for p in first)
    assert all(K._is_prime(p) for p in first)
    # every p = 1 (mod 4096) between two found primes is composite
    between = range(first[-1] + 4096, first[0], 4096)
    assert sum(map(K._is_prime, between)) == len(first) - 2


def test_kernel_modular_gcd_draws_primes_31():
    g = [7, -3, 2 ** 80 + 1, 5, 1]
    a, b = K.mul(g, [2, 9, -4, 1]), K.mul(g, [-6, 1, 1])
    with mock.patch.object(K, "primes_31", wraps=K.primes_31) as p31, \
            mock.patch.object(K, "primes_29", side_effect=AssertionError):
        assert K._modular_gcd(a, b)[0] == g
    assert p31.called


def test_kernel_eval_mod_vector():
    import numpy as np

    from qdeq._probes import _power_table, _stack, eval_many_mod

    p = next(K.primes_31())
    a = [3, -1, 0, 7, 2]
    xs = np.array([0, 1, 5, 12345, p - 1], dtype=np.int64)
    X = _power_table(np.stack((np.ones_like(xs), xs)), 1, p)  # x^0, x^1
    got = eval_many_mod(_stack([[c % p for c in a]]), X, p)[0]
    for x, g in zip(xs, got):
        assert int(g) == K.eval_mod(a, int(x), p)


# ---------------------------------------------------------------------------
# RatQ.from_ints and the dense num/den records


def test_from_ints_canonical_form():
    # q^v * n/(s*d) from integer lists: the scalar content meets s, low
    # zeros move into v, n/d is reduced and d made primitive with a
    # positive lead
    assert _layout(RatQ.from_ints((2, 4), 6)) == (0, (1, 2), 3, (1,))
    assert RatQ.from_ints((1, 2, 0)).n == (1, 2)
    assert RatQ.from_ints((1,), -2) == RatQ.from_ints((-1,), 2)
    # q^3 * (q^3 - q) / (2 * -2q^2(1 + q)) = q^2 (1 - q)/4
    r = RatQ.from_ints((0, -1, 0, 1), 2, (0, 0, -2, -2), 3)
    assert _layout(r) == (2, (1, -1), 4, (1,))
    assert _layout(RatQ.from_ints((0, 0))) == _layout(RatQ(0))
    assert _layout(RatQ.from_ints((0, 0), 5, (3,), 7)) == (0, (), 1, (1,))
    for bad in (lambda: RatQ.from_ints((1,), 0),
                lambda: RatQ.from_ints((1,), 1, (0, 0)),
                lambda: RatQ.from_ints((1,), 1, ())):
        with pytest.raises(DivisionByZero):
            bad()
    # the constants of from_ints are those of RatQ(int or Fraction)
    for c in (0, 5, -7, Fraction(3, 4), Fraction(-6, 4), Fraction(1, 12)):
        x = Fraction(c)
        r = RatQ.from_ints((x.numerator,), x.denominator)
        assert r == RatQ(c) and _layout(r) == _layout(RatQ(c))
        assert r == c and hash(r) == hash(c)
    # q^v moves into v alone
    for n, s, d, v in (((0, 2, 4), -6, (0, -3, 3), 2), ((1,), 1, (1,), -5),
                       ((3, 0, 1), 4, (2, 2), 40), ((0, 0, 1), 1, (0, 1), 0)):
        r = RatQ.from_ints(n, s, d, v)
        assert r.shift_q(-v) == RatQ.from_ints(n, s, d)
        assert r.ord_q == RatQ.from_ints(n, s, d).ord_q + v


def test_num_den_are_the_dense_reduced_pair():
    # the records hold what the benchmark's checks read: an integer tuple
    # with no trailing zero, over a scalar prime to its content
    r = RatQ.from_ints((2, 4), 6)
    assert r.num == ((1, 2), 3)
    assert (r.num.ints, r.num.den) == ((1, 2), 3)
    assert r.den == ((1,), 1)
    q2 = RatQ.from_ints((1, 1), 2, v=-2)  # (1 + q)/(2 q^2)
    assert q2.num == ((1, 1), 2) and q2.den == ((0, 0, 1), 1)
    assert RatQ.from_ints((1,), v=3).num == ((0, 0, 0, 1), 1)
    assert RatQ(0).num == ((), 1) and RatQ(0).den == ((1,), 1)
    for rec in (r.num, q2.den):
        assert type(rec.ints) is tuple and type(rec.den) is int
        with pytest.raises(AttributeError):  # read-only
            rec.ints = (1,)
    # a record is not a value of Q(q): no polynomial arithmetic, and no
    # record equals a number
    assert RatQ(1).num != 1 and RatQ(1).num != RatQ(1)
    for bad in (lambda: r.num - r.num, lambda: r.num ** 2, lambda: -r.num,
                lambda: r.num / r.den):
        with pytest.raises(TypeError):
            bad()
    assert not hasattr(r.num, "eval") and not hasattr(r.num, "is_zero")


@pytest.mark.parametrize("make", [
    lambda: RatQ.from_ints([Fraction(1, 2), 3]),
    lambda: RatQ.from_ints([0.9]),
    lambda: RatQ.from_ints([0.5]),
    lambda: RatQ.from_ints([1], Fraction(1, 2)),
    lambda: RatQ.from_ints([1], d=[2.0]),
    lambda: RatQ.from_ints([1], v=1.0),
    lambda: RatQ(0.5),
    lambda: XPoly({2.5: 1}),
    lambda: QdeqPoly({(1.9, ((0, 1),)): 1}),
    lambda: SkewOp({1.5: XPoly({0: 1})}),
], ids=["from-ints-coeff", "from-ints-float", "from-ints-half",
        "from-ints-scalar", "from-ints-den", "from-ints-v", "ratq-float",
        "xpoly-exponent", "qdeqpoly-x-exponent", "skewop-index"])
def test_constructors_take_exact_integers_only(make):
    # exponents, indices, coefficients and denominators are exact
    # integers: a float or a Fraction raises rather than truncates
    with pytest.raises(TypeError):
        make()


def test_constructors_take_numpy_ints_and_bools():
    import numpy as np
    got = RatQ.from_ints([np.int64(3), True], np.int64(2), [np.int8(1)],
                         np.int32(-1))
    assert got == RatQ.from_ints([3, 1], 2, v=-1)
    assert all(type(c) is int for c in (got.v, got.s, *got.n, *got.d))
    assert XPoly({np.int64(2): 1}) == XPoly({2: 1})
    assert SkewOp({np.int32(1): XPoly({True: 1})}) == SkewOp(
        {1: XPoly({1: 1})})
    assert QdeqPoly({(np.int64(1), ((np.int8(0), True),)): 1}) == QdeqPoly(
        {(1, ((0, 1),)): 1})
    assert QLaurent(1, np.int64(2)) == QLaurent(1, 2)


def test_qpoly_left_the_package():
    import qdeq
    from qdeq import ratfunc

    assert "QPoly" not in qdeq.__all__
    for module in (qdeq, ratfunc):
        with pytest.raises(AttributeError):
            module.QPoly


# ---------------------------------------------------------------------------
# QLaurent


def test_qlaurent_normalizes_shift():
    l = QLaurent(RatQ.from_ints((0, 1, 1)), -3)
    assert l.terms() == [(-2, 1), (-1, 1)]
    assert l.deg_q == -1
    assert l.ord_q == -2
    z = QLaurent(RatQ.from_ints(()), 5)
    assert z.is_zero() and z.terms() == [] and z == RatQ(0)
    assert z.deg_q is NEG_INF and z.ord_q is POS_INF


def test_qlaurent_arith():
    qinv = QLaurent.q_power(-1)
    qq = QLaurent.q_power(1)
    s = qinv + qq
    assert type(s) is RatQ  # arithmetic leaves the print form behind
    assert s.ord_q == -1 and s.deg_q == 1
    assert QLaurent(s).terms() == [(-1, 1), (1, 1)]
    assert (qq * qinv) == QLaurent.q_power(0)
    cube = qinv ** 3
    assert cube.ord_q == cube.deg_q == -3
    assert cube.to_ratq() == RatQ(1) / RatQ.from_ints((0, 0, 0, 1))
    assert (s - s).is_zero()
    assert qq.terms() == [(1, 1)]


def test_qlaurent_to_ratq():
    l = QLaurent(RatQ.from_ints((1, 1)), -2)
    r = l.to_ratq()
    assert type(r) is RatQ and r == l
    assert r.to_text() == "(q+1)/q^2"
    assert r.ord_q == -2 and r.deg_q == -1
    assert r.num == ((1, 1), 1)
    assert r.den == ((0, 0, 1), 1)
    assert QLaurent(RatQ.from_ints((1, 1)), 2).to_ratq() == RatQ.from_ints(
        (0, 0, 1, 1))


def test_qlaurent_text():
    assert QLaurent(RatQ.from_ints((1, -1, 1)), -1).to_text() == "q-1+q^-1"
    assert QLaurent(RatQ.from_ints((1,), 2), -2).to_text() == "1/2*q^-2"
    assert QLaurent(RatQ.from_ints(())).to_text() == "0"
    v = Q - 1 + 1 / Q
    assert v.to_text() == "(q^2-q+1)/q"
    assert QLaurent(v).to_text() == "q-1+q^-1"
    with pytest.raises(ValueError):
        QLaurent(1 / (Q + 1))


# ---------------------------------------------------------------------------
# RatQ


def test_ratq_reduces():
    r = RatQ.from_ints((-1, 0, 1), d=(-1, 1))
    assert r == RatQ.from_ints((1, 1))
    assert r.den == ((1,), 1)


def test_ratq_den_primitive_positive_leading():
    r = RatQ.from_ints((1,), d=(-2, 0, 4))
    assert r.num == ((1,), 2)
    assert r.den == ((-1, 0, 2), 1)
    r2 = RatQ.from_ints((1,), d=(1, -1))
    assert r2.den == ((-1, 1), 1)
    assert r2.num == ((-1,), 1)
    # rational scalar content lives in the numerator
    r3 = RatQ.from_ints((1, 2), 3)
    assert r3.num == ((1, 2), 3) and r3.den == ((1,), 1)
    assert r3 == RatQ.from_ints((1, 2)) / 3


def test_ratq_zero_is_0_over_1():
    z = RatQ.from_ints((), d=(5, 3))
    assert z.is_zero()
    assert z.den == ((1,), 1)
    assert z == RatQ(0)


def test_ratq_valuations():
    r = RatQ.from_ints((-1, 0, 1), d=(0, 2, 0, 1))  # (q^2-1)/(q^3+2q)
    assert r.deg_q == -1
    assert r.ord_q == -1
    assert RatQ(0).deg_q is NEG_INF
    assert RatQ(0).ord_q is POS_INF
    assert (Q ** 3).deg_q == 3 and (Q ** 3).ord_q == 3
    assert RatQ(5).deg_q == 0 and RatQ(Fraction(1, 3)).ord_q == 0


def test_valuations_additive_on_products():
    a = RatQ.from_ints((-1, 0, 1), d=(0, 2))
    b = RatQ.from_ints((0, 0, 3), d=(1, 1))
    assert (a * b).deg_q == a.deg_q + b.deg_q
    assert (a * b).ord_q == a.ord_q + b.ord_q


def test_ratq_arith():
    one = RatQ(1)
    qm1 = RatQ.from_ints((-1, 1))
    qp1 = RatQ.from_ints((1, 1))
    assert one / qm1 + one / qp1 == RatQ.from_ints((0, 2), d=(-1, 0, 1))
    assert (qm1 / qp1) * (qp1 / qm1) == one
    assert Q / Q == one
    assert (Q ** 2) / Q == Q
    assert Q ** -2 == RatQ.from_ints((1,), d=(0, 0, 1))
    assert qm1 - qm1 == RatQ(0)
    assert 1 - Q == -(Q - 1)
    assert (one + Q) ** 2 == RatQ.from_ints((1, 2, 1))


def test_ratq_division_by_zero():
    with pytest.raises(DivisionByZero):
        RatQ(1) / RatQ(0)
    with pytest.raises(DivisionByZero):
        RatQ.from_ints((1,), d=())
    with pytest.raises(DivisionByZero):
        RatQ(1, Fraction(0))
    with pytest.raises(DivisionByZero):
        RatQ(0) ** -1


def test_ratq_shift_q():
    assert Q.shift_q(-2) == RatQ.from_ints((1,), d=(0, 1))
    assert Q.shift_q(2) == Q ** 3
    assert RatQ(1).shift_q(-1).ord_q == -1
    for k in (2.5, 2.0, "2"):  # q^k for an exact integer k only
        for r in (Q, RatQ(0)):
            with pytest.raises(TypeError):
                r.shift_q(k)


def test_ratq_eval():
    r = RatQ.from_ints((-1, 0, 1), d=(1, 1))  # reduces to q - 1
    assert r.eval(Fraction(2)) == Fraction(1)
    p = RatQ.from_ints((1, 0, 1), 2)  # (1 + q^2)/2: a scalar s = 2
    assert p.eval(Fraction(3)) == Fraction(5)
    assert p.eval(2.0) == pytest.approx(2.5)
    assert RatQ(0).eval(Fraction(7)) == 0
    with pytest.raises(ZeroDivisionError):
        RatQ.from_ints((1,), d=(1, 1)).eval(Fraction(-1))


def test_ratq_text():
    assert RatQ.from_ints((-1, 0, 1), d=(0, 2, 0, 1)).to_text() == "(q^2-1)/(q^3+2*q)"
    assert RatQ(Fraction(3, 4)).to_text() == "3/4"
    assert RatQ.from_ints((1, 2), 3).to_text() == "(2*q+1)/3"
    assert RatQ(0).to_text() == "0"
    assert Q.to_text() == "q"
    assert (Q ** 2 - Q).to_text() == "q^2-q"
    assert (1 / Q).to_text() == "1/q"


def test_ratq_hash_eq():
    a = RatQ.from_ints((-1, 0, 1), d=(-1, 1))
    b = RatQ.from_ints((1, 1))
    assert a == b and hash(a) == hash(b)
    assert RatQ(2) == 2
    assert RatQ(2) != Q
    # a constant equals its int or Fraction, so it hashes as one: a set or
    # a dict key sees them as the same value
    for c in (0, 1, -3, 2 ** 70, Fraction(1, 2), Fraction(-7, 12)):
        for r in (RatQ(c), QLaurent(c), RatQ(c) + Q - Q):
            assert r == c and hash(r) == hash(c)
            assert len({c, r}) == 1 and {r: "x"}[c] == "x"
    assert 3 in {RatQ(3): "x"} and len({1, RatQ(1)}) == 1


def test_ratq_sum_cases():
    assert ratq_sum([]).is_zero()
    one = ratq_sum([QLaurent(RatQ.from_ints((1, 2)), -3)])
    assert type(one) is RatQ and one == (1 + 2 * Q) * Q ** -3
    a = Q / (1 + Q)
    b = 1 / ((1 + Q) * (2 - Q))
    c = Q ** 2 / (1 + 3 * Q ** 2)
    for terms in ([a, a, a],            # identical denominators
                  [a, b, RatQ(Fraction(1, 6))],  # nested, mixed scalars
                  [a, c, -a],           # coprime, cancelling in part
                  [a, -a, b, -b],       # cancels to zero
                  [Q ** -1, 1 - Q ** -1, Fraction(1, 3) * Q]):  # v moves
        got = ratq_sum(terms)
        want = reduce(_dense_add, terms, RatQ(0))
        assert got == want and hash(got) == hash(want)
    assert ratq_sum([Q ** -1, 1 - Q ** -1, Q]).v == 0  # not -1


def _reduced_fold(pairs):
    return reduce(_dense_add, (a * b for a, b in pairs), RatQ(0))


def test_ratq_sum_of_unreduced_products_cases():
    shared = ((1 + Q) / (1 - Q), (1 - Q) / (1 + Q ** 2))
    a = Fraction(3, 2) * Q / (1 + Q)
    b = (1 + Q) ** 2 / (2 - Q)
    for pairs in ([shared],                       # one term, shared factor
                  [(a, b)],                       # one term, (1+q) cancels
                  [(Q ** -2, 1 - Q)],             # one term, nothing to cancel
                  [shared, (a, b), (b, a)],
                  [(a, b), (-a, b)],              # cancels to zero
                  [shared, (a, b), (-a, b), (Q ** 3, shared[1])]):
        got = ratq_sum([_mul_unreduced(x, y) for x, y in pairs])
        assert _layout(got) == _layout(_reduced_fold(pairs))
    unreduced = _mul_unreduced(*shared)
    assert unreduced.d != ratq_sum([unreduced]).d  # 1-q cancels
    assert ratq_sum([_mul_unreduced(a, b), _mul_unreduced(-a, b)]).is_zero()


# primitive factors that numerators and denominators share
SHARED_FACTORS = ((1, 1), (1, -1), (1, 0, 1), (2, -1))


@st.composite
def factored_ratq(draw):
    """c * q^v * product of SHARED_FACTORS^(+-1 or 0)."""
    n, s = [draw(st.integers(-3, 3).filter(bool))], draw(
        st.sampled_from((1, 2, 3)))
    d = [1]
    for f in SHARED_FACTORS:
        k = draw(st.integers(-1, 1))
        if k > 0:
            n = _imul(n, f)
        elif k < 0:
            d = _imul(d, f)
    return RatQ.from_ints(n, s, d, draw(st.integers(-2, 2)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(factored_ratq(), factored_ratq()),
                min_size=1, max_size=5),
       st.sampled_from(("none", "first", "all")))
def test_ratq_sum_of_unreduced_products_matches_fold(pairs, cancel):
    if cancel == "first":
        pairs = pairs + [(-pairs[0][0], pairs[0][1])]
    elif cancel == "all":
        pairs = pairs + [(-x, y) for x, y in pairs]
    got = ratq_sum([_mul_unreduced(x, y) for x, y in pairs])
    want = _reduced_fold(pairs)
    assert _layout(got) == _layout(want)
    assert cancel != "all" or got.is_zero()


@settings(max_examples=200, deadline=None)
@given(factored_ratq(), factored_ratq(),
       st.sampled_from(("a", "b", "both", "neither", "a numerator")))
def test_mul_unreduced_with_unit_denominators(a, b, unit):
    # dropping the denominator gives a factor with d = 1; "a numerator"
    # gives a factor 1/(k*d) instead, whose n is (1,)
    if unit in ("a", "both"):
        a = RatQ.from_ints(*a.num)
    if unit in ("b", "both"):
        b = RatQ.from_ints(*b.num)
    if unit == "a numerator":
        a = RatQ.from_ints((1,), a.s, a.d, a.v)
    t = _mul_unreduced(a, b)
    assert _layout(ratq_sum([t])) == _layout(a * b)
    if a.d == (1,):
        assert t.d is b.d  # a unit factor's partner is not copied
    elif b.d == (1,):
        assert t.d is a.d
    if a.n == (1,):
        assert t.n is b.n  # and its numerator's integers
    elif b.n == (1,):
        assert t.n is a.n


# ---------------------------------------------------------------------------
# sentinels, pochhammer


def test_sentinel_algebra():
    assert NEG_INF < 0 < POS_INF
    assert NEG_INF < POS_INF
    assert not NEG_INF < NEG_INF
    assert -NEG_INF == POS_INF
    assert -POS_INF == NEG_INF
    assert NEG_INF + 3 == NEG_INF
    assert 3 + POS_INF == POS_INF
    assert POS_INF - 7 == POS_INF
    assert max(NEG_INF, 5) == 5
    assert min(POS_INF, 5) == 5


def _pochhammer_ref(a, step, k):
    """(a; q^step)_k taken factor by factor in RatQ, each 1 - a*q^(step*j)
    a reduced RatQ: pochhammer's reference for step 1, and for step -1
    the reference of (a; q^-1)_k = (a*q^(1-k); q)_k."""
    a = RatQ.from_value(a)
    out = RatQ(1)
    for j in range(k):
        out = out * (1 - a.shift_q(step * j))
    return QLaurent(out)


@st.composite
def pochhammer_bases(draw):
    """(kind, a): a monomial or multi-term Laurent polynomial with a
    rational scalar and either sign of v, 0, 1, or a RatQ whose
    denominator is not constant."""
    kind = draw(st.sampled_from(
        ("monomial", "multi-term", "zero", "one", "denominator")))
    if kind == "zero":
        return kind, RatQ(0)
    if kind == "one":
        return kind, RatQ(1)
    # over 1 + c*q a monomial stays unreduced, so the denominator stays
    size = 1 if kind != "multi-term" else draw(st.integers(2, 4))
    body = draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size))
    body[0] = draw(st.integers(-6, 6).filter(bool))
    body[-1] = draw(st.integers(-6, 6).filter(bool))
    s = draw(st.sampled_from((1, 2, 3, 4, 12)))
    den = (1,)
    if kind == "denominator":
        den = (1, draw(st.integers(-3, 3).filter(bool)))
    return kind, RatQ.from_ints(body, s, den, draw(st.integers(-6, 6)))


@settings(max_examples=300, deadline=None)
@given(pochhammer_bases(), st.sampled_from((1, -1)), st.integers(0, 12))
def test_pochhammer_matches_ratq_product(kind_a, step, k):
    kind, a = kind_a
    start = a if step == 1 else a.shift_q(1 - k)
    if kind == "denominator" and k:
        with pytest.raises(ValueError):
            pochhammer(start, "q", k)
        with pytest.raises(ValueError):
            _pochhammer_ref(a, step, k)
        return
    got = pochhammer(start, "q", k)
    assert type(got) is QLaurent
    assert _layout(got) == _layout(_pochhammer_ref(a, step, k))
    if k == 0 or kind == "zero":
        assert got.is_one()
    elif kind == "one":
        assert got.is_zero()  # the factor j = 0 is 1 - 1


def test_pochhammer():
    one = QLaurent(RatQ.from_ints((1,)))
    assert pochhammer(one, "q", 0) == one
    assert pochhammer(QLaurent.q_power(-1), "q", 2).is_zero()
    got = pochhammer(QLaurent.q_power(1), "q", 2)
    assert got == QLaurent(RatQ.from_ints((1, -1, -1, 1)))  # (1-q)(1-q^2)
    # (a; q^-1)_k is (a*q^(1-k); q)_k: (q; q^-1)_2 = (1-q)(1-1) and
    # (q^2; q^-1)_2 = (1-q^2)(1-q)
    assert pochhammer(QLaurent.q_power(0), "q", 2).is_zero()
    assert pochhammer(QLaurent.q_power(2 - 1), "q", 2) == got
    with pytest.raises(ValueError):
        pochhammer(one, "q", -1)
    for base in ("p", "q_inv"):  # the one base is q
        with pytest.raises(ValueError):
            pochhammer(one, base, 1)
