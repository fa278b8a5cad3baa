"""Dense integer-polynomial kernel, in Python ints alone.

Polynomials are plain Python lists of ints, lowest degree first, with no
trailing zeros; [] is the zero polynomial.  This module is the speed
floor of the package.  Its large operations are CPython big-int
arithmetic behind _pack/_unpack, which split a list in halves down to
_LEAF coefficients (evaluate at xi = 2**k, read an integer back as
balanced base-xi digits): mul by Kronecker substitution, divexact by
one big divmod, gcd by the evaluation gcd GCDHEU, each answer proved
exact.  Products with few nonzero pairs or a factor of up to 3 terms
(such as 1 - q^e) run schoolbook, nnz(a)*nnz(b) steps, and small
quotients the low-end division loop; div_binomial divides by 1 - x^m
in running sums.  gcd returns its cofactors with it, (g, a/g, b/g); if
three points fail it runs a modular gcd over primes_31 on
_probes.euclid_mod, the GF(p) Euclid kernel of the probe engine's
rational reconstruction, with CRT lifting by crt_join; only that
fallback imports numpy, as it runs.  The probe engine's primes are
primes_29, below 2**29, and its check's are check_primes, below
3 * 2**27; there lazy_terms products of residues sum in an int64
before one reduction.
unit_normal is the one normalisation by the content: (c, a/c) with c
signed like the lead, so a/c is primitive with a positive lead, the
form of every gcd and RatQ denominator.

Nothing here knows about q, x or fractions; ratfunc builds the public
types on top.  Functions mutate nothing they receive except where noted.
"""

import math
import operator
from itertools import accumulate

_LEAF = 32  # _pack and _unpack split a longer list in halves


def trim(a):
    """Drop trailing zeros in place and return the list."""
    while a and a[-1] == 0:
        a.pop()
    return a


def low(a):
    """Index of the lowest nonzero coefficient; a must be nonzero."""
    i = 0
    while a[i] == 0:
        i += 1
    return i


def add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    out[:len(b)] = map(operator.add, a, b)
    return trim(out)


def scal(a, k):
    if k == 0:
        return []
    return list(a) if k == 1 else [c * k for c in a]


def shift(a, k):
    """Multiply by x**k, k >= 0."""
    if not a:
        return []
    return [0] * k + list(a)


def _school_mul(a, b):
    """Schoolbook product over the nonzero terms: nnz(a)*nnz(b) steps."""
    out = [0] * (len(a) + len(b) - 1)
    nzb = [(j, d) for j, d in enumerate(b) if d]
    for i, c in enumerate(a):
        if c:
            for j, d in nzb:
                out[i + j] += c * d
    return out


def _pack(a, nbytes):
    """Signed coefficients -> sum(a_i * 2**(8*nbytes*i)): up to _LEAF by
    Horner shift-and-add, a longer list as its two halves."""
    k = 8 * nbytes
    if len(a) <= _LEAF:
        v = 0
        for c in reversed(a):
            v = (v << k) + c
        return v
    h = len(a) // 2
    return _pack(a[:h], nbytes) + (_pack(a[h:], nbytes) << (k * h))


def _digits(u, k, n, half, out):
    """Append the n base-2**k digits of u, 0 <= u < 2**(k*n), less half
    each, to out: up to _LEAF by mask and shift, more as two halves."""
    if n > _LEAF:
        h = n // 2
        _digits(u & ((1 << (k * h)) - 1), k, h, half, out)
        return _digits(u >> (k * h), k, n - h, half, out)
    mask = (1 << k) - 1
    for _ in range(n):
        out.append((u & mask) - half)
        u >>= k


def _unpack(v, nbytes):
    """The balanced base-2**(8*nbytes) digits of v, lowest first, trimmed,
    each in [-2**(8*nbytes-1), 2**(8*nbytes-1)): _pack's inverse there."""
    k = 8 * nbytes
    n, half = (v.bit_length() + 1) // k + 1, 1 << (k - 1)
    # adding half to every digit maps them to [0, 2**k) with no carries
    out = []
    _digits(v + half * ((1 << (k * n)) - 1) // ((1 << k) - 1), k, n, half, out)
    return trim(out)


def _kron_mul(a, b):
    """Kronecker substitution: pack, one big multiply, unpack balanced digits."""
    ma, mb = max(map(abs, a)), max(map(abs, b))
    # every product coefficient is below ma*mb*min(len) <= 2**(blen-1)
    blen = ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 1
    nbytes = (blen + 7) >> 3
    return _unpack(_pack(a, nbytes) * _pack(b, nbytes), nbytes)


def _read_quotient(a, b, qv, nbytes):
    """a/b read from the digits of qv = a(xi)/b(xi), xi = 2**(8*nbytes), for
    |a|_inf < xi/2; None unless b*q == a is proved, by bound (|b|_1*|q|_inf
    < xi/2 too makes both the balanced digits of a(xi)) or by product."""
    q = _unpack(qv, nbytes)
    if sum(map(abs, b)) * max(map(abs, q)) < 1 << (8 * nbytes - 1):
        return q
    return q if mul(b, q) == a else None


def mul(a, b):
    if not a or not b:
        return []
    if len(b) == 1:
        return scal(a, b[0])
    if len(a) == 1:
        return scal(b, a[0])
    la, lb = len(a), len(b)
    if la * lb > 256:
        nza = sum(1 for c in a if c)
        nzb = sum(1 for c in b if c)
        # Kronecker once schoolbook's nza*nzb steps are over 256 and over
        # a 16th of la*lb, unless a factor has 3 terms or fewer
        if min(nza, nzb) > 3 and nza * nzb > max(256, la * lb >> 4):
            return trim(_kron_mul(a, b))
    return trim(_school_mul(a, b))


def content(a):
    """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def exact_scal_div(a, k):
    return [c // k for c in a]


def unit_normal(a):
    """(c, a/c) for nonzero a: c the content of a, signed like its lead,
    so a/c is primitive with a positive lead."""
    c = content(a) if a[-1] > 0 else -content(a)
    return c, list(a) if c == 1 else [x // c for x in a]


def eval_at(a, v):
    """Horner evaluation; works for any ring element v (int, Fraction, complex)."""
    acc = 0
    for c in reversed(a):
        acc = acc * v + c
    return acc


def eval_mod(a, x, p):
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def divexact(a, b):
    """Quotient a/b over Z when b divides a exactly; ValueError otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    oa, ob = low(a), low(b)
    A, B = a[oa:], b[ob:]
    lq = len(A) - len(B) + 1
    if oa < ob or lq <= 0:
        raise ValueError("not divisible")
    if lq * len(B) > 4096:
        # one big divmod at xi = 2**k > 2*|A|_inf*|B|_1, k doubled while the
        # quotient is not proved; then the loop below
        nbytes = (max(map(abs, A)).bit_length()
                  + sum(map(abs, B)).bit_length() + 9) >> 3
        for _ in range(3):
            qv, rem = divmod(_pack(A, nbytes), _pack(B, nbytes))
            if rem:
                raise ValueError("not divisible")  # B | A would give B(xi) | A(xi)
            q = _read_quotient(A, B, qv, nbytes)
            if q is not None:
                return shift(q, oa - ob)
            nbytes *= 2
    r = list(A)
    out = [0] * lq
    # division from the low end: each step clears one coefficient exactly
    for k in range(lq):
        c = r[k]
        if c:
            q, rem = divmod(c, B[0])
            if rem:
                raise ValueError("not divisible")
            out[k] = q
            for j in range(1, len(B)):
                if B[j]:
                    r[k + j] -= q * B[j]
    if any(r[lq:]):
        raise ValueError("not divisible")
    return shift(trim(out), oa - ob)


def div_binomial(a, m):
    """Quotient a/(1 - x**m), m >= 1, by c_i = a_i + c_(i-m): a running
    sum over each residue class mod m.  1 - x**m divides a exactly when
    the top m entries of c are zero; ValueError otherwise."""
    if m < 1:
        raise ValueError(f"1 - x**{m} is not a binomial of degree >= 1")
    c = list(a)
    for r in range(min(m, len(c))):
        c[r::m] = accumulate(c[r::m])
    top = max(len(c) - m, 0)
    if any(c[top:]):
        raise ValueError("not divisible")
    return c[:top]


# ---------------------------------------------------------------------------
# gcd


def _is_prime(n):
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 7, 61):  # deterministic below 3.2e9
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _descending_primes(found, first, step, floor):
    """Yield the primes among first, first - step, ... above floor.

    found is the list of those primes found so far, descending, kept at
    module level: every call replays it before it searches further
    down, so each candidate is tested once per process.
    """
    i = 0
    while True:
        if i == len(found):
            n = found[-1] - step if found else first
            while not _is_prime(n):
                n -= step
                if n <= floor:
                    raise RuntimeError(f"no prime left above {floor}")
            found.append(n)
        yield found[i]
        i += 1


_PRIMES_31 = []
_PRIMES_29 = []
_PRIMES_CHECK = []


def primes_31():
    """Yield primes descending from just below 2**31: the modular gcd's."""
    return _descending_primes(_PRIMES_31, (1 << 31) - 1, 2, 1 << 30)


def primes_29():
    """Yield the primes p = 1 (mod 2**12) below 2**29, descending: the
    probe engine's.  (p - 1)**2 < 2**58, so an int64 sum of lazy_terms(p)
    = 32 products of residues needs no reduction before the last."""
    return _descending_primes(_PRIMES_29, (1 << 29) - (1 << 12) + 1,
                              1 << 12, 1 << 28)


def check_primes():
    """Yield the primes p = 1 (mod 2**12) below 3 * 2**27, descending, for
    the probe check: a solve meets them only some 3,000 primes_29 down."""
    return _descending_primes(_PRIMES_CHECK, 3 * (1 << 27) - (1 << 12) + 1,
                              1 << 12, 1 << 28)


def lazy_terms(p):
    """The most products of two residues mod p, each at most (p - 1)**2,
    whose sum fits in an int64: (2**63 - 1) // (p - 1)**2."""
    return ((1 << 63) - 1) // (p - 1) ** 2


def crt_join(xs, M, ys, p):
    """The residue modulo M*p of each pair x mod M (any representative),
    y mod p (0 <= y < p): x plus the multiple of M that meets y."""
    inv = pow(M % p, p - 2, p)
    return [x + M * ((y - x) % p * inv % p) for x, y in zip(xs, ys)]


def _modular_gcd(a, b):
    """gcd's fallback: (g, a/g, b/g) for primitive a, b, both with nonzero
    constant term and deg >= 1, g primitive with positive lead.  g is
    accepted once the CRT image stops changing and divides both operands
    exactly; those quotients are the cofactors.  RuntimeError once the
    primes past the coefficient bound run out."""
    import numpy as np
    from ._probes import euclid_mod, np_mod
    la, lb = a[-1], b[-1]
    lg = math.gcd(la, lb)
    u, v = (a, b) if len(a) >= len(b) else (b, a)
    best_deg, M, C = None, 0, None
    # Mignotte: |C|_inf <= lg * 2**(len(f) - 1) * |f|_2 for f = a and b, so
    # the symmetric image is exact once M passes twice that; the budget is
    # the primes that pass it, plus 20 for unlucky ones
    bound = 2 * lg * min((math.isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1)
                         for f in (a, b))
    for _, p in zip(range(bound.bit_length() // 30 + 20), primes_31()):
        if la % p == 0 or lb % p == 0:
            continue
        prev, cur = np.zeros((2, 1, len(u)), dtype=np.int64)
        prev[0], cur[0, : len(v)] = np_mod(u, p), np_mod(v, p)
        r, _, d, _ = euclid_mod(prev, cur, len(u) - 1, len(v) - 1, p)
        if d == 0:
            return [1], a, b  # coprime mod a good prime: certified coprime over Q
        # the monic gcd mod p, scaled to the leading coefficient lg
        scaled = (r[0, : d + 1] * (pow(r.item(0, d), p - 2, p) * lg % p)
                  % p).tolist()
        if best_deg is None or d < best_deg:
            best_deg = d
            M = p
            C = [x - p if x > p // 2 else x for x in scaled]
            continue
        if d > best_deg:
            continue  # bad prime
        joined = crt_join(C, M, scaled, p)
        M *= p
        joined = [x - M if x > M // 2 else x  # symmetric lift
                  for x in (y % M for y in joined)]
        if joined == C:
            _, g = unit_normal(C)
            try:
                return g, divexact(a, g), divexact(b, g)
            except ValueError:
                pass
        C = joined
    raise RuntimeError("modular gcd did not stabilize within its prime budget")


def _heu_gcd(a, b):
    """GCDHEU (Char, Geddes and Gonnet 1989): (g, a/g, b/g) for primitive
    a, b of degree >= 1, g the primitive part of the balanced digits of
    gcd(a(xi), b(xi)) at xi = 2**k >= 2*max(|a|_inf, |b|_inf) + 2, the
    cofactors the digits of a(xi)/g(xi), b(xi)/g(xi).  At such xi a g that
    divides both is the gcd (Geddes, Czapor and Labahn, Algorithms for
    Computer Algebra, Thm 7.7); None once three xi have failed."""
    nbytes = (max(map(abs, a + b)).bit_length() + 9) >> 3
    for _ in range(3):
        va, vb = _pack(a, nbytes), _pack(b, nbytes)
        h = math.gcd(va, vb)
        G = _unpack(h, nbytes)
        if len(G) == 1:
            return [1], a, b
        c, g = unit_normal(G)
        vg = h // c
        qa = _read_quotient(a, g, va // vg, nbytes)
        qb = None if qa is None else _read_quotient(b, g, vb // vg, nbytes)
        if qb is not None:
            return g, qa, qb
        nbytes *= 2
    return None


def gcd(a, b):
    """(g, a/g, b/g): g the primitive gcd over Z with positive leading
    coefficient; a and b are not both zero.

    Integer content of the inputs is ignored: g is the gcd of the
    primitive parts (times the common power of x), so each cofactor
    keeps its operand's content and sign.
    """
    if not a:
        c, g = unit_normal(b)
        return g, [], [c]
    if not b:
        c, g = unit_normal(a)
        return g, [c], []
    oa, ob = low(a), low(b)
    m = min(oa, ob)
    ca, cb = content(a), content(b)
    A = exact_scal_div(a[oa:], ca)
    B = exact_scal_div(b[ob:], cb)
    if len(A) == 1 or len(B) == 1:
        g = [1]
    else:
        g, A, B = _heu_gcd(A, B) or _modular_gcd(A, B)
    return _place(g, 1, m), _place(A, ca, oa - m), _place(B, cb, ob - m)


def _place(f, c, k):
    """c * x^k * f for gcd's own list f, reused where scal and shift copy."""
    f = f if c == 1 else [x * c for x in f]
    return [0] * k + f if k else f
