"""Numeric diagnostics for q on the unit circle.

When |q| = 1 the step-by-step solver's denominators L(q^h) can come
arbitrarily close to zero, and whether the formal solution still has a
meaning depends on how fast q^n approaches the roots of the resonance
polynomial.  The quantitative form is a diophantine lower bound

    |q^n - u| >= c1 * n^(-c2)     for all n >= 1

for every root u of the resonance polynomial.  Nothing here proves such
a bound; the scanner measures the left side over a finite range and
reports the constants it survived, or the place where it broke.

All arithmetic in this module is floating complex on purpose: the
condition is metric, and the exact q-side machinery has nothing to say
about it.  Root finding takes the eigenvalues of np.roots's companion
matrix; only the residual of each returned root is trusted, not the
method.  numpy is imported by the functions that run it, so exact work
never loads it.
"""

import cmath
import math
from fractions import Fraction
from operator import index

from . import _intpoly as K
from .errors import DegenerateAfterEvaluation, RootOfUnityDetected
from .skewop import ResonancePoly

DEFAULT_C2_GRID = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))

# |q^n - u| at or below this is treated as a hit, not a small distance
DISTANCE_TOL = 1e-9

# |.| within this of 1 counts as "on the unit circle"
CIRCLE_TOL = 1e-6

# roots_of merges roots closer than this into one
CLUSTER_TOL = 1e-7

# roots_of rejects a root whose residual is above this times the
# coefficient scale
RESIDUAL_TOL = 1e-6

# n per vectorized scan step; |q^n| is renormalized to 1 once per chunk
SCAN_CHUNK = 4096


def unit_q(theta):
    """exp(2*pi*i*theta) for a rational or float rotation number.

    A rational theta is reduced mod 1 exactly before it becomes a float,
    so a huge or shifted theta gives the q of its fractional part.  A
    float is taken as given: reducing a negative one would flip the sign
    of q's imaginary part at rounding level.
    """
    if isinstance(theta, (int, Fraction)):
        theta %= 1
    return cmath.exp(2j * math.pi * float(theta))


def roots_of(poly, q_numeric):
    """Complex roots of a resonance polynomial at a numeric q.

    Accepts a ResonancePoly (coefficients in Q(q), evaluated at
    q_numeric first) or a plain sequence of complex coefficients
    ascending in T.  Roots closer than CLUSTER_TOL are merged into one
    representative (their mean), so a double root is reported once.
    Every returned root is re-substituted and must leave a residual
    below RESIDUAL_TOL times the coefficient scale.

    Raises DegenerateAfterEvaluation when the leading coefficient dies
    at q_numeric (the degree is not what the exact side thought) or a
    coefficient has a pole there.
    """
    if isinstance(poly, ResonancePoly):
        try:
            terms = {j: c.eval(q_numeric) for j, c in poly.terms.items()}
        except ZeroDivisionError:
            raise DegenerateAfterEvaluation(
                f"a coefficient of the resonance polynomial has a pole "
                f"at q = {q_numeric}") from None
        dense = poly.coeffs_at
    else:
        cs = [complex(c) for c in poly]
        terms, dense = dict(enumerate(cs)), lambda _: cs
    if not terms:
        raise ValueError("empty polynomial has no roots to find")
    scale = max(abs(c) for c in terms.values())
    if scale == 0.0:
        raise DegenerateAfterEvaluation(
            f"every coefficient vanished at q = {q_numeric}")
    n = max(terms)
    if abs(terms[n]) <= 1e-12 * scale:
        raise DegenerateAfterEvaluation(
            f"leading coefficient vanished at q = {q_numeric}; "
            f"the polynomial degenerates there")
    import numpy as np
    # the companion matrix, allocated before the dense list so that a degree
    # too large for it raises MemoryError at once; built as np.roots does
    m = min(j for j, c in terms.items() if c)
    A = np.zeros((n - m, n - m), complex)
    cs = dense(q_numeric)
    np.fill_diagonal(A[1:], 1)
    A[:1] = -np.array(cs[m:n][::-1], dtype=complex) / np.complex128(cs[n])
    raw = np.concatenate((np.linalg.eigvals(A), np.zeros(m, complex)))

    clusters = []
    for r in sorted(raw, key=lambda z: (z.real, z.imag)):
        for c in clusters:
            if abs(r - c[-1]) <= CLUSTER_TOL:
                c.append(r)
                break
        else:
            clusters.append([r])
    out = [complex(np.mean(c)) for c in clusters]

    bad = [t for t in out if abs(K.eval_at(cs, t)) > RESIDUAL_TOL * scale]
    if bad:
        raise DegenerateAfterEvaluation(
            f"root candidates {bad} have residuals above tolerance; "
            f"the evaluation at q = {q_numeric} is too ill-conditioned")
    return out


def _dist(zs, u):
    """|z - u| elementwise, rounded as Python's abs(complex) rounds it.

    np.hypot goes to the C library's hypot like abs(complex) does;
    np.abs on a complex array may take a SIMD path that differs in the
    last bit.
    """
    import numpy as np
    w = zs - u
    return np.hypot(w.real, w.imag)


class DiophantineScan:
    """Finite-range measurement of the lower bound |q^n - u| >= c1*n^(-c2).

    q_value   the numeric q scanned;
    roots     the root list u as given;
    records   per root index: (n, distance, n*distance) rows, kept each
              time the distance attains a new strict minimum;
    per_root  per root verdict dicts (status, chosen c2, c1, witness);
    verdict   overall: {"status": "pass", "c1": float, "c2": Fraction}
              with the smallest grid c2 that works for every on-circle
              root, or {"status": "fail", "witness": n, ...}.
    """

    __slots__ = ("q_value", "roots", "records", "per_root", "verdict",
                 "scanned_to")

    def __init__(self, q_value, roots, records, per_root, verdict,
                 scanned_to):
        self.q_value = q_value
        self.roots = list(roots)
        self.records = records
        self.per_root = per_root
        self.verdict = verdict
        self.scanned_to = scanned_to

    def passed(self):
        return self.verdict["status"] == "pass"

    def to_json(self):
        def cx(z):
            return [z.real, z.imag]

        def frac(v):
            return None if v is None else str(Fraction(v))

        return {
            "q": cx(self.q_value),
            "scanned_to": self.scanned_to,
            "roots": [cx(u) for u in self.roots],
            "records": {str(i): [[n, d, s] for n, d, s in rows]
                        for i, rows in self.records.items()},
            "per_root": [{**r, "c2": frac(r["c2"])} for r in self.per_root],
            "verdict": {**self.verdict, "c2": frac(self.verdict["c2"])},
        }

    def to_text(self):
        lines = [f"q = {self.q_value:.12g}, scanned n <= {self.scanned_to}"]
        for u, r in zip(self.roots, self.per_root):
            if r["status"] == "pass":
                where = (f"c2 = {r['c2']}, c1 = {r['c1']:.6g}"
                         if r["c2"] is not None else
                         f"off circle, c1 = {r['c1']:.6g}")
                lines.append(f"root {u:.6g}: pass ({where})")
            else:
                lines.append(f"root {u:.6g}: FAIL at n = {r['witness']} "
                             f"({r['reason']})")
        v = self.verdict
        if v["status"] == "fail":
            lines.append(f"overall: FAIL, witness n = {v['witness']}")
        elif v["c1"] is None:
            lines.append("overall: pass, no roots to scan")
        else:
            lines.append(f"overall: pass with |q^n - u| >= {v['c1']:.6g} "
                         f"* n^(-{v['c2']})")
        return "\n".join(lines)

    def __repr__(self):
        return (f"DiophantineScan({len(self.roots)} roots, "
                f"N = {self.scanned_to}, {self.verdict['status']})")


def _records(q, roots, live, N, tol):
    """Per root index, the (n, d, n*d) rows where d = |q^n - u| attains
    a new strict minimum; only live roots get rows, and a hit ends them."""
    import numpy as np
    records = {i: [] for i in range(len(roots))}
    z = 1.0 + 0j
    for n0 in range(1, N + 1, SCAN_CHUNK):
        m = min(SCAN_CHUNK, N + 1 - n0)
        # z_n = z_(n-1) * q, every product rounded as the scalar
        # recurrence rounds it; |z| is renormalized at each chunk's end.
        # numpy rounds the one product of a 2-entry accumulate otherwise,
        # so at least 3 entries are formed and the first m kept.
        zs = np.full(max(m, 3), q, dtype=complex)
        zs[0] = z * q
        np.multiply.accumulate(zs, out=zs)
        zs = zs[:m]
        z = complex(zs[-1])
        if m == SCAN_CHUNK:
            z /= abs(z)
            zs[-1] = z
        hit = np.flatnonzero(_dist(zs, 1.0) <= tol)
        if len(hit):
            raise RootOfUnityDetected(n0 + int(hit[0]))
        for i in live:
            rows = records[i]
            best = rows[-1][1] if rows else math.inf
            if best <= tol:
                continue  # a hit ended this root's scan
            d = _dist(zs, roots[i])
            prior = np.empty(m)  # least distance over every earlier n
            prior[0] = best
            np.minimum(np.minimum.accumulate(d[:-1]), best, out=prior[1:])
            for k in np.flatnonzero(d < prior).tolist():
                n, dk = n0 + k, float(d[k])
                rows.append((n, dk, n * dk))
                if dk <= tol:
                    break
    return records


def _min_score(rows, c2):
    """The least d * n^c2 over one root's records and the first n that
    reaches it, which is the earliest argmin over every n: an earlier n'
    with d' <= d would score d' * n'^c2 <= d * n^c2."""
    low = (math.inf, 0)
    for n, d, _ in rows:
        try:
            s = d * n ** float(c2)
        except OverflowError:  # past the float range; n only grows
            break
        if s < low[0]:
            low = (s, n)
    return low


def _root_verdict(u, rows, on_circle, grid, N, tol):
    """The per_root dict of root u, read from its records alone."""
    r = {"root": [u.real, u.imag], "status": "pass", "c2": None,
         "c1": None, "witness": None, "reason": None}
    if not on_circle:
        r.update(c1=abs(1.0 - abs(u)), reason="off the unit circle")
    elif rows and rows[-1][1] <= tol:
        n = rows[-1][0]
        r.update(status="fail", c1=0.0, witness=n,
                 reason=f"|q^n - u| <= {tol} at n = {n}")
    else:
        for c in grid:
            s, n = _min_score(rows, c)
            if s > tol and 2 * n <= N:
                r.update(c2=c, c1=s)
                break
        else:  # s, n are the last grid exponent's
            r.update(status="fail", c1=s, witness=n,
                     reason="weighted minimum still falling at every "
                            "grid exponent")
    return r


def scan_condition_H(q_numeric, roots, N, c2_grid=None, tol=DISTANCE_TOL,
                     theta=None):
    """Scan |q^n - u| for n = 1..N against the grid of decay exponents.

    For each root u on the unit circle the scan keeps the records of
    |q^n - u|, the n where it attains a new strict minimum, and reads
    from them, per grid c2, the minimum of |q^n - u| * n^c2 and where it
    first occurred.  A grid point counts as passed when that minimum is
    positive (above tol) and was attained in the first half of the
    range: a minimum still falling in the second half means the constant
    has not stabilized, and a longer scan would keep pushing it down.
    The root's verdict quotes the smallest passing c2.  Roots off the
    circle pass unconditionally with c1 = |1 - |u|| by the reverse
    triangle inequality.

    Raises RootOfUnityDetected the moment |q^n - 1| drops below tol
    (the whole regime assumes q is not a root of unity); passing the
    rotation number as `theta` makes that check exact for rationals:
    theta = p/r in lowest terms raises with n = r immediately.
    """
    N = index(N)
    if N < 1:
        raise ValueError("scan range N must be at least 1")
    if c2_grid is None:
        c2_grid = DEFAULT_C2_GRID
    grid = tuple(sorted(Fraction(c) for c in c2_grid))
    if not grid:
        raise ValueError("the grid of decay exponents c2 is empty")
    if any(c <= 0 for c in grid):
        raise ValueError("decay exponents c2 must be positive")
    if isinstance(theta, (int, Fraction)):  # q^r = 1 exactly
        r = Fraction(theta).denominator
        if r <= N:
            raise RootOfUnityDetected(r)
    if not abs(abs(q_numeric) - 1.0) <= CIRCLE_TOL:  # a NaN q fails too
        raise ValueError(f"|q| = {abs(q_numeric)} is not on the unit circle")
    roots = [complex(u) for u in roots]
    for u in roots:
        if not cmath.isfinite(u):
            raise ValueError(f"root {u} is not a finite complex number")
    on_circle = [abs(abs(u) - 1.0) <= CIRCLE_TOL for u in roots]

    records = _records(q_numeric, roots,
                       [i for i, on in enumerate(on_circle) if on], N, tol)
    per_root = [_root_verdict(u, records[i], on_circle[i], grid, N, tol)
                for i, u in enumerate(roots)]
    fails = [r["witness"] for r in per_root if r["status"] == "fail"]
    if fails:
        verdict = {"status": "fail", "c1": None, "c2": None,
                   "witness": min(fails)}
    else:
        # score min is nondecreasing in c2 (n >= 1), so every passing
        # root stays positive at the overall (largest chosen) exponent
        c2 = max((r["c2"] for r in per_root if r["c2"] is not None),
                 default=grid[0])
        c1s = [r["c1"] if r["c2"] is None else _min_score(records[i], c2)[0]
               for i, r in enumerate(per_root)]
        verdict = {"status": "pass", "c1": min(c1s, default=None),
                   "c2": c2 if c1s else None, "witness": None}
    return DiophantineScan(q_numeric, roots, records, per_root, verdict, N)
