"""Seeded job streams, one per workload.

Every job list is stratified: the strata (which parameter combinations
and orders appear, and how often) are fixed per workload, and the seed
picks signs, constants, shift indices, rotation numbers and the order in
which jobs run.  So a different seed gives different inputs while the
total work stays comparable, which keeps the end-to-end figures of two
seeds comparable.  Every generated seed prefix is consistent with its
equation, so a SeedRejected in a run is an error, not an answer.

A job is a plain JSON-compatible dict; qdeq only ever sees the equation
text, seed coefficients, orders and scan parameters in it.
"""

import math
import random
from typing import Callable, NamedTuple

GOLDEN = (math.sqrt(5) - 1) / 2

QP2_TEXT = "(y[0]+x)*(y[0]*y[1]-1)*(y[0]*y[-1]-1) - {m2}*q^{e}*x^2*y[0]"
PHI11_TEXT = "S[-2]*(S[1]-1)*(S[1]+1) {op} {c}*q^-2*x"
# linear family: a(q) = scale * q^shift * (1+q)^dense, b(q) from LINEAR_B
LINEAR_TEXT = "{a}*x*y[{s}] - {b}*y[0] + {b}"
LINEAR_B = ("1", "(1+q)", "(1-q)")


class Workload(NamedTuple):
    name: str
    why: str
    job_count: int
    orders: str
    make: Callable[[random.Random], list]


def _qp2_job(m, k, sign, order, linearize, branch=True):
    seed = ["1", f"{sign * m}*q^{k + 1}/(1+q)"] if branch else ["1"]
    return {"kind": "solve", "family": "qp2",
            "text": QP2_TEXT.format(m2=m * m, e=2 * k + 1),
            "operator": False, "seed": seed, "order": order,
            "linearize": linearize,
            "params": {"m": m, "k": k}}


def _coeff_text(scale, shift, dense):
    parts = [str(scale)]
    if shift:
        parts.append(f"q^{shift}")
    if dense:
        parts.append("(1+q)")
    return "*".join(parts)


def _linear_job(scale, shift, dense, b, s, order):
    a = _coeff_text(scale, shift, dense)
    return {"kind": "solve", "family": "linear",
            "text": LINEAR_TEXT.format(a=a, s=s, b=b),
            "operator": False, "seed": ["1"], "order": order,
            "linearize": True,
            "params": {"scale": scale, "shift": shift, "dense": dense,
                       "b": b, "s": s}}


def _phi11_job(num, den, order):
    c = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
    return {"kind": "solve", "family": "phi11",
            "text": PHI11_TEXT.format(op="-" if num < 0 else "+", c=c),
            "operator": True,
            "seed": ["1"], "order": order, "linearize": True,
            "params": {"num": num, "den": den}}


def _sign(rng):
    return rng.choice((1, -1))


def _signs(rng):
    # both branches of the step-1 quadratic, equally often: the + branch
    # costs more, so a free choice would let the seed move the totals
    signs = [1, 1, -1, -1]
    rng.shuffle(signs)
    return signs


def _nonlinear_large(rng):
    # k = 0 and k = 1 take opposite branches for each m: the + branch
    # costs more for m = 2, 3, so this keeps the set of job costs, and
    # with it the median and tail, nearly the same for every seed
    jobs = []
    for m in (1, 2, 3):
        sign = _sign(rng)
        jobs += [_qp2_job(m, 0, sign, 13, linearize=False),
                 _qp2_job(m, 1, -sign, 13, linearize=False)]
    # order 14 is where the probe engine first needs a lane escalation
    jobs += [_qp2_job(1, 0, sign, 14, linearize=False) for sign in (1, -1)]
    return jobs


def _nonlinear_small(rng):
    jobs = []
    for m in (1, 2, 3):
        for k in (0, 1):
            for sign, order in zip(_signs(rng), (4, 5, 5, 6)):
                jobs.append(_qp2_job(m, k, sign, order, linearize=True))
    for m, k in rng.sample([(m, k) for m in (1, 2, 3) for k in (0, 1)], 3):
        jobs.append(_qp2_job(m, k, 1, 4, linearize=True, branch=False))
    return jobs


def _linear_exact(rng):
    jobs = []
    # the order is fixed per stratum (s, b, kind): a seeded order would let
    # the seed hand the largest order to the most expensive stratum
    for s, base in ((1, 33), (2, 26)):
        kinds = [(rng.randint(1, 3), rng.randint(0, 2), 0),   # monomial
                 (rng.randint(4, 9), rng.randint(1, 3), 0),   # monomial
                 (rng.randint(1, 3), rng.randint(0, 2), 1)]   # dense
        for i, b in enumerate(LINEAR_B):
            for j, (scale, shift, dense) in enumerate(kinds):
                jobs.append(_linear_job(_sign(rng) * scale, shift, dense, b,
                                        s, base + 3 * i + j))
    consts = rng.sample([(1, 1), (2, 1), (-1, 1), (3, 1), (1, 2), (-2, 3)], 4)
    for (num, den), order in zip(consts, (16, 18, 18, 20)):
        jobs.append(_phi11_job(num, den, order))
    jitter = [-1, -1, 0, 0, 1, 1]
    rng.shuffle(jitter)
    for n, dn in zip((18, 20, 22, 24, 26, 28), jitter):
        jobs.append({"kind": "jones", "n": n + dn})
    for n in (11, 13):
        jobs.append({"kind": "jones_series", "order": n + rng.randint(-1, 1)})
    return jobs


def _scan_job(rng, theta, nroots, N, off_circle=0):
    # roots u_j = r_j exp(2 pi i phi_j); the last `off_circle` lie off |u| = 1
    roots = [[1.0, rng.random()] for _ in range(nroots - off_circle)]
    roots += [[rng.choice((0.5, 2.0)), rng.random()] for _ in range(off_circle)]
    return {"kind": "scan", "theta": theta, "rational": False,
            "roots": roots, "N": N}


def _unit_scan(rng):
    # the scan costs N per root on the circle, so N = target / live roots
    # gives every job its own cost on an even ramp: order statistics of
    # the latencies then move smoothly instead of jumping between levels
    targets = [10000 + 2000 * i for i in range(27)]
    rng.shuffle(targets)
    jobs = []
    for i, target in enumerate(targets):
        nroots = 1 + i % 3
        off = 1 if (nroots == 3 and (i // 3) % 3 == 2) else 0
        theta = GOLDEN if (i // 3) % 3 == 0 else rng.random()
        jobs.append(_scan_job(rng, theta, nroots, target // (nroots - off), off))
    for _ in range(3):
        r = rng.randint(50, 5000)
        p = rng.randint(1, r - 1)
        while math.gcd(p, r) != 1:
            p = rng.randint(1, r - 1)
        job = _scan_job(rng, [p, r], 2, 20000)
        job["rational"] = True
        jobs.append(job)
    return jobs


WORKLOADS = {w.name: w for w in (
    Workload("nonlinear-large",
             "q-Painleve II family through the probe engine: modular "
             "evaluation, rational reconstruction and lane escalation "
             "carry almost all the work",
             8, "13-14", _nonlinear_large),
    Workload("nonlinear-small",
             "the same family in exact Q(q) arithmetic, where dense RatQ "
             "sums and intpoly.gcd dominate, plus branch points that halt",
             27, "4-6 (order 4: branch points)", _nonlinear_small),
    Workload("linear-exact",
             "linear equations with sparse q-power coefficients, phi11 "
             "operators and Jones invariants: content, shift_q, pochhammer",
             30, "26-41 (linear), 16-20 (phi11), n 17-29 (jones), 10-14 (series)",
             _linear_exact),
    Workload("unit-scan",
             "the float scan of |q^n - u| on the unit circle; no exact "
             "layer runs, so exact-arithmetic changes must leave it flat",
             30, "N*roots 10000-62000 (N 3333-62000)", _unit_scan),
)}


def generate(name, seed):
    """The job list of workload `name` for `seed`, in run order."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    jobs = w.make(rng)
    rng.shuffle(jobs)
    if len(jobs) != w.job_count:
        raise RuntimeError(f"{name}: {len(jobs)} jobs, expected {w.job_count}")
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
