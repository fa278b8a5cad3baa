"""Set-up and execution of single jobs through qdeq's public API.

Every call goes through an attribute of the `qdeq` package at call time
(qdeq.extend, not a name bound here), so the traced run sees the calls
once its wrappers are installed.
"""

import cmath
import math
from fractions import Fraction

import qdeq


def prepare(job):
    """Set-up half of a job: parse its equation and seed coefficients."""
    if job["kind"] != "solve":
        return {"job": job}
    src = qdeq.parse(job["text"])
    F = qdeq.QdeqPoly.from_operator(src.parsed) if job["operator"] else src.parsed
    return {"job": job, "F": F, "seed": [qdeq.parse_ratq(t) for t in job["seed"]]}


def theta_of(job):
    """The rotation number of a scan job: exact for rational jobs."""
    if job["rational"]:
        p, r = job["theta"]
        return Fraction(p, r)
    return job["theta"]


def root_values(job):
    return [radius * cmath.exp(2j * math.pi * phase)
            for radius, phase in job["roots"]]


def _monic_from_roots(roots):
    """Coefficients of prod (T - u), ascending in T."""
    cs = [1 + 0j]
    for u in roots:
        nxt = [0j] * (len(cs) + 1)
        for i, c in enumerate(cs):
            nxt[i] -= u * c
            nxt[i + 1] += c
        cs = nxt
    return cs


def run(prep):
    """Answer one job.  Returns (answer, raw): answer is the JSON-ready
    result that gets digested, raw the qdeq objects the checks read."""
    job = prep["job"]
    kind = job["kind"]
    if kind == "solve":
        F = prep["F"]
        rep = qdeq.extend(F, prep["seed"], job["order"], engine="auto")
        valid = qdeq.check_solution(F, rep.solution)
        poly = None
        if job["linearize"] and not rep.halted():
            poly = qdeq.newton_polygon(qdeq.linearize(F, rep.solution))
        growth = qdeq.analyze(rep.solution, polygon=poly)
        answer = {"report": rep.to_json(), "valid_through": valid,
                  "polygon": poly.to_json() if poly is not None else None,
                  "growth": growth.to_json()}
        return answer, rep
    if kind == "jones":
        J = qdeq.jones(job["n"])
        return {"jones": J.to_text()}, J
    if kind == "jones_series":
        s = qdeq.jones_series(job["order"])
        growth = qdeq.analyze(s)
        return {"coeffs": [c.to_text() for c in s.coeffs],
                "growth": growth.to_json()}, s
    if kind == "scan":
        theta = theta_of(job)
        q = qdeq.unit_q(theta)
        roots = qdeq.roots_of(_monic_from_roots(root_values(job)), q)
        try:
            scan = qdeq.scan_condition_H(q, roots, job["N"], theta=theta)
        except qdeq.RootOfUnityDetected as exc:
            if not job["rational"]:
                raise
            return {"root_of_unity": exc.n}, None
        answer = scan.to_json()
        return answer, scan
    raise ValueError(f"unknown job kind {kind!r}")


def coeff_size(rep):
    """(largest q-degree, largest integer bit length) over a solution's
    coefficients: the q-Gevrey size growth that drives the cost."""
    qdeg = bits = 0
    for c in rep.solution.coeffs:
        qdeg = max(qdeg, len(c.num.ints) - 1, len(c.den.ints) - 1)
        ints = list(c.num.ints) + list(c.den.ints) + [c.num.den]
        bits = max(bits, max(abs(v).bit_length() for v in ints))
    return qdeg, bits
