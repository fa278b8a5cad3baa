"""numpy loads only where lanes and the numeric scan run.

Exact work (parsing, exact extend, the Jones invariants, the CLI's own
start-up) must leave numpy unimported, and each function that imports
it lazily must still work in a process where it is not loaded yet.
Tier-1 imports numpy in its own test modules, so every check here runs
in a fresh interpreter, on the same sources as the suite.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import qdeq

SRC = Path(qdeq.__file__).resolve().parent.parent

# every child starts here: the package and the CLI imported, numpy not
PRELUDE = """\
import sys
import qdeq, qdeq.cli
assert "numpy" not in sys.modules, "importing qdeq loaded numpy"
"""


def _cold(body):
    """Run PRELUDE then body in a fresh interpreter; it must exit 0."""
    run = subprocess.run([sys.executable, "-c",
                          PRELUDE + textwrap.dedent(body)],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr


def test_exact_work_never_loads_numpy():
    _cold("""
        from qdeq import RatQ, cli, extend, get_entry, jones
        assert cli.main(["parse", "y[0]"]) == 0
        e = get_entry("q-euler")
        rep = extend(e.source.parsed, e.seeds, 100, engine="exact")
        assert list(rep.solution.coeffs) == [
            RatQ(1).shift_q(h * (h - 1) // 2) for h in range(101)]
        j = jones(30)
        terms = dict(j.terms())
        assert (j.ord_q, j.deg_q) == (-870, 870)
        assert terms == {-k: c for k, c in terms.items()}
        assert sum(terms.values()) == 1  # J_n(1) = 1
        assert "numpy" not in sys.modules, sorted(sys.modules)
        """)


def test_modular_gcd_in_a_cold_process():
    # the inputs of test_kernel_modular_gcd_prime_budget
    _cold("""
        from qdeq import _intpoly as K
        g = [7, -3, 2 ** 80 + 1, 5, 1]
        a, b = K.mul(g, [2, 9, -4, 1]), K.mul(g, [-6, 1, 1])
        assert K._modular_gcd(a, b) == (g, [2, 9, -4, 1], [-6, 1, 1])
        """)


def test_probe_extend_in_a_cold_process():
    # qp2 at order 13; the probe engine must answer, not the exact fallback,
    # and its check must pass the answer; neither draws its points through
    # numpy.random, whose import costs about 6 MB
    _cold("""
        from qdeq import check_solution, extend, parse, parse_ratq, solver
        F = parse("(y[0]+x)*(y[0]*y[1]-1)*(y[0]*y[-1]-1) - q*x^2*y[0]").parsed
        seed = [parse_ratq("1"), parse_ratq("q/(1+q)")]
        want = extend(F, seed, 13, engine="exact").solution.coeffs
        assert "numpy" not in sys.modules
        core = solver._extend_core

        def probe_only(F, seed, N, dom):
            assert dom.name == "probe", "the probe solve fell back"
            return core(F, seed, N, dom)

        solver._extend_core = probe_only
        phi = extend(F, seed, 13, engine="probe").solution
        assert phi.coeffs == want
        assert check_solution(F, phi, mode="probe") == 13
        assert "numpy.random" not in sys.modules
        """)


def test_roots_of_in_a_cold_process():
    _cold("""
        from qdeq import roots_of, unit_q
        got = sorted(roots_of([1j, -(1 + 1j), 1], unit_q(0.3)),
                     key=lambda z: z.real)
        assert len(got) == 2
        assert abs(got[0] - 1j) < 1e-9 and abs(got[1] - 1) < 1e-9
        """)


def test_scan_in_a_cold_process():
    # past two scan chunks; golden rotation: badly approximable, c2 = 1
    _cold("""
        import math
        from fractions import Fraction
        from qdeq import scan_condition_H, unit_q
        scan = scan_condition_H(unit_q((math.sqrt(5) - 1) / 2), [1.0], 10_000)
        assert scan.passed()
        assert scan.verdict["c2"] == Fraction(1) and scan.verdict["c1"] > 0.5
        dists = [d for _, d, _ in scan.records[0]]
        assert len(dists) >= 2
        assert all(x > y for x, y in zip(dists, dists[1:]))
        """)
