"""Each family reaches its regime, and the engines agree at real sizes.

The regime count wraps the probe engine as the stress table of
test_probes does (families.counted), and the solve loop's scan step,
and asserts each count as a lower bound, so that an engine change
cannot quietly make a family easy.  The large suite draws families at
orders 13-16 with large literals and compares _probes.solve with
_extend_core directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import families as fam
from perfbench.workloads import LINEAR_B
from qdeq import solver
from qdeq.errors import SeedRejected

from test_properties import COMMON

signs = st.sampled_from((1, -1))
odd = st.integers(1, 499).map(lambda n: 2 * n + 1)  # 3..999

# each family over parameters at which it reaches its regime
REACHING = {
    "qp2": st.builds(fam.qp2, st.integers(1, 3), st.integers(0, 2), signs,
                     st.integers(2, 6), st.booleans()),
    "linear": st.builds(fam.linear, st.integers(1, 9), st.integers(0, 3),
                        st.integers(0, 1), st.sampled_from(LINEAR_B),
                        st.integers(1, 2), st.integers(2, 12)),
    "phi11": st.builds(fam.phi11, st.integers(-5, 5).filter(bool), st.integers(1, 3),
                       st.integers(2, 8)),
    "eigen": st.builds(fam.eigen, st.integers(1, 5), st.booleans()),
    "resonant": st.builds(fam.resonant, st.integers(1, 8)),
    "scan": st.builds(fam.scan, st.integers(1, 4), st.integers(0, 3),
                      st.integers(1, 2)),
    "sqrt": st.builds(fam.sqrt, odd, st.integers(13, 20)),
    "big_constant": st.builds(fam.big_constant, st.integers(2 ** 59, 2 ** 100),
                              st.integers(2, 8)),
    "qpower": st.builds(fam.qpower, st.integers(1, 1000), st.integers(2, 13)),
}


def _reach(family):
    """{regime: count} of a probe and an exact solve of family, which
    must agree: event kinds of the answer, scan-step outcomes, and the
    primes the probe solve ran ("third_prime": fresh runs)."""
    F, seed, N = family[:3]
    scans, inner = [], solver._scan_step

    def scan_step(*args):
        try:
            got = inner(*args)
        except SeedRejected:
            scans.append("seed_too_short")
            raise
        scans.append("scan_" + got[1]["kind"])
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_scan_step", scan_step)
        seen = fam.counted(mp)
        answer = fam.outcome(F, seed, N, "probe")
        assert answer == fam.outcome(F, seed, N, "exact")
    kinds = [] if isinstance(answer, type) else [e[1] for e in answer[1]]
    reach = {kind: kinds.count(kind) for kind in kinds}
    reach.update({s: scans.count(s) for s in scans})
    reach["third_prime"] = sum(not grown for _, _, grown in seen["runs"])
    return reach


@pytest.mark.parametrize("name", sorted(REACHING))
def test_each_family_reaches_its_regime(name):
    # every step unique counts N - k steps; a third prime, 3 fresh runs
    @settings(max_examples=6, **COMMON)
    @given(REACHING[name])
    def reaches(family):
        least = {"unique": family.N - len(family.seed) + 1, "third_prime": 3}
        got = _reach(family).get(family.regime, 0)
        assert got >= least.get(family.regime, 1), (family.text, got)

    reaches()


# large literals, kept within what 24 probe primes can lift at order 16
LARGE = st.one_of(
    st.builds(fam.qp2, st.integers(4, 1000), st.integers(0, 3), signs,
              st.integers(13, 16)),
    st.builds(fam.linear, st.integers(10 ** 3, 10 ** 5), st.integers(0, 40),
              st.integers(0, 1), st.sampled_from(LINEAR_B),
              st.integers(1, 2), st.integers(13, 16)),
    st.builds(fam.phi11, st.integers(10 ** 3, 10 ** 5), st.integers(1, 10 ** 4),
              st.integers(13, 16)),
    st.builds(fam.sqrt, odd, st.integers(13, 16)),
    st.builds(fam.big_constant, st.integers(2 ** 59, 2 ** 100),
              st.integers(13, 16)),
    st.builds(fam.qpower, st.integers(100, 1000), st.integers(13, 16)),
)


@settings(max_examples=25, **COMMON)
@given(LARGE)
def test_engines_agree_at_real_sizes(family):
    F, seed, N = family[:3]
    assert fam.outcome(F, seed, N, "probe") == fam.outcome(F, seed, N, "exact")
