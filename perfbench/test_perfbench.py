"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import argparse
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qdeq  # noqa: E402
from perfbench import checks, jobs, run, speed, tracing, workloads  # noqa: E402


def _answer(job):
    return jobs.run(jobs.prepare(job))


def _cheap(name, kinds):
    return [j for j in workloads.generate(name, run.REFERENCE_SEED)
            if j["kind"] in kinds]


def test_same_seed_same_inputs_and_digests():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 7) == workloads.generate(name, 7)
    ref = json.loads(run.REFERENCE.read_text())["linear-exact"]
    for job in _cheap("linear-exact", ("jones", "jones_series")):
        first = checks.digest(_answer(job)[0])
        assert checks.digest(_answer(job)[0]) == first == ref[job["id"]]


def test_different_seed_different_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 1) != workloads.generate(name, 2)


def test_job_runs_leave_ten_beyond_a_tail_above_the_median():
    for name, w in workloads.WORKLOADS.items():
        assert len(workloads.generate(name, 3)) == w.job_count
        assert w.job_count * run.MIN_PASSES >= 21


def test_pass_count_depends_on_seconds_only():
    assert run.pass_count(0.001) == run.pass_count(1) == run.MIN_PASSES
    assert run.pass_count(30) == 3
    assert run.pass_count(60) == 6


def _tiny(monkeypatch):
    """An eight-job workload of small scans; set-up is not timed."""
    def make(rng):
        return [workloads._scan_job(rng, workloads.GOLDEN, 1, 300)
                for _ in range(8)]
    monkeypatch.setitem(workloads.WORKLOADS, "tiny",
                        workloads.Workload("tiny", "test", 8, "N 300", make))
    monkeypatch.setattr(run, "time_setup", lambda name, seed: 0.5)
    args = argparse.Namespace(workload="tiny", seed=5, seconds=0.001)
    return args, workloads.generate("tiny", 5)


def test_small_seconds_still_runs_every_pass(monkeypatch):
    args, job_list = _tiny(monkeypatch)
    lines, values, attempted, failed, note = run.end_to_end(args, job_list)
    assert (lines, failed) == ([], 0)
    assert attempted == len(job_list) * run.MIN_PASSES
    assert f"x {run.MIN_PASSES} passes" in note
    assert values["job_p50_s"] <= values["job_tail_s"]


def test_times_are_scaled_to_the_nominal_speed(monkeypatch):
    args, job_list = _tiny(monkeypatch)
    preps = run.setup(args.workload, args.seed)
    monkeypatch.setattr(speed, "reference_slice", lambda: 2 * speed.NOMINAL_S)
    p = run.run_pass(preps)
    assert p.speed == pytest.approx(0.5)
    assert p.seconds == sum(p.latency)


def test_overrun_is_an_error(monkeypatch):
    args, job_list = _tiny(monkeypatch)
    monkeypatch.setattr(run, "LIMIT_S", 0.0)
    with pytest.raises(run.Overrun):
        run.end_to_end(args, job_list)


def test_tail_rule():
    value, pct, beyond = run.tail(range(1, 31))
    assert (value, beyond) == (20, 10)
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail(range(11))[0] == 0
    with pytest.raises(ValueError):
        run.tail(range(10))


def _bindings():
    """Every attribute of every qdeq module and traced class, by identity."""
    owners = [m for k, m in sorted(sys.modules.items())
              if k == "qdeq" or k.startswith("qdeq.")]
    owners += [qdeq.RatQ, sys.modules["qdeq._probes"].ProbeDomain]
    return {(repr(o), k): id(v) for o in owners for k, v in vars(o).items()}


def test_wrappers_restore_originals():
    import qdeq._probes  # noqa: F401  (imported lazily by qdeq itself)
    import qdeq.cli  # noqa: F401  (binds extend too)
    before = _bindings()
    extend = qdeq.extend
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("qdeq", "qdeq.solver", "qdeq.corpus", "qdeq.cli"):
            assert sys.modules[name].extend is not extend
        assert qdeq.RatQ.__radd__ is not qdeq.RatQ.__add__
        job = _cheap("linear-exact", ("jones",))[0]
        tracer.job_id = job["id"]
        _answer(job)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert qdeq.extend is extend
    tot = tracer.totals()
    assert tot["corpus.jones"][0] == 1
    assert tot["ratfunc.pochhammer"][0] > 0
    # pochhammer runs inside jones: its spans have jones as their parent
    names = list(tracer.name)
    top = names.index(tracer.names.index("corpus.jones"))
    assert all(tracer.parent[i] == top for i, n in enumerate(names)
               if tracer.names[n] == "ratfunc.pochhammer")
    assert set(tracer.job) == {job["id"]}


def test_corrupted_answer_is_a_failure():
    job = next(j for j in workloads.generate("linear-exact", 1)
               if j["kind"] == "solve" and j["family"] == "linear")
    job = dict(job, order=12)
    answer, rep = _answer(job)
    assert checks.check(job, answer, rep) == []
    coeffs = list(rep.solution.coeffs)
    coeffs[5] = coeffs[5] + 1
    rep.solution = qdeq.TruncSeries(coeffs, rep.solution.trunc)
    assert checks.check(job, answer, rep)

    p = run.Pass(1)
    p.answer[0], p.raw[0] = answer, rep
    _, failed, lines = run.evaluate("linear-exact", 99, [job], [p])
    assert failed == 1 and lines


def test_corrupted_scan_is_a_failure():
    job = next(j for j in workloads.generate("unit-scan", 1)
               if not j["rational"])
    job = dict(job, N=2000)
    answer, scan = _answer(job)
    assert checks.check(job, answer, scan) == []
    scan.per_root[0] = dict(scan.per_root[0], c1=scan.per_root[0]["c1"] * 1.01)
    assert checks.check(job, answer, scan)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.PER_LAYER[m["name"]]
