"""Run one workload of the qdeq benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One client in one process, no threads, closed loop: each job starts
when the previous one has finished.  The workload's job list is run in
pass_count(--seconds) passes, a number set by --seconds alone and never
by how fast the program runs, so every metric keeps its definition.  A
run that would end more than LIMIT_S after its set-up began stops with
an error and prints no result.

--trace 0 prints the end-to-end metrics; set-up is timed in fresh child
processes, several times, and reported as the median.  Every other time
is reported at the nominal speed of perfbench.speed: the wall time times
the host's speed factor, measured by a fixed slice of work timed between
jobs.

--trace 1 runs a warm-up pass and one measured untraced pass, then the
same set-up and pass again with the tracer installed, and prints the
per-layer metrics and the tracing overhead; the spans go to
perfbench/out/.

Every answer is checked, untimed, by perfbench.checks.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference_digests.json"
REFERENCE_SEED = 1
SETUP_REPEATS = 7
# reference slices per pass, at least: a job list of few long jobs gets
# several slices in each gap between jobs
PASS_SLICES = 40
# every job list is sized so that one pass takes at most about this long
# on the machine the baseline in README.md was measured on
PASS_BUDGET_S = 10.0
MIN_PASSES = 3
LIMIT_S = 150.0

END_TO_END = {
    "batch_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do the set-up, print 'ready' and exit (used to "
                         "time set-up in a fresh process)")
    ap.add_argument("--record-digests", action="store_true",
                    help=f"store this workload's answer digests at seed "
                         f"{REFERENCE_SEED} as the reference")
    return ap.parse_args(argv)


class Overrun(RuntimeError):
    """The run would end more than LIMIT_S after its set-up began."""


def pass_count(seconds):
    """How many passes a run makes; at least MIN_PASSES, so that every
    job list leaves ten job runs beyond a tail above the median."""
    return max(MIN_PASSES, int(seconds // PASS_BUDGET_S))


def tail(values):
    """(value, percentile, beyond): the highest nearest-rank percentile of
    values that has at least ten values beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        raise ValueError(f"{n} samples cannot leave ten beyond a percentile")
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def setup(name, seed):
    from perfbench import jobs, workloads
    return [jobs.prepare(job) for job in workloads.generate(name, seed)]


def time_setup(name, seed):
    """Median seconds from starting a fresh process to its first job, as
    measured: the reference slice does not follow the speed of a process
    that has just started (README.md), so set-up is not scaled."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child failed with exit code {code}")
        times.append(t1 - t0)
    return statistics.median(times)


class Pass:
    """One run through the job list: time, per-job latency, answers, and
    the host's speed factor while it ran (perfbench.speed)."""

    __slots__ = ("seconds", "latency", "speed", "answer", "raw", "error",
                 "digest")

    def __init__(self, n):
        self.seconds = 0.0
        self.latency = [0.0] * n
        self.speed = 1.0
        self.answer = [None] * n
        self.raw = [None] * n
        self.error = [None] * n
        self.digest = None

    def digests(self):
        from perfbench import checks
        if self.digest is None:
            self.digest = [None if a is None else checks.digest(a)
                           for a in self.answer]
        return self.digest

    def keep_digests_only(self):
        self.digests()
        n = len(self.answer)
        self.answer, self.raw = [None] * n, [None] * n


def run_pass(preps, tracer=None):
    """Run every job once.  seconds is the sum of the job latencies: the
    pass's wall time without the reference slices timed between jobs."""
    from perfbench import jobs, speed
    out = Pass(len(preps))
    clock = time.perf_counter
    per_gap = -(-PASS_SLICES // (len(preps) + 1))
    slices = []
    for i, prep in enumerate(preps):
        slices += [speed.reference_slice() for _ in range(per_gap)]
        if tracer is not None:
            tracer.job_id = prep["job"]["id"]
        t0 = clock()
        try:
            out.answer[i], out.raw[i] = jobs.run(prep)
        except Exception as exc:  # a failed job is counted; the run goes on
            out.error[i] = f"{type(exc).__name__}: {exc}"
        out.latency[i] = clock() - t0
    slices += [speed.reference_slice() for _ in range(per_gap)]
    out.seconds = sum(out.latency)
    out.speed = speed.factor(slices)
    return out


def _reference(name, seed):
    if seed != REFERENCE_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


def evaluate(name, seed, job_list, passes, reference=True):
    """Check every answer (untimed).  Returns (digests of the first pass,
    failed executions, problem lines)."""
    from perfbench import checks
    ref = _reference(name, seed) if reference else None
    first = passes[0]
    digests, bad, lines = first.digests(), set(), []
    for i, job in enumerate(job_list):
        if first.error[i] is not None:
            continue
        problems = checks.check(job, first.answer[i], first.raw[i])
        if ref is not None and ref[i] != digests[i]:
            problems.append("answer differs from the reference digest")
        if problems:
            bad.add(i)
            lines += [f"job {i}: {p}" for p in problems]
    failed = 0
    for k, p in enumerate(passes):
        for i in range(len(job_list)):
            if p.error[i] is not None:
                lines.append(f"pass {k} job {i}: {p.error[i]}")
                failed += 1
            elif i in bad or p.digests()[i] != digests[i]:
                failed += 1
    return digests, failed, lines


def metadata():
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    import numpy
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "qdeq").glob("*.py")))
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "src_lines": lines}


def _result(correct, attempted, failed, values, units):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}


def end_to_end(args, job_list):
    started = time.perf_counter()
    setup_s = time_setup(args.workload, args.seed)
    preps = setup(args.workload, args.seed)
    passes = []
    for k in range(pass_count(args.seconds)):
        elapsed = time.perf_counter() - started
        if passes and elapsed + max(p.seconds for p in passes) > LIMIT_S:
            raise Overrun(f"{k} passes took {elapsed:.1f} s; one more would "
                          f"end the run after the {LIMIT_S:.0f} s limit")
        p = run_pass(preps)
        if passes:
            p.keep_digests_only()
        else:
            # later passes repeat the same jobs; reading the peak here keeps
            # answers retained for checking out of it
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(p)
    _, failed, lines = evaluate(args.workload, args.seed, job_list, passes)
    # job times are reported at the nominal speed (perfbench.speed)
    latency = [p.latency[i] * p.speed for p in passes
               for i in range(len(job_list)) if p.error[i] is None]
    tail_s, pct, beyond = tail(latency)
    attempted = len(job_list) * len(passes)
    values = {
        "batch_s": statistics.median(p.seconds * p.speed for p in passes),
        "job_p50_s": statistics.median(latency),
        "job_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return lines, values, attempted, failed, (
        f"{len(job_list)} jobs x {len(passes)} passes of "
        f"{', '.join(f'{p.seconds:.3f}' for p in passes)} s as measured, "
        f"speed factors {', '.join(f'{p.speed:.3f}' for p in passes)}; "
        f"job_tail_s is "
        f"p{pct:.1f} with {beyond} of {len(latency)} job runs beyond it;"
        f" error_ratio {failed / attempted:.6g} ({failed}/{attempted})")


def traced(args, job_list):
    from perfbench import jobs
    from perfbench.tracing import Tracer
    preps = setup(args.workload, args.seed)
    run_pass(preps)  # warm-up: a process's first pass tends to run slower
    base = run_pass(preps)
    tracer = Tracer()
    tracer.install()
    try:
        preps = setup(args.workload, args.seed)   # traced: parse spans
        run = run_pass(preps, tracer)
    finally:
        tracer.uninstall()
    _, failed, lines = evaluate(args.workload, args.seed, job_list, [base, run])
    values = tracer.layer_metrics()
    sizes = [jobs.coeff_size(raw) for job, raw in zip(job_list, run.raw)
             if job["kind"] == "solve" and raw is not None]
    values["solver.coeff_qdeg_max"] = max((s[0] for s in sizes), default=0)
    values["solver.coeff_bits_max"] = max((s[1] for s in sizes), default=0)
    traced_s, untraced_s = run.seconds * run.speed, base.seconds * base.speed
    values["trace.batch_s"] = traced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.save(out / f"trace-{args.workload}-seed{args.seed}.npz")
    return lines, values, 2 * len(job_list), failed, (
        f"untraced batch {base.seconds:.3f} s at speed factor "
        f"{base.speed:.3f}, traced {run.seconds:.3f} s at {run.speed:.3f}, "
        f"overhead {values['trace.overhead_s']:.3f} s at nominal speed; "
        f"{len(tracer.start)} spans written to {out.name}/")


def record(args, job_list):
    preps = setup(args.workload, args.seed)
    digests, failed, lines = evaluate(args.workload, args.seed, job_list,
                                      [run_pass(preps)], reference=False)
    if failed:
        print("\n".join(lines), file=sys.stderr)
        return 1
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    table[args.workload] = digests
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests for {args.workload}")
    return 0


def main(argv=None):
    if not (SRC / "qdeq" / "__init__.py").is_file():
        print(f"qdeq sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads
    args = _parse_args(argv, sorted(workloads.WORKLOADS))
    if args.setup_only:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    job_list = workloads.generate(args.workload, args.seed)
    if args.record_digests:
        if args.seed != REFERENCE_SEED:
            print(f"reference digests are kept for seed {REFERENCE_SEED}",
                  file=sys.stderr)
            return 2
        return record(args, job_list)
    if args.trace:
        from perfbench.tracing import PER_LAYER as units
        lines, values, attempted, failed, note = traced(args, job_list)
    else:
        units = END_TO_END
        try:
            lines, values, attempted, failed, note = end_to_end(args, job_list)
        except Overrun as exc:
            print(f"{args.workload}: {exc}", file=sys.stderr)
            return 1
    for line in lines:
        print(line, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {note}")
    print("# meta " + json.dumps(metadata(), sort_keys=True))
    for k in units:
        print(f"# {k} = {values[k]:.6g} {units[k]}")
    print(json.dumps(_result(failed == 0, attempted, failed, values, units)),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
