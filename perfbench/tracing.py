"""Per-layer tracing from outside the program.

The tracer replaces module attributes of qdeq with wrappers while a
traced pass runs, and puts the originals back afterwards.  A function is
wrapped on every qdeq module that binds it (extend, for instance, is
bound in qdeq, qdeq.solver, qdeq.corpus and qdeq.cli), so a call is seen
whichever module makes it.  Class attributes are wrapped on the class;
aliases such as RatQ.__radd__ get wrappers of their own.

A span wrapper records name, start, end, parent span and job id in flat
arrays that stay in memory until the run ends.  A count wrapper only
counts calls, for functions called too often to span.  No traced
function calls itself, so inclusive time per name is the plain sum of
its span durations; self time subtracts the durations of direct
children, which never overlap in one thread.
"""

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, NamedTuple, Optional

import numpy as np


class Probe(NamedTuple):
    metric: str                        # metric prefix, e.g. "solver.extend"
    module: str                        # defining module
    attr: str                          # "name" or "Class.name"
    span: bool = True                  # False: count calls only
    label: Optional[Callable] = None   # (args) -> sub-name for split timing
    tally: Optional[Callable] = None   # (args, result, exc) -> {counter: amount}


def _eval_poly_domain(args):
    return args[3].name


def _eval_poly_width(args, result, exc):
    return {"solver.eval_poly.width_sum": args[2] + 1}


def _raised(counter, name):
    def tally(args, result, exc):
        return {counter: 1} if type(exc).__name__ == name else {}
    return tally


def _fit_useful(args, result, exc):
    return {"probes.rat_interp.useful": 1} if result is True else {}


def _limb_products(args, result, exc):
    return {"intpoly.mul.limb_products": len(args[0]) * len(args[1])}


def _scan_steps(args, result, exc):
    if result is None:
        return {}
    return {"unitcircle.scan.steps": result.scanned_to * sum(
        1 for u in result.roots if abs(abs(u) - 1.0) <= 1e-6)}


PROBES = (
    Probe("dsl.parse", "qdeq.dsl", "parse"),
    Probe("solver.extend", "qdeq.solver", "extend"),
    Probe("solver.check_solution", "qdeq.solver", "check_solution"),
    Probe("solver.eval_poly", "qdeq.solver", "_eval_poly",
          label=_eval_poly_domain, tally=_eval_poly_width),
    Probe("probes.solve", "qdeq._probes", "solve",
          tally=_raised("probes.fallbacks", "EngineError")),
    Probe("probes.solve_at", "qdeq._probes", "_solve_at", span=False,
          tally=_raised("probes.lane_escalations", "_NeedLanes")),
    Probe("probes.runs", "qdeq._probes", "_start_run"),
    Probe("probes.reconstruct", "qdeq._probes", "_reconstruct_coeff"),
    Probe("probes.rat_interp", "qdeq._probes", "_rat_interp"),
    Probe("probes.check_fit", "qdeq._probes", "_check_fit", span=False,
          tally=_fit_useful),
    Probe("probes.dd_inverses", "qdeq._probes", "_dd_inverses"),
    Probe("probes.newton_interp", "qdeq._probes", "_newton_interp"),
    Probe("probes.lift", "qdeq._probes", "_lift_poly"),
    Probe("probes.verify", "qdeq._probes", "_verify_fresh"),
    Probe("probes.check", "qdeq._probes", "check"),
    Probe("probes.ProbeDomain.series_mul", "qdeq._probes",
          "ProbeDomain.series_mul"),
    Probe("probes.ProbeDomain.div", "qdeq._probes", "ProbeDomain.div"),
    Probe("ratfunc.RatQ.add", "qdeq.ratfunc", "RatQ.__add__"),
    Probe("ratfunc.RatQ.add", "qdeq.ratfunc", "RatQ.__radd__"),
    Probe("ratfunc.RatQ.mul", "qdeq.ratfunc", "RatQ.__mul__"),
    Probe("ratfunc.RatQ.mul", "qdeq.ratfunc", "RatQ.__rmul__"),
    Probe("ratfunc.RatQ.div", "qdeq.ratfunc", "RatQ.__truediv__"),
    Probe("ratfunc.RatQ.shift_q", "qdeq.ratfunc", "RatQ.shift_q"),
    Probe("ratfunc.pochhammer", "qdeq.ratfunc", "pochhammer"),
    Probe("intpoly.gcd", "qdeq._intpoly", "gcd"),
    Probe("intpoly.modular_gcd", "qdeq._intpoly", "_modular_gcd", span=False),
    Probe("intpoly.primes_31", "qdeq._intpoly", "primes_31", span=False),
    Probe("intpoly.is_prime", "qdeq._intpoly", "_is_prime", span=False),
    Probe("intpoly.content", "qdeq._intpoly", "content"),
    Probe("intpoly.mul", "qdeq._intpoly", "mul", tally=_limb_products),
    Probe("nonlinear.linearize", "qdeq.nonlinear", "linearize"),
    Probe("nonlinear.eval_at", "qdeq.nonlinear", "eval_at"),
    Probe("corpus.jones", "qdeq.corpus", "jones"),
    Probe("unitcircle.scan", "qdeq.unitcircle", "scan_condition_H",
          tally=_scan_steps),
    Probe("unitcircle.roots_of", "qdeq.unitcircle", "roots_of"),
    Probe("skewop.newton_polygon", "qdeq.skewop", "newton_polygon"),
    Probe("growth.analyze", "qdeq.growth", "analyze"),
)

# per-layer metrics: name -> unit.  BENCHMARK.json lists the same names.
PER_LAYER = {
    "solver.extend.calls": "count",
    "solver.extend.s": "s",
    "solver.extend.self_s": "s",
    "solver.check_solution.s": "s",
    "solver.eval_poly.calls": "count",
    "solver.eval_poly.exact_s": "s",
    "solver.eval_poly.probe_s": "s",
    "solver.eval_poly.width_sum": "count",
    "solver.coeff_qdeg_max": "count",
    "solver.coeff_bits_max": "bits",
    "probes.solve.calls": "count",
    "probes.solve.s": "s",
    "probes.runs.calls": "count",
    "probes.runs.s": "s",
    "probes.lane_escalations": "count",
    "probes.fallbacks": "count",
    "probes.reconstruct.s": "s",
    "probes.rat_interp.calls": "count",
    "probes.rat_interp.s": "s",
    "probes.rat_interp.useful_ratio": "ratio",
    "probes.dd_inverses.s": "s",
    "probes.newton_interp.s": "s",
    "probes.lift.s": "s",
    "probes.verify.s": "s",
    "probes.check.s": "s",
    "probes.ProbeDomain.series_mul.s": "s",
    "probes.ProbeDomain.div.s": "s",
    "ratfunc.RatQ.add.calls": "count",
    "ratfunc.RatQ.add.s": "s",
    "ratfunc.RatQ.add.self_s": "s",
    "ratfunc.RatQ.mul.calls": "count",
    "ratfunc.RatQ.mul.s": "s",
    "ratfunc.RatQ.mul.self_s": "s",
    "ratfunc.RatQ.div.calls": "count",
    "ratfunc.RatQ.div.s": "s",
    "ratfunc.RatQ.shift_q.calls": "count",
    "ratfunc.RatQ.shift_q.s": "s",
    "ratfunc.pochhammer.calls": "count",
    "ratfunc.pochhammer.s": "s",
    "intpoly.gcd.calls": "count",
    "intpoly.gcd.s": "s",
    "intpoly.gcd.self_s": "s",
    "intpoly.gcd.modular_ratio": "ratio",
    "intpoly.primes_31.calls": "count",
    "intpoly.is_prime.calls": "count",
    "intpoly.content.calls": "count",
    "intpoly.content.s": "s",
    "intpoly.mul.calls": "count",
    "intpoly.mul.s": "s",
    "intpoly.mul.limb_products": "count",
    "nonlinear.linearize.s": "s",
    "nonlinear.eval_at.s": "s",
    "corpus.jones.calls": "count",
    "corpus.jones.s": "s",
    "unitcircle.scan.s": "s",
    "unitcircle.scan.steps": "count",
    "unitcircle.roots_of.s": "s",
    "dsl.parse.calls": "count",
    "dsl.parse.s": "s",
    "skewop.newton_polygon.s": "s",
    "growth.analyze.s": "s",
    "trace.spans": "count",
    "trace.batch_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs the probes, records spans and counters, restores originals."""

    def __init__(self):
        self.names = []          # span name table; arrays hold indices
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts = {}         # count-only calls and tallies
        self.job_id = -1
        self._stack = []
        self._installed = []     # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _add(self, counters):
        for key, amount in counters.items():
            self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, probe, orig):
        tracer = self
        if not probe.span:
            calls = probe.metric + ".calls"

            @functools.wraps(orig)
            def counted(*args, **kwargs):
                tracer.counts[calls] = tracer.counts.get(calls, 0) + 1
                if probe.tally is None:
                    return orig(*args, **kwargs)
                try:
                    result = orig(*args, **kwargs)
                except Exception as exc:
                    tracer._add(probe.tally(args, None, exc))
                    raise
                tracer._add(probe.tally(args, result, None))
                return result
            return counted

        fixed = None if probe.label else self._name_id(probe.metric)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._name_id(
                f"{probe.metric}.{probe.label(args)}")
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                tracer.end[idx] = clock()
                stack.pop()
                if probe.tally:
                    tracer._add(probe.tally(args, None, exc))
                raise
            tracer.end[idx] = clock()
            stack.pop()
            if probe.tally:
                tracer._add(probe.tally(args, result, None))
            return result
        return spanned

    # -- installation ------------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for probe in PROBES:
            importlib.import_module(probe.module)  # qdeq imports _probes lazily
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qdeq" or key.startswith("qdeq.")]
        try:
            for probe in PROBES:
                home = sys.modules[probe.module]
                if "." in probe.attr:
                    cls_name, attr = probe.attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    self._installed.append((cls, attr, orig))
                    setattr(cls, attr, self._wrap(probe, orig))
                    continue
                orig = getattr(home, probe.attr)
                wrapper = self._wrap(probe, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._installed.append((mod, key, orig))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def totals(self):
        """{name: (calls, inclusive seconds, self seconds)} over all spans."""
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        self_t = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        excl = np.bincount(names, weights=self_t, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(excl[i]))
                for i, name in enumerate(self.names)}

    def layer_metrics(self):
        """Per-layer metrics from the spans and counters; the caller adds
        the trace.* and solver.coeff_* entries."""
        tot = self.totals()

        def get(name, stat):
            calls, incl, excl = tot.get(name, (0, 0.0, 0.0))
            return {"calls": calls, "s": incl, "self_s": excl}[stat]

        spanned = {p.metric for p in PROBES if p.span and not p.label}
        out = {}
        for metric in PER_LAYER:
            base, _, stat = metric.rpartition(".")
            if base in spanned and stat in ("calls", "s", "self_s"):
                out[metric] = get(base, stat)
            elif not metric.startswith(("trace.", "solver.coeff_")):
                out[metric] = self.counts.get(metric, 0)
        for domain in ("exact", "probe"):
            out[f"solver.eval_poly.{domain}_s"] = get(
                f"solver.eval_poly.{domain}", "s")
        out["solver.eval_poly.calls"] = sum(
            get(f"solver.eval_poly.{d}", "calls") for d in ("exact", "probe"))
        fits = get("probes.rat_interp", "calls")
        out["probes.rat_interp.useful_ratio"] = (
            self.counts.get("probes.rat_interp.useful", 0) / fits if fits else 0.0)
        gcds = get("intpoly.gcd", "calls")
        out["intpoly.gcd.modular_ratio"] = (
            self.counts.get("intpoly.modular_gcd.calls", 0) / gcds if gcds else 0.0)
        out["trace.spans"] = len(self.start)
        return out

    def save(self, path):
        """Write every span to an .npz file (names table plus columns)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32))
