"""Reach: every function src/qdeq defines runs under some CLI contract.

Each row of tests/cli_contracts.py runs through cli.main under a
sys.settrace tracer that records the code object of every call into
src/qdeq.  Every def in src/qdeq (methods and nested functions too) must
be entered by some row, unless it is a __repr__ (one rule, REPR) or
KEPT names it with its reason; a kept entry must name a definition that
no row enters, so the list cannot go stale.  Only rows that run on every
Python count: a row that some Python skips cannot be the one that enters
a function.
"""

import ast
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import cli_contracts
import pytest
import qdeq
from qdeq.cli import main

SRC = Path(qdeq.__file__).parent

# kept wherever it is defined: the CLI prints to_text and to_json, and a
# repr serves the REPL and the messages of failing tests
REPR = "__repr__"

EQUALITY = "value equality: tests compare parse output and answers with it"
TRUTH = "truth of a value; without it bool(zero) would be silently true"
GCD_FALLBACK = ("gcd's modular fallback, for the inputs where GCDHEU fails;"
                " no contract row's gcd fails")
ITEM_12 = "waits for the probe solve's exact check (ROADMAP item 12)"

# "module.Qualified.name" of a def no contract row enters: its reason
KEPT = {
    "nonlinear.QdeqPoly.__eq__": EQUALITY,
    "series.TruncSeries.__eq__": EQUALITY,
    "skewop.SkewOp.__eq__": EQUALITY,
    "series.XPoly.__eq__": EQUALITY,
    "ratfunc.RatQ.__bool__": TRUTH,
    "ratfunc.RatQ.__rsub__": "RatQ is the public element of Q(q): 1 - Q",
    "ratfunc.RatQ.__rtruediv__": "RatQ is the public element of Q(q): 1 / Q",
    "ratfunc.RatQ.num": ("perfbench reads the dense numerator: checks._at,"
                         " checks._ratq_terms and jobs.coeff_size"),
    "ratfunc.RatQ.den": ("perfbench reads the dense denominator: checks._at,"
                         " checks._ratq_terms and jobs.coeff_size"),
    "ratfunc.QLaurent.terms": "perfbench reads a Jones value's terms",
    "ratfunc.QLaurent.q_power": "A8 builds its expectation from it",
    "unitcircle.DiophantineScan.passed": "A7 reads a scan's verdict with it",
    "_intpoly._modular_gcd": GCD_FALLBACK,
    "_intpoly.primes_31": GCD_FALLBACK,
    "skewop.ResonancePoly.at_qpow": ITEM_12,
    "solver.resonance_set": ITEM_12,
}


def _defs():
    """{(file, first line): "module.Qualified.name"} of every def in
    src/qdeq; the first line is a decorator's where one is, as on the
    function's code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[str(path), first] = f"{prefix}.{child.name}"
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, path, f"{prefix}.{child.name}")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem)
    return found


def _rows_every_python_runs():
    """The rows of the table that no Python skips: those not skipped here
    nor in the table as a Python whose int() has no digit limit builds it,
    the one way its rows differ between Pythons."""
    spec = importlib.util.spec_from_file_location(
        "cli_contracts_no_digit_limit", cli_contracts.__file__)
    other = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(sys, "get_int_max_str_digits", raising=False)
        spec.loader.exec_module(other)
    assert len(other.CONTRACTS) == len(cli_contracts.CONTRACTS)
    return [row for row, twin in zip(cli_contracts.CONTRACTS, other.CONTRACTS)
            if not row.skip and not twin.skip]


def _entered(rows, directory):
    """(file, first line) of each code object of src/qdeq that running
    rows through cli.main enters, with files written under directory."""
    prefix, entered = str(SRC), set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            entered.add(frame.f_code)

    previous = sys.gettrace()
    try:
        for row in rows:
            sys.stdin = io.StringIO(row.stdin)
            argv = row.args(directory)
            # re-armed per row: a row that reaches the recursion limit
            # drops the tracer
            sys.settrace(tracer)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                main(argv)
            sys.settrace(None)
    finally:
        sys.settrace(previous)
    return sorted({(c.co_filename, c.co_firstlineno) for c in entered})


def test_every_function_in_src_runs_under_a_contract_row():
    defs = _defs()
    names = set(defs.values())
    stale = sorted(set(KEPT) - names)
    assert not stale, f"KEPT names no definition in src/qdeq: {stale}"
    # a fresh process, as each qdeq command is one: a cache that an
    # earlier test filled in this one (the prime lists, say) would spare
    # the rows the functions that fill it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    entered = {defs.get(tuple(key)) for key in json.loads(run.stdout)}
    kept_but_run = sorted(set(KEPT) & entered)
    assert not kept_but_run, (
        f"KEPT names functions a contract row enters: {kept_but_run}")
    unreached = sorted(name for name in names - entered
                       if name not in KEPT
                       and name.rpartition(".")[2] != REPR)
    assert not unreached, (
        f"functions in src/qdeq no contract row enters: {unreached}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        json.dump(_entered(_rows_every_python_runs(), directory), sys.stdout)
