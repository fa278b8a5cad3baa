"""CLI: the contract table of tests/cli_contracts.py run through cli.main,
and the checks no row can make: runs compared with each other, input
files, a patched package, the README's tour and hostile flag values."""

import argparse
import ast
import io
import json
import shlex
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_contracts import CONTRACTS, DEEP, EULER, GOLDEN, OP, QP2, check
from qdeq import _intpoly as K
from qdeq.cli import _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- the contract table --------------------------------------------------------


def _run_row(row, capsys, monkeypatch, tmp_path):
    if row.skip:
        pytest.skip(row.skip)
    monkeypatch.setattr("sys.stdin", io.StringIO(row.stdin))
    argv = row.args(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    check(row, code, out, err, time.perf_counter() - start)


def _contract_test(rows):
    """The test of the rows that share one test name: a case per row where
    their ids carry one ("name[case]"), else one test running each row."""
    cases = [row.test.partition("[")[2][:-1] for row in rows]
    assert all(cases) or not any(cases), rows[0].test
    if not any(cases):
        def test(capsys, monkeypatch, tmp_path):
            for row in rows:
                _run_row(row, capsys, monkeypatch, tmp_path)
        return test

    @pytest.mark.parametrize("row", rows, ids=cases)
    def test(row, capsys, monkeypatch, tmp_path):
        _run_row(row, capsys, monkeypatch, tmp_path)
    return test


# -- checks that compare runs, read files or patch the package -----------------


def test_linearize_order_at_the_seed_validates_it(capsys):
    plain = run(capsys, "linearize", EULER, "--seed", "1,1,q")
    assert run(capsys, "linearize", EULER, "--seed", "1,1,q",
               "--order", "2") == plain
    # c_2 = q c_1 on this equation: without --order the seed is taken as
    # given, with it extend rejects the seed
    assert run(capsys, "linearize", EULER, "--seed", "1,1,1")[0] == 0
    code, out, err = run(capsys, "linearize", EULER, "--seed", "1,1,1",
                         "--order", "2")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "SeedRejected"


def test_input_file_and_stdin(capsys, tmp_path, monkeypatch):
    eq = tmp_path / "eq.txt"
    eq.write_text("x*S[1] - 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "polygon", "--input", str(eq))
    assert code == 0 and "slope 1" in out

    monkeypatch.setattr("sys.stdin", io.StringIO("x*S[1] - 1"))
    code, out, _ = run(capsys, "polygon", "--input", "-")
    assert code == 0 and "slope 1" in out


def test_diophantine_reads_the_operator_like_every_command(
        capsys, tmp_path, monkeypatch):
    f = tmp_path / "op.txt"
    f.write_text(OP + "\n", encoding="utf-8")
    outs = []
    for argv in (("--input", str(f)), ("--input", "-"), (OP,)):
        monkeypatch.setattr("sys.stdin", io.StringIO(OP))
        code, out, _ = run(capsys, "diophantine", *argv, *GOLDEN)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert len(json.loads(outs[0])["roots"]) == 2


def test_diophantine_reduces_a_rational_theta_mod_1(capsys):
    # 700000000000000000001/7 is 10^20 + 1/7: the same q as 1/7, exactly
    big = run(capsys, "diophantine", "--theta", "700000000000000000001/7",
              "--N", "5", "--format", "json")
    small = run(capsys, "diophantine", "--theta", "1/7", "--N", "5",
                "--format", "json")
    assert big == small and big[0] == 0


def test_memory_error_is_a_diagnostic(capsys, monkeypatch):
    # an input too large for memory (say jones --n 10000000000000) ends
    # in the JSON diagnostic of every error, exit 1; the stand-in raises
    # without allocating
    def jones(n):
        raise MemoryError

    monkeypatch.setattr("qdeq.cli.jones", jones)
    code, out, err = run(capsys, "jones", "--n", "10000000000000")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "MemoryError", "message": ""}


def test_exact_commands_send_the_kernel_ratq_layout(capsys, monkeypatch):
    # gcd and divexact take operands with nonzero constant terms, gcd's of
    # length >= 2: the layout of RatQ's n and d.  A caller outside it
    # fails here, where divexact would answer "not divisible" instead.
    # Calls from the kernel itself do not count: _modular_gcd may try a
    # CRT image whose constant term is 0, which divexact rejects
    seen, outside = {"gcd": 0, "divexact": 0}, []

    def watch(name, shortest):
        inner = getattr(K, name)

        def call(a, b):
            if sys._getframe(1).f_globals is not vars(K):
                seen[name] += 1
                if not all(len(f) >= shortest and f[0] for f in (a, b)):
                    outside.append((name, a, b))
            return inner(a, b)

        monkeypatch.setattr(K, name, call)

    watch("gcd", 2)
    watch("divexact", 1)
    for argv in (("corpus", "--run"), ("jones", "--n", "30"),
                 ("solve", QP2, "--seed", "1,q/(1+q)", "--order", "12")):
        assert run(capsys, *argv)[0] == 0
    assert seen["gcd"] and seen["divexact"]
    assert not outside


def _flag_sets():
    top = _build_parser()
    (sub,) = [a for a in top._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: {a.option_strings[0] if a.option_strings else a.dest
                   for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()}


def test_each_command_declares_the_flags_it_reads():
    source = {"equation", "--input", "--format"}
    seeded = source | {"--seed", "--order"}
    flags = _flag_sets()
    assert flags == {
        "parse": source,
        "polygon": source,
        "linearize": seeded,
        "solve": seeded,
        "growth": seeded | {"--s", "--C", "--predict-from-polygon"},
        "jones": {"--n", "--format"},
        "corpus": {"--run", "--entry", "--order", "--format"},
        "diophantine": source | {"--theta", "--roots", "--N", "--c2-grid"},
    }
    assert sum(map(len, flags.values())) == 37


# -- the README's CLI tour -----------------------------------------------------


def _tour():
    """(argv, file stdout is redirected to or None, expected lines) for
    each "$ qdeq ..." line of the README's CLI tour."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI tour", 1)[1].split("```sh\n", 1)[1]
    steps = []
    for line in block.split("\n```", 1)[0].splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:])
            assert argv[0] == "qdeq"
            target = None
            if ">" in argv:
                i = argv.index(">")
                argv, target = argv[:i], argv[i + 1]
            steps.append((argv[1:], target, []))
        elif line:
            steps[-1][2].append(line)
    return steps


def test_readme_cli_tour(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = _tour()
    assert len(steps) == 7
    for argv, target, expected in steps:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
            assert expected == []
            continue
        got = out.splitlines()
        assert len(got) == len(expected), argv
        for g, want in zip(got, expected):
            if "..." in want:  # the README elides the middle of this line
                head, tail = want.split("...", 1)
                assert g.startswith(head) and g.endswith(tail), argv
            else:
                assert g == want, argv


def test_readme_library_tour():
    """The python block of the README's library tour runs, and each bare
    expression in it shows the value its comment gives."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1]
    block = block.split("\n```", 1)[0]
    lines, ns, shown = block.splitlines(), {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "tour", "eval"), ns)
            comment = lines[stmt.end_lineno - 1].split("#", 1)[1].strip()
            shown.append((repr(value), comment))
        else:
            exec(compile(ast.Module([stmt], []), "tour", "exec"), ns)
    assert len(shown) == 5
    for value, comment in shown[:4]:  # "RatQ(q^10)", "Fraction(1, 1): ..."
        assert comment.split(":")[0] == value
    assert shown[4] == ("True", "deg <= 1*h(h-1)/2 holds sharply")


def test_unreadable_input_names_its_flag(capsys, tmp_path):
    # a file that is not UTF-8, a missing file and a directory
    binary = tmp_path / "eq.bin"
    binary.write_bytes(b"\xff\xfe")
    for path in (binary, tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, "parse", "--input", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["message"].startswith("argument --input: ")


# -- hostile flag values -------------------------------------------------------

# (arguments before the value, flag, whether huge values must be dropped):
# a huge order or count is a valid value that would run for long
HOSTILE_FLAGS = [
    (("linearize", EULER), "--seed", False),
    (("solve", EULER, "--seed", "1"), "--order", True),
    (("linearize", EULER, "--seed", "1"), "--order", True),
    (("growth", EULER, "--seed", "1"), "--order", True),
    (("growth", EULER, "--seed", "1", "--order", "8"), "--s", False),
    (("growth", EULER, "--seed", "1", "--order", "8"), "--C", False),
    (("jones",), "--n", True),
    (("diophantine", "--N", "100"), "--theta", False),
    (("diophantine", "--theta", "0.6180339887", "--N", "100"), "--roots",
     False),
    (("diophantine", "--theta", "0.6180339887", "--N", "100"), "--c2-grid",
     False),
    (("diophantine", "--theta", "0.6180339887"), "--N", True),
    (("corpus",), "--entry", False),
    (("corpus", "--run"), "--order", True),
    (("parse", EULER), "--format", False),
    (("parse",), "--input", False),
]
HUGE = "9" * 40
SMALL_ATOMS = ["", " ", "\t", "nan", "-nan", "inf", "-inf", "1/0", "0/0",
               "1e400", "-1e400", "1.0e400", "-0", "0", "-1", "7", " 3 ",
               "\u0663", "\uff11\uff12", "\u00bd", "1_0", "0x1f", "-" + HUGE,
               "1/3", "2.5", "q", "\u00e9", "1,", ","]
ATOMS = SMALL_ATOMS + [HUGE, "1" + "0" * 400, DEEP]


@st.composite
def hostile_argv(draw):
    """argv of one command with one flag set to a hostile literal: one
    to three atoms joined by commas, as "--flag value" or "--flag=value"."""
    before, flag, small = draw(st.sampled_from(HOSTILE_FLAGS))
    atoms = st.sampled_from(SMALL_ATOMS if small else ATOMS)
    value = ",".join(draw(st.lists(atoms, min_size=1, max_size=3)))
    if draw(st.booleans()):
        return flag, [*before, f"{flag}={value}"]
    return flag, [*before, flag, value]


@settings(max_examples=240, deadline=None)
@given(hostile_argv())
def test_hostile_flag_values_end_in_a_diagnostic(case):
    # any value of any flag exits 0, 1 or 2 with no traceback, and an
    # error names the flag whose value it rejects
    flag, argv = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        last = json.loads(err.getvalue().splitlines()[-1])
        assert flag in last["message"], (argv, last)


def _define_contract_tests():
    """Define the test of each test name the table's rows carry."""
    names = {}
    for row in CONTRACTS:
        names.setdefault(row.test.partition("[")[0], []).append(row)
    for name, rows in names.items():
        assert name not in globals(), f"{name} is defined twice"
        globals()[name] = _contract_test(rows)


_define_contract_tests()
