"""CLI: subcommands, formats, and the exit code contract."""

import argparse
import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdeq.cli import _build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    # --help leaves main via SystemExit; everything else returns
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_text(capsys):
    code, out, _ = run(capsys, "parse", "x*y[1] - y[0] + 1")
    assert code == 0
    assert out.strip() == "nonlinear: 1 + (-1)*y[0] + x*y[1]"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "x*S[1] - 1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "linear_operator"
    assert obj["text"] == "x*S[1] - 1"


def test_polygon_basic(capsys):
    code, out, _ = run(capsys, "polygon", "x*S[1] - 1", "--format", "json")
    assert code == 0
    assert json.loads(out)["slopes"] == ["1"]


def test_polygon_rejects_nonlinear(capsys):
    code, out, err = run(capsys, "polygon", "y[0]*y[1] - 1")
    assert code == 1
    assert json.loads(err)["error"] == "QdeqError"


def test_linearize(capsys):
    code, out, _ = run(capsys, "linearize", "x*y[1] - y[0] + 1",
                       "--seed", "1", "--order", "3")
    assert code == 0
    assert "S[1]" in out and "S[0]" in out


def test_linearize_json_prints_a_series_operator(capsys):
    # the seeds 1, 1 are known through order 1, so the operator's
    # coefficients are series truncated there
    code, out, _ = run(capsys, "linearize", "x*y[1] - y[0] + 1",
                       "--seed", "1,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"flavor": "series", "terms": {
        "0": {"trunc": 1, "coeffs": ["-1", "0"]},
        "1": {"trunc": 1, "coeffs": ["0", "1"]}}}


def test_linearize_order_below_the_seed_is_an_error(capsys):
    code, out, err = run(capsys, "linearize", "x*y[1] - y[0] + 1",
                         "--seed", "1,1,q", "--order", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "UsageError",
        "message": "argument --order: target order 1 is below the seed"
                   " order 2"}


@pytest.mark.parametrize("command", ["solve", "growth"])
def test_order_below_the_seed_names_the_flag(capsys, command):
    # as in linearize, an order below the seed order is bad usage
    code, out, err = run(capsys, command, "x*y[1] - y[0] + 1",
                         "--seed", "1,1,q", "--order", "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "UsageError",
        "message": "argument --order: target order 1 is below the seed"
                   " order 2"}


def test_linearize_order_at_the_seed_validates_it(capsys):
    eq = "x*y[1] - y[0] + 1"
    plain = run(capsys, "linearize", eq, "--seed", "1,1,q")
    assert run(capsys, "linearize", eq, "--seed", "1,1,q",
               "--order", "2") == plain
    # c_2 = q c_1 on this equation: without --order the seed is taken as
    # given, with it extend rejects the seed
    assert run(capsys, "linearize", eq, "--seed", "1,1,1")[0] == 0
    code, out, err = run(capsys, "linearize", eq, "--seed", "1,1,1",
                         "--order", "2")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "SeedRejected"


def test_linearize_rejects_operator(capsys):
    code, _, err = run(capsys, "linearize", "x*S[1] - 1", "--seed", "1")
    assert code == 1
    assert "already linear" in json.loads(err)["message"]


def test_solve_qeuler(capsys):
    code, out, _ = run(capsys, "solve", "x*y[1] - y[0] + 1",
                       "--seed", "1", "--order", "6", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"] == ["1", "1", "q", "q^3", "q^6", "q^10", "q^15"]
    assert obj["resolved_through"] == 6


def test_solve_operator_input(capsys):
    # linear operators route through the same solver
    code, out, _ = run(capsys, "solve", "S[-2]*(S[1]-1)*(S[1]+1) + q^-2*x",
                       "--seed", "1", "--order", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"][1] == "-1/(q^2-1)"


def test_solve_needs_seed(capsys):
    code, _, err = run(capsys, "solve", "x*y[1] - y[0] + 1")
    assert code == 1
    assert "--seed" in json.loads(err)["message"]


def test_input_file_and_stdin(capsys, tmp_path, monkeypatch):
    eq = tmp_path / "eq.txt"
    eq.write_text("x*S[1] - 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "polygon", "--input", str(eq))
    assert code == 0 and "slope 1" in out

    monkeypatch.setattr("sys.stdin", io.StringIO("x*S[1] - 1"))
    code, out, _ = run(capsys, "polygon", "--input", "-")
    assert code == 0 and "slope 1" in out


def test_growth_from_solve_json(capsys, tmp_path):
    code, solve_out, _ = run(capsys, "solve", "x*y[1] - y[0] + 1",
                             "--seed", "1", "--order", "15",
                             "--format", "json")
    assert code == 0
    f = tmp_path / "sol.json"
    f.write_text(solve_out, encoding="utf-8")
    code, out, _ = run(capsys, "growth", "--input", str(f),
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["estimated_order_deg"] == "1"


def test_growth_bare_list(capsys, tmp_path):
    f = tmp_path / "series.json"
    f.write_text(json.dumps(["1", "q", "q^3", "q^6", "q^10", "q^15"]),
                 encoding="utf-8")
    code, out, _ = run(capsys, "growth", "--input", str(f),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["estimated_order_deg"] == "1"


def test_growth_asserted_bound_failure_exits_2(capsys):
    code, out, _ = run(capsys, "growth", "x*y[1] - y[0] + 1",
                       "--seed", "1", "--order", "15", "--s", "0", "--C", "1")
    assert code == 2
    assert "FAIL" in out


def test_growth_asserted_bound_pass_exits_0(capsys):
    code, _, _ = run(capsys, "growth", "x*y[1] - y[0] + 1",
                     "--seed", "1", "--order", "15", "--s", "1", "--C", "0")
    assert code == 0


def test_growth_predict_from_polygon(capsys):
    code, out, _ = run(capsys, "growth", "x*y[1] - y[0] + 1",
                       "--seed", "1", "--order", "15",
                       "--predict-from-polygon")
    assert code == 0
    assert "within polygon prediction" in out


def test_growth_predict_needs_equation(capsys, tmp_path):
    f = tmp_path / "series.json"
    f.write_text(json.dumps(["1", "q"]), encoding="utf-8")
    code, _, err = run(capsys, "growth", "--input", str(f),
                       "--predict-from-polygon")
    assert code == 1
    assert "needs an equation" in json.loads(err)["message"]


def test_jones_text_and_json(capsys):
    code, out, _ = run(capsys, "jones", "--n", "2")
    assert code == 0
    assert out.strip() == "q^2-q+1-q^-1+q^-2"
    code, out, _ = run(capsys, "jones", "--n", "3", "--format", "json")
    obj = json.loads(out)
    assert obj["deg_q"] == 6 and obj["ord_q"] == -6


def test_jones_negative_exits_1(capsys):
    code, _, err = run(capsys, "jones", "--n", "-1")
    assert code == 1
    assert json.loads(err) == {"error": "UsageError",
                               "message": "argument --n: -1 is below 0"}


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, "corpus", "--format", "json")
    assert code == 0
    ids = [e["id"] for e in json.loads(out)["entries"]]
    assert ids == ["q-euler", "jones-figure8", "q-painleve-2", "phi11-basic"]


def test_corpus_run_single_entry(capsys):
    code, out, _ = run(capsys, "corpus", "--run", "--entry", "phi11-basic",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["entries"][0]["entry"] == "phi11-basic"


def test_corpus_run_unknown_entry(capsys):
    code, _, err = run(capsys, "corpus", "--run", "--entry", "nope")
    assert code == 1
    assert "nope" in json.loads(err)["message"]


def test_diophantine_root_of_unity(capsys):
    code, out, _ = run(capsys, "diophantine", "--theta", "1/3",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"verdict": "root_of_unity", "n": 3}


def test_diophantine_root_of_unity_before_the_roots(capsys):
    # at q = -1 the leading coefficient 1+q of the operator vanishes, but
    # q^2 = 1 is decided first, as it is without an operator
    for argv in (("(1+q)*S[1] - 1",), ()):
        assert run(capsys, "diophantine", *argv, "--theta", "1/2") == (
            0, "root of unity: q^2 = 1\n", "")
    # below n = 2 the scan range holds no root of unity, so the roots of
    # the operator are looked for, and they degenerate
    code, _, err = run(capsys, "diophantine", "(1+q)*S[1] - 1",
                       "--theta", "1/2", "--N", "1")
    assert code == 1
    assert json.loads(err)["error"] == "DegenerateAfterEvaluation"


def test_diophantine_float_root_of_unity_before_the_roots(capsys):
    # a float theta has no exact check; where the roots degenerate, the
    # scan's own test decides, and gives the verdict the bare scan gives
    for argv in (("(1+q)*S[1] - 1",), ()):
        assert run(capsys, "diophantine", *argv, "--theta", "0.5") == (
            0, "root of unity: q^2 = 1\n", "")
        code, out, _ = run(capsys, "diophantine", *argv, "--theta", "0.5",
                           "--format", "json")
        assert (code, json.loads(out)) == (
            0, {"verdict": "root_of_unity", "n": 2})
    code, _, err = run(capsys, "diophantine", "(1+q)*S[1] - 1",
                       "--theta", "0.5", "--N", "1")
    assert code == 1
    assert json.loads(err)["error"] == "DegenerateAfterEvaluation"


def test_diophantine_golden_small(capsys):
    code, out, _ = run(capsys, "diophantine", "--theta", "0.6180339887",
                       "--N", "500", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "pass"


def test_diophantine_roots_flag(capsys):
    code, out, _ = run(capsys, "diophantine", "--theta", "0.1234",
                       "--roots", "2,1", "--N", "200", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["roots"]) == 2


def test_diophantine_op_file(capsys, tmp_path):
    f = tmp_path / "op.txt"
    f.write_text("S[2] - (1+q)*S[1] + q*S[0]", encoding="utf-8")
    code, out, _ = run(capsys, "diophantine", "--theta", "0.6180339887",
                       "--input", str(f), "--N", "300", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["roots"]) == 2  # resonance roots 1 and q


def test_diophantine_custom_grid(capsys):
    code, out, _ = run(capsys, "diophantine", "--theta", "0.6180339887",
                       "--N", "500", "--c2-grid", "3/2,2", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"]["c2"] == "3/2"


def test_diophantine_constant_resonance_polynomial(capsys):
    # S[0] - x*S[1] has a constant resonance polynomial: nothing to scan
    code, out, _ = run(capsys, "diophantine", "S[0] - x*S[1]", "--theta",
                       "0.6180339887", "--N", "100")
    assert code == 0
    assert out.splitlines()[1:] == ["overall: pass, no roots to scan"]


def test_usage_error_exits_1(capsys):
    code, _, err = run(capsys, "polygon", "--badflag")
    assert code == 1
    assert json.loads(err)["error"] == "UsageError"


def test_missing_equation_exits_1(capsys):
    code, _, err = run(capsys, "polygon")
    assert code == 1
    assert "no equation" in json.loads(err)["message"]


def test_syntax_error_carries_position(capsys):
    code, _, err = run(capsys, "parse", "x + %")
    assert code == 1
    obj = json.loads(err)
    assert obj["error"] == "EquationSyntaxError" and obj["pos"] == 4


DEEP = "(" * 2000 + "1" + ")" * 2000


def test_deep_nesting_is_a_syntax_error(capsys):
    code, out, err = run(capsys, "parse", DEEP)
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "EquationSyntaxError"
    assert obj["message"].startswith("expression nested too deeply")


def test_deep_seed_is_a_usage_error_naming_seed(capsys):
    code, out, err = run(capsys, "solve", "x*y[1] - y[0] + 1",
                         "--seed", DEEP)
    assert code == 1 and out == ""
    obj = json.loads(err.splitlines()[-1])
    assert obj["error"] == "UsageError"
    assert obj["message"].startswith("argument --seed: ")
    assert "nested too deeply" in obj["message"]


@pytest.mark.parametrize("seed, message", [
    ("1,q^," + DEEP, "coefficient 1: expected an exponent (at position 2)"),
    ("1,1," + DEEP, "coefficient 2: expression nested too deeply"),
    # int() refuses more digits than its limit, where it has one
    pytest.param("1," + "7" * 5000, "coefficient 1: Exceeds the limit",
                 marks=pytest.mark.skipif(
                     not getattr(sys, "get_int_max_str_digits", int)(),
                     reason="int() has no digit limit")),
], ids=["bad-exponent", "deep", "many-digits"])
def test_bad_seed_diagnostic_names_the_coefficient_not_its_text(
        capsys, seed, message):
    code, out, err = run(capsys, "solve", "x*y[1] - y[0] + 1", "--seed", seed)
    assert code == 1 and out == ""
    last = err.splitlines()[-1]
    assert len(last) < 300
    obj = json.loads(last)
    assert obj["error"] == "UsageError"
    assert obj["message"].startswith("argument --seed: " + message)


# -- flags per command ---------------------------------------------------------


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


@pytest.mark.parametrize("argv", [
    ("parse", "x*S[1] - 1", "--seed", "1"),
    ("parse", "x*S[1] - 1", "--order", "3"),
    ("polygon", "x*S[1] - 1", "--seed", "1"),
    ("polygon", "x*S[1] - 1", "--order", "3"),
    ("jones", "--n", "2", "--input", "eq.txt"),
    ("jones", "--n", "2", "--seed", "1"),
    ("jones", "--n", "2", "--order", "3"),
    ("corpus", "--input", "eq.txt"),
    ("corpus", "--seed", "1"),
    ("diophantine", "--theta", "0.3", "--seed", "1"),
    ("diophantine", "--theta", "0.3", "--order", "3"),
    ("diophantine", "--theta", "0.3", "--op", "op.txt"),
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "UsageError"
    # a value after the flag may be taken as the equation instead
    assert obj["message"].startswith(f"unrecognized arguments: {argv[-2]}")


@pytest.mark.parametrize("flag", ["--seed", "--order"])
def test_growth_series_rejects_seed_and_order(capsys, tmp_path, flag):
    f = tmp_path / "series.json"
    f.write_text(json.dumps(["1", "q", "q^3"]), encoding="utf-8")
    code, out, err = run(capsys, "growth", "--input", str(f), flag, "1")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "QdeqError",
        "message": f"{flag} needs an equation, not a bare series"}


def test_growth_series_object_truncation(capsys, tmp_path):
    # one reader: "trunc" first, then "resolved_through", then the length
    coeffs = ["1", "q", "q^3", "q^6", "q^10"]
    for obj, through in (({"coeffs": coeffs, "trunc": 7}, 7),
                         ({"coeffs": coeffs, "trunc": 2,
                           "resolved_through": 3}, 2),
                         ({"coeffs": coeffs, "resolved_through": 3}, 3),
                         ({"coeffs": coeffs}, 4)):
        f = tmp_path / "series.json"
        f.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = run(capsys, "growth", "--input", str(f))
        assert code == 0
        assert out.splitlines()[0] == f"profiles through order {through}"


@pytest.mark.parametrize("text", [
    '{"coeffs": "12"}', '{"coeffs": ["1", "q"], "trunc": true}', "[1, 2]",
    "[null]", '{"coeffs": ["1"], "trunc": "x"}',
    '{"coeffs": ["1"], "trunc": 2.5}', '{"coeffs": ["1"], "trunc": -1}',
    '{"coeffs": ["1"], "resolved_through": false}', '{"trunc": 3}', "[]",
])
def test_growth_series_json_is_read_strictly(capsys, monkeypatch, text):
    # a list of strings and an integer truncation >= 0, nothing looser: a
    # string is no coefficient list and true is no truncation order
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "growth", "--input", "-")
    assert code == 1 and out == ""
    last = json.loads(err.splitlines()[-1])
    assert last["error"] == "QdeqError"
    assert last["message"].startswith("argument --input: ")


@pytest.mark.parametrize("text, what", [
    ("[1", "invalid JSON"),
    # past the decoder's recursion limit
    pytest.param("[" * 1000, "invalid JSON", id="deep-list"),
    ('["1", "q^"]', "invalid coefficient"),
    ('{"coeffs": ["1/0"]}', "invalid coefficient"),
])
def test_growth_malformed_series_json_names_input(capsys, monkeypatch,
                                                  text, what):
    # JSON that does not decode and a coefficient that does not parse end
    # in the same diagnostic as any other bad --input, not in the
    # decoder's or the parser's own exception
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "growth", "--input", "-")
    assert code == 1 and out == ""
    last = json.loads(err.splitlines()[-1])
    assert last["error"] == "QdeqError"
    assert last["message"].startswith(f"argument --input: {what}: ")


def test_growth_bound_usage_error_names_fraction(capsys):
    code, _, err = run(capsys, "growth", "x*y[1] - y[0] + 1", "--seed", "1",
                       "--s", "abc")
    assert code == 1
    assert json.loads(err) == {
        "error": "UsageError",
        "message": "argument --s: invalid Fraction value: 'abc'"}


def test_corpus_order_needs_run(capsys):
    code, out, err = run(capsys, "corpus", "--order", "5")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "QdeqError",
                               "message": "--order needs --run"}


OP = "S[2] - (1+q)*S[1] + q*S[0]"
GOLDEN = ("--theta", "0.6180339887", "--N", "300", "--format", "json")


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


def test_diophantine_operator_conflicts_with_roots(capsys):
    code, out, err = run(capsys, "diophantine", OP, "--roots", "2,1", *GOLDEN)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "QdeqError"
    assert "--roots" in json.loads(err)["message"]


@pytest.mark.parametrize("flag", ["--roots", "--c2-grid"])
def test_diophantine_empty_list_is_an_error(capsys, flag):
    # an empty value is bad input, not a request for the default
    code, out, err = run(capsys, "diophantine", "--theta", "0.6180339887",
                         flag, "")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"
    assert json.loads(err)["message"].startswith(f"argument {flag}: ")


@pytest.mark.parametrize("root", ["nan", "inf", "nanj"])
def test_diophantine_non_finite_root_exits_1(capsys, root):
    code, out, err = run(capsys, "diophantine", "--theta", "0.6180339887",
                         "--roots", root, "--N", "10")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "UsageError",
        "message": f"argument --roots: invalid finite complex value: {root!r}"}


def test_diophantine_reduces_a_rational_theta_mod_1(capsys):
    # theta = 10^400 is an integer: q = 1, not a float overflow
    assert run(capsys, "diophantine", "--theta", "1e400", "--N", "10") == (
        0, "root of unity: q^1 = 1\n", "")
    big = run(capsys, "diophantine", "--theta", "700000000000000000001/7",
              "--N", "5", "--format", "json")
    small = run(capsys, "diophantine", "--theta", "1/7", "--N", "5",
                "--format", "json")
    assert big == small and big[0] == 0


@pytest.mark.parametrize("theta", ["1.0e400", "-1.0e400"])
def test_diophantine_non_finite_float_theta_exits_1(capsys, theta):
    # a dotted theta is a float, and past the float range it is the
    # input at fault, not the q it would give
    code, out, err = run(capsys, "diophantine", f"--theta={theta}", "--N", "10")
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "UsageError",
        "message": "argument --theta: invalid rotation number value:"
                   f" {theta!r}"}


EULER_3 = ("growth", "x*y[1] - y[0] + 1", "--seed", "1", "--order", "3")
SOLVE = ("solve", "x*y[1] - y[0] + 1")


@pytest.mark.parametrize("argv, flag", [
    (("diophantine", "--theta", "1/0"), "--theta"),
    (("diophantine", "--theta", "nan"), "--theta"),
    (("diophantine", "--theta", "1/3", "--c2-grid", "1,1/0"), "--c2-grid"),
    (("diophantine", "--theta", "1/3", "--roots", "1,,2"), "--roots"),
    (EULER_3 + ("--s", "1/0"), "--s"),
    (EULER_3 + ("--C", "1/0"), "--C"),
    (("jones", "--n", "-3"), "--n"),
    (("jones", "--n", "3.5"), "--n"),
    (SOLVE + ("--seed", "1", "--order", "-2"), "--order"),
    (("diophantine", "--theta", "1/3", "--N", "0"), "--N"),
    (SOLVE + ("--seed", "1/0", "--order", "3"), "--seed"),
    (SOLVE + ("--seed", "1,", "--order", "3"), "--seed"),
    (("linearize", "x*y[1] - y[0] + 1", "--seed", "1,x"), "--seed"),
    # a decay exponent must be positive
    (("diophantine", "S[0] - x*S[1]", "--theta", "0.1", "--c2-grid", "0",
      "--N", "10"), "--c2-grid"),
    (("diophantine", "S[0] - x*S[1]", "--theta", "0.1", "--c2-grid", "-1",
      "--N", "10"), "--c2-grid"),
])
def test_bad_flag_value_names_its_flag(capsys, argv, flag):
    # a value that does not parse, a zero denominator included, is bad
    # input named by its flag, never a traceback
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    last = json.loads(err.splitlines()[-1])
    assert last["error"] == "UsageError"
    assert last["message"].startswith(f"argument {flag}: ")


def test_corpus_negative_order_exits_1(capsys):
    code, out, err = run(capsys, "corpus", "--run", "--order", "-1")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "UsageError",
                               "message": "argument --order: -1 is below 0"}


@pytest.mark.parametrize("argv", [
    ("jones", "--n", "0"),
    ("diophantine", "--theta", "0.6180339887", "--N", "1"),
    SOLVE + ("--seed", " 1 , 1 ", "--order", "1"),
])
def test_smallest_flag_values_are_accepted(capsys, argv):
    # the order kind starts at 0 and the count kind at 1; seed entries
    # may carry spaces
    assert run(capsys, *argv)[0] == 0


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


def test_corpus_small_order_notes_what_it_cannot_check(capsys):
    # order 2 leaves q-Euler too few coefficients to estimate its growth
    # order: a note, not a failure
    code, out, _ = run(capsys, "corpus", "--run", "--order", "2")
    assert code == 0
    assert ("note: growth-order not evaluated at order 2: order estimation"
            " needs at least 5 nonzero coefficients") in out
    assert "FAIL" not in out


def test_corpus_at_the_seed_order_notes_what_it_cannot_check(capsys):
    # at qp2's seed order extend takes no step, so the claim that the
    # solution extends is a note, not a failure
    code, out, _ = run(capsys, "corpus", "--run", "--order", "1")
    assert code == 0
    assert ("note: solution-extends not evaluated at order 1: extend takes"
            " no step past the seeds") in out
    assert "FAIL" not in out


def test_corpus_order_below_seed_order_exits_1(capsys):
    # qp2's seeds reach order 1, so order 0 is bad input, not a failed check
    code, out, err = run(capsys, "corpus", "--run", "--order", "0")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "UsageError", "message":
                               "argument --order: order 0 is below the seed"
                               " order 1"}


def test_diophantine_needs_a_linear_operator(capsys):
    code, _, err = run(capsys, "diophantine", "x*y[1] - y[0] + 1", *GOLDEN)
    assert code == 1
    assert "linear operator" in json.loads(err)["message"]


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


def test_unreadable_input_names_its_flag(capsys, tmp_path):
    # a file that is not UTF-8, a missing file and a directory
    binary = tmp_path / "eq.bin"
    binary.write_bytes(b"\xff\xfe")
    for path in (binary, tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, "parse", "--input", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["message"].startswith("argument --input: ")


# -- hostile flag values -------------------------------------------------------

EULER = "x*y[1] - y[0] + 1"
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
