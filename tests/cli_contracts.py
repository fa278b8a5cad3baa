"""The CLI's contracts, one row each, and the check that every run keeps.

A row gives qdeq's argv, its stdin, its exit code and a pattern that must
match (re.fullmatch, dots matching newlines) its whole stdout, or its
stderr line when the code is 1.  Tier-1 (tests/test_cli.py) runs each row
through cli.main; run as a script, this file runs each through the qdeq
console script on PATH, so that the installed entry point keeps them too:

    python tests/cli_contracts.py
"""

import json
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

FILE = "<file>"  # in argv, the path of a file holding Contract.file


@dataclass(frozen=True)
class Contract:
    """One row.  test is the tier-1 test id that runs it.  Optionally:
    the text of the file FILE names, a bound on the bytes of the stderr
    line with its newline, a wall-time budget in seconds, and why the row
    cannot run on this Python."""

    test: str
    argv: tuple
    code: int
    pattern: str
    stdin: str = ""
    file: str | None = None
    max_bytes: int | None = None
    seconds: float | None = None
    skip: str | None = None

    def args(self, directory):
        """argv, FILE written under directory and replaced by its path."""
        if self.file is None:
            return list(self.argv)
        path = Path(directory) / "contract-input.txt"
        path.write_text(self.file, encoding="utf-8")
        return [str(path) if a == FILE else a for a in self.argv]


def check(row, code, out, err, seconds):
    """Raise AssertionError unless one run of row, ending with code and
    printing out and err in seconds, kept row's contract."""
    def expect(ok, what):
        if not ok:
            raise AssertionError(f"{what}\n  exit {code}\n  stdout"
                                 f" {out[:400]!r}\n  stderr {err[-400:]!r}")

    expect("Traceback" not in err, "a traceback on stderr")
    expect(code == row.code, f"exit {code}, not {row.code}")
    if code == 1:
        expect(out == "", "output on stdout")
        expect(err.endswith("\n") and err.count("\n") == 1,
               "not one line on stderr")
        try:
            fields = json.loads(err)
        except ValueError:
            fields = None
        expect(isinstance(fields, dict)
               and {"error", "message"} <= fields.keys(),
               "the stderr line is no diagnostic")
        got = err[:-1]
    else:
        expect(err == "", "output on stderr")
        got = out
    expect(re.fullmatch(row.pattern, got, re.DOTALL),
           f"no match for {row.pattern!r}")
    expect(row.max_bytes is None or len(err.encode()) < row.max_bytes,
           f"the stderr line is not under {row.max_bytes} bytes")
    expect(row.seconds is None or seconds < row.seconds,
           f"took {seconds:.1f} s, not under {row.seconds} s")


# -- patterns ----------------------------------------------------------------


def printed(text):
    """Pattern of the stdout of print(text)."""
    return re.escape(text + "\n")


def diagnostic(error, message, rest="", pos=None):
    """Pattern of main's stderr line for an error of type error whose
    message is message then what the pattern rest matches; pos, when
    given, is a pattern of the position field."""
    head = json.dumps({"error": error, "message": message})[:-2]
    tail = re.escape('"') + ("" if pos is None else f', "pos": {pos}') + r"\}"
    return re.escape(head) + rest + tail


def usage(message, rest=""):
    return diagnostic("UsageError", message, rest)


def qdeq_error(message, rest=""):
    return diagnostic("QdeqError", message, rest)


def _q_euler(order):
    """solve's JSON line for EULER from seed 1 through order: each step is
    unique and c_h = q^(h(h-1)/2)."""
    coeffs = ["1", "1", "q"] + [f"q^{h * (h - 1) // 2}"
                                for h in range(3, order + 1)]
    events = [{"h": h, "kind": "unique", "order": h}
              for h in range(1, order + 1)]
    return json.dumps({"coeffs": coeffs, "resolved_through": order,
                       "events": events}) + "\n"


EULER = "x*y[1] - y[0] + 1"
SOLVE = ("solve", EULER)
EULER_3 = ("growth", EULER, "--seed", "1", "--order", "3")
QP2 = "(y[0]+x)*(y[0]*y[1]-1)*(y[0]*y[-1]-1) - q*x^2*y[0]"
OP = "S[2] - (1+q)*S[1] + q*S[0]"
GOLD = "0.6180339887"
GOLDEN = ("--theta", GOLD, "--N", "300", "--format", "json")
DEEP = "(" * 2000 + "1" + ")" * 2000
SEVENS = "7" * 5000
BIG = "100000000000000000000"
XOP = "x^100000000*S[0] - S[1]"  # an x-power of 10^8, one term
# int() refuses more digits than its limit, where it has one
NO_DIGIT_LIMIT = (None if getattr(sys, "get_int_max_str_digits", int)()
                  else "int() has no digit limit")
PAST_DIGITS = r"Exceeds the limit .* \(at position "
BELOW_SEED = "argument --order: target order 1 is below the seed order 2"
ESTIMATE_1 = r'\{.*"estimated_order_deg": "1", .*\}\n'
VERDICT = r'\{.*"verdict": \{[^{}]*%s[^{}]*\}\}\n'
TWO_ROOTS = r'\{.*"roots": \[\[[^][]*\], \[[^][]*\]\], .*\}\n'
Q2 = printed("root of unity: q^2 = 1")
Q2_JSON = printed(json.dumps({"verdict": "root_of_unity", "n": 2}))
DEGENERATE = diagnostic("DegenerateAfterEvaluation", "", ".*")
SERIES_5 = ["1", "q", "q^3", "q^6", "q^10"]
NOT_READ = [
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
]
BAD_VALUES = [
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
    (("linearize", EULER, "--seed", "1,x"), "--seed"),
    # a decay exponent must be positive
    (("diophantine", "S[0] - x*S[1]", "--theta", "0.1", "--c2-grid", "0",
      "--N", "10"), "--c2-grid"),
    (("diophantine", "S[0] - x*S[1]", "--theta", "0.1", "--c2-grid", "-1",
      "--N", "10"), "--c2-grid"),
]
# a list of strings and an integer truncation >= 0, nothing looser: a
# string is no coefficient list and true is no truncation order
NOT_SERIES = [
    '{"coeffs": "12"}', '{"coeffs": ["1", "q"], "trunc": true}', "[1, 2]",
    "[null]", '{"coeffs": ["1"], "trunc": "x"}',
    '{"coeffs": ["1"], "trunc": 2.5}', '{"coeffs": ["1"], "trunc": -1}',
    '{"coeffs": ["1"], "resolved_through": false}', '{"trunc": 3}', "[]",
]


C = Contract  # for short, in the table alone
CONTRACTS = [
    # -- parse, polygon, linearize, solve ------------------------------------
    C("test_parse_text", ("parse", EULER), 0,
      printed("nonlinear: 1 + (-1)*y[0] + x*y[1]")),
    C("test_parse_json", ("parse", "x*S[1] - 1", "--format", "json"), 0,
      printed(json.dumps({"text": "x*S[1] - 1", "kind": "linear_operator",
                          "parsed": {"flavor": "exact", "terms": {
                              "0": {"0": "-1"}, "1": {"1": "1"}}}}))),
    # the window is read from the indices the terms use: y[2] cancels
    C("test_parse_json_window_drops_a_cancelled_index",
      ("parse", "y[2] - y[2] + y[0] - 1", "--format", "json"), 0,
      printed(json.dumps({"text": "y[2] - y[2] + y[0] - 1",
                          "kind": "nonlinear", "parsed": {
                              "window": [0, 0], "monomials": [
                                  {"x": 0, "w": {}, "coeff": "-1"},
                                  {"x": 0, "w": {"0": 1}, "coeff": "1"}]}}))),
    C("test_syntax_error_carries_position", ("parse", "x + %"), 1,
      diagnostic("EquationSyntaxError",
                 "unexpected character '%' (at position 4)", pos="4")),
    # nesting past the recursion limit is a syntax error
    C("test_deep_nesting_is_a_syntax_error", ("parse", DEEP), 1,
      diagnostic("EquationSyntaxError", "expression nested too deeply",
                 r" \(at position \d+\)", pos=r"\d+")),
    # so is an integer literal past int()'s digit limit, at its position
    C("test_literal_past_the_digit_limit_is_a_syntax_error[parse]",
      ("parse", f"q^{SEVENS}*y[0] - 1"), 1,
      diagnostic("EquationSyntaxError", "", PAST_DIGITS + r"2\)", pos="2"),
      skip=NO_DIGIT_LIMIT),
    C("test_literal_past_the_digit_limit_is_a_syntax_error[input]",
      ("growth", "--input", "-"), 1,
      qdeq_error("argument --input: invalid coefficient: ",
                 PAST_DIGITS + r"0\)"),
      stdin=json.dumps(["1", SEVENS]), skip=NO_DIGIT_LIMIT),
    # a power costs about 2*log2 of its exponent products, not the exponent
    C("test_a_power_costs_its_exponent_bits",
      ("parse", "x^100000*y[0] - y[0]"), 0,
      printed("nonlinear: (-1)*y[0] + x^100000*y[0]"), seconds=10),
    # a q-power prints from its exponent, never from a dense list
    C("test_a_huge_q_power_prints_from_its_exponent[parse]",
      ("parse", f"q^{BIG}*y[0] - 1"), 0,
      printed(f"nonlinear: (-1) + q^{BIG}*y[0]")),
    C("test_a_huge_q_power_prints_from_its_exponent[solve]",
      ("solve", f"q^{BIG}*x*y[1] - y[0] + 1", "--seed", "1", "--order", "3"),
      0, printed("resolved through order 3\nsteps: all unique\ncoefficients:"
                 f"\n  c[0] = 1\n  c[1] = q^{BIG}"
                 "\n  c[2] = q^200000000000000000001"
                 "\n  c[3] = q^300000000000000000003")),
    # so does an x-power, and nothing that reads an operator's coefficients
    # spans the exponents between their terms
    C("test_a_huge_x_power_is_one_term[parse-nonlinear]",
      ("parse", "x^100000000*y[0] - 1"), 0,
      printed("nonlinear: (-1) + x^100000000*y[0]"), seconds=10),
    C("test_a_huge_x_power_is_one_term[parse-operator]", ("parse", XOP), 0,
      printed("linear_operator: x^100000000*S[0] + (-1)*S[1]"), seconds=10),
    C("test_a_huge_x_power_is_one_term[parse-operator-json]",
      ("parse", XOP, "--format", "json"), 0,
      printed(json.dumps({"text": XOP, "kind": "linear_operator",
                          "parsed": {"flavor": "exact", "terms": {
                              "0": {"100000000": "1"}, "1": {"0": "-1"}}}})),
      seconds=10),
    C("test_a_huge_x_power_is_one_term[polygon]", ("polygon", XOP), 0,
      printed("vertices: (0, 100000000), (1, 0); sides: slope -100000000"
              " (length 1)"), seconds=10),
    C("test_a_huge_x_power_is_one_term[diophantine]",
      ("diophantine", XOP, "--theta", "0.3", "--N", "10"), 0,
      printed("root of unity: q^10 = 1"), seconds=10),
    # the resonance polynomial evaluates q^v from its exponent too
    C("test_a_huge_q_power_evaluates_from_its_exponent",
      ("diophantine", f"q^{BIG}*S[1] - 1", "--theta", "0.3", "--N", "10"), 0,
      printed("root of unity: q^10 = 1"), seconds=10),
    # a shift index of 10^8: T^(10^8) - 1 is two stored terms, and its
    # 10^8 x 10^8 companion matrix is refused before any pass over 10^8
    # coefficients
    C("test_a_huge_shift_index_is_refused_at_its_matrix",
      ("diophantine", "S[100000000] - S[0]", "--theta", "0.3", "--N", "10"),
      1, diagnostic("MemoryError", "Unable to allocate ", ".*"), seconds=10),
    # q^(10^20) - 1 has 10^20 + 1 dense coefficients: a diagnostic, not a
    # traceback
    C("test_a_dense_coefficient_past_the_index_size_exits_1",
      ("parse", f"q^{BIG}*y[0] - y[0]"), 1,
      diagnostic("OverflowError", "", ".*"), seconds=10),
    # past order 12 auto picks the probe engine, which declines a
    # coefficient no pool could fit, and the exact engine answers at once
    C("test_a_q_power_no_probe_pool_can_fit_is_solved_exactly",
      ("solve", f"q^{BIG}*x*y[1]*y[0] - y[0] + 1", "--seed", "1",
       "--order", "13"), 0,
      "resolved through order 13\nsteps: all unique\ncoefficients:\n"
      rf"  c\[0\] = 1\n  c\[1\] = q\^{BIG}\n.*"
      r"  c\[13\] = q\^1300000000000000000078\+[^\n]*\n", seconds=10),
    C("test_polygon_basic", ("polygon", "x*S[1] - 1", "--format", "json"), 0,
      printed(json.dumps({"vertices": [[0, "0"], [1, "1"]],
                          "slopes": ["1"], "uncertain": []}))),
    C("test_polygon_rejects_nonlinear", ("polygon", "y[0]*y[1] - 1"), 1,
      qdeq_error("polygon needs a linear operator; for a nonlinear equation"
                 " use linearize first")),
    C("test_usage_error_exits_1", ("polygon", "--badflag"), 1,
      usage("unrecognized arguments: --badflag")),
    C("test_missing_equation_exits_1", ("polygon",), 1,
      qdeq_error("no equation given; pass it as an argument or via --input")),
    C("test_linearize", ("linearize", EULER, "--seed", "1", "--order", "3"), 0,
      printed("(-1 + O(x^4))*S[0] + (x + O(x^4))*S[1]")),
    # the seeds 1, 1 are known through order 1, so the operator's
    # coefficients are series truncated there
    C("test_linearize_json_prints_a_series_operator",
      ("linearize", EULER, "--seed", "1,1", "--format", "json"), 0,
      printed(json.dumps({"flavor": "series", "terms": {
          "0": {"trunc": 1, "coeffs": ["-1", "0"]},
          "1": {"trunc": 1, "coeffs": ["0", "1"]}}}))),
    C("test_linearize_rejects_operator",
      ("linearize", "x*S[1] - 1", "--seed", "1"), 1,
      qdeq_error("linearize needs a nonlinear equation; an operator is"
                 " already linear")),
    # an --order below the seed order is bad usage, not ignored
    C("test_linearize_order_below_the_seed_is_an_error",
      ("linearize", EULER, "--seed", "1,1,q", "--order", "1"), 1,
      usage(BELOW_SEED)),
    *(C(f"test_order_below_the_seed_names_the_flag[{command}]",
        (command, EULER, "--seed", "1,1,q", "--order", "1"), 1,
        usage(BELOW_SEED)) for command in ("solve", "growth")),
    C("test_solve_qeuler",
      SOLVE + ("--seed", "1", "--order", "6", "--format", "json"), 0,
      re.escape(_q_euler(6))),
    # linear operators route through the same solver
    C("test_solve_operator_input",
      ("solve", "S[-2]*(S[1]-1)*(S[1]+1) + q^-2*x", "--seed", "1", "--order",
       "2", "--format", "json"), 0,
      printed(json.dumps({
          "coeffs": ["1", "-1/(q^2-1)", "q^2/(q^6-q^4-q^2+1)"],
          "resolved_through": 2,
          "events": [{"h": 1, "kind": "unique", "order": 1},
                     {"h": 2, "kind": "unique", "order": 2}]}))),
    # an exact coefficient with both a scalar s > 1 and a denominator d != 1
    C("test_solve_prints_a_scalar_and_a_polynomial_denominator",
      ("solve", "x*y[1] - 2*(1+q)*y[0] + 1", "--seed", "1/(2+2*q)",
       "--order", "2", "--format", "json"), 0,
      printed(json.dumps({
          "coeffs": ["1/(2*q+2)", "1/(4*q^2+8*q+4)",
                     "q/(8*q^3+24*q^2+24*q+8)"],
          "resolved_through": 2,
          "events": [{"h": 1, "kind": "unique", "order": 1},
                     {"h": 2, "kind": "unique", "order": 2}]}))),
    # past order 12 the probe engine solves it: the scalars reach 2^36,
    # which enter the lanes through a modular inverse
    C("test_probe_solve_carries_a_scalar_of_2_to_the_36",
      ("solve", "y[0]^2 - (1+q)^2*(1 + x/2)", "--seed", "1+q", "--order",
       "13", "--format", "json"), 0,
      printed(json.dumps({
          "coeffs": ["q+1", "(q+1)/4", "(-q-1)/32", "(q+1)/128",
                     "(-5*q-5)/2048", "(7*q+7)/8192", "(-21*q-21)/65536",
                     "(33*q+33)/262144", "(-429*q-429)/8388608",
                     "(715*q+715)/33554432", "(-2431*q-2431)/268435456",
                     "(4199*q+4199)/1073741824",
                     "(-29393*q-29393)/17179869184",
                     "(52003*q+52003)/68719476736"],
          "resolved_through": 13,
          "events": [{"h": h, "kind": "unique", "order": h}
                     for h in range(1, 14)]})), seconds=10),
    C("test_solve_needs_seed", SOLVE, 1,
      qdeq_error('this command needs --seed "c0,c1,..."')),
    C("test_deep_seed_is_a_usage_error_naming_seed",
      SOLVE + ("--seed", DEEP), 1,
      usage("argument --seed: ", ".*nested too deeply.*")),
    # a seed coefficient that does not parse is named by its index, not
    # echoed: a short line
    *(C("test_bad_seed_diagnostic_names_the_coefficient_not_its_text"
        f"[{case}]", SOLVE + ("--seed", seed), 1,
        usage("argument --seed: " + message, rest), max_bytes=300, skip=skip)
      for case, seed, message, rest, skip in (
          ("bad-exponent", "1,q^," + DEEP,
           "coefficient 1: expected an exponent (at position 2)", ".*", None),
          ("deep", "1,1," + DEEP,
           "coefficient 2: expression nested too deeply", ".*", None),
          ("many-digits", "1," + SEVENS, "coefficient 1: ",
           PAST_DIGITS + r"0\)", NO_DIGIT_LIMIT))),
    # the order kind starts at 0 and the count kind at 1; seed entries may
    # carry spaces
    C("test_smallest_flag_values_are_accepted[argv0]", ("jones", "--n", "0"),
      0, printed("1")),
    C("test_smallest_flag_values_are_accepted[argv1]",
      ("diophantine", "--theta", GOLD, "--N", "1"), 0,
      r"q = [^\n]*, scanned n <= 1\n.*"),
    C("test_smallest_flag_values_are_accepted[argv2]",
      SOLVE + ("--seed", " 1 , 1 ", "--order", "1"), 0,
      printed("resolved through order 1\ncoefficients:\n  c[0] = 1\n"
              "  c[1] = 1")),
    *(C(f"test_flags_a_command_does_not_read_are_usage_errors[argv{i}]",
        argv, 1, usage(f"unrecognized arguments: {argv[-2]}", ".*"))
      for i, argv in enumerate(NOT_READ)),
    # a value that does not parse, a zero denominator included, is bad
    # input named by its flag
    *(C(f"test_bad_flag_value_names_its_flag[argv{i}-{flag}]", argv, 1,
        usage(f"argument {flag}: ", ".*"))
      for i, (argv, flag) in enumerate(BAD_VALUES)),
    # -- growth --------------------------------------------------------------
    # the solve row's stdout is the growth row's stdin
    *(row for order in (12, 15) for row in (
        C("test_growth_from_solve_json", SOLVE + (
            "--seed", "1", "--order", str(order), "--format", "json"), 0,
          re.escape(_q_euler(order))),
        C("test_growth_from_solve_json",
          ("growth", "--input", "-", "--format", "json"), 0, ESTIMATE_1,
          stdin=_q_euler(order)))),
    C("test_growth_bare_list", ("growth", "--input", "-", "--format", "json"),
      0, ESTIMATE_1, stdin=json.dumps(SERIES_5 + ["q^15"])),
    C("test_growth_asserted_bound_failure_exits_2",
      ("growth", EULER, "--seed", "1", "--order", "15", "--s", "0", "--C",
       "1"), 2, r".*\nbound \[deg\] order 0, slack 1: FAIL at h = 4\n.*"),
    C("test_growth_asserted_bound_pass_exits_0",
      ("growth", EULER, "--seed", "1", "--order", "15", "--s", "1", "--C",
       "0"), 0, r".*\nbound \[deg\] order 1, slack 0: pass\n"
                r"bound \[ord\] order 1, slack 0: pass\n"),
    C("test_growth_predict_from_polygon",
      ("growth", EULER, "--seed", "1", "--order", "15",
       "--predict-from-polygon"), 0,
      r".*\nmeasured deg-side order 1 within polygon prediction 1\n.*"),
    # growth solves exactly, then linearizes along the answer, whose
    # evaluator the solve handed over
    C("test_growth_predicts_q_painleve_from_its_polygon",
      ("growth", QP2, "--seed", "1,q/(1+q)", "--order", "8",
       "--predict-from-polygon", "--format", "json"), 0,
      r'\{.*"notes": \["measured deg-side order 0 within polygon prediction'
      r' 0", "measured ord-side order 0 within polygon prediction 0"\]\}\n'),
    C("test_growth_predict_needs_equation",
      ("growth", "--input", "-", "--predict-from-polygon"), 1,
      qdeq_error("--predict-from-polygon needs an equation, not a bare"
                 " series"), stdin='["1", "q"]'),
    *(C(f"test_growth_series_rejects_seed_and_order[{flag}]",
        ("growth", "--input", "-", flag, "1"), 1,
        qdeq_error(f"{flag} needs an equation, not a bare series"),
        stdin='["1", "q", "q^3"]') for flag in ("--seed", "--order")),
    # one reader: "trunc" first, then "resolved_through", then the length
    *(C("test_growth_series_object_truncation", ("growth", "--input", "-"), 0,
        f"profiles through order {through}\n.*", stdin=json.dumps(obj))
      for obj, through in (({"coeffs": SERIES_5, "trunc": 7}, 7),
                           ({"coeffs": SERIES_5, "trunc": 2,
                             "resolved_through": 3}, 2),
                           ({"coeffs": SERIES_5, "resolved_through": 3}, 3),
                           ({"coeffs": SERIES_5}, 4))),
    *(C(f"test_growth_series_json_is_read_strictly[{text}]",
        ("growth", "--input", "-"), 1,
        qdeq_error("argument --input: ", ".*"), stdin=text)
      for text in NOT_SERIES),
    # JSON that does not decode and a coefficient that does not parse end
    # in the same diagnostic as any other bad --input
    *(C(f"test_growth_malformed_series_json_names_input[{case}]",
        ("growth", "--input", "-"), 1,
        qdeq_error(f"argument --input: {what}: ", ".*"), stdin=text)
      for case, text, what in (
          ("[1-invalid JSON", "[1", "invalid JSON"),
          # past the decoder's recursion limit
          ("deep-list", "[" * 1000, "invalid JSON"),
          ("100000-deep-list", "[" * 100000 + "\n", "invalid JSON"),
          ('["1", "q^"]-invalid coefficient', '["1", "q^"]',
           "invalid coefficient"),
          ('{"coeffs": ["1/0"]}-invalid coefficient', '{"coeffs": ["1/0"]}',
           "invalid coefficient"))),
    C("test_growth_bound_usage_error_names_fraction",
      ("growth", EULER, "--seed", "1", "--s", "abc"), 1,
      usage("argument --s: invalid Fraction value: 'abc'")),
    # -- jones, corpus -------------------------------------------------------
    C("test_jones_text_and_json", ("jones", "--n", "2"), 0,
      printed("q^2-q+1-q^-1+q^-2")),
    C("test_jones_text_and_json", ("jones", "--n", "3", "--format", "json"),
      0, r'\{"n": 3, "value": "[^"]*", "deg_q": 6, "ord_q": -6\}\n'),
    C("test_jones_at_color_100_takes_seconds",
      ("jones", "--n", "100", "--format", "json"), 0,
      r'\{"n": 100, "value": "[^"]*", "deg_q": 9900, "ord_q": -9900\}\n',
      seconds=15),
    C("test_jones_negative_exits_1", ("jones", "--n", "-1"), 1,
      usage("argument --n: -1 is below 0")),
    C("test_corpus_listing", ("corpus", "--format", "json"), 0,
      r'\{"entries": \[%s\]\}\n' % ", ".join(
          r'\{"id": "%s", [^{}]*\}' % e for e in (
              "q-euler", "jones-figure8", "q-painleve-2", "phi11-basic"))),
    C("test_corpus_runs_every_entry", ("corpus", "--run", "--format", "json"),
      0, r'\{"passed": true, "entries": \[.*\]\}\n'),
    C("test_corpus_run_single_entry",
      ("corpus", "--run", "--entry", "phi11-basic", "--format", "json"), 0,
      r'\{"passed": true, "entries": \[\{"entry": "phi11-basic", .*\}\]\}\n'),
    C("test_corpus_run_unknown_entry", ("corpus", "--run", "--entry", "nope"),
      1, qdeq_error("argument --entry: no corpus entry named 'nope'")),
    C("test_corpus_order_needs_run", ("corpus", "--order", "5"), 1,
      qdeq_error("--order needs --run")),
    C("test_corpus_negative_order_exits_1",
      ("corpus", "--run", "--order", "-1"), 1,
      usage("argument --order: -1 is below 0")),
    # an order too small to evaluate a claim notes it and passes, down to
    # the seed order: order 2 leaves q-Euler too few coefficients to
    # estimate its growth order, and at qp2's seed order extend takes no step
    C("test_corpus_small_order_notes_what_it_cannot_check",
      ("corpus", "--run", "--order", "2"), 0,
      "(?!.*FAIL).*" + printed("note: growth-order not evaluated at order 2:"
                               " order estimation needs at least 5 nonzero"
                               " coefficients") + ".*"),
    C("test_corpus_at_the_seed_order_notes_what_it_cannot_check",
      ("corpus", "--run", "--order", "1"), 0,
      "(?!.*FAIL).*" + printed("note: solution-extends not evaluated at order"
                               " 1: extend takes no step past the seeds")
      + ".*"),
    # qp2's seeds reach order 1, so order 0 is bad input, not a failed check
    C("test_corpus_order_below_seed_order_exits_1",
      ("corpus", "--run", "--order", "0"), 1,
      usage("argument --order: order 0 is below the seed order 1")),
    # -- diophantine ---------------------------------------------------------
    C("test_diophantine_root_of_unity",
      ("diophantine", "--theta", "1/3", "--format", "json"), 0,
      printed(json.dumps({"verdict": "root_of_unity", "n": 3}))),
    # at q = -1 the leading coefficient 1+q of the operator vanishes, but
    # q^2 = 1 is decided first, as it is without an operator; below n = 2
    # the scan range holds no root of unity, and the roots degenerate
    C("test_diophantine_root_of_unity_before_the_roots",
      ("diophantine", "(1+q)*S[1] - 1", "--theta", "1/2"), 0, Q2),
    C("test_diophantine_root_of_unity_before_the_roots",
      ("diophantine", "--theta", "1/2"), 0, Q2),
    C("test_diophantine_root_of_unity_before_the_roots",
      ("diophantine", "(1+q)*S[1] - 1", "--theta", "1/2", "--N", "1"), 1,
      DEGENERATE),
    # a float theta has no exact check; where the roots degenerate, the
    # scan's own test decides, and gives the verdict the bare scan gives
    *(C("test_diophantine_float_root_of_unity_before_the_roots",
        ("diophantine", *op, "--theta", "0.5", *fmt), 0, want)
      for op in (("(1+q)*S[1] - 1",), ())
      for fmt, want in (((), Q2), (("--format", "json"), Q2_JSON))),
    C("test_diophantine_float_root_of_unity_before_the_roots",
      ("diophantine", "(1+q)*S[1] - 1", "--theta", "0.5", "--N", "1"), 1,
      DEGENERATE),
    C("test_diophantine_golden_small",
      ("diophantine", "--theta", GOLD, "--N", "500", "--format", "json"), 0,
      VERDICT % '"status": "pass"'),
    C("test_diophantine_custom_grid",
      ("diophantine", "--theta", GOLD, "--N", "500", "--c2-grid", "3/2,2",
       "--format", "json"), 0, VERDICT % '"c2": "3/2"'),
    C("test_diophantine_roots_flag",
      ("diophantine", "--theta", "0.1234", "--roots", "2,1", "--N", "200",
       "--format", "json"), 0, TWO_ROOTS),
    # the resonance roots of OP are 1 and q
    C("test_diophantine_op_file", ("diophantine", "--input", FILE, *GOLDEN),
      0, TWO_ROOTS, file=OP + "\n"),
    # T^100 s(T) with s = -T^2 + T + 1: each root of s answers to s's own
    # residual, not to |T|^100 times it, which at the golden root is 1e20
    # times larger
    C("test_diophantine_roots_past_a_power_of_t",
      ("diophantine", "x*S[0] + S[100] + S[101] - S[102]", "--theta", GOLD,
       "--N", "10"), 0,
      r"q = [^\n]*, scanned n <= 10\n(?:.*\n)?root 1\.61803\+0j: pass .*"),
    # a constant resonance polynomial leaves no roots to scan: a pass
    C("test_diophantine_constant_resonance_polynomial",
      ("diophantine", "S[0] - x*S[1]", "--theta", GOLD, "--N", "100"), 0,
      r"q = [^\n]*, scanned n <= 100\n"
      + printed("overall: pass, no roots to scan")),
    C("test_diophantine_operator_conflicts_with_roots",
      ("diophantine", OP, "--roots", "2,1", *GOLDEN), 1,
      qdeq_error("give an operator or --roots, not both")),
    C("test_diophantine_needs_a_linear_operator",
      ("diophantine", EULER, *GOLDEN), 1,
      qdeq_error("diophantine needs a linear operator, whose resonance roots"
                 " it scans")),
    # an empty value is bad input, not a request for the default
    *(C(f"test_diophantine_empty_list_is_an_error[{flag}]",
        ("diophantine", "--theta", GOLD, flag, ""), 1,
        usage(f"argument {flag}: ", ".*"))
      for flag in ("--roots", "--c2-grid")),
    *(C(f"test_diophantine_non_finite_root_exits_1[{case}]",
        ("diophantine", "--theta", GOLD, "--roots", root, *n), 1,
        usage(f"argument --roots: invalid finite complex value: {root!r}"))
      for case, root, n in (("nan", "nan", ("--N", "10")),
                            ("inf", "inf", ("--N", "10")),
                            ("nanj", "nanj", ("--N", "10")),
                            ("nan-default-N", "nan", ()))),
    # theta = 10^400 is an integer: q = 1, not a float overflow
    *(C(f"test_diophantine_integer_theta_is_q_1[{case}]",
        ("diophantine", "--theta", "1e400", *n), 0,
        printed("root of unity: q^1 = 1"))
      for case, n in (("N-10", ("--N", "10")), ("default-N", ()))),
    # a dotted theta is a float, and past the float range it is the input
    # at fault, not the q it would give
    *(C(f"test_diophantine_non_finite_float_theta_exits_1[{case}]",
        ("diophantine", *flag, "--N", "10"), 1,
        usage(f"argument --theta: invalid rotation number value: {theta!r}"))
      for case, flag, theta in (
          ("1.0e400", ["--theta=1.0e400"], "1.0e400"),
          ("-1.0e400", ["--theta=-1.0e400"], "-1.0e400"),
          ("1.0e400-apart", ["--theta", "1.0e400"], "1.0e400"))),
]
del C


def main():
    """Check every row against the qdeq on PATH; exit 1 if any fails."""
    failed = skipped = 0
    with tempfile.TemporaryDirectory() as directory:
        for row in CONTRACTS:
            if row.skip:
                skipped += 1
                print(f"skip {row.test}: {row.skip}")
                continue
            start = time.perf_counter()
            try:
                run = subprocess.run(["qdeq", *row.args(directory)],
                                     input=row.stdin, capture_output=True,
                                     text=True, timeout=row.seconds)
                check(row, run.returncode, run.stdout, run.stderr,
                      time.perf_counter() - start)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failed += 1
                print(f"FAIL {row.test}: {exc}")
    print(f"{len(CONTRACTS)} CLI contracts: {failed} failed,"
          f" {skipped} skipped")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
