import time
from fractions import Fraction

import pytest

from qdeq.dsl import EquationSource, parse, parse_ratq
from qdeq.errors import (DivisionByZero, EquationSyntaxError, MixedKind,
                         NegativeXPower)
from qdeq.nonlinear import QdeqPoly
from qdeq.ratfunc import Q, RatQ
from qdeq.series import XPoly
from qdeq.skewop import SkewOp

from families import qp2


def ratq(num, den=1):
    return RatQ.from_value(Fraction(num, den))


# ---------------------------------------------------------------------------
# parse_ratq (coefficient mode)


def test_ratq_basic_forms():
    assert parse_ratq("0").is_zero()
    assert parse_ratq("5") == RatQ(5)
    assert parse_ratq("-7/3") == ratq(-7, 3)
    assert parse_ratq("q") == Q
    assert parse_ratq("q^2-1") == Q * Q - 1
    assert parse_ratq("1/q^3") == RatQ(1).shift_q(-3)
    assert parse_ratq("q^-3") == RatQ(1).shift_q(-3)
    assert parse_ratq("(2*q+1)/(q+1)") == (2 * Q + 1) / (Q + 1)


def test_ratq_round_trips_to_text():
    samples = [
        RatQ(0), RatQ(5), ratq(-7, 3), Q, Q ** 2 - 1,
        RatQ(1) / (Q + 1),
        (Q ** 2 - ratq(1, 2)) / (Q ** 3 + 2),
        RatQ(1).shift_q(-3),
        -Q / (Q + 1) + 1,
        (Q ** 5 - 3 * Q) / (7 * Q ** 2 + Q + 1),
    ]
    for r in samples:
        assert parse_ratq(r.to_text()) == r


def test_ratq_rejects_unknowns():
    with pytest.raises(EquationSyntaxError):
        parse_ratq("x + 1")
    with pytest.raises(EquationSyntaxError):
        parse_ratq("y[0]")
    with pytest.raises(EquationSyntaxError):
        parse_ratq("S[1]")


def test_ratq_division_by_zero():
    with pytest.raises(DivisionByZero):
        parse_ratq("1/(q - q)")


# ---------------------------------------------------------------------------
# equation mode: nonlinear


def test_parse_one_step_equation():
    src = parse("x*y[1] - y[0] + 1")
    assert src.kind == "nonlinear"
    F = src.parsed
    assert isinstance(F, QdeqPoly)
    assert F.window == (0, 1)
    assert len(F.monomials) == 3
    x = QdeqPoly({(1, ()): 1})
    assert F == x * QdeqPoly.w(1) - QdeqPoly.w(0) + QdeqPoly.const(1)


def test_parse_painleve_text():
    src = parse(qp2().text)
    assert src.kind == "nonlinear"
    assert src.parsed.window == (-1, 1)
    w0, w1, wm = map(QdeqPoly.w, (0, 1, -1))
    x, one = QdeqPoly({(1, ()): 1}), QdeqPoly.const(1)
    assert src.parsed == ((w0 + x) * (w0 * w1 - one) * (w0 * wm - one)
                          - QdeqPoly.const(Q) * x * x * w0)


def test_parse_equals_normalizes():
    a = parse("x*y[1] + 1 = y[0]").parsed
    b = parse("x*y[1] - y[0] + 1").parsed
    assert a == b


def test_parse_rational_coefficient():
    src = parse("q/(1+q)*y[0] - 1/2")
    F = src.parsed
    assert F.monomials[(0, ((0, 1),))] == Q / (1 + Q)
    assert F.monomials[(0, ())] == ratq(-1, 2)


def test_parse_powers_of_unknown():
    F = parse("y[0]^3 - x^2").parsed
    assert F.monomials[(0, ((0, 3),))] == RatQ(1)
    assert F.monomials[(2, ())] == RatQ(-1)


# ---------------------------------------------------------------------------
# equation mode: operators


def test_parse_simple_operator():
    src = parse("x*S[1] - 1")
    assert src.kind == "linear_operator"
    L = src.parsed
    assert isinstance(L, SkewOp)
    assert L == SkewOp({1: XPoly({1: 1}), 0: XPoly({0: -1})})


def test_parse_operator_composition():
    # S[i] acts before the coefficient is applied: x*S[1] means a_1 = x,
    # while S[1]*x pushes sigma through and gives a_1 = q*x
    L1 = parse("x*S[1]").parsed
    L2 = parse("S[1]*x").parsed
    assert L1.terms[1] == XPoly({1: 1})
    assert L2.terms[1] == XPoly({1: Q})


def test_parse_factored_operator():
    # (S-1)(S+1) = S^2 - 1, so the product collapses to S[0] - S[-2]
    L = parse("S[-2]*(S[1]-1)*(S[1]+1)").parsed
    assert set(L.terms) == {0, -2}
    got = parse("S[0] - S[-2]").parsed
    assert L == got


def test_parse_operator_power():
    assert parse("S[1]^3").parsed == parse("S[3]").parsed


@pytest.mark.parametrize("base, e", [("1+x", 7), ("y[0]+x", 5),
                                     ("S[1]+x", 5), ("S[1]+x", 0)])
def test_power_is_the_repeated_product(base, e):
    product = "*".join([f"({base})"] * e) or "S[0]"
    assert parse(f"({base})^{e}").parsed == parse(product).parsed


def test_large_power_parses_quickly():
    # square and multiply takes about 2*log2(e) products, not e of them
    start = time.perf_counter()
    F = parse("x^20000*y[0] - y[0]").parsed
    assert time.perf_counter() - start < 5.0
    assert F == QdeqPoly({(20000, ()): 1}) * QdeqPoly.w(0) - QdeqPoly.w(0)


# ---------------------------------------------------------------------------
# errors


def test_mixed_kind_rejected():
    with pytest.raises(MixedKind):
        parse("y[0] + S[1]")
    with pytest.raises(MixedKind):
        parse("S[1]*y[0]")


def test_negative_x_power():
    with pytest.raises(NegativeXPower):
        parse("x^-1")
    with pytest.raises(NegativeXPower):
        parse("(x+1)^-2")
    with pytest.raises(NegativeXPower):
        parse("y[0]^-1")


def test_syntax_error_positions():
    with pytest.raises(EquationSyntaxError) as info:
        parse("x + ")
    assert info.value.pos == 4
    with pytest.raises(EquationSyntaxError) as info:
        parse("x + %")
    assert info.value.pos == 4
    with pytest.raises(EquationSyntaxError) as info:
        parse("y[0] + z")
    assert info.value.pos == 7
    with pytest.raises(EquationSyntaxError) as info:
        parse("y[0")
    assert info.value.pos == 3
    with pytest.raises(EquationSyntaxError) as info:
        parse("(q+1")
    assert info.value.pos == 4
    # a whole equation followed by more input fails at the first token
    # the grammar cannot take
    for text, token, pos in (("x y", "y", 2), ("1 )", r"\)", 2),
                             ("y[0] = 1 = 2", "=", 9)):
        with pytest.raises(EquationSyntaxError,
                           match=f"^unexpected '{token}'") as info:
            parse(text)
        assert info.value.pos == pos


@pytest.mark.parametrize("read, text", [
    (parse, "(" * 2000 + "x*y[0]" + ")" * 2000),
    (parse, "-(" * 2000 + "1" + ")" * 2000),
    (parse, "(" * 2000),
    (parse_ratq, "(" * 2000 + "q" + ")" * 2000),
], ids=["equation", "negated", "unclosed", "coefficient"])
def test_deep_nesting_is_a_syntax_error(read, text):
    # nesting past Python's recursion limit is the parser's own
    # diagnostic, at a position inside the text, not a RecursionError
    with pytest.raises(EquationSyntaxError,
                       match="^expression nested too deeply") as info:
        read(text)
    assert 0 <= info.value.pos < len(text)


def test_divide_by_unknown_rejected():
    with pytest.raises(EquationSyntaxError):
        parse("1/y[0]")
    with pytest.raises(EquationSyntaxError):
        parse("q/x")


def test_unknownless_equation_is_nonlinear_constant():
    src = parse("x^2 - 1")
    assert src.kind == "nonlinear"
    assert src.parsed.monomials[(2, ())] == RatQ(1)


# ---------------------------------------------------------------------------
# round trips through the canonical printers


def test_equation_round_trip_nonlinear():
    texts = [
        "x*y[1] - y[0] + 1",
        qp2().text,
        "q/(1+q)*y[0]^2 - y[-2]*x^3 + 5/7",
    ]
    for t in texts:
        src = parse(t)
        again = parse(src.canonical_text())
        assert again.parsed == src.parsed
        assert again.kind == src.kind


def test_equation_round_trip_operator():
    texts = [
        "x*S[1] - 1",
        "S[-2]*(S[1]-1)*(S[1]+1) + q^-2*x",
        "(q^5-q^2)*S[3] + x*S[0] - 1/q^3*S[-1]",
    ]
    for t in texts:
        src = parse(t)
        again = parse(src.canonical_text())
        assert again.parsed == src.parsed
        assert again.kind == src.kind


def test_source_json():
    src = parse("x*y[1] - y[0] + 1")
    j = src.to_json()
    assert j["kind"] == "nonlinear"
    assert j["text"] == "x*y[1] - y[0] + 1"
    assert "monomials" in j["parsed"]
    assert isinstance(src, EquationSource)
