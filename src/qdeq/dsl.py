"""Equation text -> exact objects, and back.

Two closely related grammars share one tokenizer:

  coefficient mode   expressions in q alone, the textual form of Q(q)
                     elements (what RatQ.to_text emits);
  equation mode      adds x, the series unknown y[i] (giving a QdeqPoly)
                     and the shift symbol S[i] (giving a SkewOp).

Grammar, both modes:

  equation := expr ("=" expr)?          "a = b" normalizes to a - b
  expr     := ["-"] term (("+"|"-") term)*
  factor   := atom ("^" ["-"] int)?
  term     := factor (("*"|"/") factor)*
  atom     := "(" expr ")" | "x" | "q" | int | "y[" ["-"] int "]"
              | "S[" ["-"] int "]"

Division and negative powers are only defined when the divisor / base
is a pure coefficient (no x, y, S): Q(q) is a field, polynomial rings
are not.  Mixing y[] and S[] in one equation raises MixedKind; x to a
negative power raises NegativeXPower.  All positions in errors are
0-based offsets into the source text.
"""

import re

from .errors import (EquationSyntaxError, MixedKind, NegativeXPower)
from .nonlinear import QdeqPoly
from .ratfunc import RatQ, power
from .series import XPoly
from .skewop import SkewOp

_TOKEN = re.compile(r"\s*(?:(\d+)|([xqyS])|([-+*/^()\[\]=])|(\S))")

# promotion ranks; QdeqPoly and SkewOp are both maximal and incompatible
_RANK = {RatQ: 0, XPoly: 1, QdeqPoly: 2, SkewOp: 2}


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:  # only trailing whitespace left
            break
        if m.group(4):
            raise EquationSyntaxError(
                f"unexpected character {m.group(4)!r}", m.start(4))
        kind = "int" if m.group(1) else ("name" if m.group(2) else "sym")
        val = m.group(1) or m.group(2) or m.group(3)
        out.append((kind, val, m.end() - len(val)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _promote(v, cls):
    if isinstance(v, cls):
        return v
    if isinstance(v, RatQ):
        if cls is XPoly:
            return XPoly({0: v})
        if cls is QdeqPoly:
            return QdeqPoly.const(v)
        return SkewOp({0: XPoly({0: v})})
    # v is an XPoly
    if cls is QdeqPoly:
        return QdeqPoly((0, 0), (((e, ()), c) for e, c in v.terms.items()))
    return SkewOp({0: v})


def _combine(a, b, op, pos):
    ra, rb = _RANK[type(a)], _RANK[type(b)]
    if ra == rb == 2 and type(a) is not type(b):
        raise MixedKind(
            "an equation cannot mix the unknown y[] with shift symbols "
            f"S[] (at position {pos})")
    cls = type(a) if ra >= rb else type(b)
    a = _promote(a, cls)
    b = _promote(b, cls)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


def _int(val, pos):
    """The integer literal val at pos; past int()'s digit limit it is a
    syntax error there."""
    try:
        return int(val)
    except ValueError as exc:
        raise EquationSyntaxError(str(exc), pos) from None


class _Parser:
    def __init__(self, text, mode):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.mode = mode

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_sym(self, s):
        kind, val, pos = self.take()
        if kind != "sym" or val != s:
            raise EquationSyntaxError(f"expected {s!r}", pos)

    def fail(self, msg):
        raise EquationSyntaxError(msg, self.peek()[2])

    # -- grammar -----------------------------------------------------------

    def equation(self):
        lhs = self.expr()
        kind, val, pos = self.peek()
        if kind == "sym" and val == "=":
            self.take()
            rhs = self.expr()
            lhs = _combine(lhs, rhs, "-", pos)
        if self.peek()[0] != "end":
            self.fail(f"unexpected {self.peek()[1]!r}")
        return lhs

    def expr(self):
        kind, val, pos = self.peek()
        if kind == "sym" and val == "-":
            self.take()
            out = _combine(RatQ(-1), self.term(), "*", pos)
        else:
            out = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "sym" and val in "+-":
                self.take()
                out = _combine(out, self.term(), val, pos)
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "sym" and val == "*":
                self.take()
                out = _combine(out, self.factor(), "*", pos)
            elif kind == "sym" and val == "/":
                self.take()
                d = self.factor()
                if not isinstance(d, RatQ):
                    raise EquationSyntaxError(
                        "can only divide by a coefficient expression "
                        "(no x, y, S in a divisor)", pos)
                if isinstance(out, RatQ):
                    out = out / d
                else:
                    out = _combine(RatQ(1) / d, out, "*", pos)
            else:
                return out

    def factor(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if not (kind == "sym" and val == "^"):
            return base
        self.take()
        e = self.signed_int("an exponent")
        if isinstance(base, RatQ):
            return base ** e
        if e < 0:
            raise NegativeXPower(
                f"negative power at position {pos} needs an invertible "
                f"base; x, y[] and S[] are not units")
        return power(base, e, _promote(RatQ(1), type(base)))

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return RatQ(_int(val, pos))
        if kind == "sym" and val == "(":
            out = self.expr()
            self.expect_sym(")")
            return out
        if kind == "name":
            if val == "q":
                return RatQ(1).shift_q(1)
            if val == "x":
                if self.mode == "coeff":
                    raise EquationSyntaxError(
                        "x is not allowed in a coefficient", pos)
                return XPoly({1: 1})
            # y or S
            if self.mode == "coeff":
                raise EquationSyntaxError(
                    f"{val}[] is not allowed in a coefficient", pos)
            self.expect_sym("[")
            i = self.signed_int("a shift index")
            self.expect_sym("]")
            if val == "y":
                return QdeqPoly.w(i)
            return SkewOp({i: XPoly({0: 1})})
        raise EquationSyntaxError(
            f"expected a value, found {val!r}" if val else "unexpected end "
            "of input", pos)

    def signed_int(self, what):
        kind, val, pos = self.take()
        neg = False
        if kind == "sym" and val == "-":
            neg = True
            kind, val, pos = self.take()
        if kind != "int":
            raise EquationSyntaxError(f"expected {what}", pos)
        return -_int(val, pos) if neg else _int(val, pos)


class EquationSource:
    """A parsed equation together with the text it came from.

    kind is "nonlinear" (QdeqPoly in y[i], solved as F = 0) or
    "linear_operator" (a SkewOp in S[i]).  Text with no unknown at all
    parses as a constant nonlinear equation; downstream consumers give
    the informative complaint.
    """

    __slots__ = ("text", "parsed", "kind")

    def __init__(self, text, parsed, kind):
        self.text = text
        self.parsed = parsed
        self.kind = kind

    def canonical_text(self):
        return self.parsed.to_text()

    def to_json(self):
        return {"text": self.text, "kind": self.kind,
                "parsed": self.parsed.to_json()}

    def __repr__(self):
        return f"EquationSource({self.kind}: {self.canonical_text()})"


def _parsed(text, mode):
    """The value of text in mode; nesting deeper than Python's recursion
    limit is a syntax error at the token the parser had reached."""
    p = _Parser(text, mode)
    try:
        return p.equation()
    except RecursionError:
        pos = p.toks[min(p.i, len(p.toks) - 1)][2]
        raise EquationSyntaxError("expression nested too deeply", pos) from None


def parse(text):
    """Parse equation text into an EquationSource."""
    got = _parsed(text, "equation")
    if isinstance(got, SkewOp):
        return EquationSource(text, got, "linear_operator")
    if not isinstance(got, QdeqPoly):
        got = _promote(got, QdeqPoly)
    return EquationSource(text, got, "nonlinear")


def parse_ratq(text):
    """Parse coefficient text (an element of Q(q)) into a RatQ."""
    return _parsed(text, "coeff")
