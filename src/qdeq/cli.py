"""Command line interface.

Output goes to stdout in the format chosen by --format (text or json);
diagnostics go to stderr as one JSON object per line: an error, or a
solve whose probe engine gave way to the exact one, with its reason.
Each subcommand takes only the flags it reads, and any other flag is a
usage error:

    parse, polygon      EQUATION or --input, --format
    linearize, solve    as parse, plus --seed, --order
    growth              as solve, plus --s, --C, --predict-from-polygon
    jones               --n, --format
    corpus              --run, --entry, --order (with --run), --format
    diophantine         [EQUATION or --input], --theta, --roots, --N,
                        --c2-grid, --format

EQUATION is one equation as text; --input names a UTF-8 file holding
it, or "-" for stdin.  growth also reads a JSON series (a coefficient
list, a series object or solve output), which takes none of --seed,
--order and --predict-from-polygon.  diophantine scans the resonance
roots of the operator it is given, or --roots (not both), or u = 1.

Exit codes: 0 success, 1 error, 2 expectation failure (a corpus run
with failing expectations, or a growth check against explicitly given
bounds that does not hold).
"""

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction

from . import growth
from .corpus import corpus, get_entry, jones
from .dsl import parse, parse_ratq
from .errors import (DegenerateAfterEvaluation, EmptyOperator, QdeqError,
                     RootOfUnityDetected, UncertainOrder, UsageError)
from .nonlinear import QdeqPoly, linearize
from .series import TruncSeries
from .skewop import newton_polygon, resonance_poly
from .solver import extend
from .unitcircle import roots_of, scan_condition_H, unit_q


def _kind(read, name):
    """argparse type of one value read(text); a ValueError or a zero
    denominator is "invalid <name> value" under the flag's name."""
    def kind(text):
        try:
            return read(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"invalid {name} value: {text!r}") from None
    return kind


def _listed(kind):
    """argparse type of comma-separated kind values; an empty one, as in
    "" or "1,,2", is invalid like any other."""
    return lambda text: [kind(part.strip()) for part in text.split(",")]


def _integer(least):
    """argparse type of integers from least on: 0 is the order kind (--order,
    --n), 1 the count kind (--N); argparse names the flag of a bad value."""
    def integer(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"{text} is below {least}")
        return int(text)
    return integer


def _seed(text):
    """argparse type of --seed: comma-separated coefficients in Q(q); a
    bad one is named by its index, not echoed."""
    seed = []
    for i, part in enumerate(text.split(",")):
        try:
            seed.append(parse_ratq(part))
        except QdeqError as exc:
            raise argparse.ArgumentTypeError(f"coefficient {i}: {exc}") from None
    return seed


def positive(text):
    """The exponent kind of --c2-grid: a rational above 0."""
    if (value := Fraction(text)) <= 0:
        raise ValueError(text)
    return value


def _finite_complex(text):
    """The root kind of --roots: a finite complex number."""
    if not cmath.isfinite(value := complex(text)):
        raise ValueError(text)
    return value


def _theta(text):
    """--theta's kind: p/r or an integer read exactly, else a finite float."""
    if "/" in text or "." not in text:
        return Fraction(text)
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


def _emit(payload, fmt):
    print(json.dumps(payload.to_json()) if fmt == "json" else payload.to_text())
    return 0


def _read_text(args):
    if args.equation:
        return args.equation
    if args.input:
        if args.input == "-":
            return sys.stdin.read()
        try:
            with open(args.input, encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise QdeqError(f"argument --input: {exc}") from None
    raise QdeqError("no equation given; pass it as an argument or via --input")


def _read_source(args):
    return parse(_read_text(args).strip())


def _seed_coeffs(seed):
    if seed is None:
        raise QdeqError("this command needs --seed \"c0,c1,...\"")
    return seed


def _as_equation(src):
    """Nonlinear input passes through; operators become sum a_i w_i = 0."""
    return (src.parsed if src.kind == "nonlinear"
            else QdeqPoly.from_operator(src.parsed))


def _extend(F, args):
    """The solve report for F from --seed through --order (default 16)."""
    seed = _seed_coeffs(args.seed)
    order = args.order if args.order is not None else 16
    if order < len(seed) - 1:
        raise UsageError(f"argument --order: target order {order} is below"
                         f" the seed order {len(seed) - 1}")
    report = extend(F, seed, order)
    if report.fallback is not None:
        print(json.dumps({"fallback": "probe engine to exact",
                          "reason": report.fallback}), file=sys.stderr)
    return report


# -- subcommands -------------------------------------------------------------


def _cmd_parse(args):
    src = _read_source(args)
    if args.format == "json":
        return _emit(src, args.format)
    print(f"{src.kind}: {src.canonical_text()}")
    return 0


def _cmd_polygon(args):
    src = _read_source(args)
    if src.kind != "linear_operator":
        raise QdeqError("polygon needs a linear operator; for a nonlinear"
                        " equation use linearize first")
    return _emit(newton_polygon(src.parsed), args.format)


def _cmd_linearize(args):
    src = _read_source(args)
    if src.kind != "nonlinear":
        raise QdeqError("linearize needs a nonlinear equation; an operator"
                        " is already linear")
    series = (TruncSeries(_seed_coeffs(args.seed)) if args.order is None
              else _extend(src.parsed, args).solution)
    return _emit(linearize(src.parsed, series), args.format)


def _cmd_solve(args):
    return _emit(_extend(_as_equation(_read_source(args)), args), args.format)


def _load_series_json(text):
    """JSON text of a list of coefficient strings, or of an object holding
    one as "coeffs" (a series object, or solve output) with an optional
    integer "trunc" or "resolved_through" >= 0; anything else is an
    error naming --input, bad JSON and bad coefficients included."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise QdeqError(f"argument --input: invalid JSON: {exc}") from None
    if isinstance(obj, list):
        obj = {"coeffs": obj}
    coeffs = obj.get("coeffs") if isinstance(obj, dict) else None
    if not (isinstance(coeffs, list)
            and all(isinstance(t, str) for t in coeffs)):
        raise QdeqError("argument --input: unrecognized series JSON; expected"
                        " a list of coefficient strings, a series object, or"
                        " solve output")
    if not coeffs and not {"trunc", "resolved_through"} & obj.keys():
        raise QdeqError("argument --input: an empty coefficient list has"
                        " no truncation order")
    trunc = obj.get("trunc", obj.get("resolved_through", len(coeffs) - 1))
    if type(trunc) is not int or trunc < 0:
        raise QdeqError(f"argument --input: the series truncation must be"
                        f" an integer >= 0, not {json.dumps(trunc)}")
    try:
        values = [parse_ratq(t) for t in coeffs]
    except QdeqError as exc:
        raise QdeqError(f"argument --input: invalid coefficient: {exc}"
                        ) from None
    return TruncSeries(values, trunc)


def _cmd_growth(args):
    text = _read_text(args).strip()
    polygon = halt = None
    if text.startswith(("[", "{")):
        y = _load_series_json(text)
        for flag, given in (("--seed", args.seed), ("--order", args.order),
                            ("--predict-from-polygon",
                             args.predict_from_polygon or None)):
            if given is not None:
                raise QdeqError(f"{flag} needs an equation, not a bare series")
    else:
        F = _as_equation(parse(text))
        solved = _extend(F, args)
        y = solved.solution
        if solved.halted():
            e = solved.events[-1]
            halt = (f"the solve halted at h = {e['h']}: {e['kind']} at order"
                    f" {e['order']}")
        if args.predict_from_polygon:
            try:
                polygon = newton_polygon(linearize(F, y))
            except (EmptyOperator, UncertainOrder) as exc:
                if halt is None:
                    raise
                raise type(exc)(f"{halt}; {exc}") from None
    report = growth.analyze(y, order=args.s, slack=args.C, polygon=polygon)
    if halt is not None:  # the CLI's note: analyze's JSON stays as it is
        report.notes.append(halt)
    code = _emit(report, args.format)
    asserted = args.s is not None or args.C is not None
    return 2 if asserted and not report.passed() else code


def _cmd_jones(args):
    value = jones(args.n)
    print(json.dumps({"n": args.n, "value": value.to_text(),
                      "deg_q": value.deg_q, "ord_q": value.ord_q})
          if args.format == "json" else value.to_text())
    return 0


def _cmd_corpus(args):
    if args.order is not None and not args.run:
        raise QdeqError("--order needs --run")
    if args.entry:
        try:
            entries = [get_entry(args.entry)]
        except KeyError as exc:
            raise QdeqError(f"argument --entry: {exc.args[0]}") from None
    else:
        entries = corpus()
    if not args.run:
        listing = [e.to_json() for e in entries]
        if args.format == "json":
            print(json.dumps({"entries": listing}))
        else:
            for item in listing:
                print(f"{item['id']}: {item['description']}")
                for key in ("seeds", "expectations"):
                    if item[key] or key == "expectations":
                        print(f"  {key}: {', '.join(item[key])}")
        return 0
    try:
        reports = [e.run(order=args.order) for e in entries]
    except ValueError as exc:  # an order below an entry's seed order
        raise UsageError(f"argument --order: {exc}") from None
    ok = all(r.passed() for r in reports)
    if args.format == "json":
        print(json.dumps({"passed": ok,
                          "entries": [r.to_json() for r in reports]}))
    else:
        for r in reports:
            print(r.to_text())
        print("all expectations pass" if ok else "EXPECTATION FAILURES")
    return 0 if ok else 2


def _cmd_diophantine(args):
    q = unit_q(args.theta)
    try:
        if args.equation or args.input:
            if args.roots is not None:
                raise QdeqError("give an operator or --roots, not both")
            src = _read_source(args)
            if src.kind != "linear_operator":
                raise QdeqError("diophantine needs a linear operator, whose"
                                " resonance roots it scans")
            try:
                roots = roots_of(resonance_poly(src.parsed), q)
            except DegenerateAfterEvaluation:
                # a q that is a root of unity is the verdict, even where
                # the resonance polynomial degenerates at q
                scan_condition_H(q, [], args.N, theta=args.theta)
                raise
        else:
            roots = [1 + 0j] if args.roots is None else args.roots
        scan = scan_condition_H(q, roots, args.N, c2_grid=args.c2_grid,
                                theta=args.theta)
    except RootOfUnityDetected as exc:
        print(json.dumps({"verdict": "root_of_unity", "n": exc.n})
              if args.format == "json" else f"root of unity: q^{exc.n} = 1")
        return 0
    return _emit(scan, args.format)


# -- argument wiring -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 means expectation failure here,
    so usage problems raise UsageError, which main reports with exit 1."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("equation", nargs="?",
                        help="equation text (or give --input)")
    source.add_argument("--input", help="equation file, or - for stdin")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, help="seed coefficients c0,c1,...")
    seeded.add_argument("--order", type=_integer(0), help="truncation order")

    top = _Parser(
        prog="qdeq",
        description="Exact Newton polygons, series solutions, and q-Gevrey"
                    " growth checks for q-difference equations.")
    sub = top.add_subparsers(dest="command", required=True)

    for name, parents, fn, text in (
            ("parse", [source], _cmd_parse,
             "echo the canonical form of an equation"),
            ("polygon", [source], _cmd_polygon,
             "Newton polygon of a linear operator"),
            ("linearize", [source, seeded], _cmd_linearize,
             "operator of partial derivatives along a series"),
            ("solve", [source, seeded], _cmd_solve,
             "extend seed coefficients to a series solution")):
        sub.add_parser(name, parents=parents + [fmt],
                       help=text).set_defaults(fn=fn)

    p = sub.add_parser("growth", parents=[source, seeded, fmt],
                       help="q-Gevrey growth report for an equation's"
                            " solution, or for a JSON series or solve"
                            " output")
    rational = _kind(Fraction, "Fraction")
    p.add_argument("--s", type=rational,
                   help="assert this growth order on both sides")
    p.add_argument("--C", type=rational,
                   help="assert this slack constant on both sides")
    p.add_argument("--predict-from-polygon", action="store_true",
                   help="compare against the linearized polygon prediction")
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("jones", parents=[fmt],
                       help="figure-eight invariant at one color")
    p.add_argument("--n", type=_integer(0), required=True)
    p.set_defaults(fn=_cmd_jones)

    p = sub.add_parser("corpus", parents=[fmt],
                       help="list bundled examples, or run their checks")
    p.add_argument("--run", action="store_true")
    p.add_argument("--entry", help="restrict to one entry id")
    p.add_argument("--order", type=_integer(0), help="order of a --run")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("diophantine", parents=[source, fmt],
                       help="scan |q^n - u| along the unit circle, for the"
                            " resonance roots u of an operator")
    p.add_argument("--theta", required=True,
                   type=_kind(_theta, "rotation number"),
                   help="rotation number, rational p/r or float")
    p.add_argument("--roots", type=_listed(_kind(_finite_complex,
                                                 "finite complex")),
                   help="comma-separated complex roots, in place of an"
                        " operator (default: 1)")
    p.add_argument("--N", type=_integer(1), default=10000)
    p.add_argument("--c2-grid", dest="c2_grid",
                   type=_listed(_kind(positive, "positive")),
                   help="comma-separated decay exponents")
    p.set_defaults(fn=_cmd_diophantine)

    return top


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (QdeqError, OSError, ValueError, MemoryError,
            OverflowError) as exc:
        fields = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "pos"):
            fields["pos"] = exc.pos
        print(json.dumps(fields), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
