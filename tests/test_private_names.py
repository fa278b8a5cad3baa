"""Source hygiene: every name src/qdeq defines is used by src/ itself.

A private function, class, method or module constant that only its own
definition mentions is dead code, or code that only tests call; either
way it should go.  The same holds for a public function or method,
unless the package exports it or it is a reference kept for the tests.
"""

import ast
import re
from pathlib import Path

import qdeq

SRC = Path(__file__).resolve().parent.parent / "src" / "qdeq"

# public names only tests call, kept because tests compare against them
# (_intpoly.eval_mod, QLaurent.q_power, TruncSeries.shift_x)
KEPT_TEST_REFERENCES = {"eval_mod", "q_power", "shift_x"}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _definitions(tree):
    """(name, is_function, first line, last line) of the module-level
    names and methods of one parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield (node.name, not isinstance(node, ast.ClassDef),
                   node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield item.name, True, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, False, node.lineno, node.end_lineno


def _unreferenced(wanted):
    """The definitions wanted(name, is_function) accepts whose name no
    line of src/ mentions outside every definition of that name.

    Blanking all same-named definitions, not only the one under test,
    keeps two methods of one name (say, on two classes) from counting as
    each other's uses, and recursion or a def line from counting at all.
    """
    sources = {p: p.read_text().splitlines() for p in sorted(SRC.glob("*.py"))}
    spans = {}  # name -> [(path, is_function, first line, last line)]
    for path, lines in sources.items():
        for name, is_function, first, last in _definitions(
                ast.parse("\n".join(lines))):
            spans.setdefault(name, []).append((path, is_function, first, last))
    unused = []
    for name, defs in spans.items():
        defs = [d for d in defs if wanted(name, d[1])]
        if not defs:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        hits = 0
        for path, lines in sources.items():
            blank = {i for p, _, first, last in spans[name] if p == path
                     for i in range(first - 1, last)}
            hits += sum(len(word.findall(line))
                        for i, line in enumerate(lines) if i not in blank)
        if not hits:
            unused += [f"{path.name}:{first} {name}"
                       for path, _, first, _ in defs]
    return sorted(unused)


def test_every_private_name_is_referenced_in_src():
    unused = _unreferenced(lambda name, is_function: _is_private(name))
    assert not unused, f"private names no code in src/ uses: {unused}"


def test_every_public_function_is_used_in_src_or_exported():
    def wanted(name, is_function):
        return (is_function and not name.startswith("_")
                and name not in qdeq.__all__
                and name not in KEPT_TEST_REFERENCES)

    unused = _unreferenced(wanted)
    assert not unused, (f"public functions and methods no code in src/ "
                        f"uses and qdeq does not export: {unused}")
