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
    """(name, owning class or None, is_function, first line, last line) of
    the module-level names and methods of one parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield (node.name, None, not isinstance(node, ast.ClassDef),
                   node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield (item.name, node.name, True,
                               item.lineno, item.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, None, False, node.lineno, node.end_lineno


def _class_bases(tree):
    """{class name: names of its bases} for the classes of one module."""
    return {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
            for node in tree.body if isinstance(node, ast.ClassDef)}


ANY = object()  # a mention that counts toward every same-named definition
NOBODY = object()  # a class-qualified mention no class of src/ defines


def _owner(cls, bases, owners):
    """Of the classes owners that define a name, the one cls.name reaches:
    cls itself or the nearest of its bases in src/."""
    todo = [cls]
    while todo:
        c = todo.pop(0)
        if c in owners:
            return c
        todo += bases.get(c, [])
    return NOBODY


def _unreferenced(wanted):
    """The definitions wanted(name, is_function) accepts that no line of
    src/ mentions outside every definition of that name.

    A mention qualified by a class of src/ (RatQ.from_value) counts only
    toward the method that class has or inherits; any other mention
    (self.name, K.name, name) counts toward every same-named definition.
    Blanking all same-named definitions, not only the one under test,
    keeps two methods of one name (say, on two classes) from counting as
    each other's uses, and recursion or a def line from counting at all.
    """
    sources = {p: p.read_text().splitlines() for p in sorted(SRC.glob("*.py"))}
    spans = {}  # name -> [(path, owner, is_function, first line, last line)]
    bases = {}
    for path, lines in sources.items():
        tree = ast.parse("\n".join(lines))
        bases.update(_class_bases(tree))
        for name, owner, is_function, first, last in _definitions(tree):
            spans.setdefault(name, []).append(
                (path, owner, is_function, first, last))
    unused = []
    for name, defs in spans.items():
        if not any(wanted(name, d[2]) for d in defs):
            continue
        owners = {d[1] for d in defs if d[1] is not None}
        word = re.compile(rf"(?:\b(\w+)\s*\.\s*)?\b{re.escape(name)}\b")
        used_by = set()  # owning classes of the mentions; ANY for all
        for path, lines in sources.items():
            blank = {i for p, _, _, first, last in spans[name] if p == path
                     for i in range(first - 1, last)}
            for i, line in enumerate(lines):
                if i in blank or name not in line:
                    continue
                for m in word.finditer(line):
                    qual = m.group(1)
                    used_by.add(_owner(qual, bases, owners)
                                if qual in bases else ANY)
        unused += [f"{path.name}:{first} {name}"
                   for path, owner, is_function, first, _ in defs
                   if wanted(name, is_function)
                   and ANY not in used_by and owner not in used_by]
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
