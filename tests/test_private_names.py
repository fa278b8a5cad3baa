"""Source hygiene: every private module constant and class src/qdeq
defines is used by src/ itself.

A private module-level constant or class that only its own definition
uses is dead code, or code that only tests read; either way it should
go.  Functions and methods are tests/test_reach.py's: it traces what the
CLI contract rows run.  A constant is read, not entered, so no trace
sees it, and a class is only as used as the names that reach it.

Uses are read from the syntax tree of each module: a name (C) or an
attribute (m.C) counts, inside f-string fields too, while comments,
docstrings and string literals do not.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdeq"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _definitions(tree):
    """(name, first line, last line) of the module-level classes and
    constants of one parsed module."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node.lineno, node.end_lineno


def _uses(tree):
    """(name, line) of every name and attribute in one parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_private_name_is_referenced_in_src():
    """A use inside any same-named definition of its module does not
    count, so a class that names itself in its own body is not used."""
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    spans = {}  # name -> [(path, first line, last line)]
    for path, tree in trees.items():
        for name, first, last in _definitions(tree):
            if _is_private(name):
                spans.setdefault(name, []).append((path, first, last))
    used = {name for path, tree in trees.items()
            for name, line in _uses(tree)
            if name in spans
            and not any(p == path and first <= line <= last
                        for p, first, last in spans[name])}
    unused = sorted(f"{path.name}:{first} {name}"
                    for name, defs in spans.items() if name not in used
                    for path, first, _ in defs)
    assert not unused, (f"private module constants and classes no code in"
                        f" src/ uses: {unused}")
