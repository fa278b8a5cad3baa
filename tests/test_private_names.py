"""Source hygiene: every name src/qdeq defines is used by src/ itself.

A private function, class, method or module constant that only its own
definition uses is dead code, or code that only tests call; either way
it should go.  The same holds for a public function or method, unless
the package exports it or it is a reference kept for the tests.

Uses are read from the syntax tree of each module: a name (f) or an
attribute (x.f) counts, inside f-string fields too, while comments,
docstrings and string literals do not.  A method is reached through an
attribute; a bare name reaches one only in a statement of its class's
body, an alias such as __radd__ = __add__.  A method of a class with a
base outside src/ is a hook that outside code calls (argparse calls
cli._Parser.error) and is exempt.  What the test cannot see: a method
that shares its name with one src/ does call through an object of
unknown class (self.f, x.f) counts as used.
"""

import ast
from pathlib import Path

import qdeq

SRC = Path(__file__).resolve().parent.parent / "src" / "qdeq"

# public names no src/ module uses, kept for their readers outside src/:
# tests compare against _intpoly.eval_mod and QLaurent.q_power, and
# perfbench/checks.py and perfbench/jobs.py read RatQ.num
KEPT_REFERENCES = {"eval_mod", "q_power", "num"}


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
    """{class name: its bases as written} for the classes of one module."""
    return {node.name: [ast.unparse(b) for b in node.bases]
            for node in tree.body if isinstance(node, ast.ClassDef)}


ANY = object()  # a use that counts toward every same-named definition
NOBODY = object()  # a class-qualified use no class of src/ defines
BARE = object()  # a bare name: it counts toward module-level definitions


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


def _uses(tree):
    """(name, qualifier, line) of every name and attribute in one parsed
    module.  An attribute K.name has qualifier K, any other attribute ANY.
    A bare name has BARE, and in a statement of the body of a class C (an
    alias such as __radd__ = __add__) it comes once more with C."""
    aliases = {id(n): c.name for c in tree.body if isinstance(c, ast.ClassDef)
               for stmt in c.body
               if isinstance(stmt, (ast.Assign, ast.AnnAssign))
               for n in ast.walk(stmt)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, BARE, node.lineno
            if id(node) in aliases:
                yield node.id, aliases[id(node)], node.lineno
        elif isinstance(node, ast.Attribute):
            qual = node.value.id if isinstance(node.value, ast.Name) else ANY
            yield node.attr, qual, node.lineno


def _unreferenced(wanted):
    """The definitions wanted(name, is_function) accepts that no code in
    src/ uses outside every definition of that name.

    A use qualified by a class of src/ (RatQ.from_value) counts only
    toward the method that class has or inherits, and a bare name only
    toward module-level definitions; any other use (self.name, x.name)
    counts toward every same-named definition.
    Leaving out uses inside all same-named definitions, not only the one
    under test, keeps two methods of one name (say, on two classes) from
    counting as each other's uses, and recursion from counting at all.
    """
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    written = {path: _class_bases(tree) for path, tree in trees.items()}
    bases = {c: bs for classes in written.values() for c, bs in classes.items()}
    hooks = {(path, c) for path, classes in written.items()
             for c, bs in classes.items() if any(b not in bases for b in bs)}
    spans = {}  # name -> [(path, owner, is_function, first line, last line)]
    for path, tree in trees.items():
        for name, owner, is_function, first, last in _definitions(tree):
            spans.setdefault(name, []).append(
                (path, owner, is_function, first, last))
    used_by = {}  # name -> owners its uses reach; None is module level
    for path, tree in trees.items():
        for name, qual, line in _uses(tree):
            if any(p == path and first <= line <= last
                   for p, _, _, first, last in spans.get(name, ())):
                continue
            used_by.setdefault(name, set()).add(
                None if qual is BARE
                else _owner(qual, bases, {d[1] for d in spans.get(name, ())})
                if qual in bases else ANY)
    return sorted(f"{path.name}:{first} {name}"
                  for name, defs in spans.items()
                  for path, owner, is_function, first, _ in defs
                  if wanted(name, is_function) and (path, owner) not in hooks
                  and not used_by.get(name, set()) & {ANY, owner})


def test_every_private_name_is_referenced_in_src():
    unused = _unreferenced(lambda name, is_function: _is_private(name))
    assert not unused, f"private names no code in src/ uses: {unused}"


def test_every_public_function_is_used_in_src_or_exported():
    defined = {name for p in SRC.glob("*.py")
               for name, *_ in _definitions(ast.parse(p.read_text()))}
    stale = sorted(KEPT_REFERENCES - defined)
    assert not stale, f"KEPT_REFERENCES names no definition in src/: {stale}"

    def wanted(name, is_function):
        return (is_function and not name.startswith("_")
                and name not in qdeq.__all__
                and name not in KEPT_REFERENCES)

    unused = _unreferenced(wanted)
    assert not unused, (f"public functions and methods no code in src/ "
                        f"uses and qdeq does not export: {unused}")
