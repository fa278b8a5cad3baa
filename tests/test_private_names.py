"""Source hygiene: every private name in src/qdeq is used by src/ itself.

A private function, class, method or module constant that only its own
definition mentions is dead code, or code that only tests call; either
way it should go.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qdeq"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _private_definitions(tree):
    """(name, first line, last line) of the private module-level names and
    methods of one parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if _is_private(node.name):
                yield node.name, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _is_private(item.name)):
                        yield item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and _is_private(t.id):
                    yield t.id, node.lineno, node.end_lineno


def test_every_private_name_is_referenced_in_src():
    sources = {p: p.read_text().splitlines() for p in sorted(SRC.glob("*.py"))}
    unused = []
    for path, lines in sources.items():
        for name, first, last in _private_definitions(ast.parse("\n".join(lines))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            hits = 0
            for other, other_lines in sources.items():
                if other == path:
                    # blank the definition itself, so recursion and the
                    # def line do not count as uses
                    other_lines = (other_lines[:first - 1]
                                   + other_lines[last:])
                hits += sum(len(word.findall(line)) for line in other_lines)
            if not hits:
                unused.append(f"{path.name}:{first} {name}")
    assert not unused, f"private names no code in src/ uses: {unused}"
