"""`import qdeq` loads qdeq's own modules and a short list of stdlib ones.

The benchmark's setup_s times a fresh process from start to its first
job, and `import qdeq` is part of it, so a new heavy import on that path
shows up there as noise-sized drift.  This test fails on it instead.  The
child runs with -S: no site hooks, so only what `import qdeq` pulls in
is new, whatever the environment preloads.
"""

import os
import subprocess
import sys

from test_lazy_numpy import SRC

# what `import qdeq` needs of the stdlib, with the modules those import
# in turn (Python 3.10 and 3.11); C accelerators are listed by their names
STDLIB = {
    "cmath", "collections", "contextlib", "copyreg", "decimal", "enum",
    "fractions", "functools", "genericpath", "heapq", "itertools",
    "keyword", "math", "numbers", "operator", "os", "posixpath", "re",
    "reprlib", "sre_compile", "sre_constants", "sre_parse", "stat",
    "types", "typing", "warnings",
    "_collections", "_collections_abc", "_decimal", "_functools", "_heapq",
    "_locale", "_operator", "_sre", "_stat", "_typing",
}

CHILD = """\
import sys
before = set(sys.modules)
import qdeq
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_qdeq_adds_only_listed_modules():
    run = subprocess.run([sys.executable, "-S", "-c", CHILD],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert run.returncode == 0, run.stderr
    added = run.stdout.split()
    assert "qdeq.ratfunc" in added  # the child imported these sources
    foreign = [m for m in added
               if m.partition(".")[0] not in STDLIB | {"qdeq"}]
    assert foreign == [], f"import qdeq loads {foreign}"
