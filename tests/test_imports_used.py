"""Every name a shiftlab module imports is read somewhere in that module."""

import ast
import os

import pytest

import shiftlab

_SRC = os.path.dirname(os.path.abspath(shiftlab.__file__))

# cli never calls hankel_psd: it keeps the name because the benchmark's
# tracer (certbench/spans.py) wraps it there.  An entry whose import is gone
# fails the test, so the list cannot go stale.
_EXEMPT = {("cli.py", "hankel_psd")}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("module", sorted(name for name in os.listdir(_SRC) if name.endswith(".py")))
def test_module_reads_every_name_it_imports(module):
    with open(os.path.join(_SRC, module), encoding="utf-8") as handle:
        unused = _unused_imports(handle.read())
    assert unused == sorted(name for owner, name in _EXEMPT if owner == module)


def test_the_guard_sees_a_name_that_is_imported_and_never_read():
    source = "from fractions import Fraction\nimport os.path\nfrom math import gcd as g\nos.sep\n"
    assert _unused_imports(source) == ["Fraction", "g"]
