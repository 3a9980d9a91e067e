"""Every public module-level name in shiftlab is read by some shiftlab module.

A name that only tests (or the benchmark) call belongs with them, not in
the library.  The walk is that of `test_private_names_used`: a name
counts as read when a module loads it, reads it as an attribute, or
imports it.
"""

import ast
import os

import shiftlab

_SRC = os.path.dirname(os.path.abspath(shiftlab.__file__))

# backward_ext_1var has no caller yet: it is the one-variable backward
# extension that window-free subnormality verdicts and per-kind Berger data
# (ROADMAP items 7 and 13) are to be built on.  An entry that gains a
# reader fails the test, so the list cannot go stale.
_EXEMPT = {"measures.py:backward_ext_1var"}


def _trees() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read())
    return trees


def _defined_public(tree: ast.Module) -> set[str]:
    """Functions, classes and assigned names at module level that do not
    start with an underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _read(trees) -> set[str]:
    """Names any module loads, reads as an attribute, or imports."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _unread_public(trees: dict[str, ast.Module]) -> list[str]:
    read = _read(trees.values())
    return sorted(f"{module}:{name}" for module, tree in trees.items() for name in _defined_public(tree) - read)


def test_every_public_name_is_read():
    assert _unread_public(_trees()) == sorted(_EXEMPT)


def test_the_guard_sees_a_public_name_that_nothing_reads():
    trees = {
        "a.py": ast.parse("used = 1\nunused: int = 2\ndef helper(): pass\nclass Kind: pass\n_private = 3\n"),
        "b.py": ast.parse("from .a import used\nimport a\na.Kind\n"),
    }
    assert _unread_public(trees) == ["a.py:helper", "a.py:unused"]
