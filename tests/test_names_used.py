"""Every module-level name in shiftlab is read by some shiftlab module.

A public name that only tests (or the benchmark) call belongs with them,
not in the library; a private one nothing reads is dead.  A name counts as
read when a module loads it, reads it as an attribute, or imports it.
"""

import argparse
import ast
import os

import shiftlab
from shiftlab.cli import build_parser

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


def _defined(tree: ast.Module) -> set[str]:
    """Functions, classes and assigned names at module level, but for
    dunders such as __version__."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("__")}


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


def _unread(trees: dict[str, ast.Module]) -> tuple[list[str], list[str]]:
    """The unread names as "module:name", split into private ones (one
    leading underscore) and public ones."""
    read = _read(trees.values())
    unread = sorted(f"{module}:{name}" for module, tree in trees.items() for name in _defined(tree) - read)
    private = [entry for entry in unread if entry.partition(":")[2].startswith("_")]
    return private, [entry for entry in unread if entry not in private]


def _subcommands() -> set[str]:
    actions = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name for action in actions for name in action.choices}


def test_every_private_name_is_read():
    # cli.main looks its handlers up by name: "_cmd_" + the subcommand
    unread, _ = _unread(_trees())
    handlers = {entry for entry in unread if entry.startswith("cli.py:_cmd_")}
    assert unread == sorted(handlers)


def test_cli_handlers_are_the_subcommands():
    handlers = {name for name in _defined(_trees()["cli.py"]) if name.startswith("_cmd_")}
    assert handlers == {"_cmd_" + sub.replace("-", "_") for sub in _subcommands()}


def test_the_guard_sees_a_private_name_that_nothing_reads():
    trees = {
        "a.py": ast.parse("_used = 1\n_unused: int = 2\ndef _helper(): pass\nclass _Kind: pass\n__all__ = []\n"),
        "b.py": ast.parse("from .a import _used\nimport a\na._Kind\n"),
    }
    assert _unread(trees)[0] == ["a.py:_helper", "a.py:_unused"]


def test_every_public_name_is_read():
    assert _unread(_trees())[1] == sorted(_EXEMPT)


def test_the_guard_sees_a_public_name_that_nothing_reads():
    trees = {
        "a.py": ast.parse("used = 1\nunused: int = 2\ndef helper(): pass\nclass Kind: pass\n_private = 3\n"),
        "b.py": ast.parse("from .a import used\nimport a\na.Kind\n"),
    }
    assert _unread(trees)[1] == ["a.py:helper", "a.py:unused"]
