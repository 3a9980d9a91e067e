"""Every private module-level name in shiftlab is read by some module."""

import argparse
import ast
import os

import shiftlab
from shiftlab.cli import build_parser

_SRC = os.path.dirname(os.path.abspath(shiftlab.__file__))


def _trees() -> dict[str, ast.Module]:
    trees = {}
    for name in sorted(os.listdir(_SRC)):
        if name.endswith(".py"):
            with open(os.path.join(_SRC, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read())
    return trees


def _defined_private(tree: ast.Module) -> set[str]:
    """Functions, classes and assigned names at module level that start
    with one underscore (dunders such as __version__ are not private)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


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


def _unread_private(trees: dict[str, ast.Module]) -> list[str]:
    read = _read(trees.values())
    return sorted(
        f"{module}:{name}" for module, tree in trees.items() for name in _defined_private(tree) - read
    )


def _subcommands() -> set[str]:
    actions = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name for action in actions for name in action.choices}


def test_every_private_name_is_read():
    # cli.main looks its handlers up by name: "_cmd_" + the subcommand
    unread = _unread_private(_trees())
    handlers = {entry for entry in unread if entry.startswith("cli.py:_cmd_")}
    assert unread == sorted(handlers)


def test_cli_handlers_are_the_subcommands():
    handlers = {name for name in _defined_private(_trees()["cli.py"]) if name.startswith("_cmd_")}
    assert handlers == {"_cmd_" + sub.replace("-", "_") for sub in _subcommands()}


def test_the_guard_sees_a_private_name_that_nothing_reads():
    trees = {
        "a.py": ast.parse("_used = 1\n_unused: int = 2\ndef _helper(): pass\nclass _Kind: pass\n__all__ = []\n"),
        "b.py": ast.parse("from .a import _used\nimport a\na._Kind\n"),
    }
    assert _unread_private(trees) == ["a.py:_helper", "a.py:_unused"]
