"""Every private top-level helper of the package is used by the package.

A `_`-prefixed function, class or constant defined at the top level of a
module must be read by package code other than its own definition: by bare
name elsewhere in its module, or from another module through an import or
an attribute.  A helper that only tests call is dead code; the tests should
reach what it did through the code that remains."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bobw"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private_names(stmt: ast.stmt) -> list[str]:
    """The private names a top-level statement defines (dunders are not helpers)."""
    if isinstance(stmt, DEFS):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _unused(modules: dict[str, ast.Module]) -> list[str]:
    """module.name of each private top-level definition nothing else reads."""
    local: dict[str, list[set[str]]] = {}  # module -> bare names read, per top-level statement
    remote: set[tuple[str, str]] = set()  # (module, name) imported or read as an attribute
    attrs: set[str] = set()
    for mod, tree in modules.items():
        local[mod] = []
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    source = node.module.rsplit(".", 1)[-1]
                    remote.update((source, alias.name) for alias in node.names)
            local[mod].append(names)
    return [
        f"{mod}.{name}"
        for mod, tree in modules.items()
        for k, stmt in enumerate(tree.body)
        for name in _private_names(stmt)
        if not (
            any(name in names for j, names in enumerate(local[mod]) if j != k)
            or (mod, name) in remote
            or name in attrs
        )
    ]


def test_every_private_helper_is_used_by_the_package():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _unused(modules) == []


def test_the_guard_sees_helpers_only_their_own_definition_reads():
    modules = {
        "a": ast.parse(
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "__version__ = '0'\n"
            "def _helper():\n"
            "    return _USED\n"
            "def _self_only(x):\n"
            "    return _self_only(x - 1) if x else 0\n"
            "class _Cls:\n"
            "    pass\n"
            "def _imported():\n"
            "    pass\n"
            "def _by_attribute():\n"
            "    pass\n"
            "def public():\n"
            "    return _helper()\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "from .a import _imported\n"
            "def f():\n"
            "    return a._by_attribute, _imported\n"
            "def g():\n"
            "    return _UNUSED, _Cls\n"  # bare names in another module do not count
        ),
    }
    assert _unused(modules) == ["a._UNUSED", "a._self_only", "a._Cls"]
