"""No function in the package calls itself by bare name, so no algorithm
fails for lack of Python stack depth.  Method calls on other objects
(`alloc.to_json()`, `super().__init__`) are not self-calls."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bobw"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _self_calling(node: ast.AST, prefix: str):
    """Qualified names of the functions under `node` that call their own name."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (*DEFS, ast.ClassDef)):
            yield from _self_calling(child, prefix)
            continue
        name = prefix + child.name
        if isinstance(child, DEFS) and any(
            isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == child.name
            for call in ast.walk(child)
        ):
            yield name
        yield from _self_calling(child, name + ".")


def test_no_function_calls_itself():
    found = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in _self_calling(ast.parse(path.read_text()), path.stem + ".")
    ]
    assert found == []


def test_the_guard_sees_nested_and_method_self_calls():
    tree = ast.parse(
        "def outer():\n"
        "    def walk(x):\n"
        "        return walk(x - 1) if x else 0\n"
        "    return walk(3)\n"
        "class C:\n"
        "    def to_json(self, a):\n"
        "        return a.to_json()\n"
        "    def f(self):\n"
        "        return f()\n"
    )
    assert list(_self_calling(tree, "m.")) == ["m.outer.walk", "m.C.f"]
