"""Every top-level name of the package has a reader.

A function, class or constant defined at the top level of a module must be
read by something other than its own definition:

- a `_`-prefixed helper by package code: by bare name elsewhere in its
  module, or from another module through an import or an attribute;
- a public name by package code in the same way, or by a script under
  `demos/` or `perfbench/`, or else it needs a reason in `KEEP`.

The package's `__init__` only re-exports, so its imports and `__all__` do
not count as reads.  A name that only tests read is dead code; the tests
should reach what it did through the code that remains.  `KEEP` holds
exactly the public names nothing reads, so an entry that names something
missing, or something a reader already justifies, fails as stale.

A `_ref_` function under `tests/` is the specification of a contract that
some test compares the package with, so it must be read by another
statement of its module or imported by another test module: a reference
nothing reads is a superseded copy."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bobw"
TESTS = ROOT / "tests"
OUTSIDE = ("demos", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

KEEP = {
    "core.instance_to_json": "writes the file format that load_instance reads",
    "lex_algos.sigma_unenvied_sequence": "the paper's picking-sequence construct the README documents",
}


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines (dunders are not helpers)."""
    if isinstance(stmt, DEFS):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def _reads(trees) -> tuple[set[tuple[str, str]], set[str]]:
    """(module, name) pairs imported and attribute names read by `trees`."""
    remote: set[tuple[str, str]] = set()
    attrs: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                remote.update((source, alias.name) for alias in node.names)
    return remote, attrs


def _unread(package: dict[str, ast.Module], outside: list[ast.Module] = ()) -> tuple[list[str], list[str]]:
    """module.name of each private and of each public top-level definition
    of `package` that nothing reads: package code for a private name, and
    package code or `outside` for a public one."""
    code = {mod: tree for mod, tree in package.items() if mod != "__init__"}
    remote, attrs = _reads(code.values())
    outside_remote, outside_attrs = _reads(outside)
    private, public = [], []
    for mod, tree in code.items():
        # bare names read by each top-level statement of the module
        local = [
            {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for stmt in tree.body
        ]
        for k, stmt in enumerate(tree.body):
            for name in _defined_names(stmt):
                if any(name in names for j, names in enumerate(local) if j != k) or (mod, name) in remote or name in attrs:
                    continue
                if name.startswith("_"):
                    private.append(f"{mod}.{name}")
                # an outside script imports from the package root or from the module
                elif not ({(mod, name), ("bobw", name)} & outside_remote or name in outside_attrs):
                    public.append(f"{mod}.{name}")
    return private, public


def _unjustified(unread: list[str], keep: dict[str, str]) -> list[str]:
    """Each unread public name without a KEEP reason, and each stale KEEP
    entry."""
    return [f"{name}: nothing reads it" for name in unread if name not in keep] + [
        f"{name}: stale KEEP entry" for name in keep if name not in unread
    ]


def _scan() -> tuple[list[str], list[str]]:
    package = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    outside = [ast.parse(path.read_text()) for folder in OUTSIDE for path in sorted((ROOT / folder).glob("*.py"))]
    return _unread(package, outside)


def test_every_private_helper_is_used_by_the_package():
    assert _scan()[0] == []


def test_every_public_name_has_a_reader_or_a_keep_reason():
    assert _unjustified(_scan()[1], KEEP) == []


def test_every_reference_in_the_tests_is_read():
    tests = {path.stem: ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))}
    private, _ = _unread(tests)
    assert [name for name in private if name.split(".", 1)[1].startswith("_ref_")] == []


def test_the_guard_sees_helpers_only_their_own_definition_reads():
    package = {
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
            "def _by_demo_only():\n"
            "    pass\n"
            "def public():\n"
            "    return _helper()\n"
            "def reexported():\n"
            "    pass\n"
            "def by_demo():\n"
            "    pass\n"
            "def by_bench():\n"
            "    pass\n"
            "KEPT = 3\n"
        ),
        "b": ast.parse(
            "from . import a\n"
            "from .a import _imported, public\n"
            "def f():\n"
            "    return a._by_attribute, _imported, public\n"
            "def g():\n"
            "    return _UNUSED, _Cls, reexported\n"  # bare names in another module do not count
            "TABLE = (f, g)\n"
        ),
        "__init__": ast.parse("from .a import reexported\n__all__ = ['reexported']\n"),
    }
    outside = [
        ast.parse("from bobw import by_demo\nfrom bobw.a import _by_demo_only\nby_demo()\n"),
        ast.parse("def op(b):\n    return b.a.by_bench(), b.b.TABLE\n"),
    ]
    private, public = _unread(package, outside)
    # an outside reader keeps only public names alive
    assert private == ["a._UNUSED", "a._self_only", "a._Cls", "a._by_demo_only"]
    assert public == ["a.reexported", "a.KEPT"]
    assert _unjustified(public, {"a.reexported": "a reason", "a.KEPT": "a reason"}) == []
    # a KEEP entry for a missing name, or for one a reader already keeps, is stale
    assert _unjustified(public, {"a.KEPT": "a reason", "a.gone": "", "a.by_demo": ""}) == [
        "a.reexported: nothing reads it",
        "a.gone: stale KEEP entry",
        "a.by_demo: stale KEEP entry",
    ]
