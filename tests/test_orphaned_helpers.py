"""Every module-level private name in the package, the tests and the
scripts is used somewhere in its own tree.

A private helper or constant (``_name``, not a dunder) that no code in
``src/`` reads outside its own definition is dead: a left-over of a path
that was removed. Tests may still import such a name, so the test suite
alone does not show it. The same holds for a test helper or reference
constant that no test reads any more, and for a script's helpers.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_TREES = (_ROOT / "src" / "coherence_forge", _ROOT / "tests", _ROOT / "scripts")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(stmt: ast.stmt) -> set[str]:
    """The module-level names a top-level statement binds by def, class or
    assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}


def _referenced_names(stmt: ast.stmt) -> set[str]:
    """Every name a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def orphaned_private_names(package: Path) -> list[str]:
    """Module-level private names of ``package`` that no top-level statement
    other than their own definition references."""
    defined, referenced = set(), set()
    for path in sorted(package.rglob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = _defined_names(stmt)
            defined |= {name for name in own if _is_private(name)}
            referenced |= _referenced_names(stmt) - own
    return sorted(defined - referenced)


def test_no_orphaned_private_names():
    orphans = {tree.name: orphaned_private_names(tree) for tree in _TREES}
    assert orphans == {tree.name: [] for tree in _TREES}


def test_the_check_finds_a_left_over_helper(tmp_path):
    (tmp_path / "mod.py").write_text(
        "_DEPTH = 3\n"
        "_USED = 1\n"
        "\n"
        "def _midpoints(depth):\n"
        "    return [] if depth == 0 else [_USED, *_midpoints(depth - 1)]\n"
        "\n"
        "def _helper():\n"
        "    return 2\n"
        "\n"
        "def public():\n"
        "    return _helper()\n"
    )
    (tmp_path / "other.py").write_text("from .mod import _USED\n")
    assert orphaned_private_names(tmp_path) == ["_DEPTH", "_midpoints"]
