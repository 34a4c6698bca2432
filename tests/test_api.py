"""Guard: every public name is used by the library itself or is a documented entry point.

Public names are `bevlane.__all__` less its submodules.  A name counts as
used when a library module reads it outside the top-level statement that
defines it.  The package's `__init__` is left out: its imports are the
exports themselves.
"""

import ast
import pathlib
import types

import bevlane

SRC = pathlib.Path(bevlane.__file__).parent

# public names no library module reads, each kept on purpose
ENTRY_POINTS = {
    "lane_width": "the scalar width of one point against one chord; the acceptance "
    "battery checks the batched widths of the losses against it",
}


def _defined(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def library_uses() -> set[str]:
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = _defined(stmt)
            used |= {
                node.id
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and node.id not in defined
            }
    return used


def test_every_public_name_has_a_library_use():
    public = {
        name for name in bevlane.__all__ if not isinstance(getattr(bevlane, name), types.ModuleType)
    }
    unused = public - library_uses() - set(ENTRY_POINTS)
    assert not unused, f"public names only tests call: {sorted(unused)}"


def test_entry_points_are_public_and_unused():
    assert set(ENTRY_POINTS) <= set(bevlane.__all__)
    assert not set(ENTRY_POINTS) & library_uses()
