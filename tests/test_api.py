"""Guard: every name the library defines is used by the library itself.

Public names are `bevlane.__all__` less its submodules; each must be read
by the library or be a documented entry point.  Private names are the
module-level `_name` functions, classes and constants of every module; each
must be read by the library, so no helper or constant outlives the code
that used it.  A name counts as used when a library module reads it
outside the top-level statement that defines it.  The package's `__init__`
is left out: its imports are the exports themselves.
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


def library_modules():
    """(path, top-level statements) of every library module but `__init__`."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            yield path, ast.parse(path.read_text(encoding="utf-8")).body


def library_uses() -> set[str]:
    used = set()
    for _, body in library_modules():
        for stmt in body:
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


def test_every_private_name_has_a_library_use():
    private = {
        f"{path.stem}.{name}"
        for path, body in library_modules()
        for stmt in body
        for name in _defined(stmt)
        if name.startswith("_") and not name.startswith("__")
    }
    used = library_uses()
    unused = {qualified for qualified in private if qualified.split(".")[1] not in used}
    assert not unused, f"private names nothing reads: {sorted(unused)}"
