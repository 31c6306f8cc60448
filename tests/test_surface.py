"""The package surface: stdlib-only imports and exports that resolve."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import plumbweave

SOURCES = sorted(Path(plumbweave.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib_or_the_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots - set(sys.stdlib_module_names) - {"plumbweave"} == set()


def declared_all(tree: ast.Module) -> list[str]:
    """The literal ``__all__`` of a module, or [] when it declares none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    exports = declared_all(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert len(set(exports)) == len(exports)
    if exports:  # importing __main__, which declares none, would run the CLI
        name = "plumbweave" if path.stem == "__init__" else f"plumbweave.{path.stem}"
        module = importlib.import_module(name)
        assert [e for e in exports if not hasattr(module, e)] == []


def test_the_fiber_is_the_one_form_type():
    # PlumbingDescriptor carries the intersection pairing; no second form
    # type is exported
    from plumbweave import fibration, lattice

    for module in (plumbweave, lattice, fibration):
        assert "IntersectionForm" not in module.__all__
        assert not hasattr(module, "IntersectionForm")
    assert "PlumbingDescriptor" in plumbweave.__all__ and "PlumbingDescriptor" in lattice.__all__
    assert plumbweave.PlumbingDescriptor is fibration.PlumbingDescriptor is lattice.PlumbingDescriptor
