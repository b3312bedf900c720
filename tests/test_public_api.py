"""Every exported name of the library is used by the library or the benchmark.

A name in a module's ``__all__``, or a public method or property of a
class in ``src/``, counts as used when some module under ``src/`` or
``perfbench/`` loads it as a plain name or as an attribute.  Imports and
``__all__`` entries do not count: a name that only tests reach belongs in
the tests.
"""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fraclab"
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


@functools.lru_cache(maxsize=None)
def _loaded_names() -> frozenset[str]:
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return frozenset(names)


def _exports(path: pathlib.Path) -> list[str]:
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


MODULES = [p for p in sorted(PACKAGE.rglob("*.py")) if _exports(p)]


def test_every_module_is_checked():
    names = {p.relative_to(PACKAGE).as_posix() for p in MODULES}
    assert {"energies.py", "setgeom.py", "potential.py", "barrier.py",
            "lattice.py", "kernels.py", "minimize.py",
            "lab/experiments.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_exports_are_used_outside_tests(path):
    loaded = _loaded_names()
    unused = [name for name in _exports(path) if name not in loaded]
    assert not unused, f"{path.relative_to(ROOT)} exports names only tests load: {unused}"


def _public_methods() -> list[str]:
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                out += [f"{path.relative_to(PACKAGE).as_posix()}:{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
    return out


def test_public_methods_are_used_outside_tests():
    methods = _public_methods()
    assert "lattice.py:CellSet.union" in methods
    loaded = _loaded_names()
    unused = [m for m in methods if m.rsplit(".", 1)[1] not in loaded]
    assert not unused, f"public methods only tests load: {unused}"
