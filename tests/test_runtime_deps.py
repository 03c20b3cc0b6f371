"""The runtime imports nothing outside the standard library, and nothing
it does not use.

README promises a stdlib-only runtime and pyproject.toml declares
`dependencies = []`; this walks every module of the package and checks each
absolute import against `sys.stdlib_module_names`.  A name a module imports
must also be used there or listed in its `__all__`.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "leafatlas"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    imported = {name for path in modules for name in _absolute_imports(path)}
    assert imported, "no absolute imports found"
    outside = sorted(imported - sys.stdlib_module_names)
    assert outside == [], f"non-stdlib runtime imports: {outside}"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def test_every_import_is_used_or_exported():
    # __init__.py exists to re-export, so only the modules proper are checked
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= set(_exported_names(tree))
        unused += [
            f"{path.name}: {name}"
            for name in _imported_names(tree)
            if name not in used
        ]
    assert unused == [], f"imported but never used: {unused}"
