"""The runtime imports nothing outside the standard library.

README promises a stdlib-only runtime and pyproject.toml declares
`dependencies = []`; this walks every module of the package and checks each
absolute import against `sys.stdlib_module_names`.
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
