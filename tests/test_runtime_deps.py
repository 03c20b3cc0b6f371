"""The runtime imports nothing outside the standard library, and nothing
it does not use.

README promises a stdlib-only runtime and pyproject.toml declares
`dependencies = []`; this walks every module of the package and checks each
absolute import against `sys.stdlib_module_names`.  A name a module imports
must also be used there or listed in its `__all__`.  Every public name must
have a caller, and every module imports only from the layers below it.
"""

import ast
import json
import re
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


# ---------------------------------------------------------------------------
# every public name has a caller, and the modules import downwards only

ROOT = SRC.parent.parent

# each module imports only from modules of a lower rank
RANKS = {
    "linalg": 0,
    "rootsys": 1,
    "weyl": 2,
    "bdtriple": 2,
    "decomp": 3,
    "leafclass": 4,
    "typea": 4,
    "cli": 5,
}


def _modules():
    """Each module proper by name; __init__.py only re-exports."""
    paths = (p for p in SRC.glob("*.py") if p.name != "__init__.py")
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in paths}


def _identifiers(tree, skip=None):
    """Every name a tree reads, imports or reads as an attribute, outside
    the subtree skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))


def _public_definitions(tree):
    """name -> defining node (None for a re-export) of the names in
    __all__, or of the public top-level defs and classes without one."""
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    exported = list(_exported_names(tree)) or [name for name in defs if not name.startswith("_")]
    return {name: defs.get(name) for name in exported}


def _readme_identifiers():
    """Identifiers in README's code blocks and inline code spans."""
    parts = (ROOT / "README.md").read_text().split("```")
    code = parts[1::2] + [span for text in parts[::2] for span in re.findall(r"`([^`\n]+)`", text)]
    return {word for text in code for word in re.findall(r"[A-Za-z_]\w*", text)}


def _outside_callers():
    """Names called from the demos, the benchmark's workloads and README,
    and per module the functions BENCHMARK.json's per-layer metrics time."""
    names = _readme_identifiers()
    for path in sorted((ROOT / "demos").glob("*.py")) + [ROOT / "perfbench" / "workloads.py"]:
        names |= set(_identifiers(ast.parse(path.read_text(), filename=str(path))))
    per_layer = {}
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        layer, _, rest = metric["name"].partition(".")
        per_layer.setdefault(layer, set()).add(rest.rpartition(".")[0])
    return names, per_layer


def test_every_public_name_has_a_caller():
    modules = _modules()
    outside, per_layer = _outside_callers()
    uncalled = []
    for name, tree in sorted(modules.items()):
        elsewhere = {word for other, t in modules.items() if other != name
                     for word in _identifiers(t)}
        for public, node in _public_definitions(tree).items():
            own = public in _identifiers(tree, skip=node)
            if not (own or public in elsewhere or public in outside
                    or public in per_layer.get(name, ())):
                uncalled.append(f"{name}.{public}")
    assert uncalled == [], f"public names with no caller: {uncalled}"


def test_modules_import_only_from_lower_layers():
    modules = _modules()
    assert set(modules) == set(RANKS), "place every module in RANKS"
    upward = []
    for name, tree in sorted(modules.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level == 1 or (
                    node.module or "").startswith("leafatlas.")):
                target = (node.module or "").removeprefix("leafatlas.")
                if RANKS[target] >= RANKS[name]:
                    upward.append(f"{name} imports {target}")
    assert upward == [], f"imports that do not go down the layers: {upward}"
