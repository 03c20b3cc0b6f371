"""The runtime imports nothing outside the standard library, and nothing
it does not use.

README promises a stdlib-only runtime and pyproject.toml declares
`dependencies = []`; this walks every module of the package and checks each
absolute import against `sys.stdlib_module_names`.  A name a module imports
must also be used there or listed in its `__all__`.  Every top-level
definition must be reached from a caller outside the package, and every
module imports only from the layers below it.
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
# every definition is reached from a caller, and the modules import downwards only

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


def _identifiers(tree):
    """Every name a tree reads, imports or reads as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _is_method(node):
    return isinstance(node, ast.FunctionDef) and not (
        node.name.startswith("__") and node.name.endswith("__"))


def _class_parts(node):
    """What a class reads when it is reached, as one tree: its bases,
    decorators and body but its non-dunder methods, which are definitions of
    their own."""
    own = [item for item in node.body if not _is_method(item)]
    return ast.Module(body=node.bases + node.keywords + node.decorator_list + own, type_ignores=[])


def _definitions(tree):
    """name -> defining node of each top-level def, class, non-dunder method
    (as Class.method) and assigned name (but __all__); and the other
    top-level statements, which run on import."""
    defs, run = {}, []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs[node.name] = _class_parts(node)
            defs.update((f"{node.name}.{m.name}", m) for m in node.body if _is_method(m))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]
            defs.update(dict.fromkeys(names, node))
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            run.append(node)
    return defs, run


def _package_imports(tree):
    """local name -> (module, name) of each name imported from the package."""
    return {
        alias.asname or alias.name: (node.module.removeprefix("leafatlas."), alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or (
            node.module or "").startswith("leafatlas."))
        for alias in node.names
    }


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
    """Walk from cli.main, the outside callers and the per-layer metrics
    through the names each reached definition (or import-time statement)
    reads, resolved to the definition in its module or, through the
    module's package imports, in the module it came from; a name also
    reaches every non-dunder method of that name, in any class.  Every
    top-level definition and method must be reached.  A name read only by
    unreached code is flagged with its reader."""
    modules = _modules()
    outside, per_layer = _outside_callers()
    defs, imports, methods = {}, {}, {}
    stack = [("cli", "main")]
    for module, tree in modules.items():
        defs[module], run = _definitions(tree)
        imports[module] = _package_imports(tree)
        for name in defs[module]:
            if "." in name:
                methods.setdefault(name.partition(".")[2], []).append((module, name))
        stack += [(module, name) for name in defs[module]
                  if name.rpartition(".")[2] in outside or name in per_layer.get(module, ())]
        stack += [(module, node) for node in run]

    def resolve(module, name):
        while name not in defs[module]:
            if name not in imports[module]:
                return None
            module, name = imports[module][name]
        return module, name

    reached = set()
    while stack:
        module, item = stack.pop()
        if isinstance(item, str):
            if (module, item) in reached:
                continue
            reached.add((module, item))
            item = defs[module][item]
        words = list(_identifiers(item))
        stack += filter(None, (resolve(module, word) for word in words))
        stack += [method for word in words for method in methods.get(word, ())]
    unreached = sorted(f"{module}.{name}" for module in defs for name in defs[module]
                       if (module, name) not in reached)
    assert len(reached) > 100
    assert unreached == [], f"definitions no caller reaches: {unreached}"


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
