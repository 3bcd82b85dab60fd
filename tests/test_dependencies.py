import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "graphstab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_graphstab(path):
    # numpy is the one declared dependency; anything else must not be needed
    allowed = set(sys.stdlib_module_names) | {"numpy", "graphstab"}
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    assert [n for n in names if n.split(".")[0] not in allowed] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_imports(path):
    # every import sits at module level, so the import graph is what the
    # module headers say and an import cycle cannot hide inside a function
    inner = [f"{path.name}:{node.lineno}"
             for func in ast.walk(ast.parse(path.read_text()))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # a name a module imports and never reads is left over from a deletion;
    # __init__.py is skipped, since its imports are the package's exports.
    # Annotations are part of the tree, so a name used only in one counts.
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used] == []


# the fixed table of activations is the one module-level container; work is
# reused across calls through `graphs.shared` alone, not a module's own cache
MUTABLE_GLOBALS_ALLOWED = {("gnn.py", "_ACTIVATIONS")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_mutable_containers(path):
    containers = (ast.Dict, ast.List, ast.Set,
                  ast.DictComp, ast.ListComp, ast.SetComp)
    bound = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            value = value.func.id
        if isinstance(value, containers) or value in ("dict", "list", "set"):
            bound += [(path.name, name.id) for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    assert [b for b in bound if b not in MUTABLE_GLOBALS_ALLOWED] == []
