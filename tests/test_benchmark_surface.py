"""The benchmark scripts read only names that the library has.

A name that a benchmark reads but the library lost would fail only the
benchmark's traced passes, which an untraced run never starts, so this
parses benchmarks/*.py and looks each bridgelab reference up.
"""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _is_module(name):
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def bridgelab_references(tree):
    """(module, name) for each `from bridgelab.x import y`, each attribute read off an imported
    bridgelab module and each module named in a string such as "bridgelab.cli"."""
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bridgelab":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bridgelab":
            for alias in node.names:
                refs.append((node.module, alias.name))
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.append((modules[node.value.id], node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("bridgelab."):
            parent, _, name = node.value.rpartition(".")  # a module run by name, as in `python -m bridgelab.cli`
            if name.isidentifier() and parent.replace(".", "").isidentifier():
                refs.append((parent, name))
    return refs


def test_benchmarks_read_only_names_the_library_has():
    refs = {}
    for path in sorted(BENCHMARKS.glob("*.py")):
        for module, name in bridgelab_references(ast.parse(path.read_text(), str(path))):
            refs.setdefault((module, name), path.name)
    assert refs, "no bridgelab reference found under benchmarks/"
    missing = [
        f"{path}: {module}.{name}"
        for (module, name), path in refs.items()
        if not (hasattr(importlib.import_module(module), name) or _is_module(f"{module}.{name}"))
    ]
    assert not missing, missing
