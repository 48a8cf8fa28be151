"""The package's modules import each other along an acyclic graph, at module level, through public names.

This parses src/bridgelab/*.py.  An import inside a function body hides a
cycle from the reader and from a cold import, and a module that reads
another module's _private name depends on what that module may change
without notice, so the package surface between modules is its public names.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bridgelab"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def package_imports(tree):
    """(import node, module imported, names taken from it, local names bound to the module itself)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "bridgelab":
                    continue
                path = path[1:]
            if path and path[0]:  # from .drift import x, or from bridgelab.drift import x
                found.append((node, path[0], [a.name for a in node.names], []))
            else:  # from . import drift as drift_mod
                found.extend((node, a.name, [], [a.asname or a.name]) for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "bridgelab" and len(parts) > 1:
                    found.append((node, parts[1], [], [alias.asname] if alias.asname else []))
    return found


def import_graph():
    return {name: {module for _, module, _, _ in package_imports(tree)} for name, tree in TREES.items()}


def find_cycle(graph):
    """One import cycle as a list of modules, first repeated last, or None."""
    state = {}

    def visit(module, trail):
        state[module] = "open"
        for target in sorted(graph.get(module, ())):
            if state.get(target) == "open":
                return trail[trail.index(target) :] + [target]
            if target not in state:
                cycle = visit(target, trail + [target])
                if cycle:
                    return cycle
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_the_parser_sees_the_package_imports():
    graph = import_graph()
    assert {"local_time", "simulate"} <= graph["holder_analysis"], graph["holder_analysis"]
    assert {"drift", "simulate"} <= graph["local_time"], graph["local_time"]
    assert "verification" in graph["cli"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_intra_package_imports_form_a_dag():
    # every import counts, at any depth: one inside a function is still an edge
    assert find_cycle(import_graph()) is None


def test_no_function_body_imports_from_the_package():
    nested = []
    for name, tree in TREES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{name}.py:{node.lineno}" for node, *_ in package_imports(func)]
    assert not nested, nested


def test_no_module_reads_another_modules_private_names():
    reads = []
    for name, tree in TREES.items():
        aliases = {}
        for node, module, names, bound in package_imports(tree):
            reads += [f"{name}.py:{node.lineno}: {module}.{n}" for n in names if _is_private(n) and module != name]
            aliases.update((local, module) for local in bound)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                if _is_private(node.attr):
                    reads.append(f"{name}.py:{node.lineno}: {aliases[node.value.id]}.{node.attr}")
    assert not reads, reads
