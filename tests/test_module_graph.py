"""The package's modules import each other along an acyclic graph, at module level, through public names.

This parses src/bridgelab/*.py.  An import inside a function body hides a
cycle from the reader and from a cold import, and a module that reads
another module's _private name depends on what that module may change
without notice, so the package surface between modules is its public names.
Only simulate steps paths and builds their grids and tables, and every
function the package exports has a caller.
"""

import ast
import importlib
import inspect
from pathlib import Path

from test_benchmark_surface import BENCHMARKS, bridgelab_references

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bridgelab"
TREES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
# the path engine's own names: the rest of the package reaches them through simulate.ensemble and the single paths
ENGINE = {"walk", "grid", "transition_table", "exact_transition_table"}
# exports that no module and no benchmark reads: each awaits a check that calls it, or is a tier-1 test's reference
AWAITING_A_CALLER = {"check_growth_conditions", "increment_variance", "cauchy_diagnostic"}
TEST_REFERENCES = {"covariance", "det_by_conditioning", "time_modulus_bound_fit"}


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


def package_reads(tree):
    """(line, module, name) for each name taken from a package module: imported by name or read off the module."""
    reads, aliases = [], {}
    for node, module, names, bound in package_imports(tree):
        reads += [(node.lineno, module, n) for n in names]
        aliases.update((local, module) for local in bound)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            reads.append((node.lineno, aliases[node.value.id], node.attr))
    return reads


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
    reads = [
        f"{name}.py:{line}: {module}.{n}"
        for name, tree in TREES.items()
        for line, module, n in package_reads(tree)
        if _is_private(n) and module != name
    ]
    assert not reads, reads


def test_only_simulate_reads_the_path_engine():
    reads = [
        f"{name}.py:{line}: simulate.{n}"
        for name, tree in TREES.items()
        if name != "simulate"
        for line, module, n in package_reads(tree)
        if module == "simulate" and n in ENGINE
    ]
    assert not reads, reads


def test_every_exported_function_has_a_caller():
    # read by another package module or by a benchmark, or named on one of the two lists above;
    # dataclasses are exempt
    bridgelab = importlib.import_module("bridgelab")
    exported = {
        (module, n)
        for _, module, names, _ in package_imports(TREES["__init__"])
        for n in names
        if inspect.isfunction(getattr(bridgelab, n))
    }
    read = {
        (module, n)
        for name, tree in TREES.items()
        if name != "__init__"
        for _, module, n in package_reads(tree)
        if module != name
    }
    for path in sorted(BENCHMARKS.glob("*.py")):
        refs = bridgelab_references(ast.parse(path.read_text(), str(path)))
        read.update((module.rpartition(".")[2], n) for module, n in refs)
    orphans = sorted(n for module, n in exported - read if n not in AWAITING_A_CALLER | TEST_REFERENCES)
    assert exported and not orphans, orphans
    assert not (AWAITING_A_CALLER | TEST_REFERENCES) & {n for _, n in read}, "a listed name has a caller: unlist it"
