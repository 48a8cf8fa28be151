"""The benchmark scripts read only names, and pass only arguments, that the library has.

A name that a benchmark reads but the library lost would fail only the
benchmark's traced passes, which an untraced run never starts, and an
argument it lost would fail only a benchmark run, so this parses
benchmarks/*.py, looks each bridgelab reference up and binds the arguments
of each call to a bridgelab callable to its signature.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _is_module(name):
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


def _imports(tree):
    """Names bound to bridgelab modules, and names imported from them, as {name: object}."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bridgelab":
                    found[alias.asname or alias.name] = importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bridgelab":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                module = importlib.import_module(node.module)
                found[alias.asname or alias.name] = (
                    importlib.import_module(name) if _is_module(name) else getattr(module, alias.name, None)
                )
    return found


def _resolve(node, imported):
    """The bridgelab object an expression such as `simulate.terminal_values` names, else None."""
    if isinstance(node, ast.Name):
        return imported.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, imported)
        return None if base is None else getattr(base, node.attr, None)
    return None


def bridgelab_calls(tree):
    """(callable, call node, positional args, keyword args) for each call of a bridgelab callable,
    direct or through the benchmark's `p.call(item, func, *args, work=, **kwargs)` span wrapper."""
    imported, calls = _imports(tree), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args, keywords = _resolve(node.func, imported), node.args, node.keywords
        if func is None and isinstance(node.func, ast.Attribute) and node.func.attr == "call" and len(args) >= 2:
            func, args = _resolve(args[1], imported), args[2:]
            keywords = [k for k in keywords if k.arg != "work"]
        if callable(func):
            calls.append((func, node, args, keywords))
    return calls


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


def test_benchmarks_pass_only_arguments_the_library_takes():
    checked, wrong = set(), []
    for path in sorted(BENCHMARKS.glob("*.py")):
        for func, node, args, keywords in bridgelab_calls(ast.parse(path.read_text(), str(path))):
            name = getattr(func, "__qualname__", repr(func))
            try:
                sig = inspect.signature(func)
            except ValueError:  # a builtin without a signature
                continue
            names = {k.arg: None for k in keywords if k.arg is not None}
            checked.update((name, k) for k in names)
            starred = any(isinstance(a, ast.Starred) for a in args) or len(names) < len(keywords)
            try:
                if starred:  # the positional count is unknown: check the keywords alone
                    sig.bind_partial(**names)
                else:
                    sig.bind(*[None] * len(args), **names)
            except TypeError as exc:
                wrong.append(f"{path.name}:{node.lineno}: {name}: {exc}")
    assert ("terminal_values", "chunk") in checked, sorted(checked)
    assert not wrong, wrong


def load_workloads(monkeypatch):
    """benchmarks/workloads.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCHMARKS / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_check_arguments_bind_to_the_checks(monkeypatch):
    # the check items pass each Sizes.check_kwargs entry, with the suite's seed, to a verify check
    workloads = load_workloads(monkeypatch)
    checks = dict(importlib.import_module("bridgelab.verification").CHECKS)
    for sizes in (workloads.FULL, workloads.SMOKE):
        for name, kwargs in sizes.check_kwargs.items():
            inspect.signature(checks[name]).bind(seed=0, **kwargs)


def test_checks_take_the_seed_and_only_the_sizes_the_benchmark_sets(monkeypatch):
    # a check's sample size is written at its call, next to its gate; a parameter that the
    # suite never sets and the benchmark's SMOKE sizes do not shrink has no caller
    smoke = load_workloads(monkeypatch).SMOKE.check_kwargs
    for name, check in importlib.import_module("bridgelab.verification").CHECKS:
        params = inspect.signature(check).parameters
        required = [p for p, v in params.items() if v.default is inspect.Parameter.empty]
        assert required == ["seed"], (name, required)
        assert set(params) - {"seed"} == set(smoke.get(name, {})), (name, list(params))
