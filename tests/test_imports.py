"""The package's modules import each other at module top only, so that the
graph of their imports is read off the module heads and has no cycle, and
keep their caches behind private names."""

import ast
import importlib
from pathlib import Path

import burstcodes

_PACKAGE = Path(burstcodes.__file__).resolve().parent


def test_imports_sit_at_module_top_and_form_a_dag():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_PACKAGE.glob("*.py"))}
    local, edges = [], {}
    for name, tree in modules.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{name}.py:{node.lineno} in {scope.name}"
                    for node in ast.walk(scope)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
        edges[name] = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:  # from .x import ..., from . import x
                edges[name].update([node.module.split(".")[0]] if node.module else (a.name for a in node.names))
    assert not local, local
    done = []  # depth first, each module after every module it imports

    def visit(name, path):
        assert name not in path, " -> ".join([*path, name])
        if name not in done:
            for dep in sorted(edges[name] & modules.keys()):
                visit(dep, (*path, name))
            done.append(name)

    for name in sorted(modules):
        visit(name, ())
    assert edges["_enum"] == {"errors"}  # the form engine reads no other module


def test_no_public_name_is_a_cache():
    # an lru_cache hashes its arguments before the function can check them, so
    # a public entry takes its arguments first and reads a private cache after
    cached = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module("burstcodes" if path.stem == "__init__" else f"burstcodes.{path.stem}")
        cached += [f"{path.stem}.{name}" for name, value in vars(module).items()
                   if not name.startswith("_") and hasattr(value, "cache_clear")]
    assert not cached, cached
