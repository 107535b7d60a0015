"""The package's modules import each other at module top only, so that the
graph of their imports is read off the module heads and has no cycle, keep
their caches behind private names, and admit an error model and its word
length by one rule, balls._admit."""

import ast
import importlib
from pathlib import Path

import pytest

import burstcodes
from burstcodes import balls, verify
from burstcodes.codes import codebook_from_words
from burstcodes.errors import DomainError

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


def test_one_raise_admits_a_model_and_its_word_length():
    # the length rule and the model rule each end in one raise in the package
    texts = []
    for path in sorted(_PACKAGE.glob("*.py")):
        texts += [" ".join(c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Raise)]
    assert sum("too short for" in text for text in texts) == 1
    assert sum("must be an ErrorModel" in text for text in texts) == 1


_CODE = codebook_from_words([(0,) * 5, (1,) * 5], 5)

# every public entry that takes an error model, on length-5 words
_ENTRIES = {
    "event_count": lambda model: balls.event_count(5, model),
    "ball_ints": lambda model: balls.ball_ints(0, 5, model),
    "in_ball": lambda model: balls.in_ball((4, 0), 0, 5, model),
    "key_dtype": lambda model: balls.key_dtype(5, model),
    "ball_keys": lambda model: balls.ball_keys([0], 5, model),
    "sorted_ball_keys": lambda model: balls.sorted_ball_keys([0], 5, model),
    "distinct_keys": lambda model: balls.distinct_keys([0], 5, model),
    "blocks": lambda model: balls.blocks(1, 5, model),
    "ball": lambda model: balls.ball((0,) * 5, model),
    "verify_code": lambda model: verify.verify_code(_CODE, model),
    "greedy_code": lambda model: verify.greedy_code(5, model),
    "apply_error": lambda model: verify.apply_error((0,) * 5, model, 0),
    "oracle_decode": lambda model: verify.oracle_decode(_CODE, (0,) * 4, model),
}


@pytest.mark.parametrize("model", ["del-exact", None, [1]], ids=repr)
@pytest.mark.parametrize("entry", _ENTRIES)
def test_every_model_entry_refuses_what_is_not_a_model(entry, model):
    # before any attribute is read or any cache hashes it
    with pytest.raises(DomainError, match=r"^error model must be an ErrorModel, got "):
        _ENTRIES[entry](model)
