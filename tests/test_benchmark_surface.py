"""The package names the benchmark under perfbench/ relies on still exist.

perfbench/ imports names from seq2time and swaps functions on
``seq2time.evaluation`` by name, so an API change that drops one of them
would only show when the benchmark runs. These tests read perfbench/*.py
with ``ast``; they neither import nor run it. The package root exports
exactly those names and the exception classes, and nothing more.
"""

import ast
import importlib
import importlib.util
import types
from pathlib import Path

import seq2time
import seq2time.errors

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PERFBENCH.glob("*.py"))
    }


def _is_package_module(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "seq2time"


def _resolve(module: str, name: str):
    """``from module import name`` without executing it, or None."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    if importlib.util.find_spec(f"{module}.{name}") is not None:
        return importlib.import_module(f"{module}.{name}")
    return None


def _module_aliases(tree: ast.Module) -> dict[str, types.ModuleType]:
    """Local names bound to seq2time modules, e.g. ``ev`` for evaluation."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_module(node.module):
            for alias in node.names:
                value = _resolve(node.module, alias.name)
                if isinstance(value, types.ModuleType):
                    aliases[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package_module(alias.name) and alias.asname:
                    aliases[alias.asname] = importlib.import_module(alias.name)
    return aliases


def test_imported_names_resolve():
    checked = 0
    for filename, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _is_package_module(node.module):
                for alias in node.names:
                    assert _resolve(node.module, alias.name) is not None, (
                        f"{filename}: from {node.module} import {alias.name}"
                    )
                    checked += 1
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_package_module(alias.name):
                        importlib.import_module(alias.name)
                        checked += 1
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                module = aliases[node.value.id]
                assert hasattr(module, node.attr), (
                    f"{filename}: {module.__name__}.{node.attr}"
                )
                checked += 1
    assert checked > 0


def test_swapped_evaluation_functions_exist():
    """Every key of a hooks dict passed to ``_spanned`` names a function."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    aliases = _module_aliases(tree)
    swapped = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        dicts = {
            target.id: node.value
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for call in ast.walk(func):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "_spanned"
            ):
                continue
            module = aliases[call.args[1].id]
            hooks = call.args[2]
            if isinstance(hooks, ast.Name):
                hooks = dicts[hooks.id]
            for key in hooks.keys:
                name = ast.literal_eval(key)
                assert callable(getattr(module, name, None)), (
                    f"layers.py swaps {module.__name__}.{name}, which does not exist"
                )
                swapped.append(name)
    assert "parse_predictions" in swapped


def test_root_exports_only_what_perfbench_imports():
    imported = {
        alias.name
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "seq2time"
        for alias in node.names
        if not isinstance(_resolve("seq2time", alias.name), types.ModuleType)
    }
    errors = {
        name
        for name, value in vars(seq2time.errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert sorted(seq2time.__all__) == sorted(imported | errors)
