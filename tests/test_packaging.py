"""The package and its digest script run on the standard library alone, and
a tool runs that script on other Python versions."""

import ast
import importlib.util
import platform
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _absolute_imports(path: Path):
    """Top-level module names of every non-relative import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_source_imports_only_the_standard_library():
    # and the digest script, which needs no test framework, only the package
    script = ROOT / "tests" / "pinned_digests.py"
    outside = [
        f"{path.name}: {name}"
        for path in [*sorted((ROOT / "src" / "seq2time").glob("*.py")), script]
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names and (path, name) != (script, "seq2time")
    ]
    assert outside == []


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert pyproject["project"]["dependencies"] == []


def test_digest_tool_runs_this_interpreter_and_skips_a_missing_one(capsys):
    spec = importlib.util.spec_from_file_location("tool", ROOT / "tools" / "digests_on_pythons.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    missing = str(ROOT / "no-such-python")
    assert tool.main([sys.executable, missing]) == 0
    ran, skipped = capsys.readouterr().out.splitlines()
    version = platform.python_version()
    assert ran == f"{sys.executable}: passed: 24 of 24 cases match on Python {version}"
    assert skipped.startswith(f"{missing}: skipped: ")
