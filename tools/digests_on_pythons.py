"""Run the pinned-digest tests under other Python interpreters, with no download.

Usage, from the repository root, with the interpreter that runs the suite:

    python3 tools/digests_on_pythons.py PYTHON [PYTHON ...]

for example ``~/.pyenv/versions/3.12.1/bin/python``. Each interpreter runs
``pytest -k digest`` over ``tests/test_corpus.py`` and ``tests/test_cli.py``
(the pinned corpus and eval digests) with ``PYTHONPATH=src:<the
site-packages that this script's interpreter imports pytest and
Hypothesis from>``: both are pure Python, so one install serves every
interpreter. An interpreter that cannot import them that way is skipped,
not failed (on 3.10, pytest needs the ``exceptiongroup`` backport, which
3.11 does not install).

Stdout is one line per interpreter: its path and version, then
``passed``, ``failed`` or ``skipped`` with pytest's summary line or the
import error. The exit status is 1 if any interpreter failed, 2 if none
was named, else 0.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TESTS = ("tests/test_corpus.py", "tests/test_cli.py")
PROBE = "import sys, pytest, hypothesis; print(sys.version.split()[0])"


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_digests(python: str, env: dict[str, str]) -> tuple[str, str, str]:
    """(version, outcome, detail) of the digest tests under ``python``."""
    try:
        probe = subprocess.run(
            [python, "-c", PROBE], env=env, cwd=ROOT, capture_output=True, text=True
        )
    except OSError as exc:
        return "?", "skipped", str(exc)
    if probe.returncode:
        return "?", "skipped", _last_line(probe.stderr)
    command = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-k", "digest", *TESTS]
    tests = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
    outcome = "passed" if tests.returncode == 0 else "failed"
    return probe.stdout.strip(), outcome, _last_line(tests.stdout)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    # a package's __init__.py sits one level below its site-packages
    sites = [Path(importlib.util.find_spec(m).origin).parents[1] for m in ("pytest", "hypothesis")]
    paths = [str(ROOT / "src"), *dict.fromkeys(map(str, sites))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    failed = False
    for python in argv:
        version, outcome, detail = run_digests(python, env)
        print(f"{python} ({version}): {outcome}: {detail}", flush=True)
        failed |= outcome == "failed"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
