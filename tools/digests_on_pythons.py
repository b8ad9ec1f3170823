"""Check the pinned digests under other Python interpreters, with no download.

Usage, from the repository root: ``python3 tools/digests_on_pythons.py
PYTHON [PYTHON ...]``, for example ``~/.pyenv/versions/3.10.13/bin/python``.
Each interpreter runs ``tests/pinned_digests.py`` (the 24 digests the test
suite checks; standard library only) with ``PYTHONPATH=src`` and nothing
else. Stdout is one line per interpreter: its path, then ``passed`` or
``failed`` with the script's last line, or ``skipped`` with the error if
it cannot be started. The exit status is 1 if any interpreter failed, 2 if
none was named, else 0.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failed = False
    for python in argv:
        command = [python, "tests/pinned_digests.py"]
        try:
            run = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True)
        except OSError as exc:
            print(f"{python}: skipped: {exc}", flush=True)
            continue
        # the summary line, or the error that stopped the script
        text = run.stderr if run.returncode and run.stderr.strip() else run.stdout
        last = (text.strip() or "no output").splitlines()[-1]
        print(f"{python}: {'failed' if run.returncode else 'passed'}: {last}", flush=True)
        failed |= run.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
