"""Child processes of the benchmark, timed with their own rusage."""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # work files and traces; never committed
RUN_TIMEOUT_S = 120.0


@dataclass
class Finished:
    """A child process that ran to its end."""

    returncode: int
    wall_s: float
    cpu_s: float        # user + sys of the child and the descendants it waited for
    peak_rss_mb: float  # the largest single process among them
    stdout: str
    stderr: str


def spawn(argv: list[str], stdout: Path, timeout: float = RUN_TIMEOUT_S) -> Finished:
    """Run ``argv`` from the repository root; time it and take its rusage.

    stdout and stderr go to files (``stdout`` and its ``.err`` sibling), so
    that a blocking ``os.wait4`` can reap the child and keep its rusage.
    """
    err_path = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, cwd=ROOT, env=child_env(), start_new_session=True
        )
        # the timer only fires for a hung child, and kills its process group
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        returncode=proc.returncode,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def cli(argv: list[str]) -> list[str]:
    """The seq2time command line, run from source."""
    return [sys.executable, "-m", "seq2time.cli", *argv]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
