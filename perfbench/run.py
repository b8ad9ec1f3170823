"""seq2time benchmark: one workload, end to end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload image-build --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's CLI call runs as a subprocess, untraced,
as many times as fit in ``--seconds``, and the end-to-end metrics are
medians over those runs, with times scaled to a nominal host speed by a
probe before and after each run (``Bracketed``). With ``--trace 1`` the
traced suite in ``layers.py`` calls each module's public functions
in-process and reports the per-layer metrics. Either way every output is
checked, and the last line of stdout is one JSON object: correct,
attempted, failed, metrics.
Inputs come from ``--seed`` folded onto the 64 input seeds whose outputs
were recorded from the seed commit (``check.input_seed``), so every run is
held to that reference byte for byte.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from procs import SRC, STATE, cli, spawn
from workloads import WORKLOADS

SETUP_REPEATS = 7
MIN_RUNS = 3
PROBE_CHUNKS = 15  # per CPU
# a round figure near the probe's chunk time on a 2-vCPU x86 VM with
# Python 3.11; times are reported as if the host ran at that speed
PROBE_NOMINAL_S = 0.0025
UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def probe_s() -> float:
    """Host speed now: on each CPU this process may use, the median time of
    a fixed chunk of pure-Python work; the mean over those CPUs.

    The chunk mixes integer arithmetic, ``str`` conversion, list appends,
    list copies and a join, the kind of work the program does. Nothing of
    seq2time runs in it, so a change to the program cannot move it. CPUs
    are probed one at a time, pinned, since the children may run on any.
    """
    allowed = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in allowed:
            os.sched_setaffinity(0, {cpu})
            times = []
            for _ in range(PROBE_CHUNKS):
                start = time.perf_counter()
                parts, total = [], 0
                for i in range(10_000):
                    total += i * i % 7
                    parts.append(str(i))
                for _ in range(8):
                    parts = list(parts)
                "".join(parts)
                times.append(time.perf_counter() - start)
            per_cpu.append(statistics.median(times))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(per_cpu)


class Bracketed:
    """Child runs, each between two host-speed probes.

    A run's scale is ``PROBE_NOMINAL_S`` over the mean of the probes just
    before and just after it, so ``run value * scale`` is what the run would
    have measured on a host where the probe takes ``PROBE_NOMINAL_S``. The
    probe after one run is the probe before the next.
    """

    def __init__(self):
        self.last = probe_s()
        self.runs, self.scales = [], []

    def spawn(self, argv: list[str], stdout: Path):
        run = spawn(argv, stdout)
        after = probe_s()
        self.runs.append(run)
        self.scales.append(PROBE_NOMINAL_S / ((self.last + after) / 2))
        self.last = after
        return run


def setup_times(prepared, work: Path) -> list[float]:
    """Fresh interpreters that import seq2time and load the inputs, then exit;
    their wall times scaled to the nominal host speed."""
    setup = Bracketed()
    for _ in range(SETUP_REPEATS):
        setup.spawn([sys.executable, "-c", prepared.setup_code, *prepared.setup_args],
                    work / "setup.out")
    failed = [r.stderr for r in setup.runs if r.returncode != 0]
    if failed:
        raise RuntimeError(f"set-up failed: {failed[0]}")
    return [r.wall_s * k for r, k in zip(setup.runs, setup.scales)]


def end_to_end(workload, prepared, seed: int, seconds: float, work: Path):
    """Time CLI runs until ``seconds`` is spent; check every run's output."""
    start = time.perf_counter()
    setup = setup_times(prepared, work)
    calls, keys = Bracketed(), []
    runs = calls.runs
    while len(runs) < MIN_RUNS or (
        time.perf_counter() - start + statistics.median(r.wall_s for r in runs) <= seconds
    ):
        keys.append(prepared.key(calls.spawn(cli(prepared.argv), work / "cli.out")))

    # The newest good output is still on disk: check it independently, and
    # hold every run's output to the seed-commit reference.
    good = [k for k in keys if k is not None]
    last = good[-1] if good else None
    wrong = prepared.verify(last[1]) if last else []
    expected = check.reference(workload, seed)
    failed = sum(1 for k in keys if k is None or k != expected or (wrong and k == last))
    differing = [k for k in good if k != expected]
    problems = wrong + (check.against_reference(workload, seed, differing[0]) if differing else [])
    problems += [
        f"CLI exited {r.returncode}: {r.stderr.strip()[-400:]}" for r in runs if r.returncode
    ]

    ok = [(r, k) for r, k in zip(runs, calls.scales) if r.returncode == 0] or list(
        zip(runs, calls.scales))
    metrics = {
        "wall_s": statistics.median(r.wall_s * k for r, k in ok),
        "items_per_s": statistics.median(prepared.items / (r.wall_s * k) for r, k in ok),
        "cpu_s": statistics.median(r.cpu_s * k for r, k in ok),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r, _ in ok),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "cli_runs": len(runs), "setup_runs": len(setup), "probe_chunks_per_cpu": PROBE_CHUNKS,
        "cli_wall_s_unscaled": [round(r.wall_s, 4) for r in runs],
        "cli_cpu_s_unscaled": [round(r.cpu_s, 4) for r in runs],
        "scales": [round(k, 4) for k in calls.scales],
    }
    return check.Outcome(metrics, UNITS, problems, len(runs), failed, samples)


def git_commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SRC.parent,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def metadata(workload: str, seed: int, samples: dict) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    loc = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "seq2time").glob("*.py"))
    )
    return {
        "workload": workload,
        "seed": seed,
        "input_seed": check.input_seed(seed),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "source_loc": loc,
        "samples_per_median": samples,
        "scope": "CPU and RSS cover only the benchmark's own process tree "
        "(os.wait4 / getrusage); nothing machine-wide is traced. peak_rss_mb is "
        "the largest single process of the tree.",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that children are killed and work files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "seq2time" / "cli.py").is_file():
        print(f"error: no seq2time sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    seed = check.input_seed(args.seed)
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workload.prepare(seed, work)
        # compile the package's bytecode once, before anything is timed
        warm = spawn([sys.executable, "-c", "import seq2time"], work / "warm.out")
        if warm.returncode != 0:
            print(f"error: cannot import seq2time: {warm.stderr}", file=sys.stderr)
            return 2
        sys.path.insert(0, str(SRC))
        if args.trace:
            import layers

            out = layers.traced(workload, prepared, seed, work, STATE)
        else:
            out = end_to_end(workload, prepared, seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("meta " + json.dumps(metadata(args.workload, args.seed, out.samples)))
    for name, value in out.metrics.items():
        print(f"{name:40s} {value:16.6f} {out.units[name]}")
    for problem in out.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not out.problems and out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    name: {"value": value, "unit": out.units[name]}
                    for name, value in out.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
