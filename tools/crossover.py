"""Where a process pool starts to pay for builds: in process against a pool.

Usage, from the repository root (it takes no options):

    python3 tools/crossover.py > crossover.json

For each case of ``CASES`` (a builder, its ``--seq-len`` or
``--total-frames``, and its sizes) it runs the build CLI ``PAIRS`` times
on each of two paths, alternating which runs first, after one warm-up
run of each:

* ``in_process``: ``--jobs 1``, ranges of 16 records in the CLI's process;
* ``pool``: the default ``--jobs`` (the usable cores) with
  ``corpus.SERIAL_MAX`` set to 0, so ``run_ranges`` forks a pool whatever
  the size, the path of every build above 16 records when the cutoff
  was 16.

Both paths start the same launcher, a fresh interpreter that imports
``seq2time`` from ``src`` and calls ``cli.main``, through perfbench's
``procs.spawn``: a run's wall time, and its CPU as the user + system time
of the CLI process and the workers it waited for (``os.wait4``). Inputs
are perfbench's (the seed-5 image and clip pools of
``perfbench/inputs.py``, ``--seed 7``), so sizes match the benchmark's
workloads. The cases at 96 are records of weight 1, the units
``SERIAL_MAX`` counts; the image cases at 1,000 and 5,000 images per
record are heavier (``ImageCorpusConfig.record_weight``).

Before that it times ``corpus._encode`` in this process over image
records of several lengths and clip records at the config edges, and
gives each image record's cost over a 96-image record's next to its
``record_weight``, the estimate the cutoff uses.

Stdout is one JSON object: the tree's ``SERIAL_MAX``, the record costs,
and per case the record weight, the path the tree's default ``--jobs``
takes, the medians, quartiles and samples of both paths, the pairs the
pool won, and whether both paths wrote the same bytes.

Times are unscaled: on a shared host, compare the paths of one case, not
cases across runs. A run takes about ten minutes on 2 cores, and its
largest case writes about 260 MB per path to a temporary directory.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from procs import sha256, spawn  # noqa: E402  (perfbench/procs.py)
from seq2time import corpus, dataset_io  # noqa: E402
from seq2time.clip_sequence import ClipCorpusConfig, clip_corpus  # noqa: E402
from seq2time.image_sequence import ImageCorpusConfig, image_corpus  # noqa: E402

SIZES = (100, 300, 1_000, 1_500, 2_000, 2_500, 3_000)
HEAVY_SIZES = (100, 300, 1_000, 2_500)
CASES = [("image", 96, SIZES), ("clip", 96, SIZES),
         ("image", 1_000, HEAVY_SIZES), ("image", 5_000, HEAVY_SIZES)]
PAIRS = 10
POOL_SEED, BUILD_SEED, IMAGE_POOL = 5, 7, 20_000
BUILDS = {  # the subcommand, and the flag that sets a record's length
    "image": ("build-image-seq", "--seq-len"),
    "clip": ("build-clip-seq", "--total-frames"),
}
COST_SEQ_LENS, COST_RECORDS, COST_ROUNDS = (5, 96, 300, 1_000, 2_000, 5_000), 500, 7
CLIP_EDGES = {"default": {}, "total_frames 10**6": {"total_frames": 10**6},
              "2 clips": {"clip_min": 2, "clip_max": 2},
              "10 clips": {"clip_min": 10, "clip_max": 10}}
PATHS = {"in_process": ("", ["--jobs", "1"]), "pool": ("0", [])}
# argv[1] is the cutoff to set ("" leaves it), the rest the CLI's arguments
LAUNCHER = (
    "import sys\n"
    "import seq2time.corpus as corpus\n"
    "if sys.argv[1]:\n"
    "    corpus.SERIAL_MAX = int(sys.argv[1])\n"
    "from seq2time.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "samples": [round(x, 4) for x in samples]}


def record_costs(sources: dict) -> dict:
    """Milliseconds per record of ``corpus._encode`` in this process: the
    best of ``COST_ROUNDS`` rounds, each timing every config once, so that
    a slow spell of the host lands on all of them alike."""
    images = dataset_io.load_image_captions(sources["image"])
    clips = dataset_io.load_clip_captions(sources["clip"])
    builds = {("image", seq_len): image_corpus(
        ImageCorpusConfig(COST_RECORDS, seq_len=seq_len, seed=BUILD_SEED), images)
        for seq_len in COST_SEQ_LENS}
    builds.update({("clip", name): clip_corpus(
        ClipCorpusConfig(COST_RECORDS, seed=BUILD_SEED, **edge), clips)
        for name, edge in CLIP_EDGES.items()})
    best = dict.fromkeys(builds, float("inf"))
    for _ in range(COST_ROUNDS):
        for key, build in builds.items():
            start = time.perf_counter()
            corpus._encode(build, range(COST_RECORDS))
            best[key] = min(best[key], time.perf_counter() - start)
    ms = {key: round(t / COST_RECORDS * 1e3, 4) for key, t in best.items()}
    image = {seq_len: ms["image", seq_len] for seq_len in COST_SEQ_LENS}
    return {
        "image_ms_per_record": {str(k): v for k, v in image.items()},
        # a record's cost over a 96-image record's, and record_weight's estimate
        "image_weight": {str(k): {"measured": round(v / image[96], 3),
                                  "record_weight": round(weight("image", k), 3)}
                         for k, v in image.items()},
        "clip_ms_per_record": {name: ms["clip", name] for name in CLIP_EDGES},
    }


def weight(builder: str, length: int) -> float:
    if builder == "clip":
        return ClipCorpusConfig(0, total_frames=length).record_weight
    return ImageCorpusConfig(0, seq_len=length).record_weight


def measure(builder: str, length: int, source: Path, n: int, work: Path) -> dict:
    subcommand, length_flag = BUILDS[builder]
    flags = [length_flag, str(length), "--time-repr", "rpt"]
    times = {path: {"wall_s": [], "cpu_s": []} for path in PATHS}
    digests = {path: set() for path in PATHS}
    order = list(PATHS)
    for pair in range(-1, PAIRS):  # pair -1 warms up both paths and is not kept
        for path in order if pair % 2 == 0 else order[::-1]:
            cutoff, jobs = PATHS[path]
            output = work / f"{builder}-{path}.jsonl"
            argv = [sys.executable, "-c", LAUNCHER, cutoff, subcommand, "--source",
                    str(source), "--output", str(output), "--n", str(n),
                    "--seed", str(BUILD_SEED), *flags, *jobs]
            run = spawn(argv, output.with_suffix(".out"))
            if run.returncode != 0:
                raise SystemExit(f"{' '.join(argv[3:])} failed:\n{run.stderr}")
            digests[path].add(sha256(output))
            if pair >= 0:
                times[path]["wall_s"].append(run.wall_s)
                times[path]["cpu_s"].append(run.cpu_s)
    pools = corpus.usable_cores() > 1 and n * weight(builder, length) > corpus.SERIAL_MAX
    case = {"builder": builder, length_flag[2:]: length, "records": n,
            "record_weight": round(weight(builder, length), 4),
            "default_path": "pool" if pools else "in_process",
            "sha256_identical": len(digests["in_process"] | digests["pool"]) == 1}
    for metric in ("wall_s", "cpu_s"):
        pool, serial = times["pool"][metric], times["in_process"][metric]
        case[metric] = {path: summary(times[path][metric]) for path in PATHS}
        change = statistics.median(pool) / statistics.median(serial) - 1
        case[metric]["pool_vs_in_process"] = f"{change:+.1%}"
        case[metric]["pool_better_pairs"] = f"{sum(a < b for a, b in zip(pool, serial))}/{PAIRS}"
    return case


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        sources = {"image": work / "images.jsonl", "clip": work / "clips.jsonl"}
        inputs.write_rows(inputs.image_pool_rows(POOL_SEED, IMAGE_POOL), sources["image"])
        inputs.write_rows(inputs.clip_pool_rows(POOL_SEED), sources["clip"])
        costs = record_costs(sources)
        cases = [measure(builder, length, sources[builder], n, work)
                 for builder, length, sizes in CASES for n in sizes]
    json.dump({
        "host": {"usable_cores": corpus.usable_cores(), "python": platform.python_version()},
        "serial_max": corpus.SERIAL_MAX,
        "pairs": PAIRS,
        "record_cost": costs,
        "cases": cases,
    }, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
