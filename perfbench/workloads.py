"""The three benchmark workloads: their inputs, CLI call, set-up and check.

Why each workload exists (also recorded in BENCHMARK.json):

* ``image-build``: 10k records of ``build-image-seq`` over a digit-free
  20k-image pool at ``--jobs 2``, the roadmap's headline shape.
  ``sample_sequence`` copies the whole pool per record, and the fan-out,
  the 25 MB JSONL write and the ``corpus_stats`` re-read all run; each
  record holds only one to five position codes, so the codec does little.
* ``clip-build``: 6k records of ``build-clip-seq`` at ``--jobs 1`` over a
  160-clip pool, the single-process baseline. Its work is codec
  construction and rendering (about 24 codes per record), frame
  apportioning and template rendering; nothing fans out and no images are
  sampled.
* ``eval-dvc``: ``eval-dvc`` over 5k videos with 2..10 events each and
  predictions from the benchmark's own renderer, so the inputs do not move
  when generation code changes. ``dataset_io`` is only a reader here, and
  event matching dominates.

The sizes are smaller than the roadmap's 30k/10k/10k so that one
40-second run holds about ten CLI calls per median.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import inputs
from procs import sha256

IMAGE_N, SEQ_LEN, IMAGE_POOL, IMAGE_JOBS = 10_000, 96, 20_000, 2
CLIP_N, TOTAL_FRAMES = 6_000, 96
EVAL_VIDEOS = 5_000


@dataclass
class Prepared:
    """One workload made concrete for a seed inside a work directory."""

    argv: list[str]              # CLI arguments after ``python -m seq2time.cli``
    items: int                   # records built or videos scored per CLI run
    output: Path | None          # corpus the CLI writes, hashed per run
    setup_code: str              # fresh-interpreter set-up: import and load
    setup_args: list[str]        # its arguments: the input files
    verify: Callable[[dict], list[str]]  # --json payload -> problems
    data: dict                   # inputs kept for the traced run

    def key(self, run) -> tuple | None:
        """(output sha256, --json payload without its output path) of a
        finished CLI run, or None if the run failed."""
        if run.returncode != 0:
            return None
        try:
            payload = json.loads(run.stdout)
        except json.JSONDecodeError:
            return None
        payload.pop("output", None)
        return (sha256(self.output) if self.output else None, payload)


@dataclass(frozen=True)
class Workload:
    name: str
    params: str  # the sizes; references are recorded per params string
    prepare: Callable[[int, Path], Prepared]


def _image(seed: int, work: Path) -> Prepared:
    rows = inputs.image_pool_rows(seed, IMAGE_POOL)
    source, output = work / "images.jsonl", work / "image_corpus.jsonl"
    inputs.write_rows(rows, source)
    return Prepared(
        argv=["build-image-seq", "--source", str(source), "--output", str(output),
              "--n", str(IMAGE_N), "--seq-len", str(SEQ_LEN), "--time-repr", "rpt",
              "--jobs", str(IMAGE_JOBS), "--seed", str(seed), "--json"],
        items=IMAGE_N,
        output=output,
        setup_code=(
            "import sys, seq2time\n"
            "seq2time.load_image_captions(sys.argv[1])\n"
            "seq2time.TemplateBank.load()\n"
        ),
        setup_args=[str(source)],
        verify=lambda payload: check.check_image_build(
            output, payload, rows, IMAGE_N, SEQ_LEN, seed
        ),
        data={"source": source, "output": output, "rows": rows},
    )


def _clip(seed: int, work: Path) -> Prepared:
    rows = inputs.clip_pool_rows(seed)
    source, output = work / "clips.jsonl", work / "clip_corpus.jsonl"
    inputs.write_rows(rows, source)
    return Prepared(
        argv=["build-clip-seq", "--source", str(source), "--output", str(output),
              "--n", str(CLIP_N), "--total-frames", str(TOTAL_FRAMES),
              "--time-repr", "rpt", "--jobs", "1", "--seed", str(seed), "--json"],
        items=CLIP_N,
        output=output,
        setup_code=(
            "import sys, seq2time\n"
            "seq2time.load_clip_captions(sys.argv[1])\n"
            "seq2time.TemplateBank.load()\n"
        ),
        setup_args=[str(source)],
        verify=lambda payload: check.check_clip_build(
            output, payload, rows, CLIP_N, TOTAL_FRAMES, seed
        ),
        data={"source": source, "output": output, "rows": rows},
    )


def _eval(seed: int, work: Path) -> Prepared:
    rows = inputs.eval_rows(seed, EVAL_VIDEOS)
    pred, gt = work / "pred.jsonl", work / "gt.jsonl"
    inputs.write_rows(rows.pred_rows, pred)
    inputs.write_rows(rows.gt_rows, gt)
    return Prepared(
        argv=["eval-dvc", "--pred", str(pred), "--gt", str(gt), "--time-repr", "rpt",
              "--json"],
        items=EVAL_VIDEOS,
        output=None,
        setup_code=(
            "import sys, seq2time\n"
            "from seq2time.evaluation import load_ground_truth, load_predictions\n"
            "load_predictions(sys.argv[1])\n"
            "load_ground_truth(sys.argv[2])\n"
        ),
        setup_args=[str(pred), str(gt)],
        verify=lambda payload: check.check_eval(payload, rows, seed),
        data={"pred": pred, "gt": gt, "rows": rows},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("image-build", f"n={IMAGE_N} seq_len={SEQ_LEN} pool={IMAGE_POOL} jobs={IMAGE_JOBS}",
                 _image),
        Workload("clip-build", f"n={CLIP_N} total_frames={TOTAL_FRAMES} jobs=1", _clip),
        Workload("eval-dvc", f"videos={EVAL_VIDEOS}", _eval),
    )
}
