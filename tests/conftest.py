"""Shared fixtures: synthetic caption pools (built in ``pinned_digests``)
and self-evaluation helpers."""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import settings

import seq2time.corpus as corpus
from seq2time.clip_sequence import CaptionedClip, ClipSequenceSample
from seq2time.dataset_io import InstructionRecord
from seq2time.errors import InvariantViolation
from seq2time.evaluation import iou
from seq2time.image_sequence import CaptionedImage
from seq2time.position_token import MAX_RPT_LENGTH, TimeInterval, TimeRepresentation

import pinned_digests

# every run draws the same examples and saves none, so two tier-1 runs agree;
# each test's own @settings budget still applies
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def pool_starts(monkeypatch) -> list:
    """Gets one entry per process pool that ``corpus.run_ranges`` starts.

    ``corpus.usable_cores`` reads 2, so a run at ``jobs`` above 1 has two
    workers and pools on any host, one core included."""
    monkeypatch.setattr(corpus, "usable_cores", lambda: 2)
    pools = []
    real = corpus._pooled
    monkeypatch.setattr(corpus, "_pooled", lambda *a: pools.append(1) or real(*a))
    return pools


@pytest.fixture
def pool_above_16(monkeypatch, pool_starts) -> list:
    """``pool_starts``, with ``corpus.SERIAL_MAX`` lowered to 16: small runs
    of 17 or more items at ``jobs`` above 1 then go through a pool."""
    monkeypatch.setattr(corpus, "SERIAL_MAX", 16)
    return pool_starts


@pytest.fixture(scope="session")
def image_pool() -> list[CaptionedImage]:
    return pinned_digests.image_pool(500)


@pytest.fixture(scope="session")
def large_image_pool() -> list[CaptionedImage]:
    """Enough digit-free images for the longest position-token sequence."""
    return pinned_digests.image_pool(MAX_RPT_LENGTH)


@pytest.fixture(scope="session")
def clip_pool() -> list[CaptionedClip]:
    return pinned_digests.clip_pool()


def reference_line(record: InstructionRecord) -> str:
    """The oracle of ``dataset_io.encode_line``: ``json.dumps`` of the
    record's fields in order."""
    return json.dumps(record._asdict(), ensure_ascii=False) + "\n"


def brute_force_matching(preds, gts, threshold) -> int:
    """The oracle of ``evaluation._matched_counts``: the largest one-to-one
    matching at IoU >= ``threshold``, by trying every injective assignment."""
    if len(preds) > len(gts):
        preds, gts = gts, preds
    best = 0
    for perm in itertools.permutations(range(len(gts)), len(preds)):
        best = max(
            best,
            sum(1 for i, j in enumerate(perm) if iou(preds[i], gts[j]) >= threshold),
        )
    return best


def write_rows(rows, path: Path) -> Path:
    """A JSONL file of plain dict rows (caption sources, eval inputs, bad
    records), one ``json.dumps`` line each, as UTF-8."""
    path.write_bytes("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode())
    return path


def write_image_source(pool, path: Path) -> Path:
    rows = [{"id": c.id, "image": c.image, "caption": c.caption} for c in pool]
    return write_rows(rows, path)


def write_clip_source(pool, path: Path) -> Path:
    rows = [
        {
            "id": c.id,
            "video": c.video,
            "label": c.label,
            "caption": c.caption,
            "duration_s": c.duration_s,
            "fps": c.fps,
        }
        for c in pool
    ]
    return write_rows(rows, path)


@pytest.fixture
def image_source(image_pool, tmp_path) -> Path:
    return write_image_source(image_pool, tmp_path / "images.jsonl")


@pytest.fixture
def clip_source(clip_pool, tmp_path) -> Path:
    return write_clip_source(clip_pool, tmp_path / "clips.jsonl")


def self_eval_files(records, directory: Path, stem: str) -> tuple[Path, Path]:
    """Render generated clip records as a (pred, gt) file pair.

    The record's own answer becomes the prediction output; ground truth
    events come from the record metadata, which stores intervals at the
    exact precision recoverable from the rendered answer.
    """
    pred_rows = []
    gt_rows = []
    for record in records:
        pred_rows.append(
            {
                "video_id": record.id,
                "output": record.answer,
                "duration_s": record.meta["duration_s"],
            }
        )
        gt_rows.append(
            {
                "video_id": record.id,
                "events": [
                    {"start": start, "end": end, "caption": caption}
                    for (start, end), caption in zip(
                        record.meta["intervals"], record.meta["captions"]
                    )
                ],
            }
        )
    pred_path = directory / f"{stem}_pred.jsonl"
    gt_path = directory / f"{stem}_gt.jsonl"
    return write_rows(pred_rows, pred_path), write_rows(gt_rows, gt_path)


def derive_annotations(sample: ClipSequenceSample) -> list[TimeInterval]:
    """Each clip's interval in seconds: its share of the frame budget times
    the pseudo duration, as ``_spans`` renders it. Intervals are contiguous,
    ordered, and tile [0, pseudo_duration_s] exactly.
    """
    annotations: list[TimeInterval] = []
    total, duration = sample.total_frames, sample.pseudo_duration_s
    cumulative = 0
    for count in sample.frame_counts:
        start = cumulative / total * duration
        cumulative += count
        annotations.append(TimeInterval(start, cumulative / total * duration))
    if cumulative != sample.total_frames:
        raise InvariantViolation(
            f"frame spans cover {cumulative} of {sample.total_frames} frames"
        )
    return annotations


def repr_of(name: str) -> TimeRepresentation:
    return TimeRepresentation.RPT if name == "rpt" else TimeRepresentation.FREE_FORM


def read_config(path: Path) -> dict:
    return json.loads(path.read_text())
