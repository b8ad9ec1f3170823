"""Corpus ingestion and instruction-record serialization.

Input corpora are JSON-lines. Image rows carry ``{"id", "image",
"caption"}`` and load as :class:`CaptionedImage`; clip rows carry
``{"id", "video", "label", "caption", "duration_s", "fps"}`` and load as
:class:`CaptionedClip`. These readers and the evaluation ones take their
rows through :func:`unique_rows`, the one row-id rule. Output
instruction records are JSON-lines with a fixed key order (id, media,
task, question, answer, meta) and no float re-formatting, so equal
inputs produce byte-identical files and builds can be regression-tested
by hash.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import ConfigError, CorpusFormatError

RECORD_KEY_ORDER = ("id", "media", "task", "question", "answer", "meta")


@dataclass(frozen=True)
class InstructionRecord:
    """One question/answer training instance plus its provenance metadata."""

    id: str
    media: tuple[str, ...]
    task: str
    question: str
    answer: str
    meta: dict

    def __post_init__(self) -> None:
        if not self.question or not self.answer:
            raise CorpusFormatError(
                f"record {self.id!r} has an empty question or answer"
            )

    def to_json_obj(self) -> dict:
        return {
            "id": self.id,
            "media": list(self.media),
            "task": self.task,
            "question": self.question,
            "answer": self.answer,
            "meta": self.meta,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InstructionRecord":
        missing = [k for k in RECORD_KEY_ORDER if k not in obj]
        if missing:
            raise CorpusFormatError(f"record missing fields: {', '.join(missing)}")
        kinds = {"media": list, "meta": dict}  # every other field is text
        wrong = [k for k in RECORD_KEY_ORDER if not isinstance(obj[k], kinds.get(k, str))]
        if "media" not in wrong and not all(isinstance(m, str) for m in obj["media"]):
            wrong.append("media")
        if wrong:
            raise CorpusFormatError(f"record fields of wrong type: {', '.join(wrong)}")
        return cls(
            id=obj["id"],
            media=tuple(obj["media"]),
            task=obj["task"],
            question=obj["question"],
            answer=obj["answer"],
            meta=obj["meta"],
        )


def iter_jsonl_with_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for every non-blank line of a JSONL file."""
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(
                        f"{p}: line {lineno}: invalid JSON: {exc.msg}"
                    ) from exc
                if not isinstance(obj, dict):
                    raise CorpusFormatError(f"{p}: line {lineno}: expected an object")
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{p}: not UTF-8 text: {exc}") from exc


def _require(obj: dict, lineno: int, field_name: str, path: Path) -> object:
    if field_name not in obj:
        raise CorpusFormatError(f"{path}: line {lineno}: missing field {field_name}")
    return obj[field_name]


def _require_text(obj: dict, lineno: int, field_name: str, path: Path) -> str:
    value = _require(obj, lineno, field_name, path)
    if not isinstance(value, str) or not value.strip():
        raise CorpusFormatError(
            f"{path}: line {lineno}: field {field_name} must be non-empty text"
        )
    return value.strip() if field_name == "caption" else value


def is_positive_number(value) -> bool:
    """A JSON number in (0, largest float]: no bool, NaN or infinity."""
    return type(value) in (int, float) and 0 < value <= sys.float_info.max


def _require_positive(obj: dict, lineno: int, field_name: str, path: Path) -> float:
    value = _require(obj, lineno, field_name, path)
    if not is_positive_number(value):
        raise CorpusFormatError(
            f"{path}: line {lineno}: field {field_name} must be a positive number"
        )
    return float(value)


def unique_rows(
    path: str | Path, key: str = "id"
) -> Iterator[tuple[Path, int, dict, str]]:
    """(path, line number, object, row id) per row of a JSONL file.

    The row id is the ``key`` field: non-blank text, never repeated; a
    repeat names both lines.
    """
    p = Path(path)
    seen: dict[str, int] = {}
    for lineno, obj in iter_jsonl_with_lines(p):
        row_id = _require_text(obj, lineno, key, p)
        if row_id in seen:
            raise CorpusFormatError(
                f"{p}: duplicate {key} {row_id!r} at lines {seen[row_id]} and {lineno}"
            )
        seen[row_id] = lineno
        yield p, lineno, obj, row_id


@dataclass(frozen=True)
class CaptionedImage:
    id: str
    image: str
    caption: str

    def __post_init__(self) -> None:
        if not self.caption.strip():
            raise ConfigError(f"image {self.id!r} has an empty caption")


@dataclass(frozen=True)
class CaptionedClip:
    id: str
    video: str
    label: str
    caption: str
    duration_s: float
    fps: float

    def __post_init__(self) -> None:
        if not self.caption.strip():
            raise ConfigError(f"clip {self.id!r} has an empty caption")
        if not (0 < self.duration_s < math.inf and 0 < self.fps < math.inf):
            raise ConfigError(
                f"clip {self.id!r} needs finite positive duration and fps, got "
                f"({self.duration_s}, {self.fps})"
            )


def load_image_captions(path: str | Path) -> list[CaptionedImage]:
    """Load an image-caption corpus, rejecting malformed rows by line number."""
    return [
        CaptionedImage(
            id=row_id,
            image=_require_text(obj, lineno, "image", p),
            caption=_require_text(obj, lineno, "caption", p),
        )
        for p, lineno, obj, row_id in unique_rows(path)
    ]


def load_clip_captions(path: str | Path) -> list[CaptionedClip]:
    """Load a clip-caption corpus, rejecting malformed rows by line number."""
    return [
        CaptionedClip(
            id=row_id,
            video=_require_text(obj, lineno, "video", p),
            label=_require_text(obj, lineno, "label", p),
            caption=_require_text(obj, lineno, "caption", p),
            duration_s=_require_positive(obj, lineno, "duration_s", p),
            fps=_require_positive(obj, lineno, "fps", p),
        )
        for p, lineno, obj, row_id in unique_rows(path)
    ]


def encode_line(record) -> str:
    """One JSONL line, newline included, for an InstructionRecord or a plain dict."""
    obj = record.to_json_obj() if hasattr(record, "to_json_obj") else record
    return json.dumps(obj, ensure_ascii=False) + "\n"


@contextmanager
def open_replacing(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file that takes the place of ``path`` only on success.

    Text goes to a temporary file in the same directory, which
    ``os.replace`` moves onto ``path`` once the block completes. On any
    failure the temporary file is removed and ``path`` is left as it was,
    so a failed run never leaves a truncated or empty file behind.
    """
    p = Path(path)
    tmp = p.with_name(f".{p.name}.{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("x", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, p)
    except OSError as exc:
        raise CorpusFormatError(f"cannot write {p}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def write_jsonl(records: Iterable, path: str | Path) -> int:
    """Write records (InstructionRecord or plain dict) one per line.

    Returns the record count. Output is UTF-8, newline-terminated, with
    the fixed record key order preserved for byte-stable files, and
    replaces ``path`` only once every record is written.
    """
    count = 0
    with open_replacing(path) as fh:
        for record in records:
            fh.write(encode_line(record))
            count += 1
    return count


@dataclass(frozen=True)
class CorpusStats:
    total: int
    task_counts: dict[str, int]
    mean_question_chars: float
    mean_answer_chars: float

    @classmethod
    def from_sums(
        cls, task_counts: dict[str, int], question_chars: int, answer_chars: int
    ) -> "CorpusStats":
        total = sum(task_counts.values())
        return cls(
            total=total,
            task_counts=task_counts,
            mean_question_chars=question_chars / total if total else 0.0,
            mean_answer_chars=answer_chars / total if total else 0.0,
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "task_counts": dict(sorted(self.task_counts.items()))}


def corpus_stats(path: str | Path) -> CorpusStats:
    """Per-task record counts and mean question/answer lengths of a file."""
    counts: dict[str, int] = {}
    q_chars = 0
    a_chars = 0
    for lineno, obj in iter_jsonl_with_lines(path):
        try:
            record = InstructionRecord.from_json_obj(obj)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
        counts[record.task] = counts.get(record.task, 0) + 1
        q_chars += len(record.question)
        a_chars += len(record.answer)
    return CorpusStats.from_sums(counts, q_chars, a_chars)
