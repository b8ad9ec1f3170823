"""Corpus ingestion and instruction-record serialization.

Input corpora are JSON-lines. Image rows carry ``{"id", "image",
"caption"}`` and load as :class:`CaptionedImage`; clip rows carry
``{"id", "video", "label", "caption", "duration_s", "fps"}`` and load as
:class:`CaptionedClip`. These readers and the evaluation ones take their
rows through :func:`unique_rows`, the one row-id rule. An output
instruction record is an :class:`InstructionRecord` tuple; ``encode_line``
writes it as one JSON line with its fields in order (id, media, task,
question, answer, meta) and no float re-formatting, so equal inputs
produce byte-identical files and builds can be regression-tested by hash.

Every value type here is a named tuple, equal to the plain tuple of its
fields. The checked ones (``InstructionRecord``, ``CaptionedImage``,
``CaptionedClip``) run their check in ``__new__``, so ``_make``,
``_replace`` and unpickling run it too; ``_asdict()`` gives the fields as
a dict, and setting a field raises ``AttributeError``.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from .errors import ConfigError, CorpusFormatError

RECORD_KEY_ORDER = ("id", "media", "task", "question", "answer", "meta")


class InstructionRecord(namedtuple("InstructionRecord", RECORD_KEY_ORDER)):
    """One question/answer training instance plus its provenance metadata: a
    tuple, cheap to build and read, checked once to hold a non-blank question and answer."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # via __new__, so _replace checks too

    def __new__(
        cls, id: str, media: Sequence[str], task: str, question: str, answer: str, meta: dict
    ) -> InstructionRecord:
        if not question.strip() or not answer.strip():
            raise CorpusFormatError(f"record {id!r} has an empty question or answer")
        return tuple.__new__(cls, (id, media, task, question, answer, meta))


_decode = json.JSONDecoder().raw_decode
_SURROGATE = re.compile("[\ud800-\udfff]")


def iter_jsonl_with_lines(
    path: str | Path, text_fields: tuple[str, ...] = ()
) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) for every non-blank line of a JSONL file.

    A line holding one object that ends at its newline is decoded in one
    C scan; every other line goes through ``json.loads``, which sets the
    blank-line rule and the error messages. A line whose text holds a
    ``\\u`` escape is refused if one of its ``text_fields`` decodes to a
    lone surrogate, which no UTF-8 file can hold.
    """
    p = Path(path)
    with p.open("r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj, end = _decode(line)
                except json.JSONDecodeError:
                    obj, end = None, 0
                if line[end:] != "\n" or type(obj) is not dict:
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
                if text_fields and "\\u" in line:
                    for name in text_fields:
                        value = obj.get(name)
                        if isinstance(value, str) and _SURROGATE.search(value):
                            raise CorpusFormatError(
                                f"{p}: line {lineno}: field {name} holds a lone "
                                "surrogate escape, which is not text"
                            )
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
    path: str | Path, key: str = "id", text_fields: tuple[str, ...] = ()
) -> Iterator[tuple[Path, int, dict, str]]:
    """(path, line number, object, row id) per row of a JSONL file.

    The row id is the ``key`` field: non-blank text, never repeated; a
    repeat names both lines. ``text_fields`` are checked as
    ``iter_jsonl_with_lines`` says.
    """
    p = Path(path)
    seen: dict[str, int] = {}
    for lineno, obj in iter_jsonl_with_lines(p, text_fields):
        row_id = _require_text(obj, lineno, key, p)
        if row_id in seen:
            raise CorpusFormatError(
                f"{p}: duplicate {key} {row_id!r} at lines {seen[row_id]} and {lineno}"
            )
        seen[row_id] = lineno
        yield p, lineno, obj, row_id


class CaptionedImage(namedtuple("CaptionedImage", "id image caption")):
    """One row of an image-caption pool, checked once to hold a non-blank caption."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # via __new__, so _replace checks too

    def __new__(cls, id: str, image: str, caption: str) -> CaptionedImage:
        if not caption.strip():
            raise ConfigError(f"image {id!r} has an empty caption")
        return tuple.__new__(cls, (id, image, caption))


class CaptionedClip(namedtuple("CaptionedClip", "id video label caption duration_s fps")):
    """One row of a clip-caption pool, checked once to hold a non-blank
    caption and a finite, positive duration and frame rate."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # via __new__, so _replace checks too

    def __new__(
        cls, id: str, video: str, label: str, caption: str, duration_s: float, fps: float
    ) -> CaptionedClip:
        if not caption.strip():
            raise ConfigError(f"clip {id!r} has an empty caption")
        if not (0 < duration_s < math.inf and 0 < fps < math.inf):
            raise ConfigError(
                f"clip {id!r} needs finite positive duration and fps, got "
                f"({duration_s}, {fps})"
            )
        return tuple.__new__(cls, (id, video, label, caption, duration_s, fps))


def load_image_captions(path: str | Path) -> list[CaptionedImage]:
    """Load an image-caption corpus, rejecting malformed rows by line number."""
    # _require_text has made CaptionedImage's check, so tuple.__new__ skips it
    return [
        tuple.__new__(CaptionedImage, (
            row_id,
            _require_text(obj, lineno, "image", p),
            _require_text(obj, lineno, "caption", p),
        ))
        for p, lineno, obj, row_id in unique_rows(
            path, text_fields=("id", "image", "caption")
        )
    ]


def load_clip_captions(path: str | Path) -> list[CaptionedClip]:
    """Load a clip-caption corpus, rejecting malformed rows by line number."""
    # _require_text and _require_positive have made CaptionedClip's check
    return [
        tuple.__new__(CaptionedClip, (
            row_id,
            _require_text(obj, lineno, "video", p),
            _require_text(obj, lineno, "label", p),
            _require_text(obj, lineno, "caption", p),
            _require_positive(obj, lineno, "duration_s", p),
            _require_positive(obj, lineno, "fps", p),
        ))
        for p, lineno, obj, row_id in unique_rows(
            path, text_fields=("id", "video", "label", "caption")
        )
    ]


_escape = json.encoder.encode_basestring  # a text as JSON writes it, in C
_dumps = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps's encoder, built once


def json_plain(texts: Iterable[str]) -> bool:
    """Whether JSON writes every text as it is, between quotes: none holds
    a quote, a backslash or a control character."""
    return all(_escape(text) == f'"{text}"' for text in texts)


def encode_line(record: InstructionRecord, plain_media: bool = False) -> str:
    """One JSONL line, newline included: the record's fields as an object in
    ``RECORD_KEY_ORDER``, as ``json.dumps(record._asdict(), ensure_ascii=False)``
    writes it. ``plain_media`` says the record has at least one medium and
    every one is ``json_plain``: the paths are then joined, not escaped."""
    media = '["' + '", "'.join(record.media) + '"]' if plain_media else _dumps(record.media)
    return (
        f'{{"id": {_escape(record.id)}, "media": {media}, "task": {_escape(record.task)}'
        f', "question": {_escape(record.question)}, "answer": {_escape(record.answer)}'
        f', "meta": {_dumps(record.meta)}}}\n'
    )


@contextmanager
def open_replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file that takes the place of ``path`` only on success.

    Bytes go to a temporary file in the same directory, which
    ``os.replace`` moves onto ``path`` once the block completes. On any
    failure the temporary file is removed and ``path`` is left as it was,
    so a failed run never leaves a truncated or empty file behind. An
    ``OSError`` in the block is raised as ``CorpusFormatError("cannot write
    PATH: ...")``, but a dead worker's ``ChildProcessError`` as it is.
    """
    p = Path(path)
    tmp = p.with_name(f".{p.name}.{os.urandom(4).hex()}.tmp")
    try:
        with tmp.open("xb") as fh:
            yield fh
        os.replace(tmp, p)
    except ChildProcessError:  # a worker that died, not the write
        raise
    except OSError as exc:
        raise CorpusFormatError(f"cannot write {p}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def write_jsonl(records: Iterable[InstructionRecord], path: str | Path) -> int:
    """Write records one per line, each as ``encode_line`` gives it.

    Returns the record count. Output is UTF-8 and replaces ``path`` only
    once every record is written.
    """
    count = 0
    with open_replacing(path) as fh:
        for record in records:
            fh.write(encode_line(record).encode())
            count += 1
    return count


class CorpusStats(NamedTuple):
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
        return {**self._asdict(), "task_counts": dict(sorted(self.task_counts.items()))}


def corpus_stats(path: str | Path) -> CorpusStats:
    """Per-task record counts and mean question/answer lengths of a file.

    A row missing a record field, holding one of the wrong type, or with a
    blank question or answer is refused by its line number."""
    counts: dict[str, int] = {}
    q_chars = a_chars = 0
    kinds = {"media": list, "meta": dict}  # every other field is text
    for lineno, obj in iter_jsonl_with_lines(path):
        try:
            missing = [k for k in RECORD_KEY_ORDER if k not in obj]
            if missing:
                raise CorpusFormatError(f"record missing fields: {', '.join(missing)}")
            wrong = [k for k in RECORD_KEY_ORDER if not isinstance(obj[k], kinds.get(k, str))]
            if "media" not in wrong and not all(isinstance(m, str) for m in obj["media"]):
                wrong.append("media")
            if wrong:
                raise CorpusFormatError(f"record fields of wrong type: {', '.join(wrong)}")
            record = InstructionRecord(*[obj[k] for k in RECORD_KEY_ORDER])
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from exc
        counts[record.task] = counts.get(record.task, 0) + 1
        q_chars += len(record.question)
        a_chars += len(record.answer)
    return CorpusStats.from_sums(counts, q_chars, a_chars)
