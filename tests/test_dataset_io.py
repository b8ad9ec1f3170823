"""Corpus loading and serialization."""

import json

import pytest

from seq2time.dataset_io import (
    RECORD_KEY_ORDER,
    CorpusStats,
    InstructionRecord,
    corpus_stats,
    iter_jsonl_with_lines,
    load_clip_captions,
    load_image_captions,
    write_jsonl,
)
from seq2time.errors import CorpusFormatError

from conftest import write_clip_source, write_image_source


class TestInstructionRecord:
    def _record(self):
        return InstructionRecord(
            id="is-1",
            media=("images/a.jpg",),
            task="IIG",
            question="q",
            answer="a",
            meta={"seq_len": 4},
        )

    def test_key_order(self):
        obj = self._record().to_json_obj()
        assert tuple(obj) == RECORD_KEY_ORDER

    def test_round_trip(self):
        record = self._record()
        assert InstructionRecord.from_json_obj(record.to_json_obj()) == record

    def test_missing_fields_listed(self):
        with pytest.raises(CorpusFormatError, match="missing fields: answer, meta"):
            InstructionRecord.from_json_obj(
                {"id": "x", "media": [], "task": "IIG", "question": "q"}
            )

    def test_empty_question_rejected(self):
        with pytest.raises(CorpusFormatError, match="empty question or answer"):
            InstructionRecord(
                id="x", media=(), task="IIG", question="", answer="a", meta={}
            )


class TestLoaders:
    def test_image_round_trip(self, image_pool, tmp_path):
        path = write_image_source(image_pool[:20], tmp_path / "img.jsonl")
        loaded = load_image_captions(path)
        assert loaded == image_pool[:20]

    def test_clip_round_trip(self, clip_pool, tmp_path):
        path = write_clip_source(clip_pool[:20], tmp_path / "clips.jsonl")
        loaded = load_clip_captions(path)
        assert loaded == clip_pool[:20]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "img.jsonl"
        path.write_text(
            '{"id": "a", "image": "x.jpg", "caption": "a cat"}\n'
            "\n"
            '{"id": "b", "image": "y.jpg", "caption": "a dog"}\n',
            encoding="utf-8",
        )
        assert [c.id for c in load_image_captions(path)] == ["a", "b"]

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "img.jsonl"
        path.write_text(
            '{"id": "a", "image": "x.jpg", "caption": "a cat"}\n{oops\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match=r"line 2: invalid JSON"):
            load_image_captions(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "img.jsonl"
        path.write_text('["not", "an", "object"]\n', encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=r"line 1: expected an object"):
            load_image_captions(path)

    def test_missing_caption_names_field_and_line(self, tmp_path):
        path = tmp_path / "img.jsonl"
        path.write_text(
            '{"id": "a", "image": "x.jpg", "caption": "a cat"}\n'
            '{"id": "b", "image": "y.jpg"}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match=r"line 2: missing field caption"):
            load_image_captions(path)

    def test_empty_caption_rejected(self, tmp_path):
        path = tmp_path / "img.jsonl"
        path.write_text(
            '{"id": "a", "image": "x.jpg", "caption": "   "}\n', encoding="utf-8"
        )
        with pytest.raises(CorpusFormatError, match="must be non-empty text"):
            load_image_captions(path)

    def test_caption_whitespace_trimmed(self, tmp_path):
        path = tmp_path / "img.jsonl"
        path.write_text(
            '{"id": "a", "image": "x.jpg", "caption": "  a cat  "}\n',
            encoding="utf-8",
        )
        assert load_image_captions(path)[0].caption == "a cat"

    def test_duplicate_id_reports_both_lines(self, tmp_path):
        path = tmp_path / "img.jsonl"
        path.write_text(
            '{"id": "a", "image": "x.jpg", "caption": "a cat"}\n'
            '{"id": "b", "image": "y.jpg", "caption": "a dog"}\n'
            '{"id": "a", "image": "z.jpg", "caption": "a fox"}\n',
            encoding="utf-8",
        )
        with pytest.raises(
            CorpusFormatError, match=r"duplicate id 'a' at lines 1 and 3"
        ):
            load_image_captions(path)

    def test_clip_duration_must_be_positive(self, tmp_path):
        path = tmp_path / "clips.jsonl"
        path.write_text(
            '{"id": "c", "video": "v.mp4", "label": "x", "caption": "c",'
            ' "duration_s": 0, "fps": 30}\n',
            encoding="utf-8",
        )
        with pytest.raises(
            CorpusFormatError, match=r"duration_s must be a positive number"
        ):
            load_clip_captions(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
    def test_clip_duration_must_be_finite(self, tmp_path, value):
        path = tmp_path / "clips.jsonl"
        path.write_text(
            '{"id": "c", "video": "v.mp4", "label": "x", "caption": "c",'
            f' "duration_s": {value}, "fps": 30}}\n',
            encoding="utf-8",
        )
        with pytest.raises(
            CorpusFormatError, match=r"line 1: field duration_s must be a positive number"
        ):
            load_clip_captions(path)

    def test_clip_fps_bool_rejected(self, tmp_path):
        # bool is an int subclass; it must not pass as a frame rate
        path = tmp_path / "clips.jsonl"
        path.write_text(
            '{"id": "c", "video": "v.mp4", "label": "x", "caption": "c",'
            ' "duration_s": 5.0, "fps": true}\n',
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError, match="fps must be a positive number"):
            load_clip_captions(path)


class TestWriteJsonl:
    def _records(self):
        return [
            InstructionRecord(
                id=f"r{i}",
                media=(f"images/{i}.jpg",),
                task="IIG",
                question=f"q{i} été",
                answer=f"a{i}",
                meta={"ordinal": i},
            )
            for i in range(5)
        ]

    def test_count_and_round_trip(self, tmp_path):
        path = tmp_path / "out.jsonl"
        records = self._records()
        assert write_jsonl(records, path) == 5
        assert [
            InstructionRecord.from_json_obj(o) for _, o in iter_jsonl_with_lines(path)
        ] == records

    def test_key_order_on_disk(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(self._records(), path)
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert tuple(first) == RECORD_KEY_ORDER

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(self._records(), a)
        write_jsonl(self._records(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_utf8_not_escaped(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(self._records(), path)
        raw = path.read_bytes()
        assert "été".encode("utf-8") in raw
        assert b"\\u00e9" not in raw

    def test_newline_terminated(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(self._records(), path)
        assert path.read_bytes().endswith(b"\n")

    def test_unwritable_target(self, tmp_path):
        with pytest.raises(CorpusFormatError, match="cannot write"):
            write_jsonl(self._records(), tmp_path)  # a directory, not a file

    def test_failed_write_keeps_existing_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b"previous\n")

        def records():
            yield from self._records()
            raise CorpusFormatError("synthetic failure")

        with pytest.raises(CorpusFormatError, match="synthetic"):
            write_jsonl(records(), path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_plain_dicts_accepted(self, tmp_path):
        path = tmp_path / "out.jsonl"
        assert write_jsonl([{"k": 1}], path) == 1
        assert list(iter_jsonl_with_lines(path)) == [(1, {"k": 1})]


class TestCorpusStats:
    def test_counts_and_means(self, tmp_path):
        records = [
            InstructionRecord("r1", (), "IIG", "qq", "aaaa", {}),
            InstructionRecord("r2", (), "TVG", "qqqq", "aa", {}),
            InstructionRecord("r3", (), "IIG", "qqq", "aaa", {}),
        ]
        path = tmp_path / "out.jsonl"
        write_jsonl(records, path)
        stats = corpus_stats(path)
        assert stats == CorpusStats(
            total=3,
            task_counts={"IIG": 2, "TVG": 1},
            mean_question_chars=3.0,
            mean_answer_chars=3.0,
        )
        assert list(stats.to_dict()["task_counts"]) == ["IIG", "TVG"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("", encoding="utf-8")
        stats = corpus_stats(path)
        assert stats.total == 0
        assert stats.mean_question_chars == 0.0
