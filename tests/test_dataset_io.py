"""Corpus loading and serialization."""

import json
import pickle

import pytest
from hypothesis import given, strategies as st

from seq2time.dataset_io import (
    RECORD_KEY_ORDER,
    CorpusStats,
    InstructionRecord,
    corpus_stats,
    encode_line,
    iter_jsonl_with_lines,
    json_plain,
    load_clip_captions,
    load_image_captions,
    write_jsonl,
)
from seq2time.errors import CorpusFormatError

from conftest import reference_line, write_clip_source, write_image_source, write_rows


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
        assert InstructionRecord._fields == RECORD_KEY_ORDER
        assert tuple(self._record()._asdict()) == RECORD_KEY_ORDER

    @pytest.mark.parametrize(
        "question, answer",
        [("", "a"), ("q", ""), ("", ""), (" ", "a"), ("q", "\t"), (" \n", "\u2028")],
    )
    def test_empty_question_rejected(self, question, answer):
        # whitespace-only text is as empty as ""
        with pytest.raises(
            CorpusFormatError, match="^record 'x' has an empty question or answer$"
        ):
            InstructionRecord("x", (), "IIG", question, answer, {})

    @pytest.mark.parametrize("question, answer", [("", "a"), ("q", ""), ("", "")])
    def test_make_and_replace_check_too(self, question, answer):
        # namedtuple's own _make, which _replace calls, skips __new__
        match = "^record 'x' has an empty question or answer$"
        with pytest.raises(CorpusFormatError, match=match):
            InstructionRecord("x", (), "IIG", "q", "a", {})._replace(
                question=question, answer=answer
            )
        with pytest.raises(CorpusFormatError, match=match):
            InstructionRecord._make(("x", (), "IIG", question, answer, {}))
        record = self._record()._replace(question="q2")
        assert type(record) is InstructionRecord and record.question == "q2"

    def test_pickle_round_trip(self):
        # records(jobs=2) returns records from pool workers this way
        record = self._record()
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert type(copy) is InstructionRecord

    def test_encode_line_writes_the_dict_form(self):
        record = self._record()
        obj = {**record._asdict(), "media": list(record.media)}
        assert encode_line(record) == json.dumps(obj, ensure_ascii=False) + "\n"
        assert encode_line(record, plain_media=True) == reference_line(record)


# text with what JSON escapes (a quote, a backslash, control characters) and
# what it writes as it is (U+2028, U+2029, non-BMP and other non-ASCII text)
_RAW = "\x7f\u2028\u2029\u00e9\U0001f600"
_TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\t\n' + _RAW), st.characters()), max_size=12
)
_PLAIN = st.text(
    st.one_of(st.sampled_from(_RAW), st.characters(min_codepoint=0x20, exclude_characters='"\\')),
    max_size=12,
)
_RECORDS = st.builds(
    InstructionRecord,
    id=_TEXT,
    media=st.one_of(st.lists(_TEXT, max_size=8), st.lists(_PLAIN, min_size=1, max_size=8)),
    task=_TEXT,
    question=_TEXT.filter(str.strip),
    answer=_TEXT.filter(str.strip),
    meta=st.dictionaries(
        _TEXT, st.one_of(st.integers(), st.floats(), _TEXT, st.lists(_TEXT)), max_size=4
    ),
)


@given(_RECORDS)
def test_encode_line_is_the_json_dumps_reference(record):
    expected = reference_line(record)
    assert encode_line(record) == expected
    if record.media and json_plain(record.media):  # the join path
        assert encode_line(record, plain_media=True) == expected


class TestLoaders:
    def test_image_round_trip(self, image_pool, tmp_path):
        path = write_image_source(image_pool[:20], tmp_path / "img.jsonl")
        loaded = load_image_captions(path)
        assert loaded == image_pool[:20]

    def test_clip_round_trip(self, clip_pool, tmp_path):
        path = write_clip_source(clip_pool[:20], tmp_path / "clips.jsonl")
        loaded = load_clip_captions(path)
        assert loaded == clip_pool[:20]

    @pytest.mark.parametrize(
        "blank", ["\n", "   \n", "\t\n", "\u3000\n", "\r\n"],
        ids=["empty", "spaces", "tab", "ideographic-space", "crlf"],
    )
    def test_blank_lines_skipped(self, tmp_path, blank):
        path = tmp_path / "img.jsonl"
        path.write_bytes(
            (
                '{"id": "a", "image": "x.jpg", "caption": "a cat"}\n'
                + blank
                + '{"id": "b", "image": "y.jpg", "caption": "a dog"}\n'
            ).encode("utf-8")
        )
        assert list(iter_jsonl_with_lines(path)) == [
            (1, {"id": "a", "image": "x.jpg", "caption": "a cat"}),
            (3, {"id": "b", "image": "y.jpg", "caption": "a dog"}),
        ]
        assert [c.id for c in load_image_captions(path)] == ["a", "b"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"k": 1}\r\n{"k": [2, "\u00e9"]}\r\n',  # CRLF line ends
            '{"k": 1}\n{"k": [2, "\u00e9"]}',  # no newline after the last line
            '  {"k": 1}\n\t{"k": [2, "\u00e9"]}\n',  # leading whitespace
            '{"k": 1}  \n{"k": [2, "\u00e9"]} \t\n',  # trailing whitespace
            '{"k": 1}\r{"k": [2, "\u00e9"]}\r',  # CR line ends
        ],
        ids=["crlf", "no-final-newline", "leading-space", "trailing-space", "cr"],
    )
    def test_line_layout_keeps_rows(self, tmp_path, text):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert list(iter_jsonl_with_lines(path)) == [(1, {"k": 1}), (2, {"k": [2, "\u00e9"]})]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{oops", "Expecting property name enclosed in double quotes"),
            ("{} {}", "Extra data"),
            ('{"k": 1}{"k": 2}', "Extra data"),
            ('{"k": 1', "Expecting ',' delimiter"),
            ("nope", "Expecting value"),
        ],
        ids=["broken", "two-objects", "two-objects-joined", "unclosed", "not-json"],
    )
    def test_invalid_json_names_line(self, tmp_path, line, message):
        path = tmp_path / "img.jsonl"
        path.write_text(
            '{"id": "a", "image": "x.jpg", "caption": "a cat"}\n'
            + line
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(CorpusFormatError) as raised:
            load_image_captions(path)
        assert str(raised.value) == f"{path}: line 2: invalid JSON: {message}"

    def test_byte_order_mark_named(self, tmp_path):
        path = tmp_path / "img.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"id": "a", "image": "x.jpg", "caption": "a cat"}\n')
        with pytest.raises(CorpusFormatError) as raised:
            load_image_captions(path)
        assert str(raised.value) == (
            f"{path}: line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        )

    @pytest.mark.parametrize(
        "line", ['["not", "an", "object"]', "[1]", "NaN", "7", '"text"', "null"]
    )
    def test_non_object_line_rejected(self, tmp_path, line):
        path = tmp_path / "img.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as raised:
            load_image_captions(path)
        assert str(raised.value) == f"{path}: line 1: expected an object"

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
        assert [o for _, o in iter_jsonl_with_lines(path)] == [
            {**r._asdict(), "media": list(r.media)} for r in records
        ]

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

    @pytest.mark.parametrize(
        "row, message",
        [
            (
                {"id": "r2", "media": [], "task": "IIG", "question": "q"},
                "record missing fields: answer, meta",
            ),
            (
                {"id": "r2", "media": [], "task": "IIG", "question": "q", "answer": ""},
                "record missing fields: meta",
            ),
            (
                {"id": "r2", "media": [], "task": "IIG", "question": "q", "answer": "",
                 "meta": {}},
                "record 'r2' has an empty question or answer",
            ),
            (
                {"id": "r2", "media": ["a.jpg", 5], "task": 3, "question": "q",
                 "answer": "a", "meta": []},
                "record fields of wrong type: task, meta, media",
            ),
        ],
    )
    def test_bad_row_names_line(self, tmp_path, row, message):
        path = tmp_path / "out.jsonl"
        write_rows([InstructionRecord("r1", (), "IIG", "q", "a", {})._asdict(), row], path)
        with pytest.raises(CorpusFormatError) as excinfo:
            corpus_stats(path)
        assert str(excinfo.value) == f"{path}: line 2: {message}"
