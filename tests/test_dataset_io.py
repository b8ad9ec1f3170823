"""Corpus loading, mixing, serialization, and the remote caption fetcher."""

import hashlib
import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from seq2time.dataset_io import (
    RECORD_KEY_ORDER,
    CaptionFetchResult,
    ClipStub,
    CorpusConfig,
    CorpusStats,
    InstructionRecord,
    corpus_stats,
    derive_record_seed,
    fetch_clip_captions,
    load_clip_captions,
    load_image_captions,
    mix_corpora,
    read_jsonl,
    read_records,
    validate_ratios,
    write_jsonl,
)
from seq2time.errors import (
    CaptionProtocolError,
    ConfigError,
    CorpusFormatError,
    StreamExhaustedError,
)
from seq2time.position_token import TimeRepresentation

from conftest import write_clip_source, write_image_source


class TestDeriveRecordSeed:
    def test_frozen_values(self):
        # regression anchors: changing these re-rolls every shipped corpus
        assert derive_record_seed(0, 0, "image-seq") == 1917915649756832745
        assert derive_record_seed(7, 3) == 6000735022776850789

    def test_matches_sha256_prefix(self):
        digest = hashlib.sha256(b"clip-seq:42:17").digest()
        expected = int.from_bytes(digest[:8], "big")
        assert derive_record_seed(42, 17, "clip-seq") == expected

    def test_distinct_across_ordinals_and_namespaces(self):
        seeds = {
            derive_record_seed(seed, ordinal, ns)
            for seed in (0, 1)
            for ordinal in range(50)
            for ns in ("image-seq", "clip-seq")
        }
        assert len(seeds) == 2 * 50 * 2

    def test_in_uint64_range(self):
        for ordinal in range(100):
            value = derive_record_seed(123, ordinal)
            assert 0 <= value < 2**64


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
        assert list(read_records(path)) == records

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
        assert list(read_jsonl(path)) == [{"k": 1}]


class TestMixCorpora:
    def test_requires_matching_names(self):
        with pytest.raises(ConfigError, match="disagree"):
            list(mix_corpora({"a": []}, {"b": 1.0}, 1, seed=0))

    def test_ratio_validation(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            validate_ratios({"a": 0.5, "b": 0.4})
        with pytest.raises(ConfigError, match=">= 0"):
            validate_ratios({"a": 1.5, "b": -0.5})
        with pytest.raises(ConfigError, match="at least one"):
            validate_ratios({})

    def test_negative_total_rejected(self):
        with pytest.raises(ConfigError, match="total_n"):
            list(mix_corpora({"a": [1]}, {"a": 1.0}, -1, seed=0))

    def test_zero_total_is_empty(self):
        assert list(mix_corpora({"a": [1, 2]}, {"a": 1.0}, 0, seed=0)) == []

    def test_deterministic(self):
        sources = lambda: {"a": list(range(100)), "b": list(range(100, 200))}
        one = list(mix_corpora(sources(), {"a": 0.5, "b": 0.5}, 80, seed=9))
        two = list(mix_corpora(sources(), {"a": 0.5, "b": 0.5}, 80, seed=9))
        assert one == two

    def test_source_order_preserved(self):
        sources = {"a": list(range(500)), "b": list(range(1000, 1500))}
        out = list(mix_corpora(sources, {"a": 0.5, "b": 0.5}, 400, seed=3))
        from_a = [x for x in out if x < 1000]
        from_b = [x for x in out if x >= 1000]
        assert from_a == sorted(from_a)
        assert from_b == sorted(from_b)
        assert from_a and from_b

    def test_ratios_respected_within_3_sigma(self):
        n, p = 10_000, 0.3
        sources = {"a": ["a"] * n, "b": ["b"] * n}
        out = list(mix_corpora(sources, {"a": p, "b": 1 - p}, n, seed=123))
        count_a = out.count("a")
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(count_a - n * p) <= 3 * sigma

    def test_zero_ratio_source_never_drawn(self):
        sources = {"a": ["a"] * 50, "b": ["b"] * 50}
        out = list(mix_corpora(sources, {"a": 1.0, "b": 0.0}, 50, seed=1))
        assert out == ["a"] * 50

    def test_exhaustion_raises_with_position(self):
        sources = {"a": ["x", "y"]}
        with pytest.raises(
            StreamExhaustedError, match=r"source 'a' exhausted at output position 2"
        ):
            list(mix_corpora(sources, {"a": 1.0}, 5, seed=0))

    def test_replacement_restarts_source(self):
        sources = {"a": ["x", "y"]}
        out = list(
            mix_corpora(sources, {"a": 1.0}, 7, seed=0, allow_replacement=True)
        )
        assert out == ["x", "y", "x", "y", "x", "y", "x"]

    def test_replacement_with_empty_source_still_fails(self):
        sources = {"a": []}
        with pytest.raises(StreamExhaustedError):
            list(mix_corpora(sources, {"a": 1.0}, 1, seed=0, allow_replacement=True))


class TestCorpusConfig:
    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="counts must be >= 0"):
            CorpusConfig(
                sources={"a": "a.jsonl"},
                counts={"a": -1},
                ratios={"a": 1.0},
                seed=0,
                time_repr=TimeRepresentation.RPT,
            )


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


# ---------------------------------------------------------------------------
# caption service


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Replays a per-clip script of (kind, payload) responses."""

    script: dict = {}
    requests_seen: list = []

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append((self.path, body))
        steps = self.script.get(body.get("clip_id"), [("json", None)])
        kind, payload = steps.pop(0) if len(steps) > 1 else steps[0]
        if kind == "status":
            self.send_response(payload)
            self.end_headers()
            return
        if kind == "raw":
            data = payload
        else:  # "json"
            if payload is None:
                payload = {"clip_id": body["clip_id"], "caption": "scripted caption"}
            data = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture
def caption_server():
    servers = []

    def start(script):
        handler = type(
            "Handler", (_ScriptedHandler,), {"script": script, "requests_seen": []}
        )
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}", handler

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _stub(clip_id="c1"):
    return ClipStub(
        id=clip_id, video=f"clips/{clip_id}.mp4", label="pouring tea",
        duration_s=8.0, fps=30.0,
    )


class TestFetchClipCaptions:
    def test_success_builds_clip(self, caption_server):
        endpoint, handler = caption_server(
            {"c1": [("json", {"clip_id": "c1", "caption": " a person pours tea "})]}
        )
        result = fetch_clip_captions(endpoint, [_stub()])
        assert isinstance(result, CaptionFetchResult)
        assert result.failures == []
        (clip,) = result.corpus
        assert clip.id == "c1"
        assert clip.caption == "a person pours tea"  # trimmed
        assert clip.video == "clips/c1.mp4"
        assert clip.label == "pouring tea"
        assert clip.duration_s == 8.0
        assert clip.fps == 30.0
        path, body = handler.requests_seen[0]
        assert path == "/caption"
        assert body == {
            "clip_id": "c1",
            "video_uri": "clips/c1.mp4",
            "action_label": "pouring tea",
        }

    def test_persistent_500_fails_clip_but_run_continues(self, caption_server):
        endpoint, handler = caption_server(
            {"c1": [("status", 500)], "c2": [("json", None)]}
        )
        sleeps = []
        result = fetch_clip_captions(
            endpoint,
            [_stub("c1"), _stub("c2")],
            backoff_s=0.01,
            sleep=sleeps.append,
        )
        (failure,) = result.failures
        assert failure.clip_id == "c1"
        assert failure.attempts == 3
        assert failure.reason == "HTTP 500"
        assert [c.id for c in result.corpus] == ["c2"]
        assert len([r for r in handler.requests_seen if r[1]["clip_id"] == "c1"]) == 3

    def test_backoff_doubles(self, caption_server):
        endpoint, _ = caption_server({"c1": [("status", 503)]})
        sleeps = []
        fetch_clip_captions(
            endpoint, [_stub()], backoff_s=0.01, sleep=sleeps.append
        )
        assert sleeps == [0.01, 0.02]

    def test_flaky_then_success(self, caption_server):
        endpoint, _ = caption_server(
            {
                "c1": [
                    ("status", 502),
                    ("status", 502),
                    ("json", {"clip_id": "c1", "caption": "finally"}),
                ]
            }
        )
        sleeps = []
        result = fetch_clip_captions(
            endpoint, [_stub()], backoff_s=0.01, sleep=sleeps.append
        )
        assert result.failures == []
        assert result.corpus[0].caption == "finally"
        assert sleeps == [0.01, 0.02]

    def test_malformed_200_raises_protocol_error(self, caption_server):
        endpoint, _ = caption_server(
            {"c1": [("json", {"clip_id": "c1"})]}  # caption missing
        )
        with pytest.raises(CaptionProtocolError, match="'c1'"):
            fetch_clip_captions(endpoint, [_stub()], sleep=lambda s: None)

    def test_mismatched_clip_id_raises(self, caption_server):
        endpoint, _ = caption_server(
            {"c1": [("json", {"clip_id": "other", "caption": "x"})]}
        )
        with pytest.raises(CaptionProtocolError, match="mismatching"):
            fetch_clip_captions(endpoint, [_stub()], sleep=lambda s: None)

    def test_non_json_200_raises(self, caption_server):
        endpoint, _ = caption_server({"c1": [("raw", b"<html>hi</html>")]})
        with pytest.raises(CaptionProtocolError, match="not JSON"):
            fetch_clip_captions(endpoint, [_stub()], sleep=lambda s: None)

    def test_connection_refused_becomes_failure(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        result = fetch_clip_captions(
            f"http://127.0.0.1:{port}", [_stub()], sleep=lambda s: None
        )
        (failure,) = result.failures
        assert failure.attempts == 3
        assert failure.reason.startswith("request failed")

    def test_max_attempts_validation(self):
        with pytest.raises(ConfigError, match="max_attempts"):
            fetch_clip_captions("http://example.invalid", [_stub()], max_attempts=0)

    def test_trailing_slash_endpoint(self, caption_server):
        endpoint, handler = caption_server({"c1": [("json", None)]})
        fetch_clip_captions(endpoint + "/", [_stub()])
        assert handler.requests_seen[0][0] == "/caption"
