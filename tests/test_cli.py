"""End-to-end CLI behavior: flags, config files, exit codes, output text."""

import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import seq2time.cli as cli
from seq2time.cli import main
from seq2time.clip_sequence import ClipCorpusConfig, build_clip_corpus
from seq2time.corpus import Corpus
from seq2time.dataset_io import corpus_stats, write_jsonl
from seq2time.errors import InvariantViolation
from seq2time.evaluation import load_ground_truth
from seq2time.image_sequence import CaptionedImage, ImageCorpusConfig, build_image_corpus

from conftest import write_clip_source, write_image_source, write_rows
from pinned_digests import pinned_eval_run

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv("SEQ2TIME_CONFIG", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodecCommands:
    def test_tokenize_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "tokenize", "7", "96")
        assert code == 0
        assert out == "<0><7><2><9>\n"

    def test_tokenize_json(self, capsys):
        code, out, _ = run_cli(capsys, "tokenize", "7", "96", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["code"] == "<0><7><2><9>"
        assert payload["fraction"] == 0.0729

    def test_tokenize_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "tokenize", "97", "96")
        assert code == 2
        assert "error:" in err

    def test_detokenize_with_duration(self, capsys):
        code, out, _ = run_cli(
            capsys, "detokenize", "<0><7><2><9>", "--duration", "60"
        )
        assert code == 0
        assert out == "4.374\n"

    def test_detokenize_fraction_only(self, capsys):
        code, out, _ = run_cli(capsys, "detokenize", "<5><0><0><0>")
        assert code == 0
        assert out == "0.5\n"

    def test_detokenize_bad_token(self, capsys):
        code, _, err = run_cli(capsys, "detokenize", "<5><0><0>", "--duration", "60")
        assert code == 2
        assert "error:" in err

    def test_detokenize_bad_duration(self, capsys):
        code, _, err = run_cli(
            capsys, "detokenize", "<5><0><0><0>", "--duration", "-1"
        )
        assert code == 2
        assert "--duration" in err

    def test_detokenize_nan_duration(self, capsys):
        code, out, err = run_cli(
            capsys, "detokenize", "<5><0><0><0>", "--duration", "nan"
        )
        assert (code, out) == (2, "")
        assert "finite" in err


class TestAnalyzeQuantization:
    def test_rounding_only_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze-quantization",
            "--duration", "60",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "rounding_only"
        assert 0.002 <= payload["mean_relative_error_pct"] <= 0.003
        assert payload["max_abs_error_s"] <= 0.003 + 1e-9
        # exact closed form, not a grid estimate
        assert payload["mean_abs_error_s"] == 0.0015
        assert payload["max_abs_error_s"] == 0.003
        assert payload["mean_relative_error_pct"] == 0.0025

    def test_grid_points_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze-quantization", "--duration", "60", "--grid-points", "10"])
        assert excinfo.value.code == 2
        assert "--grid-points" in capsys.readouterr().err

    def test_long_video_frame_sampling(self, capsys):
        # 3e13 source frames: summed per reconstruction, not per frame
        code, out, _ = run_cli(
            capsys,
            "analyze-quantization",
            "--duration", "1e12",
            "--model", "frame-sampling",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_abs_error_s"] == pytest.approx(1.04e10)
        assert 0.2 < payload["mean_relative_error_pct"] < 0.3

    def test_frame_sampling_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze-quantization",
            "--duration", "60",
            "--fps", "30",
            "--frames", "96",
            "--model", "frame-sampling",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "frame_sampling"
        assert payload["mean_abs_error_s"] > 0.05

    @pytest.mark.parametrize(
        "argv",
        [
            ["--duration", "60", "--fps", "inf", "--model", "frame-sampling"],
            ["--duration", "nan"],
        ],
        ids=["inf-fps", "nan-duration"],
    )
    def test_non_finite_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze-quantization", *argv)
        assert (code, out) == (2, "")
        assert "finite" in err


class TestBuildImageSeq:
    def test_build_writes_records(self, capsys, image_source, tmp_path):
        out_path = tmp_path / "corpus.jsonl"
        code, out, _ = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(out_path),
            "--n", "30",
            "--seed", "4",
        )
        assert code == 0
        assert f"wrote 30 records to {out_path}" in out
        assert len(out_path.read_text().splitlines()) == 30

    def test_json_output(self, capsys, image_source, tmp_path):
        out_path = tmp_path / "corpus.jsonl"
        code, out, _ = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(out_path),
            "--n", "10",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] == 10
        assert payload["stats"]["total"] == 10

    def test_same_seed_same_bytes(self, capsys, image_source, tmp_path):
        digests = []
        for name in ("a.jsonl", "b.jsonl"):
            out_path = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "build-image-seq",
                "--source", str(image_source),
                "--output", str(out_path),
                "--n", "25",
                "--seed", "7",
                "--time-repr", "free_form",
            )
            assert code == 0
            digests.append(hashlib.sha256(out_path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_jobs_do_not_change_bytes(self, capsys, image_source, tmp_path):
        digests = []
        for name, jobs in (("a.jsonl", "1"), ("b.jsonl", "2")):
            out_path = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "build-image-seq",
                "--source", str(image_source),
                "--output", str(out_path),
                "--n", "40",
                "--seed", "2",
                "--jobs", jobs,
            )
            assert code == 0
            digests.append(hashlib.sha256(out_path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_zero_jobs_is_config_error(self, capsys, image_source, tmp_path):
        out_path = tmp_path / "out.jsonl"
        code, _, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(out_path),
            "--n", "4",
            "--jobs", "0",
        )
        assert code == 2
        assert "jobs must be >= 1, got 0" in err
        assert not out_path.exists()

    def test_missing_source_names_path(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(tmp_path / "nope.jsonl"),
            "--output", str(tmp_path / "out.jsonl"),
            "--n", "1",
        )
        assert code == 2
        assert "nope.jsonl" in err

    def test_missing_required_option(self, capsys, image_source, tmp_path):
        code, _, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--n", "1",
        )
        assert code == 2
        assert "--output" in err

    def test_max_targets_cap(self, capsys, image_source, tmp_path):
        out_path = tmp_path / "out.jsonl"
        args = [
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(out_path),
            "--n", "5",
            "--max-targets", "6",
        ]
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "--allow-nonstandard" in err

        code, _, _ = run_cli(capsys, *args, "--allow-nonstandard")
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 5

    def test_malformed_source_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a"}\n', encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(bad),
            "--output", str(tmp_path / "out.jsonl"),
            "--n", "1",
        )
        assert code == 4
        assert "missing field" in err

    def test_wrong_shaped_template_bank_is_config_error(
        self, capsys, image_source, tmp_path
    ):
        bank = tmp_path / "bank.json"
        bank.write_text('{"iig": {"single": "x"}}', encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(tmp_path / "out.jsonl"),
            "--n", "1",
            "--templates", str(bank),
        )
        assert (code, out) == (2, "")
        assert "iig/single must be an object" in err

    def test_rpt_seq_len_limit(self, capsys, tmp_path):
        # above 5000 positions, four-digit codes stop decoding back to
        # unique indices, so such a config is refused before any output
        rows = [
            {"id": f"img-{k}", "image": f"images/{k}.jpg", "caption": f"photo {k}"}
            for k in range(5001)
        ]
        source = tmp_path / "images.jsonl"
        write_rows(rows, source)
        out_path = tmp_path / "corpus.jsonl"
        args = [
            "build-image-seq",
            "--source", str(source),
            "--output", str(out_path),
            "--n", "2",
            "--time-repr", "rpt",
        ]
        code, _, _ = run_cli(capsys, *args, "--seq-len", "5000")
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 2

        code, _, err = run_cli(capsys, *args, "--seq-len", "5001")
        assert code == 2
        assert "seq_len 5001 exceeds 5000" in err


class TestBuildClipSeq:
    def test_build_writes_records(self, capsys, clip_source, tmp_path):
        out_path = tmp_path / "corpus.jsonl"
        code, out, _ = run_cli(
            capsys,
            "build-clip-seq",
            "--source", str(clip_source),
            "--output", str(out_path),
            "--n", "20",
            "--seed", "3",
        )
        assert code == 0
        assert "wrote 20 records" in out
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert {row["task"] for row in rows} <= {"DVC", "TVG"}

    def test_clip_range_flags(self, capsys, clip_source, tmp_path):
        out_path = tmp_path / "corpus.jsonl"
        code, _, _ = run_cli(
            capsys,
            "build-clip-seq",
            "--source", str(clip_source),
            "--output", str(out_path),
            "--n", "15",
            "--clip-min", "3",
            "--clip-max", "3",
        )
        assert code == 0
        for line in out_path.read_text().splitlines():
            assert len(json.loads(line)["media"]) == 3

    def test_bad_clip_range(self, capsys, clip_source, tmp_path):
        code, _, err = run_cli(
            capsys,
            "build-clip-seq",
            "--source", str(clip_source),
            "--output", str(tmp_path / "out.jsonl"),
            "--n", "1",
            "--clip-min", "1",
        )
        assert code == 2
        assert "clip_min and clip_max" in err

    def test_infinite_rate_is_config_error(self, capsys, clip_source, tmp_path):
        output = tmp_path / "out.jsonl"
        code, _, err = run_cli(
            capsys,
            "build-clip-seq",
            "--source", str(clip_source),
            "--output", str(output),
            "--n", "1",
            "--rate-max", "inf",
        )
        assert code == 2
        assert "rate_min and rate_max" in err
        assert not output.exists()

    @pytest.mark.parametrize("total", [2**49, 2**53, 10**18])
    def test_frame_total_from_2_to_the_49_is_a_config_error(
        self, capsys, clip_source, tmp_path, total
    ):
        # float frame quotas could miss such a total; refused at load, not at exit 3
        output = tmp_path / "out.jsonl"
        code, out, err = run_cli(
            capsys, "build-clip-seq", "--source", str(clip_source),
            "--output", str(output), "--n", "40", "--total-frames", str(total),
        )
        assert (code, out) == (2, "")
        assert err == f"error: total_frames {total} must be below {2**49}\n"
        assert not output.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_clip_duration_is_data_error(self, capsys, tmp_path, value):
        source = tmp_path / "clips.jsonl"
        source.write_text(
            '{"id": "c", "video": "v.mp4", "label": "x", "caption": "c",'
            f' "duration_s": {value}, "fps": 30}}\n',
            encoding="utf-8",
        )
        output = tmp_path / "out.jsonl"
        code, _, err = run_cli(
            capsys, "build-clip-seq", "--source", str(source),
            "--output", str(output), "--n", "1",
        )
        assert code == 4
        assert "line 1: field duration_s must be a positive number" in err
        assert not output.exists()


BUILDS = {
    "image": ("build-image-seq", ImageCorpusConfig, build_image_corpus),
    "clip": ("build-clip-seq", ClipCorpusConfig, build_clip_corpus),
}


# every flag that feeds a build's config, each at a value other than its default
NON_DEFAULT_FLAGS = {
    "image": ["--seq-len", "8", "--max-targets", "3"],
    "clip": [
        "--total-frames", "50",
        "--clip-min", "3",
        "--clip-max", "4",
        "--rate-min", "0.7",
        "--rate-max", "1.5",
    ],
}


class TestBuildFlags:
    """Every build config field is reachable from the command line."""

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_every_config_field_has_a_flag(
        self, capsys, request, tmp_path, monkeypatch, kind
    ):
        # a config field that no flag moves off its default is a setting
        # only library callers can reach
        subcommand, make_config, _ = BUILDS[kind]
        configs = []
        corpus = getattr(cli, f"{kind}_corpus")

        def spy(config, pool, bank):
            configs.append(config)
            return corpus(config, pool, bank)

        monkeypatch.setattr(cli, f"{kind}_corpus", spy)
        code, _, _ = run_cli(
            capsys,
            subcommand,
            "--source", str(request.getfixturevalue(f"{kind}_source")),
            "--output", str(tmp_path / "corpus.jsonl"),
            "--n", "5",
            "--seed", "4",
            "--time-repr", "free-form",
            "--jobs", "1",
            *NON_DEFAULT_FLAGS[kind],
        )
        assert code == 0
        (config,) = configs
        # a required field has no default, and every run sets it
        for name, default in make_config._field_defaults.items():
            assert getattr(config, name) != default, name

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_negative_n_is_config_error(self, capsys, request, tmp_path, kind):
        output = tmp_path / "out.jsonl"
        code, out, err = run_cli(
            capsys, BUILDS[kind][0],
            "--source", str(request.getfixturevalue(f"{kind}_source")),
            "--output", str(output), "--n", "-1",
        )
        assert (code, out) == (2, "")
        assert "n_instances must be >= 0, got -1" in err
        assert not output.exists()


class TestCorpusWriter:
    """The CLI writes what the record-yielding library path would write."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_matches_library_path(self, capsys, request, tmp_path, pool_above_16, kind, jobs):
        subcommand, make_config, build = BUILDS[kind]
        source = request.getfixturevalue(f"{kind}_source")
        out_path, reference = tmp_path / "corpus.jsonl", tmp_path / "reference.jsonl"
        code, out, _ = run_cli(
            capsys,
            subcommand,
            "--source", str(source),
            "--output", str(out_path),
            "--n", "40",
            "--seed", "6",
            "--jobs", str(jobs),
            "--json",
        )
        assert code == 0
        assert bool(pool_above_16) == (jobs == 2)
        pool = request.getfixturevalue(f"{kind}_pool")
        write_jsonl(build(make_config(n_instances=40, seed=6), pool), reference)
        assert out_path.read_bytes() == reference.read_bytes()
        payload = json.loads(out)
        assert payload["records"] == 40
        assert payload["stats"] == corpus_stats(out_path).to_dict()

    # the failing range is one of many, some of them already written, at
    # both --jobs values (ranges run in-process at --jobs 1 are 16
    # ordinals); fork-started workers inherit the patched class
    @pytest.mark.parametrize("n, jobs, fail_at", [(40, 1, 20), (300, 2, 150)])
    def test_invariant_violation_keeps_existing_output(
        self, capsys, image_source, tmp_path, monkeypatch, pool_above_16, n, jobs, fail_at
    ):
        real = Corpus.record

        def fail_at_ordinal(corpus, ordinal, rng):
            if ordinal == fail_at:
                raise InvariantViolation("synthetic failure")
            return real(corpus, ordinal, rng)

        monkeypatch.setattr(Corpus, "record", fail_at_ordinal)
        out_path = tmp_path / "corpus.jsonl"
        out_path.write_bytes(b"previous corpus\n")
        code, _, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(out_path),
            "--n", str(n),
            "--jobs", str(jobs),
        )
        assert code == 3
        assert bool(pool_above_16) == (jobs == 2)
        assert "synthetic failure" in err
        assert out_path.read_bytes() == b"previous corpus\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "images.jsonl"]

    def test_dead_worker_is_one_line_and_exit_4(
        self, capsys, image_source, tmp_path, monkeypatch, pool_above_16
    ):
        real, parent = Corpus.record, os.getpid()

        def die_at_150(corpus, ordinal, rng):
            if ordinal == 150 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(corpus, ordinal, rng)

        monkeypatch.setattr(Corpus, "record", die_at_150)
        out_path = tmp_path / "corpus.jsonl"
        out_path.write_bytes(b"previous corpus\n")
        code, out, err = run_cli(
            capsys, "build-image-seq", "--source", str(image_source),
            "--output", str(out_path), "--n", "300", "--jobs", "2",
        )
        assert (code, out) == (4, "")
        assert re.fullmatch(r"error: worker process \d+ ended by signal 9\n", err)
        assert pool_above_16
        assert out_path.read_bytes() == b"previous corpus\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "images.jsonl"]
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_small_clip_pool_keeps_existing_output(self, capsys, clip_pool, tmp_path):
        source = write_clip_source(clip_pool[:5], tmp_path / "clips.jsonl")
        out_path = tmp_path / "corpus.jsonl"
        out_path.write_bytes(b"previous corpus\n")
        code, _, err = run_cli(
            capsys,
            "build-clip-seq",
            "--source", str(source),
            "--output", str(out_path),
            "--n", "20",
            "--clip-max", "10",
        )
        assert code == 2
        assert "cannot fill" in err
        assert out_path.read_bytes() == b"previous corpus\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clips.jsonl", "corpus.jsonl"]

    @pytest.mark.parametrize("n", ["0", "20"])
    def test_small_image_pool_keeps_existing_output(
        self, capsys, image_pool, tmp_path, n
    ):
        source = write_image_source(image_pool[:200], tmp_path / "images.jsonl")
        out_path = tmp_path / "corpus.jsonl"
        out_path.write_bytes(b"previous corpus\n")
        code, _, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(source),
            "--output", str(out_path),
            "--n", n,
            "--seq-len", "300",
        )
        assert code == 2
        assert "pool of 200 images cannot fill a sequence of 300" in err
        assert out_path.read_bytes() == b"previous corpus\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "images.jsonl"]

    @pytest.mark.parametrize(
        "time_repr, caption",
        [("free-form", "3 dogs playing"), ("rpt", "a sign reading <1><2><3><4>")],
    )
    def test_caption_reading_as_a_position_keeps_existing_output(
        self, capsys, image_pool, tmp_path, time_repr, caption
    ):
        # such a caption would parse back as a position of its own answer
        rows = [{"id": c.id, "image": c.image, "caption": c.caption} for c in image_pool]
        rows[321]["caption"] = caption
        source = tmp_path / "images.jsonl"
        write_rows(rows, source)
        out_path = tmp_path / "corpus.jsonl"
        out_path.write_bytes(b"previous corpus\n")
        code, _, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(source),
            "--output", str(out_path),
            "--n", "20",
            "--time-repr", time_repr,
        )
        assert code == 2
        assert f"image {image_pool[321].id!r}" in err
        assert out_path.read_bytes() == b"previous corpus\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "images.jsonl"]


    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\u2028"], ids=["lf", "crlf", "ls"])
    def test_clip_caption_with_line_break_keeps_existing_output(
        self, capsys, clip_pool, tmp_path, brk
    ):
        # DVC answers hold one event per line, so such a caption would
        # split its event and the answer would not parse back
        pool = list(clip_pool)
        pool[7] = pool[7]._replace(caption=f"a person is{brk}juggling")
        source = write_clip_source(pool, tmp_path / "clips.jsonl")
        out_path = tmp_path / "corpus.jsonl"
        out_path.write_bytes(b"previous corpus\n")
        code, _, err = run_cli(
            capsys,
            "build-clip-seq",
            "--source", str(source),
            "--output", str(out_path),
            "--n", "20",
            "--time-repr", "free-form",
        )
        assert code == 2
        assert f"clip {pool[7].id!r} has a caption with a line break" in err
        assert out_path.read_bytes() == b"previous corpus\n"

    def test_caption_holding_a_slot_marker_is_kept_verbatim(
        self, capsys, image_pool, tmp_path
    ):
        rows = [{"id": c.id, "image": c.image, "caption": c.caption} for c in image_pool]
        for row in rows:
            row["caption"] += " by <INDEX>"
        source = tmp_path / "images.jsonl"
        write_rows(rows, source)
        out_path = tmp_path / "corpus.jsonl"
        code, _, _ = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(source),
            "--output", str(out_path),
            "--n", "20",
            "--time-repr", "free-form",
        )
        assert code == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert all(" by <INDEX>" in r["question"] + r["answer"] for r in records)


def _bank_with(tmp_path, task, arity, template, kind="answers"):
    """The packaged bank with every ``task``/``arity`` template of ``kind``
    set to ``template``."""
    data = json.loads((SRC / "seq2time" / "data" / "template_bank.json").read_text())
    data[task][arity][kind] = [template] * 10
    path = tmp_path / "bank.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestCustomTemplateBanks:
    """A bank whose records could not parse back is refused (exit 2)."""

    @pytest.mark.parametrize(
        "task, answer, message",
        [
            ("dvc", "Events: <EVENTS>", "dvc/single answer template does not parse back"),
            ("tvg", "The span is <INTERVAL>.", "tvg/single answer template does not parse back"),
        ],
        ids=["dvc", "tvg"],
    )
    def test_event_slot_off_its_line(self, capsys, clip_source, tmp_path, task, answer, message):
        out_path = tmp_path / "corpus.jsonl"
        code, out, err = run_cli(
            capsys,
            "build-clip-seq",
            "--source", str(clip_source),
            "--output", str(out_path),
            "--n", "20",
            "--templates", str(_bank_with(tmp_path, task, "single", answer)),
        )
        assert (code, out) == (2, "")
        assert message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("given", ["flag", "config-key"])
    @pytest.mark.parametrize("kind", ["image", "clip"])
    def test_missing_bank_file_is_a_config_error(self, capsys, request, tmp_path, kind, given):
        # named like every other missing input file, before the source is read
        bank, out_path = tmp_path / "gone" / "bank.json", tmp_path / "corpus.jsonl"
        source = request.getfixturevalue(f"{kind}_source")
        options = {"source": str(source), "output": str(out_path), "n": 5}
        if given == "flag":
            argv = [part for key, value in options.items() for part in (f"--{key}", str(value))]
            argv += ["--templates", str(bank)]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({**options, "templates": str(bank)}), encoding="utf-8")
            argv = ["--config", str(config)]
        code, out, err = run_cli(capsys, f"build-{kind}-seq", *argv)
        assert (code, out) == (2, "")
        assert f"template bank file not found: {bank}" in err
        assert not out_path.exists()

    def test_image_answer_reading_as_a_position(self, capsys, image_source, tmp_path):
        # "96" is a position in free form, but not a code in rpt
        bank = _bank_with(tmp_path, "iig", "single", "Out of 96 images, the index is <INDEX>.")
        out_path = tmp_path / "corpus.jsonl"
        args = [
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(out_path),
            "--n", "20",
            "--templates", str(bank),
        ]
        code, _, err = run_cli(capsys, *args, "--time-repr", "free-form")
        assert code == 2
        assert "iig/single answer template does not parse back in free_form answers" in err
        assert not out_path.exists()
        code, _, _ = run_cli(capsys, *args, "--time-repr", "rpt")
        assert code == 0

    @pytest.mark.parametrize(
        "task, arity, answer, time_repr",
        [
            # a fixed line that is itself an event adds one to every answer
            ("dvc", "single", "0 - 1 seconds, intro\n<EVENTS>", "free-form"),
            ("dvc", "single", "<0><0><0><0><0><1><0><0> intro\n<EVENTS>", "rpt"),
            ("tvg", "single", "<INTERVAL>\n0 - 1 seconds, intro", "free-form"),
            # a lone <1> merges with the first digit of the position code
            ("iig", "multi", "Index <1><INDEX>.", "rpt"),
        ],
        ids=["dvc-free-form", "dvc-rpt", "tvg-free-form", "iig-rpt"],
    )
    def test_answer_text_that_does_not_parse_back(
        self, capsys, request, tmp_path, task, arity, answer, time_repr
    ):
        kind = "clip" if task in ("dvc", "tvg") else "image"
        out_path = tmp_path / "corpus.jsonl"
        code, out, err = run_cli(
            capsys,
            f"build-{kind}-seq",
            "--source", str(request.getfixturevalue(f"{kind}_source")),
            "--output", str(out_path),
            "--n", "200",
            "--time-repr", time_repr,
            "--templates", str(_bank_with(tmp_path, task, arity, answer)),
        )
        assert (code, out) == (2, "")
        assert (
            f"{task}/{arity} answer template does not parse back in "
            f"{time_repr.replace('-', '_')} answers: {answer!r}"
        ) in err
        assert not out_path.exists()


    @pytest.mark.parametrize(
        "answer, caption",
        [
            ("Image <INDEX> shows <CAPTION><4>.", "{} <1><2><3>"),
            ("Image <INDEX> shows <1><CAPTION>.", "<2><3><4> {}"),
        ],
        ids=["after", "before"],
    )
    def test_code_tokens_completing_a_caption_edge(
        self, capsys, image_pool, tmp_path, answer, caption
    ):
        # an rpt caption may start or end in three code tokens; fixed code
        # tokens next to it would read as one more position in every answer
        pool = [
            CaptionedImage(image.id, image.image, caption.format(image.caption))
            for image in image_pool
        ]
        out_path = tmp_path / "corpus.jsonl"
        code, out, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(write_image_source(pool, tmp_path / "images.jsonl")),
            "--output", str(out_path),
            "--n", "200",
            "--max-targets", "1",
            "--time-repr", "rpt",
            "--templates", str(_bank_with(tmp_path, "iic", "single", answer)),
        )
        assert (code, out) == (2, "")
        assert "iic/single answer template does not parse back in rpt answers" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "kind, task, question, slot",
        [
            ("image", "iig", "Which image shows <CAPTION>? It is <INDEX>.", "<INDEX>"),
            ("clip", "dvc", "Describe every event, such as <CAPTION>.", "<CAPTION>"),
        ],
        ids=["iig", "dvc"],
    )
    @pytest.mark.parametrize("n", ["0", "50"])
    def test_question_slot_its_task_never_fills(
        self, capsys, request, tmp_path, kind, task, question, slot, n
    ):
        # refused when the bank loads, before any record could draw it
        out_path = tmp_path / "corpus.jsonl"
        code, out, err = run_cli(
            capsys,
            f"build-{kind}-seq",
            "--source", str(request.getfixturevalue(f"{kind}_source")),
            "--output", str(out_path),
            "--n", n,
            "--templates", str(_bank_with(tmp_path, task, "single", question, "questions")),
        )
        assert (code, out) == (2, "")
        assert f"{task}/single/questions template holds {slot}" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "kind, task, kind_of_template, template, message",
        [
            (
                "image", "iig", "questions", "Which image shows <CAPTION>?\ud800",
                "iig/single/questions template holds a lone surrogate escape",
            ),
            ("clip", "dvc", "questions", "", "dvc/single/questions template is empty"),
            ("clip", "dvc", "questions", " ", "dvc/single/questions template is blank: ' '"),
            ("clip", "dvc", "questions", "\t\n", "dvc/single/questions template is blank"),
        ],
        ids=["lone-surrogate", "empty", "space", "tab-newline"],
    )
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_template_no_record_can_hold(
        self, capsys, request, tmp_path, kind, task, kind_of_template, template, message, jobs
    ):
        # refused when the bank loads: not a traceback or a data error mid-build
        out_path = tmp_path / "corpus.jsonl"
        code, out, err = run_cli(
            capsys,
            f"build-{kind}-seq",
            "--source", str(request.getfixturevalue(f"{kind}_source")),
            "--output", str(out_path),
            "--n", "40",
            "--jobs", jobs,
            "--templates",
            str(_bank_with(tmp_path, task, "single", template, kind_of_template)),
        )
        assert (code, out) == (2, "")
        assert message in err
        assert not out_path.exists()


class TestConfigFile:
    def _write_config(self, tmp_path, image_source, n=5):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "source": str(image_source),
                    "output": str(tmp_path / "from_config.jsonl"),
                    "n": n,
                    "seed": 3,
                }
            ),
            encoding="utf-8",
        )
        return cfg

    def test_config_flag(self, capsys, image_source, tmp_path):
        cfg = self._write_config(tmp_path, image_source)
        code, _, _ = run_cli(capsys, "build-image-seq", "--config", str(cfg))
        assert code == 0
        out_path = tmp_path / "from_config.jsonl"
        assert len(out_path.read_text().splitlines()) == 5

    def test_env_var(self, capsys, image_source, tmp_path, monkeypatch):
        cfg = self._write_config(tmp_path, image_source)
        monkeypatch.setenv("SEQ2TIME_CONFIG", str(cfg))
        code, _, _ = run_cli(capsys, "build-image-seq")
        assert code == 0
        assert (tmp_path / "from_config.jsonl").exists()

    def test_flag_overrides_config(self, capsys, image_source, tmp_path):
        cfg = self._write_config(tmp_path, image_source, n=5)
        code, _, _ = run_cli(
            capsys, "build-image-seq", "--config", str(cfg), "--n", "7"
        )
        assert code == 0
        out_path = tmp_path / "from_config.jsonl"
        assert len(out_path.read_text().splitlines()) == 7

    def test_config_must_be_json(self, capsys, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text("n = 5\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "build-image-seq", "--config", str(cfg))
        assert code == 2
        assert "only JSON configs are supported" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[1, 2]", "must hold a JSON object"),
            ('{"time_repr": "bogus"}', "unknown time representation 'bogus'; use rpt or free-form"),
        ],
        ids=["not-an-object", "unknown-time-repr"],
    )
    def test_refused_config_names_the_fault(
        self, capsys, image_source, tmp_path, content, message
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(content, encoding="utf-8")
        output = tmp_path / "out.jsonl"
        code, out, err = run_cli(
            capsys, "build-image-seq", "--config", str(cfg), "--source", str(image_source),
            "--output", str(output), "--n", "3",
        )
        assert (code, out) == (2, "")
        assert message in err
        assert not output.exists()

    def test_config_file_missing(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "build-image-seq", "--config", str(tmp_path / "gone.json")
        )
        assert code == 2
        assert "config file not found" in err

    @pytest.mark.parametrize(
        "sub, key, value",
        [
            ("build-image-seq", "n", "ten"),
            ("build-image-seq", "seq_len", None),
            ("build-clip-seq", "jobs", [2]),
            ("build-clip-seq", "rate_min", "slow"),
            ("build-image-seq", "n", True),
            ("build-image-seq", "seq_len", 8.9),
            # text options take JSON strings only, not values str() would name
            ("build-image-seq", "output", {"x": 1}),
            ("build-clip-seq", "output", 7),
            ("build-image-seq", "source", 7),
            ("build-clip-seq", "templates", ["bank.json"]),
            ("build-image-seq", "time_repr", 1),
        ],
        ids=[
            "n", "seq_len", "jobs", "rate_min", "n-bool", "seq_len-fraction",
            "output-object", "output-number", "source", "templates", "time_repr",
        ],
    )
    def test_wrong_type_value_is_config_error(
        self, capsys, monkeypatch, image_source, clip_source, tmp_path, sub, key, value
    ):
        monkeypatch.chdir(tmp_path)  # where a value taken for a file name would land
        source = image_source if sub == "build-image-seq" else clip_source
        output = tmp_path / "out.jsonl"
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"source": str(source), "output": str(output), "n": 3, key: value}),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, sub, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"--{key.replace('_', '-')} must be" in err
        inputs = {cfg.name, image_source.name, clip_source.name}
        assert {path.name for path in tmp_path.iterdir()} == inputs

    def test_unknown_key_is_config_error(self, capsys, image_source, tmp_path):
        output = tmp_path / "out.jsonl"
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"source": str(image_source), "output": str(output), "n": 3, "seq_length": 8}
            ),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "build-image-seq", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "unknown keys: seq_length" in err
        assert not output.exists()

    def test_one_config_serves_both_builders(
        self, capsys, image_source, clip_source, tmp_path
    ):
        # each builder accepts, and ignores, the other builder's keys
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps({"n": 3, "seq_len": 8, "total_frames": 48, "rate_max": 1.5}),
            encoding="utf-8",
        )
        for sub, source in (("build-image-seq", image_source), ("build-clip-seq", clip_source)):
            output = tmp_path / f"{sub}.jsonl"
            code, _, err = run_cli(
                capsys, sub, "--config", str(cfg), "--source", str(source),
                "--output", str(output),
            )
            assert code == 0, err
            assert len(output.read_text().splitlines()) == 3

    def test_integral_values_convert(self, capsys, image_source, tmp_path):
        output = tmp_path / "out.jsonl"
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {"source": str(image_source), "output": str(output), "n": "3",
                 "seq_len": 8, "max_targets": 2.0}
            ),
            encoding="utf-8",
        )
        code, _, _ = run_cli(capsys, "build-image-seq", "--config", str(cfg))
        assert code == 0
        rows = [json.loads(line) for line in output.read_text().splitlines()]
        assert len(rows) == 3
        assert {row["meta"]["seq_len"] for row in rows} == {8}


# each builder's own options at a value other than their defaults, as JSON
OWN_OPTION_VALUES = {
    "image": {"seq_len": 8, "max_targets": 3},
    "clip": {"total_frames": 50, "clip_min": 3, "clip_max": 4, "rate_min": 0.7, "rate_max": 1.5},
}


def _option_values(kind, request, tmp_path) -> dict:
    """A value for every key a build config file may hold: the shared
    option table's, then the ``kind`` builder's own."""
    shared = {
        "seed": 4,
        "source": str(request.getfixturevalue(f"{kind}_source")),
        "output": str(tmp_path / "corpus.jsonl"),
        "n": 3,
        "time_repr": "free-form",
        "jobs": 1,
        "templates": str(SRC / "seq2time" / "data" / "template_bank.json"),
    }
    return {**shared, **OWN_OPTION_VALUES[kind]}


def _flags(options: dict) -> list[str]:
    pairs = (("--" + key.replace("_", "-"), str(value)) for key, value in options.items())
    return [text for pair in pairs for text in pair]


class TestFlagOrConfigKey:
    """Every build option reads the same from its flag as from its config key."""

    @pytest.mark.parametrize(
        "kind, key",
        [
            (kind, key)
            for kind in sorted(BUILDS)
            for key in (*cli._shared_options(), *OWN_OPTION_VALUES[kind])
        ],
    )
    def test_flag_and_config_key_give_the_same_run(self, capsys, request, tmp_path, kind, key):
        subcommand, config_type, _ = BUILDS[kind]
        values = _option_values(kind, request, tmp_path)
        required = {name: values[name] for name in ("source", "output", "n") if name != key}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: values[key]}), encoding="utf-8")
        output = Path(values["output"])
        runs = []
        as_flag = _flags({**required, key: values[key]})
        for argv in (as_flag, [*_flags(required), "--config", str(cfg)]):
            code, out, err = run_cli(capsys, subcommand, "-v", *argv)
            assert code == 0, err
            runs.append((out, output.read_bytes(), err))
            output.unlink()
        assert runs[0] == runs[1]
        # the -v line, whole: every option as read, the unset ones at their defaults
        defaults = {name: default for name, (_, default, _) in cli._shared_options().items()}
        own = {name: config_type._field_defaults[name] for name in OWN_OPTION_VALUES[kind]}
        resolved = json.dumps({**defaults, **own, **required, key: values[key]}, sort_keys=True)
        assert runs[0][2] == f"INFO seq2time: {subcommand} resolved config: {resolved}\n"
        # without -v, the same run writes nothing to stderr
        assert run_cli(capsys, subcommand, *as_flag) == (0, runs[0][0], "")
        assert output.read_bytes() == runs[0][1]

    def test_config_keys_are_the_option_table_and_both_builders_own(
        self, capsys, request, tmp_path, monkeypatch
    ):
        accepted = []
        real = cli._load_config_file
        monkeypatch.setattr(
            cli,
            "_load_config_file",
            lambda explicit, keys: accepted.append(keys) or real(explicit, keys),
        )
        for kind, (subcommand, _, _) in sorted(BUILDS.items()):
            # one file holding every key builds, whichever builder reads it
            values = _option_values(kind, request, tmp_path)
            cfg = tmp_path / "run.json"
            every = {**OWN_OPTION_VALUES["image"], **OWN_OPTION_VALUES["clip"], **values}
            cfg.write_text(json.dumps(every), encoding="utf-8")
            code, _, err = run_cli(capsys, subcommand, "--config", str(cfg))
            assert code == 0, err
        assert accepted == [set(every), set(every)]
        assert set(every) == {*cli._shared_options(), *cli._IMAGE_OPTIONS, *cli._CLIP_OPTIONS}

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    @pytest.mark.parametrize("key, text", [("seed", "run seed"), ("time_repr", "position rendering")])
    def test_help_names_the_table_default(self, capsys, monkeypatch, kind, key, text):
        # "(default ...)" comes from the entry, so it follows a changed default
        real = cli._shared_options
        for default in (real()[key][1], "changed"):
            table = real()
            table[key] = (table[key][0], default, table[key][2])
            monkeypatch.setattr(cli, "_shared_options", lambda: table)
            with pytest.raises(SystemExit):
                main([BUILDS[kind][0], "--help"])
            assert f"{text} (default {default})" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize(
        "key", ["allow_nonstandard", "config", "json", "verbose", "n_instances"]
    )
    def test_other_flags_have_no_config_key(self, capsys, image_source, tmp_path, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: 1}), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "build-image-seq", "--config", str(cfg), "--source", str(image_source),
            "--output", str(tmp_path / "out.jsonl"), "--n", "3",
        )
        assert (code, out) == (2, "")
        assert f"unknown keys: {key}" in err


def _write_eval_run(tmp_path):
    """v1 scores perfectly, v2 produces nothing parseable."""
    pred_path = tmp_path / "pred.jsonl"
    gt_path = tmp_path / "gt.jsonl"
    write_rows(
        [
            {
                "video_id": "v1",
                "output": (
                    "0.0 - 5.0 seconds, a person is kneading dough\n"
                    "5.0 - 20.0 seconds, a person is raking leaves"
                ),
                "duration_s": 20.0,
            },
            {"video_id": "v2", "output": "no events found", "duration_s": 8.0},
        ],
        pred_path,
    )
    write_rows(
        [
            {
                "video_id": "v1",
                "events": [
                    {"start": 0.0, "end": 5.0, "caption": "kneading"},
                    {"start": 5.0, "end": 20.0, "caption": "raking"},
                ],
            },
            {
                "video_id": "v2",
                "events": [{"start": 0.0, "end": 8.0, "caption": "missed"}],
            },
        ],
        gt_path,
    )
    return pred_path, gt_path


class TestEvalCommands:
    def test_eval_dvc_text(self, capsys, tmp_path):
        pred, gt = _write_eval_run(tmp_path)
        code, out, _ = run_cli(
            capsys, "eval-dvc", "--pred", str(pred), "--gt", str(gt)
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "temporal_f1 0.500000"
        assert "r@1(iou=0.5) 0.666667" in lines
        assert "f1@0.3 0.500000" in lines
        assert "f1@0.9 0.500000" in lines
        assert "n_pred 1.0000" in lines
        assert "skipped_lines 1" in lines

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_eval_tvg_is_eval_dvc(self, capsys, tmp_path, extra):
        pred, gt = _write_eval_run(tmp_path)
        argv = ["--pred", str(pred), "--gt", str(gt), *extra]
        dvc = run_cli(capsys, "eval-dvc", *argv)
        tvg = run_cli(capsys, "eval-tvg", *argv)
        assert dvc[0] == 0
        assert tvg == dvc

    def test_eval_json(self, capsys, tmp_path):
        pred, gt = _write_eval_run(tmp_path)
        code, out, _ = run_cli(
            capsys, "eval-dvc", "--pred", str(pred), "--gt", str(gt), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["temporal_f1"] == pytest.approx(0.5)
        assert payload["n_videos"] == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_config_error(self, capsys, tmp_path, jobs):
        pred, gt = _write_eval_run(tmp_path)
        code, out, err = run_cli(
            capsys, "eval-dvc", "--pred", str(pred), "--gt", str(gt), "--jobs", jobs
        )
        assert (code, out) == (2, "")
        assert f"jobs must be >= 1, got {jobs}" in err
        assert "Traceback" not in err

    def test_custom_thresholds(self, capsys, tmp_path):
        pred, gt = _write_eval_run(tmp_path)
        code, out, _ = run_cli(
            capsys,
            "eval-dvc",
            "--pred", str(pred),
            "--gt", str(gt),
            "--thresholds", "0.5",
            "--iou", "0.9",
        )
        assert code == 0
        assert "f1@0.5 0.500000" in out
        assert "r@1(iou=0.9) 0.666667" in out

    @pytest.mark.parametrize("thresholds", ["0.9,0.3,0.5", "0.5,0.5"])
    def test_thresholds_scored_as_if_alone(self, capsys, tmp_path, thresholds):
        # one video whose three predictions reach IoU 0.6, 0.4 and 0.95
        pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
        output = "0 - 6 seconds, a\n10 - 14 seconds, b\n20 - 29.5 seconds, c"
        write_rows([{"video_id": "v1", "output": output, "duration_s": 30.0}], pred)
        events = [{"start": s, "end": s + 10.0, "caption": "x"}
                  for s in (0.0, 10.0, 20.0)]
        write_rows([{"video_id": "v1", "events": events}], gt)

        def report(ths):
            argv = ["eval-dvc", "--pred", str(pred), "--gt", str(gt), "--json"]
            code, out, _ = run_cli(capsys, *argv, "--thresholds", ths)
            assert code == 0
            return json.loads(out)

        combined = report(thresholds)
        alone = {th: report(th) for th in dict.fromkeys(thresholds.split(","))}
        for th, single in alone.items():
            for metric in ("f1", "precision", "recall"):
                key = f"{metric}_per_threshold"
                assert combined[key][th] == single[key][th]
        assert combined["temporal_f1"] == pytest.approx(
            sum(single["temporal_f1"] for single in alone.values()) / len(alone)
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5,2", "IoU thresholds must lie in (0, 1], got [0.5, 2.0]"),
            (" , ", "at least one IoU threshold is required"),
            ("0.5,nan", "IoU thresholds must lie in (0, 1], got [0.5, nan]"),
            ("0.5;0.7", "bad threshold list '0.5;0.7'"),
        ],
        ids=["out-of-range", "none", "nan", "unparsable"],
    )
    @pytest.mark.parametrize("pred_file", ["well-formed", "malformed"])
    def test_bad_thresholds(self, capsys, tmp_path, text, message, pred_file):
        # the scorer checks the list, and before it reads either file
        pred, gt = _write_eval_run(tmp_path)
        if pred_file == "malformed":
            pred.write_text("not json\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys,
            "eval-dvc",
            "--pred", str(pred),
            "--gt", str(gt),
            "--thresholds", text,
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["--thresholds", "--iou"])
    def test_thresholds_with_one_report_key(self, capsys, tmp_path, flag):
        # 0.8 and 0.8000001 both print as f1@0.8 and share one JSON key
        pred, gt = _write_eval_run(tmp_path)
        code, out, err = run_cli(
            capsys,
            "eval-dvc",
            "--pred", str(pred),
            "--gt", str(gt),
            flag, "0.5,0.8,0.8000001",
        )
        assert code == 2
        assert out == ""
        assert "thresholds 0.8 and 0.8000001 both report as 0.8" in err

    def test_missing_pred_file(self, capsys, tmp_path):
        _, gt = _write_eval_run(tmp_path)
        code, _, err = run_cli(
            capsys, "eval-dvc", "--pred", str(tmp_path / "gone.jsonl"), "--gt", str(gt)
        )
        assert code == 2
        assert "prediction file not found" in err

    def test_non_ascii_digit_line_is_skipped(self, capsys, tmp_path):
        pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
        write_rows(
            [{
                "video_id": "v1",
                "output": (
                    "<\u0660><\u0660><\u0660><\u0660><\u0665><\u0660><\u0660><\u0660> x\n"
                    "<0><0><0><0><5><0><0><0> a person is kneading dough"
                ),
                "duration_s": 20.0,
            }],
            pred,
        )
        write_rows(
            [{"video_id": "v1", "events": [{"start": 0.0, "end": 10.0, "caption": "k"}]}],
            gt,
        )
        code, out, _ = run_cli(
            capsys, "eval-dvc", "--pred", str(pred), "--gt", str(gt),
            "--time-repr", "rpt", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["skipped_lines"] == 1
        assert payload["temporal_f1"] == 1.0

    def test_malformed_gt_is_data_error(self, capsys, tmp_path):
        pred, gt = _write_eval_run(tmp_path)
        gt.write_text("{broken\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "eval-dvc", "--pred", str(pred), "--gt", str(gt)
        )
        assert code == 4
        assert "invalid JSON" in err

    @staticmethod
    def _bad_gt_event(capsys, tmp_path, event):
        """``eval-dvc`` with ``event`` the one event of line 2 of the ground
        truth: exit code, stdout, stderr, and the stderr line of a message."""
        pred, gt = _write_eval_run(tmp_path)
        gt.write_text(
            '{"video_id": "v1", "events": [{"start": 0.0, "end": 5.0}]}\n'
            f'{{"video_id": "v2", "events": [{event}]}}\n',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "eval-dvc", "--pred", str(pred), "--gt", str(gt))
        return code, out, err, f"error: {gt}: line 2: bad event 0: {{}}\n".format

    @pytest.mark.parametrize(
        "event, message",
        [
            pytest.param(event, f"{key} must be a finite number of seconds, got {got}", id=event)
            for event, key, got in [
                ('{"start": 0.0, "end": Infinity}', "end", "inf"),
                ('{"start": 0.0, "end": 1e999}', "end", "inf"),
                ('{"start": true, "end": 8.0}', "start", "True"),
                ('{"start": "0", "end": 8.0}', "start", "'0'"),
                ('{"start": 0.0, "end": " 5.0 "}', "end", "' 5.0 '"),
            ]
        ]
        + [
            pytest.param(
                '{"start": 0, "end": 1' + "0" * 400 + "}",
                "end must be a finite number of seconds, got 1" + "0" * 400,
                id="int-beyond-float",
            ),
        ],
    )
    def test_gt_time_not_a_finite_number_is_data_error(self, capsys, tmp_path, event, message):
        code, out, err, line = self._bad_gt_event(capsys, tmp_path, event)
        assert (code, out, err) == (4, "", line(message))

    @pytest.mark.parametrize(
        "event, message",
        [
            pytest.param(event, f"interval requires 0 <= start <= end, got {got}", id=event)
            for event, got in [
                ('{"start": -1.0, "end": 2.0}', "(-1.0, 2.0)"),
                ('{"start": 5.0, "end": 1.0}', "(5.0, 1.0)"),
            ]
        ],
    )
    def test_gt_times_out_of_order_is_data_error(self, capsys, tmp_path, event, message):
        code, out, err, line = self._bad_gt_event(capsys, tmp_path, event)
        assert (code, out, err) == (4, "", line(message))

    @pytest.mark.parametrize(
        "event, message",
        [
            ("1", "'int' object is not subscriptable"),
            ('"x"', "string indices must be integers, not 'str'"),
            ("null", "'NoneType' object is not subscriptable"),
            ("[]", "list indices must be integers or slices, not str"),
            ('{"end": 8.0}', "'start'"),
            ('{"start": 0.0}', "'end'"),
            ('{"start": "x"}', "start must be a finite number of seconds, got 'x'"),
            ('{"start": 0.0, "end": false}', "end must be a finite number of seconds, got False"),
            ('{"start": NaN, "end": 1.0}', "start must be a finite number of seconds, got nan"),
            ('{"start": 5, "end": 1}', "interval requires 0 <= start <= end, got (5.0, 1.0)"),
            ('{"start": 5.0, "end": 1.0, "caption": 7}',
             "interval requires 0 <= start <= end, got (5.0, 1.0)"),
        ],
    )
    def test_gt_event_checks_keep_their_order(self, capsys, tmp_path, event, message):
        # an event is read as an object, then start, end, their order and the
        # caption are checked in that order, and the first failure is reported
        code, out, err, line = self._bad_gt_event(capsys, tmp_path, event)
        assert (code, out, err) == (4, "", line(message))

    @pytest.mark.parametrize(
        "event, times",
        [
            ('{"start": 0, "end": 8}', (0.0, 8.0)),
            ('{"start": -0.0, "end": 8}', (-0.0, 8.0)),
            ('{"start": -0.0, "end": -0.0}', (-0.0, -0.0)),
        ],
    )
    def test_gt_integer_and_negative_zero_times_load(self, capsys, tmp_path, event, times):
        code, out, err, _ = self._bad_gt_event(capsys, tmp_path, event)
        # v1 scores 2/3 and v2's prediction parses to nothing
        assert (code, out.splitlines()[0], err) == (0, "temporal_f1 0.333333", "")
        (loaded,) = load_ground_truth(tmp_path / "gt.jsonl")["v2"]
        assert loaded == (*times, "")
        assert [type(t) for t in loaded[:2]] == [float, float]
        assert [math.copysign(1, t) for t in loaded[:2]] == [math.copysign(1, t) for t in times]

    @pytest.mark.parametrize(
        "row", ['{"video_id": "v1", "events": {}}', '{"video_id": "v1"}'], ids=["object", "absent"]
    )
    def test_gt_events_not_a_list_is_data_error(self, capsys, tmp_path, row):
        pred, gt = _write_eval_run(tmp_path)
        gt.write_text(row + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "eval-dvc", "--pred", str(pred), "--gt", str(gt))
        assert (code, out) == (4, "")
        assert f"{gt}: line 1: expected an events list" in err

    @pytest.mark.parametrize("which", ["pred", "gt"])
    def test_blank_video_id_is_data_error(self, capsys, tmp_path, which):
        pred, gt = _write_eval_run(tmp_path)
        path = {"pred": pred, "gt": gt}[which]
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[1]["video_id"] = " "
        write_rows(rows, path)
        code, out, err = run_cli(capsys, "eval-dvc", "--pred", str(pred), "--gt", str(gt))
        assert (code, out) == (4, "")
        assert "line 2: field video_id must be non-empty text" in err

    @pytest.mark.parametrize("caption", ["7", "null", '["a"]'])
    def test_gt_caption_not_a_string_is_data_error(self, capsys, tmp_path, caption):
        event = f'{{"start": 0.0, "end": 8.0, "caption": {caption}}}'
        code, out, err, line = self._bad_gt_event(capsys, tmp_path, event)
        shown = {"7": "7", "null": "None", '["a"]': "['a']"}[caption]
        assert (code, out, err) == (4, "", line(f"caption must be a string, got {shown}"))


class TestStats:
    def test_text_and_json(self, capsys, image_source, tmp_path):
        out_path = tmp_path / "corpus.jsonl"
        run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(out_path),
            "--n", "12",
        )
        code, out, _ = run_cli(capsys, "stats", str(out_path))
        assert code == 0
        assert out.splitlines()[0] == "records 12"
        code, out, _ = run_cli(capsys, "stats", str(out_path), "--json")
        assert json.loads(out)["total"] == 12

    def test_missing_corpus(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "stats", str(tmp_path / "gone.jsonl"))
        assert code == 2
        assert "corpus file not found" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("task", ["x"], "record fields of wrong type: task"),
            ("question", 5, "record fields of wrong type: question"),
            ("media", 5, "record fields of wrong type: media"),
            ("media", ["a.jpg", 5], "record fields of wrong type: media"),
            ("meta", None, "record missing fields: meta"),  # None drops the field
            ("answer", "", "record 'r1' has an empty question or answer"),
        ],
    )
    def test_wrong_typed_field_is_data_error(
        self, capsys, tmp_path, field, value, message
    ):
        record = {
            "id": "r1", "media": ["a.jpg"], "task": "IIG",
            "question": "q", "answer": "a", "meta": {},
        }
        bad = {k: v for k, v in {**record, field: value}.items() if v is not None}
        path = tmp_path / "corpus.jsonl"
        write_rows([record, bad], path)
        code, out, err = run_cli(capsys, "stats", str(path))
        assert code == 4
        assert out == ""
        assert f"{path}: line 2: {message}" in err

    def test_blank_question_and_answer_are_data_errors(self, capsys, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = {"id": "a", "media": ["x"], "task": "IIG", "question": " ", "answer": "\t",
               "meta": {}}
        path.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "stats", str(path))
        assert (code, out) == (4, "")
        assert f"{path}: line 1: record 'a' has an empty question or answer" in err


class TestNonUtf8Input:
    """A file that is not UTF-8 names itself and exits 2 or 4, not 1."""

    def _latin1(self, path, text):
        path.write_bytes(text.encode("latin-1"))
        return str(path)

    def test_config_file(self, capsys, tmp_path):
        cfg = self._latin1(tmp_path / "run.json", '{"n": 5, "note": "caf\xe9"}')
        code, out, err = run_cli(capsys, "build-image-seq", "--config", cfg)
        assert (code, out) == (2, "")
        assert f"config file {cfg} is not valid JSON" in err

    def test_caption_source(self, capsys, tmp_path):
        source = self._latin1(
            tmp_path / "images.jsonl",
            '{"id": "a", "image": "a.jpg", "caption": "caf\xe9"}\n',
        )
        code, out, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", source,
            "--output", str(tmp_path / "out.jsonl"),
            "--n", "1",
        )
        assert (code, out) == (4, "")
        assert f"{source}: not UTF-8 text" in err

    def test_template_bank(self, capsys, image_source, tmp_path):
        bank = tmp_path / "bank.json"
        bank.write_bytes(b'{"iig": "\xff"}')
        code, out, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(tmp_path / "out.jsonl"),
            "--n", "1",
            "--templates", str(bank),
        )
        assert (code, out) == (2, "")
        assert f"template bank {bank} is not valid JSON" in err

    def test_eval_predictions(self, capsys, tmp_path):
        _, gt = _write_eval_run(tmp_path)
        pred = self._latin1(
            tmp_path / "bad_pred.jsonl",
            '{"video_id": "v1", "output": "caf\xe9", "duration_s": 20.0}\n',
        )
        code, out, err = run_cli(capsys, "eval-dvc", "--pred", pred, "--gt", str(gt))
        assert (code, out) == (4, "")
        assert f"{pred}: not UTF-8 text" in err

    def test_stats_corpus(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b'{"id": "r\xff"}\n')
        code, out, err = run_cli(capsys, "stats", str(corpus))
        assert (code, out) == (4, "")
        assert f"{corpus}: not UTF-8 text" in err


class TestDirectoryInput:
    """A directory given as an input file exits 2 naming that input, before
    any file is read or written; any other existing path is read as a file."""

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["build-image-seq", "--source", "DIR"], "source"),
            (["build-image-seq", "--templates", "DIR"], "template bank"),
            (["build-image-seq", "--config", "DIR"], "config"),
            (["build-image-seq"], "config"),  # SEQ2TIME_CONFIG names DIR
            (["eval-dvc", "--pred", "DIR"], "prediction"),
            (["eval-dvc", "--gt", "DIR"], "ground truth"),
            (["stats", "DIR"], "corpus"),
        ],
        ids=["source", "templates", "config", "env-config", "pred", "gt", "stats-corpus"],
    )
    def test_directory_is_a_config_error(
        self, capsys, monkeypatch, image_source, tmp_path, argv, what
    ):
        directory, out_path = tmp_path / "a-directory", tmp_path / "corpus.jsonl"
        directory.mkdir()
        if argv == ["build-image-seq"]:
            monkeypatch.setenv("SEQ2TIME_CONFIG", str(directory))
        pred, gt = _write_eval_run(tmp_path)
        valid = {  # a later flag overrides these
            "build-image-seq": ["--source", image_source, "--output", out_path, "--n", 5],
            "eval-dvc": ["--pred", pred, "--gt", gt],
            "stats": [],
        }[argv[0]]
        given = [str(directory) if part == "DIR" else part for part in argv[1:]]
        code, out, err = run_cli(capsys, argv[0], *map(str, valid), *given)
        assert (code, out) == (2, "")
        assert err == f"error: {what} file is a directory: {directory}\n"
        assert not out_path.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_a_named_pipe_is_read_as_a_file(self, capsys, tmp_path):
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        record = {"id": "r", "media": ["a.jpg"], "task": "IIG", "question": "q?",
                  "answer": "a", "meta": {}}
        # a daemon, so a writer whose pipe is never opened cannot keep the run alive
        writer = threading.Thread(
            target=fifo.write_text, args=(json.dumps(record) + "\n",), daemon=True
        )
        writer.start()
        code, out, _ = run_cli(capsys, "stats", str(fifo))
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (code, out.splitlines()[:2]) == (0, ["records 1", "IIG 1"])


class TestSourceRows:
    """Source rows that cannot be built from exit 4, naming file and line."""

    def _build(self, capsys, tmp_path, kind, rows, jobs="1"):
        source = tmp_path / "source.jsonl"
        source.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        command = "build-image-seq" if kind == "image" else "build-clip-seq"
        code, out, err = run_cli(
            capsys, command, "--source", str(source), "--output",
            str(tmp_path / "corpus.jsonl"), "--n", "40", "--jobs", jobs,
        )
        return source, code, out, err

    def _rows(self, kind, image_pool, clip_pool):
        if kind == "image":
            return [{"id": c.id, "image": c.image, "caption": c.caption} for c in image_pool]
        return [
            {"id": c.id, "video": c.video, "label": c.label, "caption": c.caption,
             "duration_s": c.duration_s, "fps": c.fps}
            for c in clip_pool
        ]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "kind, field", [("image", "caption"), ("image", "image"),
                        ("clip", "caption"), ("clip", "video")],
    )
    def test_lone_surrogate_is_data_error(
        self, capsys, tmp_path, image_pool, clip_pool, kind, field, jobs
    ):
        # json.dumps writes the lone surrogate as the escape \ud800
        rows = self._rows(kind, image_pool, clip_pool)
        rows[2] = {**rows[2], field: rows[2][field] + "\ud800"}
        source, code, out, err = self._build(capsys, tmp_path, kind, rows, jobs)
        assert (code, out) == (4, "")
        assert f"{source}: line 3: field {field} holds a lone surrogate escape" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["source.jsonl"]

    @pytest.mark.parametrize("kind", ["image", "clip"])
    def test_escaped_surrogate_pair_is_text(self, capsys, tmp_path, image_pool, clip_pool, kind):
        # the escape pair \ud83d\ude00 decodes to one character, U+1F600
        rows = [
            {**row, "caption": row["caption"] + " \U0001F600"}
            for row in self._rows(kind, image_pool, clip_pool)
        ]
        source, code, out, err = self._build(capsys, tmp_path, kind, rows)
        assert "\\ud83d\\ude00" in source.read_text(encoding="utf-8")
        assert code == 0, err
        assert "\U0001F600" in (tmp_path / "corpus.jsonl").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("\ufeff{}", "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ("{} {}", "invalid JSON: Extra data"),
            ("[1]", "expected an object"),
            ("NaN", "expected an object"),
        ],
        ids=["bom", "extra-data", "array", "nan"],
    )
    def test_unreadable_row_is_data_error(self, capsys, tmp_path, line, message):
        source = tmp_path / "source.jsonl"
        source.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "build-image-seq", "--source", str(source),
            "--output", str(tmp_path / "corpus.jsonl"), "--n", "1",
        )
        assert (code, out) == (4, "")
        assert f"{source}: line 1: {message}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["source.jsonl"]


class TestParserBehavior:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tokenize", "7", "96", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_seed_is_only_a_build_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tokenize", "7", "96", "--seed", "3"])
        assert excinfo.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze-quantization", "--duration", "60", "--json"],
            ["tokenize", "7", "96", "-v"],
            ["detokenize", "<0><7><2><9>", "-v"],
            ["analyze-quantization", "--duration", "60", "-v"],
            ["eval-dvc", "--pred", "pred.jsonl", "--gt", "gt.jsonl", "-v"],
            ["eval-tvg", "--pred", "pred.jsonl", "--gt", "gt.jsonl", "-v"],
            ["stats", "corpus.jsonl", "-v"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-1]}",
    )
    def test_flag_without_effect_is_gone(self, capsys, argv):
        # a subcommand takes only the flags that change what it does
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err

    def test_repeated_v_still_builds(self, capsys, image_source, tmp_path):
        code, out, err = run_cli(
            capsys, "build-image-seq", "--source", str(image_source),
            "--output", str(tmp_path / "out.jsonl"), "--n", "3", "-vv",
        )
        assert code == 0, err
        assert out.startswith("wrote 3 records to ")
        assert err.startswith("INFO seq2time: build-image-seq resolved config: {")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "sub",
        [
            "build-image-seq", "build-clip-seq", "tokenize", "detokenize",
            "analyze-quantization", "eval-dvc", "eval-tvg", "stats",
        ],
    )
    def test_help_exits_zero(self, capsys, sub):
        with pytest.raises(SystemExit) as excinfo:
            main([sub, "--help"])
        assert excinfo.value.code == 0

    def test_invariant_violation_exits_3(
        self, capsys, image_source, tmp_path, monkeypatch
    ):
        def explode(*args, **kwargs):
            raise InvariantViolation("synthetic failure")

        monkeypatch.setattr(cli, "image_corpus", explode)
        code, _, err = run_cli(
            capsys,
            "build-image-seq",
            "--source", str(image_source),
            "--output", str(tmp_path / "out.jsonl"),
            "--n", "1",
        )
        assert code == 3
        assert "invariant violation" in err

    def test_import_stays_light(self, image_source, tmp_path):
        # the package has no runtime dependencies, and the CLI imports the
        # scorer only when it scores, so start-up stays cheap; numpy (a
        # test-only extra) must not come back in through the CLI; and a
        # pooled build or eval forks its own workers, without the
        # executor or multiprocessing
        probe = (
            "import sys, seq2time, seq2time.cli\n"
            "heavy = {'numpy', 'requests', 'concurrent.futures', 'multiprocessing',"
            " 'seq2time.evaluation'}\n"
            "print(sorted(heavy & set(sys.modules)))\n"
            "print([n for n in seq2time.__all__ if not hasattr(seq2time, n)])\n"
        )
        pred, gt = pinned_eval_run(tmp_path, "rpt")
        build = ["build-image-seq", "--source", str(image_source),
                 "--output", str(tmp_path / "corpus.jsonl"), "--n", "40", "--jobs", "2"]
        score = ["eval-dvc", "--pred", str(pred), "--gt", str(gt), "--jobs", "2"]
        pooled_runs = (
            "import sys, seq2time.corpus as corpus\n"
            "corpus.SERIAL_MAX, corpus.usable_cores = 16, lambda: 2\n"
            "pooled, pools = corpus._pooled, []\n"
            "corpus._pooled = lambda *a: pools.append(1) or pooled(*a)\n"
            "from seq2time.cli import main\n"
            f"codes = [main({build!r}), main({score!r})]\n"
            "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
            "print(codes, len(pools), sorted(loaded))\n"
        )

        def last_lines(code: str, count: int) -> list[str]:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.splitlines()[-count:]

        assert last_lines(probe, 2) == ["[]", "[]"]
        assert last_lines(pooled_runs, 1) == ["[0, 0] 2 []"]

    @pytest.mark.parametrize("module", ["seq2time", "seq2time.cli"])
    def test_import_adds_none_of_dataclasses_inspect_logging(self, module):
        # the value types are named tuples: `dataclasses` would bring in
        # `inspect` (and with it `ast`, `dis`, `tokenize`) at every start;
        # and the builds print their `-v` line: `logging` would bring in
        # `traceback`, `string` and `tokenize`
        def loaded(statement: str) -> str:
            probe = (
                f"{statement}\nimport sys\n"
                "print(sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))"
            )
            proc = subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        assert loaded(f"import {module}") == loaded("pass")

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_like_sigpipe(self, buffered):
        # a reader that stops early (`| head`) is not a data error
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "seq2time.cli", "tokenize", "7", "96"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_console_script_installed(self):
        exe = shutil.which("seq2time")
        assert exe, "console script seq2time not on PATH"
        proc = subprocess.run(
            [exe, "tokenize", "7", "96"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "<0><7><2><9>"


# The CLI with the cutoff at 16 items, two usable cores and a 0.2 s pause
# before every range, so that a signal sent once a run has started lands
# in the middle of it.
_SLOW_RANGES = (
    "import sys, time\n"
    "import seq2time.corpus as corpus, seq2time.evaluation as evaluation\n"
    "corpus.SERIAL_MAX, corpus.usable_cores = 16, lambda: 2\n"
    "run_ranges = corpus.run_ranges\n"
    "def slow(task, *rest):\n"
    "    return run_ranges(lambda s, o: time.sleep(0.2) or task(s, o), *rest)\n"
    "corpus.run_ranges = evaluation.run_ranges = slow\n"
    "from seq2time.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def _alive_in_session(sid: int) -> list[int]:
    """The processes of session ``sid`` that have not ended. Zombies are left
    out: whoever adopts an orphan reaps it, not the test."""
    found = subprocess.run(["pgrep", "-s", str(sid)], capture_output=True, text=True).stdout
    alive = []
    for pid in map(int, found.split()):
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
        except OSError:  # ended since
            continue
        if state != "Z":
            alive.append(pid)
    return alive


def _eventually(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


@pytest.mark.skipif(
    not (hasattr(os, "fork") and shutil.which("pgrep") and os.path.isdir("/proc/self")),
    reason="needs fork, pgrep and /proc",
)
class TestInterrupts:
    """A run that is sent a signal, in a session of its own."""

    @pytest.fixture
    def started_run(self, tmp_path, image_source):
        """Starts a build or an eval. Returns it once it writes its temporary
        file (in process) or runs both its workers (at --jobs 2). Whatever
        the test leaves of the session is killed afterwards."""
        started = []

        def start(kind: str, jobs: str) -> subprocess.Popen:
            if kind == "build":
                argv = ["build-image-seq", "--source", str(image_source),
                        "--output", str(tmp_path / "corpus.jsonl"), "--n", "300"]
            else:
                pred, gt = pinned_eval_run(tmp_path, "rpt")
                argv = ["eval-dvc", "--pred", str(pred), "--gt", str(gt), "--time-repr", "rpt"]
            with open(tmp_path / "stdout", "wb") as out, open(tmp_path / "stderr", "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-c", _SLOW_RANGES, *argv, "--jobs", jobs],
                    stdout=out, stderr=err, start_new_session=True,
                    env={**os.environ, "PYTHONPATH": str(SRC)},
                )
            started.append(proc)
            if jobs == "1":
                ready = lambda: any(p.stat().st_size for p in tmp_path.glob(".*.tmp"))
            else:
                ready = lambda: len(_alive_in_session(proc.pid)) == 3
            assert _eventually(ready, 30)
            return proc

        yield start
        for proc in started:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=30)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
    @pytest.mark.parametrize(
        "kind, jobs", [("build", "1"), ("build", "2"), ("eval", "2")],
        ids=["build-jobs-1", "build-jobs-2", "eval-jobs-2"],
    )
    def test_signal_cleans_up_then_ends_the_run(self, tmp_path, started_run, kind, jobs, signum):
        out_path = tmp_path / "corpus.jsonl"
        out_path.write_bytes(b"previous corpus\n")
        proc = started_run(kind, jobs)
        assert len(list(tmp_path.glob(".*.tmp"))) == (kind == "build")
        if signum == signal.SIGINT:
            os.killpg(proc.pid, signum)  # as ^C at a terminal: the whole group
        else:
            os.kill(proc.pid, signum)  # as `kill PID`: the parent alone
        assert proc.wait(timeout=30) == -signum
        assert (tmp_path / "stderr").read_text() == f"interrupted: {signum.name}\n"
        assert (tmp_path / "stdout").read_bytes() == b""
        assert out_path.read_bytes() == b"previous corpus\n"
        assert not list(tmp_path.glob(".*.tmp"))
        assert _eventually(lambda: not _alive_in_session(proc.pid), 10)

    def test_workers_end_when_the_parent_is_killed(self, started_run):
        proc = started_run("build", "2")
        os.kill(proc.pid, signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL
        # each worker's next write to its pipe fails with EPIPE, and it exits
        assert _eventually(lambda: not _alive_in_session(proc.pid), 10)
