"""The CLI's contract over generated inputs, each part checked as one property.

Template banks: a bank is the packaged one with one (task, arity, kind)
list edited: one entry or all of them replaced, prefixed or suffixed with a
known hazard. Whatever the edit, a build either writes records that parse
back to their own targets with the scorer's parsers, or refuses the bank
(exit 2) without a traceback and without writing anything.

Build configs: both builders at the edges of their options (``--n`` of
0, 1, 16, 17 and 40, ``--seq-len`` and ``--total-frames`` at and past
their least and greatest values, both time representations). A build
exits 0, 2 or 4 without a traceback; on failure the output file is as it
was and nothing else is written; on success every record parses back to
its own ``meta``, and the bytes are the same at ``--jobs 1`` and, through
a pool, at ``--jobs 2``.

Eval inputs: prediction and ground-truth files of 1-40 videos, with
garbage, blank, inverted and overflowing lines, and at most one fault in
the files (an id missing, extra or repeated, a bad event or duration).
``eval-dvc`` either prints the same report at ``--jobs 1`` and ``--jobs 2``
or refuses the files (exit 2 or 4), with nothing on stdout and no traceback.

Caption pools: image and clip sources of 1-40 rows, written as raw JSONL
(so ``\\ud800`` escapes appear), with known hazards in a few text fields,
and sequence lengths drawn to fit the pool. A build exits 0, 2 or 4
without a traceback; on failure the output file is as it was; on success
every record parses back to its own ``meta``, with the same bytes at
``--jobs 1`` and through a pool at ``--jobs 2``.
"""

import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from seq2time.cli import main
from seq2time.clip_sequence import MAX_TOTAL_FRAMES
from seq2time.evaluation import parse_predictions
from seq2time.image_sequence import ImageCorpusConfig, parse_index_mentions
from seq2time.position_token import MAX_RPT_LENGTH, TimeRepresentation
from seq2time.templates import REQUIRED_SLOTS

from conftest import write_clip_source, write_image_source

SRC = Path(__file__).resolve().parents[1] / "src"
BANK = json.loads(
    resources.files("seq2time").joinpath("data/template_bank.json").read_text("utf-8")
)
IMAGE_TASKS = ("iig", "iic", "alr")
ALL_SLOTS = sorted({slot for pair in REQUIRED_SLOTS.values() for kind in pair for slot in kind})
OTHER_SLOT = object()  # stands for a slot that some other task fills
HAZARDS = (
    "", " ", "\t", "\n", "\u2028", "\ud800", "é", '"', "\\", "<0>", "<1><2><3>", "3",
    OTHER_SLOT, "0 - 1 seconds, x\n",
)
N_RECORDS = 30


@st.composite
def edits(draw):
    """(task, arity, kind, entry, how, text): ``entry`` None edits every entry."""
    task, arity = draw(st.sampled_from(sorted(REQUIRED_SLOTS)))
    kind = draw(st.sampled_from(["questions", "answers"]))
    entry = draw(st.none() | st.integers(0, len(BANK[task][arity][kind]) - 1))
    how = draw(st.sampled_from(["replace", "prefix", "suffix"]))
    text = draw(st.sampled_from(HAZARDS))
    if text is OTHER_SLOT:
        own = {slot for slots in REQUIRED_SLOTS[task, arity] for slot in slots}
        text = draw(st.sampled_from([slot for slot in ALL_SLOTS if slot not in own]))
    return task, arity, kind, entry, how, text


def edited_bank(task, arity, kind, entry, how, text) -> dict:
    data = copy.deepcopy(BANK)
    variants = data[task][arity][kind]
    for i in range(len(variants)) if entry is None else (entry,):
        variants[i] = {
            "replace": text, "prefix": text + variants[i], "suffix": variants[i] + text
        }[how]
    return data


@pytest.fixture(scope="module")
def sources(image_pool, clip_pool, tmp_path_factory):
    directory = tmp_path_factory.mktemp("contract-sources")
    return {
        "image": write_image_source(image_pool[:40], directory / "images.jsonl"),
        "clip": write_clip_source(clip_pool[:40], directory / "clips.jsonl"),
    }


def build_argv(builder, source, out_path, bank_path, time_repr) -> list[str]:
    extra = ["--seq-len", "8"] if builder == "image" else []
    return [
        f"build-{builder}-seq", "--source", str(source), "--output", str(out_path),
        "--n", str(N_RECORDS), "--jobs", "1", "--time-repr", time_repr,
        "--templates", str(bank_path), *extra,
    ]


def assert_parses_back(record: dict) -> None:
    """Each answer gives back the targets its meta records."""
    meta = record["meta"]
    time_repr = TimeRepresentation(meta["time_repr"])
    assert record["question"].strip() and record["answer"].strip(), record
    if record["task"] in ("DVC", "TVG"):
        events = parse_predictions(record["answer"], time_repr, meta["duration_s"]).events
        assert [[e.start, e.end] for e in events] == meta["intervals"], record
        if record["task"] == "DVC":
            assert [e.caption for e in events] == meta["captions"], record
    else:
        parsed = parse_index_mentions(record["answer"], time_repr, meta["seq_len"])
        assert parsed == meta["targets"], record


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def build_at_both_jobs(argv, out_path: Path, pool_starts: list) -> tuple[int, str, str]:
    """The ``--jobs 1`` (exit, stdout, stderr) of build ``argv``, run at
    ``--jobs 1`` and 2 over a pre-seeded ``out_path``, after checking what
    every build owes: exit 0, 2 or 4 without a traceback, the same result
    and bytes at both, nothing else written beside the output, and on
    failure no stdout and the old output kept. On exit 0, a pool started
    exactly above 16 items of work, and ``--n`` records parse back."""
    beside, runs = {*os.listdir(out_path.parent), out_path.name}, []
    for jobs in ("1", "2"):
        out_path.write_bytes(b"previous corpus\n")
        pools = len(pool_starts)
        result = run_main([*argv, "--output", str(out_path), "--jobs", jobs])
        runs.append((result, out_path.read_bytes(), len(pool_starts) > pools))
        assert set(os.listdir(out_path.parent)) == beside
    (serial, written, _), (fanned, fanned_written, pooled) = runs
    code, out, err = serial
    assert code in (0, 2, 4), err
    assert "Traceback" not in err
    assert (fanned, fanned_written) == (serial, written)
    if code != 0:
        assert (out, written) == ("", b"previous corpus\n")
        return serial
    # a clip record weighs 1 item, an image record more or less as its
    # sequence is longer or shorter than 96
    options = dict(zip(argv[1::2], argv[2::2]))
    work = n = int(options["--n"])
    if argv[0] == "build-image-seq":
        seq_len = int(options.get("--seq-len", 96))
        work *= ImageCorpusConfig(0, seq_len=seq_len, max_targets=1).record_weight
    assert pooled == (work > 16)
    # JSONL lines end at b"\n" only: pool text may put U+2028 in a record
    records = [json.loads(line) for line in written.split(b"\n")[:-1]]
    assert len(records) == n
    for record in records:
        assert_parses_back(record)
    return serial


class TestEditedTemplateBanks:
    @given(edit=edits(), time_repr=st.sampled_from([r.value for r in TimeRepresentation]))
    @example(edit=("dvc", "single", "questions", None, "replace", " "), time_repr="rpt")
    @example(edit=("dvc", "single", "questions", 3, "replace", "\n"), time_repr="free_form")
    @settings(max_examples=150, deadline=None)
    def test_build_parses_back_or_refuses(self, sources, edit, time_repr):
        builder = "image" if edit[0] in IMAGE_TASKS else "clip"
        with tempfile.TemporaryDirectory() as directory:
            bank_path = Path(directory) / "bank.json"
            bank_path.write_text(json.dumps(edited_bank(*edit)), encoding="utf-8")
            out_path = Path(directory) / "corpus.jsonl"
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(build_argv(builder, sources[builder], out_path, bank_path, time_repr))
            assert code in (0, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()
            if code != 0:
                assert not out_path.exists()
                return
            with out_path.open(encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
        assert len(records) == N_RECORDS
        for record in records:
            assert_parses_back(record)

    def test_lone_surrogate_is_refused_at_the_entry_point(self, sources, tmp_path):
        # the same property through the real interpreter entry point
        bank_path = tmp_path / "bank.json"
        bank = edited_bank("iig", "single", "questions", None, "suffix", "\ud800")
        bank_path.write_text(json.dumps(bank), encoding="utf-8")
        out_path = tmp_path / "corpus.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "seq2time.cli",
             *build_argv("image", sources["image"], out_path, bank_path, "rpt")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert "iig/single/questions template holds a lone surrogate escape" in proc.stderr
        assert not out_path.exists()


@st.composite
def build_configs(draw):
    """(builder, flags): the config edges of one build."""
    builder = draw(st.sampled_from(["image", "clip"]))
    flags = ["--n", str(draw(st.sampled_from([0, 1, 16, 17, 40]))),
             "--time-repr", draw(st.sampled_from(["rpt", "free-form"]))]
    if builder == "image":  # seq_len 2 needs max_targets 1 or 2
        seq_len = draw(st.sampled_from([1, 2, MAX_RPT_LENGTH, MAX_RPT_LENGTH + 1]))
        flags += ["--seq-len", str(seq_len), "--max-targets", draw(st.sampled_from(["1", "5"]))]
    else:  # at least clip_max (10) frames, and below MAX_TOTAL_FRAMES (2**49)
        total_frames = draw(st.sampled_from(
            [9, 10, MAX_TOTAL_FRAMES - 1, MAX_TOTAL_FRAMES, 2**53 - 1, 2**53]
        ))
        flags += ["--total-frames", str(total_frames)]
    return builder, flags


@pytest.fixture(scope="module")
def edge_sources(large_image_pool, clip_pool, tmp_path_factory):
    """A pool of ``MAX_RPT_LENGTH`` images, so the longest sequence can be drawn."""
    directory = tmp_path_factory.mktemp("edge-sources")
    return {
        "image": write_image_source(large_image_pool, directory / "images.jsonl"),
        "clip": write_clip_source(clip_pool, directory / "clips.jsonl"),
    }


class TestBuildConfigs:
    @given(config=build_configs())
    @example(config=("image", ["--n", "17", "--time-repr", "rpt", "--seq-len",
                               str(MAX_RPT_LENGTH), "--max-targets", "5"]))
    @example(config=("clip", ["--n", "40", "--time-repr", "free-form", "--total-frames", "10"]))
    @example(config=("clip", ["--n", "40", "--time-repr", "rpt", "--total-frames", str(2**53)]))
    @example(config=("clip", ["--n", "40", "--time-repr", "free-form",
                              "--total-frames", str(MAX_TOTAL_FRAMES - 1)]))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bytes_at_both_jobs_or_refused(self, edge_sources, pool_above_16, config):
        builder, flags = config
        with tempfile.TemporaryDirectory() as directory:
            argv = [f"build-{builder}-seq", "--source", str(edge_sources[builder]), *flags]
            code, _, err = build_at_both_jobs(argv, Path(directory) / "corpus.jsonl",
                                              pool_above_16)
        total_frames = int(flags[5])
        if builder == "clip":  # 160 clips fill any sequence: only the frame total fails
            assert code == (0 if 10 <= total_frames < MAX_TOTAL_FRAMES else 2), err
        if builder == "clip" and total_frames >= MAX_TOTAL_FRAMES:  # refused at load
            assert err == f"error: total_frames {total_frames} must be below {MAX_TOTAL_FRAMES}\n"


TEXT_FIELDS = {"image": ("id", "image", "caption"), "clip": ("id", "video", "label", "caption")}


@st.composite
def caption_pools(draw):
    """(builder, raw JSONL of the source, build flags): up to four text fields
    of the digit-free rows replaced, prefixed or suffixed with a hazard."""
    builder = draw(st.sampled_from(["image", "clip"]))
    n_rows = draw(st.integers(1, 40))
    rows = []
    for k in range(n_rows):
        name = chr(97 + k // 26) + chr(97 + k % 26)
        row = {field: f"{field} {name}" for field in TEXT_FIELDS[builder]}
        if builder == "clip":  # five labels, so some sequences repeat one
            row.update(label=f"label {chr(97 + k % 5)}", fps=30,
                       duration_s=draw(st.sampled_from([5, 9.5, 15.0])))
        rows.append(row)
    for _ in range(draw(st.integers(0, 4))):
        row = rows[draw(st.integers(0, n_rows - 1))]
        field = draw(st.sampled_from(TEXT_FIELDS[builder]))
        text = draw(st.sampled_from(HAZARDS))
        if text is OTHER_SLOT:
            text = draw(st.sampled_from(ALL_SLOTS))
        how = draw(st.sampled_from(["replace", "prefix", "suffix"]))
        old = row[field]
        row[field] = {"replace": text, "prefix": text + old, "suffix": old + text}[how]
    flags = ["--n", str(draw(st.sampled_from([1, 16, 17, 40]))),
             "--time-repr", draw(st.sampled_from(["rpt", "free-form"]))]
    most = max(2, n_rows)
    if builder == "image":  # at least 2 images, at most the pool
        seq_len = draw(st.integers(2, most))
        flags += ["--seq-len", str(seq_len),
                  "--max-targets", str(draw(st.integers(1, min(5, seq_len))))]
    else:  # at least 2 clips, at most 10 or the pool
        clip_max = draw(st.integers(2, min(10, most)))
        flags += ["--clip-min", str(draw(st.integers(2, clip_max))), "--clip-max", str(clip_max)]
    return builder, "".join(json.dumps(row) + "\n" for row in rows), flags


class TestCaptionPools:
    @given(pool=caption_pools())
    @example(pool=("image", '{"id": "a", "image": "a.jpg", "caption": "x \\ud800"}\n',
                   ["--n", "1", "--time-repr", "rpt", "--seq-len", "2", "--max-targets", "1"]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bytes_at_both_jobs_or_refused(self, pool_above_16, pool):
        builder, source_text, flags = pool
        with tempfile.TemporaryDirectory() as directory:
            source = Path(directory) / "source.jsonl"
            source.write_text(source_text, encoding="ascii")
            argv = [f"build-{builder}-seq", "--source", str(source), *flags]
            build_at_both_jobs(argv, Path(directory) / "corpus.jsonl", pool_above_16)


PRED_LINES = (
    "0 - 5 seconds, kneading dough",
    "2.5 - 9.75 SECOND: Stirring soup",
    "5.5 - 2 seconds, inverted times",
    "7 - 7 seconds, a point",
    "0 - 1 seconds,",  # a blank caption
    "1" * 400 + " - 2 seconds, a time too long for a float",
    "<0><0><0><0><5><0><0><0> first half",
    "<9><0><0><0><1><0><0><0> inverted codes",
    "<0><4><1> truncated code",
    "Sure, here are the events:",
    " ",
    "\u2028",
)
GT_EVENTS = (
    {"start": 0, "end": 5, "caption": "kneading dough"},
    {"start": 2.5, "end": 9.75, "caption": ""},
    {"start": 4, "end": 4, "caption": " "},
    {"start": 0.5, "end": 100.0},
)
ID_FAULTS = ("missing id", "extra id", "repeated pred id", "repeated gt id")
BAD_EVENTS = {
    "inverted event": {"start": 6, "end": 3, "caption": "x"},
    "infinite event": {"start": 0, "end": math.inf, "caption": "x"},
    "text time": {"start": "1", "end": 2, "caption": "x"},
}
BAD_DURATIONS = {"zero duration": 0, "infinite duration": math.inf}


@st.composite
def eval_runs(draw):
    """(pred rows, gt rows, time repr, extra flags) of one run."""
    preds, gts = [], []
    for k in range(draw(st.integers(1, 40))):
        lines = draw(st.lists(st.sampled_from(PRED_LINES), max_size=6))
        duration = draw(st.sampled_from([10.0, 61.5, 5, 1e308]))
        preds.append({"video_id": f"v{k}", "output": "\n".join(lines), "duration_s": duration})
        events = draw(st.lists(st.sampled_from(GT_EVENTS), max_size=5))
        gts.append({"video_id": f"v{k}", "events": events})
    fault = draw(st.sampled_from([None] * 9 + [*ID_FAULTS, *BAD_EVENTS, *BAD_DURATIONS]))
    k = draw(st.integers(0, len(preds) - 1))
    if fault == "missing id":
        del preds[k]
    elif fault == "extra id":
        preds.append({**preds[k], "video_id": "v-extra"})
    elif fault in ("repeated pred id", "repeated gt id"):
        rows = preds if fault == "repeated pred id" else gts
        rows.append(rows[k])
    elif fault in BAD_EVENTS:
        gts[k]["events"] = [*gts[k]["events"], BAD_EVENTS[fault]]
    elif fault in BAD_DURATIONS:
        preds[k]["duration_s"] = BAD_DURATIONS[fault]
    time_repr = draw(st.sampled_from(["rpt", "free-form"]))
    flags = draw(st.sampled_from([[], ["--json"], ["--thresholds", "0.1,0.5,0.5", "--iou", "1"]]))
    return preds, gts, time_repr, flags


class TestEvalInputs:
    @given(run=eval_runs())
    @example(run=([{"video_id": "v0", "output": "x", "duration_s": 1.0}],
                  [{"video_id": "v0", "events": []}], "rpt", []))
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_report_at_both_jobs_or_refused(self, pool_above_16, run):
        preds, gts, time_repr, flags = run
        with tempfile.TemporaryDirectory() as directory:
            pred_path, gt_path = Path(directory) / "pred.jsonl", Path(directory) / "gt.jsonl"
            for path, rows in ((pred_path, preds), (gt_path, gts)):
                path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
            argv = ["eval-dvc", "--pred", str(pred_path), "--gt", str(gt_path),
                    "--time-repr", time_repr, *flags]
            serial = run_main([*argv, "--jobs", "1"])
            pools = len(pool_above_16)
            fanned = run_main([*argv, "--jobs", "2"])
        code, out, err = serial
        assert code in (0, 2, 4), err
        assert "Traceback" not in err
        if code != 0:
            assert out == ""
        else:  # a run of 17 videos or more scores them in a pool at --jobs 2
            assert (len(pool_above_16) > pools) == (len(gts) > 16)
        assert fanned == serial
