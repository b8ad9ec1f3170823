"""The CLI's contract over edited template banks, checked as one property.

A bank is the packaged one with one (task, arity, kind) list edited: one
entry or all of them replaced, prefixed or suffixed with a known hazard.
Whatever the edit, a build either writes records that parse back to their
own targets with the scorer's parsers, or refuses the bank (exit 2)
without a traceback and without writing anything.
"""

import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from seq2time.cli import main
from seq2time.evaluation import parse_predictions
from seq2time.image_sequence import parse_index_mentions
from seq2time.position_token import TimeRepresentation
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
