"""Acceptance checks, one test per shipped guarantee.

Each test prints a [PASS] line with its measured values when it succeeds,
and pytest -v shows one PASSED/FAILED line per criterion. Tolerances are
stated inline next to each assertion.
"""

import hashlib
import itertools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from seq2time.cli import main as cli_main
from seq2time.clip_sequence import (
    ClipCorpusConfig,
    ClipTask,
    build_clip_corpus,
    clip_record,
    compose_sequence,
)
from seq2time.evaluation import (
    Event,
    _matched_counts,
    aggregate_richness,
    evaluate_run,
    iou,
    parse_predictions,
    recall_at_1,
    temporal_f1,
)
from seq2time.image_sequence import (
    ImageCorpusConfig,
    PretextTask,
    build_image_corpus,
    image_record,
    parse_index_mentions,
    sample_sequence,
)
from seq2time.position_token import (
    ErrorModel,
    TimeRepresentation,
    code_from_string,
    decode_relative,
    encode_relative,
    quantization_error_report,
    render_code,
    vocabulary,
)
from seq2time.templates import TemplateBank, find_missing_in_order

from conftest import derive_annotations, self_eval_files, write_clip_source, write_image_source

RPT = TimeRepresentation.RPT
FREE = TimeRepresentation.FREE_FORM


def report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion:02d}: {text}")


def test_criterion_01_codec_worked_example_under_1ms():
    code = encode_relative(7, 96)
    assert render_code(code) == "<0><7><2><9>"
    assert code == 729
    # best single-call latency after warmup; the budget is 1 ms
    best = min(
        timeit_once() for _ in range(1000)
    )
    assert best < 1e-3, f"encode+render took {best * 1e3:.3f} ms"
    report(1, f"encode_relative(7, 96) -> <0><7><2><9> in {best * 1e6:.1f} us")


def timeit_once() -> float:
    t0 = time.perf_counter()
    render_code(encode_relative(7, 96))
    return time.perf_counter() - t0


def test_criterion_02_vocabulary_size_and_code_bijection():
    vocab = vocabulary()
    assert len(vocab) == 10
    assert list(vocab) == [f"<{d}>" for d in range(10)]
    seen = set()
    for value in range(10_000):
        rendered = render_code(value)
        assert code_from_string(rendered) == value
        seen.add(rendered)
    assert len(seen) == 10_000  # injective over the whole code space
    report(2, "10-token vocabulary; 10000-code render/parse bijection")


def test_criterion_03_round_trip_error_within_half_quantum():
    # |decode(encode(i, L)) - i/L| <= 5e-5 everywhere except the
    # documented clamp region (ratios rounding to 1.0000, which always
    # includes i = L), where the bound is one quantum (1e-4). The 1e-12
    # slack covers float evaluation of the difference, not the bound.
    rng = random.Random(33)
    worst_regular = 0.0
    worst_clamped = 0.0
    t0 = time.perf_counter()
    for _ in range(1_000_000):
        length = rng.randint(1, 50_000)
        index = rng.randint(1, length)
        error = abs(decode_relative(encode_relative(index, length)) - index / length)
        if index / length >= 0.99995:
            worst_clamped = max(worst_clamped, error)
            assert error <= 1e-4 + 1e-12, (index, length, error)
        else:
            worst_regular = max(worst_regular, error)
            assert error <= 5e-5 + 1e-12, (index, length, error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"1e6 round trips took {elapsed:.1f} s"
    report(
        3,
        f"1e6 draws in {elapsed:.1f} s; worst {worst_regular:.2e}, "
        f"clamp region {worst_clamped:.2e}",
    )


def test_criterion_04_quantization_analyzer_against_oracle():
    analyzed = quantization_error_report(
        ErrorModel.ROUNDING_ONLY, video_duration_s=60.0, fps=30.0, sampled_frames=96
    )
    # independent Monte Carlo oracle: uniform times, quantized through
    # Python's round-to-4-decimals instead of the library path
    rng = np.random.default_rng(44)
    fractions = rng.uniform(0.0, 1.0, 500_000)
    quantized = np.array([round(float(f), 4) for f in fractions])
    oracle_pct = 100.0 * float(np.mean(np.abs(fractions - quantized)))
    assert abs(oracle_pct - 0.0025) / 0.0025 < 0.02  # sanity: analytic value
    assert abs(analyzed.mean_relative_error_pct - oracle_pct) / oracle_pct <= 0.05
    # the exact max is half a quantum of the 60 s span; 1e-9 is float dust
    assert analyzed.max_abs_error_s <= 0.003 + 1e-9

    sampling = quantization_error_report(
        ErrorModel.FRAME_SAMPLING, video_duration_s=60.0, fps=30.0, sampled_frames=96
    )
    assert 0.20 <= sampling.mean_relative_error_pct <= 0.35
    assert sampling.mean_relative_error_pct > 0.13  # stride, not rounding, dominates
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    assert "0.13" in readme  # the model comparison is documented
    report(
        4,
        f"rounding-only mean {analyzed.mean_relative_error_pct:.4f}% vs oracle "
        f"{oracle_pct:.4f}%, max {analyzed.max_abs_error_s:.6f} s; "
        f"frame-sampling mean {sampling.mean_relative_error_pct:.3f}%",
    )


def test_criterion_05_corpus_task_balance_within_3_sigma(image_pool, clip_pool):
    t0 = time.perf_counter()
    image_counts: dict[str, int] = {}
    config = ImageCorpusConfig(n_instances=30_000, seed=101)
    for record in build_image_corpus(config, image_pool):
        image_counts[record.task] = image_counts.get(record.task, 0) + 1
    sigma_image = math.sqrt(30_000 * (1 / 3) * (2 / 3))  # 81.65
    for task in ("IIG", "IIC", "ALR"):
        assert abs(image_counts[task] - 10_000) <= 3 * sigma_image, image_counts

    clip_counts: dict[str, int] = {}
    clip_config = ClipCorpusConfig(n_instances=10_000, seed=102)
    for record in build_clip_corpus(clip_config, clip_pool):
        clip_counts[record.task] = clip_counts.get(record.task, 0) + 1
    sigma_clip = math.sqrt(10_000 * 0.25)  # 50
    for task in ("DVC", "TVG"):
        assert abs(clip_counts[task] - 5_000) <= 3 * sigma_clip, clip_counts
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"40k records took {elapsed:.1f} s"
    report(
        5,
        f"image {image_counts} (3 sigma {3 * sigma_image:.0f}), "
        f"clip {clip_counts} (3 sigma {3 * sigma_clip:.0f}) in {elapsed:.1f} s",
    )


def test_criterion_06_alr_adjacency_holds_on_every_record(image_pool):
    checked = 0
    caption_by_path = {img.image: img.caption for img in image_pool}
    paths = tuple(img.image for img in image_pool)
    bank = TemplateBank.load()
    for time_repr, seed in ((RPT, 201), (FREE, 202)):
        rng = random.Random(seed)
        for _ in range(5_000):
            sample = sample_sequence(image_pool, 96, rng)
            record = image_record(PretextTask.ALR, sample, bank, time_repr, rng, paths)
            anchor = record.meta["anchor"]
            (neighbor,) = record.meta["targets"]
            offset = neighbor - anchor
            assert abs(offset) == 1
            if record.meta["direction"] == "before":
                assert offset == -1
            else:
                assert offset == 1
            parsed = parse_index_mentions(
                record.answer, time_repr, record.meta["seq_len"]
            )
            assert parsed[0] == neighbor, record.answer
            neighbor_caption = caption_by_path[record.media[neighbor - 1]]
            assert (
                find_missing_in_order(record.answer, [neighbor_caption]) is None
            ), record.answer
            checked += 1
    assert checked == 10_000
    report(6, "10000/10000 records: |index - anchor| = 1, sign and caption correct")


def test_criterion_07_frame_partition_tiles_unit_interval(clip_pool):
    rng = random.Random(301)
    for trial in range(10_000):
        total_frames = (13, 96, 250)[trial % 3]
        n_clips = rng.randint(2, 10)
        sample = compose_sequence(
            clip_pool, n_clips, total_frames, (0.5, 2.0), rng
        )
        assert 2 <= len(sample.clips) <= 10
        assert sum(sample.frame_counts) == total_frames
        annotations = derive_annotations(sample)
        assert annotations[0].start == 0.0
        assert annotations[-1].end == sample.pseudo_duration_s
        for left, right in zip(annotations, annotations[1:]):
            assert left.end == right.start
    report(7, "10000 compositions: frame counts partition, spans tile [0, D]")


def test_criterion_08_generate_parse_identity(clip_pool, tmp_path):
    for time_repr, stem in ((FREE, "free"), (RPT, "rpt")):
        config = ClipCorpusConfig(n_instances=150, seed=401, time_repr=time_repr)
        records = list(build_clip_corpus(config, clip_pool))
        pred_path, gt_path = self_eval_files(records, tmp_path, stem)
        scored = evaluate_run(pred_path, gt_path, time_repr)
        assert scored.f1 == 1.0, (stem, scored.f1)
        for threshold, value in scored.f1_per_threshold.items():
            assert value == 1.0, (stem, threshold)
        for threshold, value in scored.r_at_1.items():
            assert value == 1.0, (stem, threshold)

    # rendered position codes must recover the true frame boundaries to
    # within one quantum (1e-4 of the duration)
    bank = TemplateBank.load()
    rng = random.Random(402)
    worst = 0.0
    for trial in range(200):
        sample = compose_sequence(clip_pool, rng.randint(2, 10), 96, (0.5, 2.0), rng)
        truth = [(a.start, a.end) for a in derive_annotations(sample)]
        record = clip_record(ClipTask.DVC, sample, bank, RPT, rng)
        parsed = parse_predictions(record.answer, RPT, sample.pseudo_duration_s)
        assert len(parsed.events) == len(truth)
        budget = 1e-4 * sample.pseudo_duration_s + 1e-9
        for event, (true_start, true_end) in zip(parsed.events, truth):
            start_err = abs(event.start - true_start)
            end_err = abs(event.end - true_end)
            worst = max(worst, start_err, end_err)
            assert start_err <= budget and end_err <= budget
    report(
        8,
        "self-evaluation F1 = 1.0 and R@1 = 1.0 in both renderings; "
        f"worst code recovery error {worst:.2e} s (budget 1e-4 x duration)",
    )


def _brute_force_matching(preds, gts, threshold):
    if len(preds) > len(gts):
        preds, gts = gts, preds
    best = 0
    for perm in itertools.permutations(range(len(gts)), len(preds)):
        best = max(
            best,
            sum(1 for i, j in enumerate(perm) if iou(preds[i], gts[j]) >= threshold),
        )
    return best


def test_criterion_09_metric_oracles():
    sec = lambda a, b: Event(a, b, "")

    rng = random.Random(505)
    for _ in range(10_000):
        preds = [
            sec(s, s + rng.uniform(0.1, 6.0))
            for s in (rng.uniform(0.0, 10.0) for _ in range(rng.randint(0, 4)))
        ]
        gts = [
            sec(s, s + rng.uniform(0.1, 6.0))
            for s in (rng.uniform(0.0, 10.0) for _ in range(rng.randint(0, 4)))
        ]
        threshold = rng.choice((0.3, 0.5, 0.7, 0.9))
        assert _matched_counts(preds, gts, (threshold,))[threshold] == _brute_force_matching(
            preds, gts, threshold
        )

    assert abs(iou(sec(0, 10), sec(5, 15)) - 1 / 3) <= 1e-9
    assert iou(sec(1, 4), sec(1, 4)) == 1.0
    assert iou(sec(0, 1), sec(5, 6)) == 0.0

    scores = recall_at_1([sec(0, 6), sec(0, 4)], [sec(0, 10), sec(0, 10)])
    assert abs(scores[0.5] - 0.5) <= 1e-9
    assert abs(scores[0.7] - 0.0) <= 1e-9
    perfect = recall_at_1([sec(2, 9)], [sec(2, 9)])
    assert perfect == {0.5: 1.0, 0.7: 1.0}

    lexical = aggregate_richness([["the cat sat on the mat"]])
    assert abs(lexical.l_avg - 6.0) <= 1e-9
    assert abs(lexical.ttr - 5 / 6) <= 1e-9
    assert abs(aggregate_richness([["a a a a"]]).ttr - 0.25) <= 1e-9
    pooled = aggregate_richness([["a a a a a"], ["a b c a b"]])
    assert abs(pooled.ttr - 0.4) <= 1e-9

    partial = temporal_f1([sec(0, 8)], [sec(0, 10), sec(20, 30)])
    assert abs(partial.per_threshold[0.5].f1 - 2 / 3) <= 1e-9
    assert partial.per_threshold[0.9].f1 == 0.0
    report(9, "10000 matching trials equal brute force; all metric fixtures exact")


def test_criterion_10_builds_are_byte_identical(image_pool, clip_pool, tmp_path, capsys):
    image_src = write_image_source(image_pool, tmp_path / "images.jsonl")
    clip_src = write_clip_source(clip_pool, tmp_path / "clips.jsonl")
    digests: dict[str, list[str]] = {"image": [], "clip": []}
    for attempt in ("one", "two"):
        out = tmp_path / f"image_{attempt}.jsonl"
        assert (
            cli_main(
                [
                    "build-image-seq",
                    "--source", str(image_src),
                    "--output", str(out),
                    "--n", "300",
                    "--seed", "13",
                ]
            )
            == 0
        )
        digests["image"].append(hashlib.sha256(out.read_bytes()).hexdigest())
        out = tmp_path / f"clip_{attempt}.jsonl"
        assert (
            cli_main(
                [
                    "build-clip-seq",
                    "--source", str(clip_src),
                    "--output", str(out),
                    "--n", "300",
                    "--seed", "14",
                    "--time-repr", "free-form",
                ]
            )
            == 0
        )
        digests["clip"].append(hashlib.sha256(out.read_bytes()).hexdigest())
    capsys.readouterr()
    assert digests["image"][0] == digests["image"][1]
    assert digests["clip"][0] == digests["clip"][1]
    report(
        10,
        f"image sha256 {digests['image'][0][:12]}.. and clip sha256 "
        f"{digests['clip'][0][:12]}.. stable across reruns",
    )


def test_criterion_11_reference_output_line_parses_exactly():
    line = "34.8 - 76.4 seconds, water and salt are added into the bowl"
    result = parse_predictions(line, FREE)
    assert result.skipped_lines == 0
    (event,) = result.events
    assert event.start == 34.8
    assert event.end == 76.4
    assert event.caption == "water and salt are added into the bowl"
    report(11, "reference line parses to (34.8, 76.4) with caption intact")
