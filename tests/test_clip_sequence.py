"""Clip concatenation, frame apportionment, and the two video tasks."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from seq2time import clip_sequence
from seq2time.clip_sequence import (
    MAX_CLIPS,
    MAX_TOTAL_FRAMES,
    MIN_CLIPS,
    CaptionedClip,
    ClipCorpusConfig,
    ClipSequenceSample,
    ClipTask,
    _spans,
    _spread_labels,
    apportion_frames,
    build_clip_corpus,
    clip_corpus,
    compose_sequence,
)
from seq2time.dataset_io import InstructionRecord, encode_line
from seq2time.errors import ConfigError, InvariantViolation
from seq2time.evaluation import parse_predictions
from seq2time.position_token import (
    TimeInterval,
    TimeRepresentation,
    decode_relative,
    encode_ratio,
    format_seconds,
    render_code,
)
from seq2time.templates import TemplateBank

from conftest import derive_annotations


def clip_record(*args):
    """The fields ``clip_sequence.clip_record`` returns, read by name."""
    return InstructionRecord("", *clip_sequence.clip_record(*args))


def make_clip(i, caption, duration, label=None):
    return CaptionedClip(
        id=f"c{i}",
        video=f"clips/v{i}.mp4",
        label=label or f"act{i}",
        caption=caption,
        duration_s=duration,
        fps=30.0,
    )


def two_clip_sample():
    """5 s + 15 s clips at equal rate: frame shares 24/72 of 96."""
    return ClipSequenceSample(
        clips=(
            make_clip(1, "a person is kneading dough", 5.0),
            make_clip(2, "a person is raking leaves", 15.0),
        ),
        rate_factors=(1.0, 1.0),
        frame_counts=(24, 72),
        total_frames=96,
    )


def canonical_clip_bank():
    return TemplateBank(
        {
            "dvc": {
                "single": {
                    "questions": [
                        "Identify and locate all events in the video. For each"
                        " event, provide the start and end time and a short"
                        " description."
                    ] * 10,
                    "answers": ["<EVENTS>"] * 10,
                }
            },
            "tvg": {
                "single": {
                    "questions": [
                        "During which time span can we see <CAPTION> happening"
                        " in the video?"
                    ] * 10,
                    "answers": ["<INTERVAL>"] * 10,
                }
            },
        }
    )


class PickRandom(random.Random):
    """random.Random whose randrange pops queued picks first."""

    def __init__(self, seed=0, picks=()):
        super().__init__(seed)
        self._picks = list(picks)

    def randrange(self, start, stop=None, step=1):
        if self._picks:
            return self._picks.pop(0)
        return super().randrange(start, stop, step)


class TestApportionFrames:
    def test_duration_proportional_split(self):
        assert apportion_frames((10.0, 30.0), 96) == (24, 72)

    def test_equal_weights(self):
        assert apportion_frames((1.0, 1.0, 1.0, 1.0), 96) == (24, 24, 24, 24)

    def test_remainder_ties_resolve_by_position(self):
        assert apportion_frames((1.0, 1.0, 1.0), 10) == (4, 3, 3)

    def test_tiny_weight_topped_up_to_one_frame(self):
        counts = apportion_frames((0.001, 100.0), 10)
        assert counts == (1, 9)

    def test_errors(self):
        with pytest.raises(ConfigError, match="at least one weight"):
            apportion_frames((), 10)
        with pytest.raises(ConfigError, match="positive"):
            apportion_frames((1.0, 0.0), 10)
        with pytest.raises(ConfigError, match="at least one of"):
            apportion_frames((1.0, 1.0, 1.0), 2)
        with pytest.raises(ConfigError, match=f"totals must be below {MAX_TOTAL_FRAMES}$"):
            apportion_frames((1.0, 1.0, 1.0), MAX_TOTAL_FRAMES)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=10
        ),
        st.data(),
    )
    def test_partition_properties(self, weights, data):
        total = data.draw(st.integers(min_value=len(weights), max_value=500))
        counts = apportion_frames(weights, total)
        assert sum(counts) == total
        assert all(c >= 1 for c in counts)

    @settings(max_examples=300)
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=15),
        st.integers(min_value=MAX_TOTAL_FRAMES - 2**40, max_value=MAX_TOTAL_FRAMES - 1),
    )
    def test_counts_add_up_just_below_the_bound(self, weights, total):
        # below MAX_TOTAL_FRAMES the float quotas err by under one frame in
        # all; near 2**52 random weight lists were seen to miss the total
        counts = apportion_frames(weights, total)
        assert sum(counts) == total
        assert all(c >= 1 for c in counts)


class TestComposeSequence:
    def test_contracts(self, clip_pool):
        for seed in range(20):
            sample = compose_sequence(
                clip_pool, 6, 96, (0.5, 2.0), random.Random(seed)
            )
            assert len(sample.clips) == 6
            assert len({c.id for c in sample.clips}) == 6
            assert sum(sample.frame_counts) == 96
            assert all(c >= 1 for c in sample.frame_counts)
            assert all(0.5 <= r <= 2.0 for r in sample.rate_factors)
            assert sample.pseudo_duration_s == pytest.approx(
                sum(c.duration_s for c in sample.clips)
            )

    def test_pseudo_duration_adds_left_to_right_from_zero(self):
        # what sum() gave before Python 3.12; a compensated sum (math.fsum,
        # or sum() from 3.12 on) gives 1.0, and the corpus bytes would follow it
        clips = tuple(make_clip(i, "a person is waving", 0.1) for i in range(10))
        sample = ClipSequenceSample(clips, (1.0,) * 10, (1,) * 10, 10)
        assert sample.pseudo_duration_s == 0.9999999999999999
        assert math.fsum(clip.duration_s for clip in clips) == 1.0

    def test_deterministic(self, clip_pool):
        one = compose_sequence(clip_pool, 5, 96, (0.5, 2.0), random.Random(3))
        two = compose_sequence(clip_pool, 5, 96, (0.5, 2.0), random.Random(3))
        assert one == two

    def test_distinct_labels_when_pool_allows(self, clip_pool):
        # 20 distinct actions in the pool, so 10 clips can all differ
        for seed in range(20):
            sample = compose_sequence(
                clip_pool, 10, 96, (0.5, 2.0), random.Random(seed)
            )
            labels = [c.label for c in sample.clips]
            assert len(set(labels)) == 10

    def test_repeats_never_adjacent_when_avoidable(self):
        pool = [
            make_clip(i, f"caption number {'x' * (i + 1)}", 6.0, label=f"L{i % 2}")
            for i in range(8)
        ]
        saw_repeats = False
        for seed in range(30):
            sample = compose_sequence(pool, 4, 96, (1.0, 1.0), random.Random(seed))
            labels = [c.label for c in sample.clips]
            counts = {lb: labels.count(lb) for lb in set(labels)}
            if max(counts.values()) > 1:
                saw_repeats = True
            if max(counts.values()) <= (len(labels) + 1) // 2:  # avoidable
                for left, right in zip(labels, labels[1:]):
                    assert left != right, labels
        assert saw_repeats  # a 2-label pool must force repeats for 4 clips

    def test_distinct_labels_keep_their_order(self, clip_pool):
        for seed in range(50):
            rng = random.Random(seed)
            chosen = rng.sample(clip_pool[:20], rng.randint(MIN_CLIPS, MAX_CLIPS))
            assert _spread_labels(chosen) == chosen

    def test_rate_factors_span_the_range(self, clip_pool):
        rates = []
        for seed in range(100):
            sample = compose_sequence(
                clip_pool, 4, 96, (0.5, 2.0), random.Random(seed)
            )
            rates.extend(sample.rate_factors)
        assert min(rates) < 0.7
        assert max(rates) > 1.8

    def test_errors(self, clip_pool):
        with pytest.raises(ConfigError, match="n_clips"):
            compose_sequence(clip_pool, 1, 96, (0.5, 2.0), random.Random(0))
        with pytest.raises(ConfigError, match="n_clips"):
            compose_sequence(clip_pool, 11, 96, (0.5, 2.0), random.Random(0))
        with pytest.raises(ConfigError, match="cannot supply"):
            compose_sequence(clip_pool[:3], 4, 96, (0.5, 2.0), random.Random(0))
        with pytest.raises(ConfigError, match="below one frame"):
            compose_sequence(clip_pool, 5, 4, (0.5, 2.0), random.Random(0))
        with pytest.raises(ConfigError, match="rate_bounds"):
            compose_sequence(clip_pool, 5, 96, (2.0, 0.5), random.Random(0))
        with pytest.raises(ConfigError, match="rate_bounds"):
            compose_sequence(clip_pool, 5, 96, (0.5, float("inf")), random.Random(0))


class TestSampleValidation:
    def test_zero_frame_count_is_invariant_violation(self):
        a = make_clip(1, "a caption here", 5.0)
        b = make_clip(2, "another caption", 15.0)
        with pytest.raises(InvariantViolation, match="at least one frame"):
            ClipSequenceSample(
                clips=(a, b),
                rate_factors=(1.0, 1.0),
                frame_counts=(96, 0),
                total_frames=96,
            )

    def test_counts_must_sum_to_total(self):
        a = make_clip(1, "a caption here", 5.0)
        b = make_clip(2, "another caption", 15.0)
        with pytest.raises(InvariantViolation, match="do not sum"):
            ClipSequenceSample(
                clips=(a, b),
                rate_factors=(1.0, 1.0),
                frame_counts=(24, 48),
                total_frames=96,
            )

    def test_clip_field_validation(self):
        with pytest.raises(ConfigError, match="empty caption"):
            make_clip(1, "  ", 5.0)
        with pytest.raises(ConfigError, match="positive duration"):
            make_clip(1, "fine caption", -1.0)

    @pytest.mark.parametrize(
        "duration_s, fps",
        [(math.nan, 30.0), (math.inf, 30.0), (5.0, math.nan), (5.0, math.inf)],
    )
    def test_clip_rejects_nonfinite_duration_and_fps(self, duration_s, fps):
        with pytest.raises(ConfigError, match="positive duration"):
            CaptionedClip("c1", "clips/v1.mp4", "act1", "fine caption", duration_s, fps)


def reference_spans(sample, time_repr):
    """``_spans`` clip by clip, rendering both ends of every clip."""
    total, duration = sample.total_frames, sample.pseudo_duration_s
    spans, end_frame = [], 0
    for count in sample.frame_counts:
        start_frame, end_frame = end_frame, end_frame + count
        if time_repr is TimeRepresentation.RPT:
            codes = (encode_ratio(start_frame, total), encode_ratio(end_frame, total))
            text = render_code(codes[0]) + render_code(codes[1])
            seconds = [decode_relative(code) * duration for code in codes]
        else:
            start_s, end_s = (
                format_seconds(frame / total * duration) for frame in (start_frame, end_frame)
            )
            text = f"{start_s} - {end_s} seconds"
            seconds = [float(start_s), float(end_s)]
        spans.append((text, seconds))
    return spans


class TestSpans:
    @pytest.mark.parametrize("time_repr", list(TimeRepresentation))
    @pytest.mark.parametrize("total_frames", [10, 96, 10_000, 123_457])
    def test_matches_per_clip_rendering(self, clip_pool, total_frames, time_repr):
        rng = random.Random(total_frames)
        for _ in range(200):
            n_clips = rng.randint(MIN_CLIPS, MAX_CLIPS)
            sample = compose_sequence(clip_pool, n_clips, total_frames, (0.5, 2.0), rng)
            assert _spans(sample, time_repr) == reference_spans(sample, time_repr)


class TestDeriveAnnotations:
    def test_two_clip_oracle(self):
        sample = two_clip_sample()
        annotations = derive_annotations(sample)
        assert annotations == [TimeInterval(0.0, 5.0), TimeInterval(5.0, 20.0)]
        assert sample.clips[0].id == "c1"

    def test_quarters(self):
        clips = tuple(
            make_clip(i, f"caption {'x' * (i + 1)}", 5.0) for i in range(4)
        )
        sample = ClipSequenceSample(
            clips=clips,
            rate_factors=(1.0,) * 4,
            frame_counts=(24,) * 4,
            total_frames=96,
        )
        annotations = derive_annotations(sample)
        assert [(a.start, a.end) for a in annotations] == [
            (0.0, 5.0), (5.0, 10.0), (10.0, 15.0), (15.0, 20.0)
        ]

    def test_tiles_pseudo_duration(self, clip_pool):
        for seed in range(30):
            sample = compose_sequence(
                clip_pool,
                random.Random(seed).randint(2, 10),
                96,
                (0.5, 2.0),
                random.Random(seed),
            )
            annotations = derive_annotations(sample)
            assert annotations[0].start == 0.0
            assert annotations[-1].end == sample.pseudo_duration_s
            for left, right in zip(annotations, annotations[1:]):
                assert left.end == right.start


class TestDVCRecord:
    def test_free_form_exact(self):
        record = clip_record(
            ClipTask.DVC,
            two_clip_sample(),
            canonical_clip_bank(),
            TimeRepresentation.FREE_FORM,
            random.Random(0),
        )
        assert record.task == "DVC"
        assert record.answer == (
            "0.0 - 5.0 seconds, a person is kneading dough\n"
            "5.0 - 20.0 seconds, a person is raking leaves"
        )
        assert record.meta["intervals"] == [[0.0, 5.0], [5.0, 20.0]]
        assert record.meta["captions"] == [
            "a person is kneading dough",
            "a person is raking leaves",
        ]
        assert record.meta["duration_s"] == 20.0
        assert record.meta["total_frames"] == 96
        assert record.media == ("clips/v1.mp4", "clips/v2.mp4")

    def test_rpt_exact(self):
        record = clip_record(
            ClipTask.DVC,
            two_clip_sample(),
            canonical_clip_bank(),
            TimeRepresentation.RPT,
            random.Random(0),
        )
        assert record.answer == (
            "<0><0><0><0><2><5><0><0> a person is kneading dough\n"
            "<2><5><0><0><9><9><9><9> a person is raking leaves"
        )
        # the final boundary clamps to 0.9999, so the recoverable end
        # is 19.998 s rather than 20 s
        assert record.meta["intervals"] == [[0.0, 5.0], [5.0, 19.998]]

    def test_one_line_per_clip(self, clip_pool):
        sample = compose_sequence(clip_pool, 10, 96, (0.5, 2.0), random.Random(1))
        record = clip_record(
            ClipTask.DVC,
            sample, canonical_clip_bank(), TimeRepresentation.FREE_FORM,
            random.Random(0),
        )
        assert len(record.answer.splitlines()) == 10

    @pytest.mark.parametrize("repr_name", ["rpt", "free_form"])
    def test_parse_inverts_render(self, clip_pool, repr_name):
        # the parser must recover the meta intervals bit for bit; this is
        # the property that makes self-evaluation exact
        time_repr = TimeRepresentation(repr_name)
        config = ClipCorpusConfig(n_instances=60, seed=7, time_repr=time_repr)
        templates = TemplateBank.load()
        for record in build_clip_corpus(config, clip_pool, templates):
            events = parse_predictions(
                record.answer, time_repr, video_duration_s=record.meta["duration_s"]
            ).events
            assert [[e.start, e.end] for e in events] == (
                record.meta["intervals"]
            ), record.id
            if record.task == "DVC":
                # grounding answers may trail template prose after the
                # interval, so caption fidelity is a DVC-only property
                assert [e.caption for e in events] == record.meta["captions"]


class TestGenerateParseIdentity:
    @given(time_repr=st.sampled_from(list(TimeRepresentation)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_parse_recovers_meta(self, clip_pool, time_repr, data):
        # every accepted (clip_min, clip_max, total_frames, time_repr) renders
        # answers that parse back to the meta intervals bit for bit
        lo = data.draw(st.integers(MIN_CLIPS, MAX_CLIPS), label="clip_min")
        hi = data.draw(st.integers(lo, MAX_CLIPS), label="clip_max")
        config = ClipCorpusConfig(
            n_instances=4,
            clip_min=lo,
            clip_max=hi,
            total_frames=data.draw(st.integers(hi, 20_000), label="total_frames"),
            seed=data.draw(st.integers(0, 2**32), label="seed"),
            time_repr=time_repr,
        )
        for record in build_clip_corpus(config, clip_pool):
            events = parse_predictions(
                record.answer, time_repr, record.meta["duration_s"]
            ).events
            assert [[e.start, e.end] for e in events] == (
                record.meta["intervals"]
            ), record.answer
            if record.task == "DVC":
                assert [e.caption for e in events] == record.meta["captions"]


class TestTVGRecord:
    def test_scripted_pick_free_form(self):
        record = clip_record(
            ClipTask.TVG,
            two_clip_sample(),
            canonical_clip_bank(),
            TimeRepresentation.FREE_FORM,
            PickRandom(picks=[1]),
        )
        assert record.task == "TVG"
        assert record.question == (
            "During which time span can we see a person is raking leaves"
            " happening in the video?"
        )
        assert record.answer == "5.0 - 20.0 seconds"
        assert record.meta["intervals"] == [[5.0, 20.0]]
        assert record.meta["captions"] == ["a person is raking leaves"]
        assert record.meta["target_clip"] == "c2"

    def test_scripted_pick_rpt(self):
        record = clip_record(
            ClipTask.TVG,
            two_clip_sample(),
            canonical_clip_bank(),
            TimeRepresentation.RPT,
            PickRandom(picks=[1]),
        )
        assert record.answer == "<2><5><0><0><9><9><9><9>"

    def test_first_clip(self):
        record = clip_record(
            ClipTask.TVG,
            two_clip_sample(),
            canonical_clip_bank(),
            TimeRepresentation.FREE_FORM,
            PickRandom(picks=[0]),
        )
        assert record.answer == "0.0 - 5.0 seconds"
        assert record.meta["target_clip"] == "c1"


class TestClipCorpusConfig:
    def test_defaults(self):
        config = ClipCorpusConfig(n_instances=1)
        assert (config.clip_min, config.clip_max) == (2, 10)
        assert config.total_frames == 96
        assert (config.rate_min, config.rate_max) == (0.5, 2.0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="clip_min and clip_max"):
            ClipCorpusConfig(n_instances=1, clip_min=1)
        with pytest.raises(ConfigError, match="clip_min and clip_max"):
            ClipCorpusConfig(n_instances=1, clip_min=5, clip_max=3)
        with pytest.raises(ConfigError, match="clip_min and clip_max"):
            ClipCorpusConfig(n_instances=1, clip_max=11)
        with pytest.raises(ConfigError, match="below one frame"):
            ClipCorpusConfig(n_instances=1, total_frames=8)
        ClipCorpusConfig(n_instances=1, total_frames=MAX_TOTAL_FRAMES - 1)
        for bad in (MAX_TOTAL_FRAMES, 2**53, 10**18):
            with pytest.raises(ConfigError, match=f"must be below {MAX_TOTAL_FRAMES}$"):
                ClipCorpusConfig(n_instances=1, total_frames=bad)
        with pytest.raises(ConfigError, match="rate_min and rate_max"):
            ClipCorpusConfig(n_instances=1, rate_min=0.0, rate_max=1.0)
        with pytest.raises(ConfigError, match="rate_min and rate_max"):
            ClipCorpusConfig(n_instances=1, rate_min=1.5, rate_max=1.0)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="rate_min and rate_max"):
                ClipCorpusConfig(n_instances=1, rate_max=bad)


class TestBuildClipCorpus:
    def test_ids_and_meta(self, clip_pool):
        config = ClipCorpusConfig(n_instances=4, seed=6)
        records = list(build_clip_corpus(config, clip_pool))
        assert [r.id for r in records] == [f"cs-6-{i:08d}" for i in range(4)]
        for ordinal, record in enumerate(records):
            assert record.meta["seed"] == 6
            assert record.meta["ordinal"] == ordinal

    def test_deterministic(self, clip_pool):
        config = ClipCorpusConfig(n_instances=20, seed=8)
        assert list(build_clip_corpus(config, clip_pool)) == list(
            build_clip_corpus(config, clip_pool)
        )

    def test_ordinal_purity(self, clip_pool):
        config = ClipCorpusConfig(n_instances=8, seed=2)
        templates = TemplateBank.load()
        build = list(build_clip_corpus(config, clip_pool, templates))
        corpus = clip_corpus(config, clip_pool, templates)
        for k in (0, 3, 7):
            assert build[k] == corpus.record(k)

    def test_parallel_matches_sequential(self, clip_pool, pool_above_16):
        config = ClipCorpusConfig(n_instances=40, seed=12)
        sequential = list(build_clip_corpus(config, clip_pool, jobs=1))
        parallel = list(build_clip_corpus(config, clip_pool, jobs=2))
        assert pool_above_16
        as_bytes = lambda records: "".join(map(encode_line, records))
        assert as_bytes(parallel) == as_bytes(sequential)

    def test_task_mix_proportions(self, clip_pool):
        # 3 sigma for p=1/2, n=400 is 30
        config = ClipCorpusConfig(n_instances=400, seed=1)
        count_dvc = sum(
            1 for r in build_clip_corpus(config, clip_pool) if r.task == "DVC"
        )
        assert abs(count_dvc - 200) <= 30

    def test_clip_counts_respect_range(self, clip_pool):
        config = ClipCorpusConfig(n_instances=50, clip_min=3, clip_max=4, seed=5)
        for record in build_clip_corpus(config, clip_pool):
            assert 3 <= len(record.media) <= 4

    def test_pool_too_small(self, clip_pool):
        config = ClipCorpusConfig(n_instances=1)
        with pytest.raises(ConfigError, match="cannot fill"):
            list(build_clip_corpus(config, clip_pool[:5]))
