"""Prediction parsing and temporal/lexical metric oracles."""

import functools
import json
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import seq2time.evaluation as evaluation
from seq2time.errors import ConfigError, CorpusFormatError, DomainError
from seq2time.evaluation import (
    DEFAULT_F1_THRESHOLDS,
    _check_thresholds,
    _iou_rows,
    _matched_counts,
    _r1_hits,
    _report_name,
    _score_videos,
    _video_richness,
    Event,
    EventPrediction,
    MetricsReport,
    RichnessResult,
    aggregate_richness,
    evaluate_run,
    iou,
    load_ground_truth,
    load_predictions,
    parse_predictions,
    recall_at_1,
    temporal_f1,
    tokenize,
)
from seq2time.image_sequence import parse_index_mentions
from seq2time.position_token import (
    SCALE,
    IntervalUnit,
    TimeInterval,
    TimeRepresentation,
    code_from_string,
    decode_relative,
    render_code,
    to_timestamp,
)

from conftest import brute_force_matching, write_rows


FREE = TimeRepresentation.FREE_FORM
RPT = TimeRepresentation.RPT


def sec(start, end):
    return Event(start, end, "")


def ev(start, end, caption="an event"):
    return Event(start, end, caption)


class TestParseFreeForm:
    def test_reference_line(self):
        result = parse_predictions(
            "0.0 - 5.0 seconds, a person is kneading dough", FREE
        )
        assert result.skipped_lines == 0
        (event,) = result.events
        assert (event.start, event.end) == (0.0, 5.0)
        assert event.caption == "a person is kneading dough"

    def test_integer_times_and_colon(self):
        (event,) = parse_predictions("2.5-5 second: mixing the dough", FREE).events
        assert (event.start, event.end) == (2.5, 5.0)
        assert event.caption == "mixing the dough"

    def test_whitespace_and_case_tolerant(self):
        (event,) = parse_predictions("  2.5  -  5  SECONDS   mixing  ", FREE).events
        assert (event.start, event.end) == (2.5, 5.0)
        assert event.caption == "mixing"

    def test_multiple_lines_in_order(self):
        result = parse_predictions(
            "0 - 5 seconds, first\n5 - 20 seconds, second", FREE
        )
        assert [e.caption for e in result.events] == ["first", "second"]

    def test_garbage_lines_counted_not_fatal(self):
        result = parse_predictions(
            "Detected events:\n0 - 5 seconds, first\nno timestamps here", FREE
        )
        assert len(result.events) == 1
        assert result.skipped_lines == 2

    def test_blank_lines_not_counted(self):
        result = parse_predictions("\n\n0 - 5 seconds, first\n\n", FREE)
        assert len(result.events) == 1
        assert result.skipped_lines == 0

    def test_inverted_interval_swapped(self):
        (event,) = parse_predictions("9.0 - 3.0 seconds, backwards", FREE).events
        assert (event.start, event.end) == (3.0, 9.0)

    def test_negative_start_does_not_match(self):
        result = parse_predictions("-1 - 5 seconds, below zero", FREE)
        assert len(result.events) == 0
        assert result.skipped_lines == 1

    def test_duration_not_required(self):
        assert len(parse_predictions("0 - 1 seconds, x", FREE).events) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "5 - " + "9" * 400 + " seconds, too long",
            "9" * 400 + " - 5 seconds, too long",
            "9" * 400 + ".5 - " + "9" * 400 + " seconds, too long",
        ],
    )
    def test_time_beyond_float_range_skipped(self, line):
        # float() reads such a time as infinity: the line is skipped and
        # counted, not scored as an event that never ends
        result = parse_predictions(f"{line}\n0 - 5 seconds, kept", FREE)
        assert [tuple(e) for e in result.events] == [(0.0, 5.0, "kept")]
        assert result.skipped_lines == 1


class TestParseRPT:
    def test_reference_line(self):
        (event,) = parse_predictions(
            "<2><5><0><0><5><0><0><0> mixing", RPT, video_duration_s=10.0
        ).events
        assert (event.start, event.end) == (2.5, 5.0)
        assert event.caption == "mixing"

    def test_inverted_codes_swapped(self):
        (event,) = parse_predictions(
            "<5><0><0><0><2><5><0><0> mixing", RPT, video_duration_s=10.0
        ).events
        assert (event.start, event.end) == (2.5, 5.0)

    def test_single_code_line_skipped(self):
        result = parse_predictions("<2><5><0><0> mixing", RPT, video_duration_s=10.0)
        assert len(result.events) == 0
        assert result.skipped_lines == 1

    def test_non_ascii_digit_line_skipped(self):
        # Arabic-Indic digits match \d but are no tokens; one such line is
        # skipped and counted, and never aborts the parse
        text = (
            "<\u0660><\u0660><\u0660><\u0660><\u0665><\u0660><\u0660><\u0660> x\n"
            "<0><0><0><0><5><0><0><0> y"
        )
        result = parse_predictions(text, RPT, video_duration_s=10.0)
        assert [e.caption for e in result.events] == ["y"]
        assert result.skipped_lines == 1

    def test_duration_required(self):
        with pytest.raises(DomainError, match="video_duration_s"):
            parse_predictions("<2><5><0><0><5><0><0><0> x", RPT)
        with pytest.raises(DomainError, match="video_duration_s"):
            parse_predictions("x", RPT, video_duration_s=0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_duration_must_be_finite(self, duration):
        # checked up front, even when no line parses
        with pytest.raises(DomainError, match="video_duration_s"):
            parse_predictions("junk", RPT, duration)

    @pytest.mark.parametrize("duration", [1.0, 7.3, 1e6])
    def test_every_code_decodes_as_the_codec_does(self, duration):
        codes = [render_code(c) for c in range(SCALE)]
        text = "\n".join(f"{a}{b} x" for a, b in zip(codes, reversed(codes)))
        events = parse_predictions(text, RPT, duration).events
        assert len(events) == SCALE
        for event, a, b in zip(events, codes, reversed(codes)):
            times = sorted(
                to_timestamp(decode_relative(code_from_string(code)), duration)
                for code in (a, b)
            )
            assert [event.start, event.end] == times

    def test_caption_may_be_empty(self):
        (event,) = parse_predictions(
            "<0><0><0><0><9><9><9><9>", RPT, video_duration_s=10.0
        ).events
        assert event.caption == ""
        assert (event.start, event.end) == (0.0, 9.999)


class TestEvent:
    def test_is_a_tuple_of_its_fields(self):
        event = Event(1.5, 4.0, "x")
        assert (event.start, event.end, event.caption) == (1.5, 4.0, "x")
        assert tuple(event) == (1.5, 4.0, "x")
        assert Event(3.0, 3.0, "") == (3.0, 3.0, "")

    @pytest.mark.parametrize(
        "start, end",
        [(-1.0, 2.0), (-0.5, -0.1), (5.0, 1.0), (math.nan, 2.0), (0.0, math.nan),
         (math.nan, math.nan), (3.0, 2.0)],
    )
    def test_rejects_times_outside_order(self, start, end):
        message = f"^interval requires 0 <= start <= end, got \\({start}, {end}\\)$"
        with pytest.raises(DomainError, match=message):
            Event(start, end, "x")
        # a TimeInterval checks nothing; the Event built from it does
        interval = TimeInterval(start, end, IntervalUnit.SECONDS)
        with pytest.raises(DomainError, match=message):
            EventPrediction(interval, "x")

    def test_make_and_replace_check_too(self):
        # namedtuple's own _make, which _replace calls, skips __new__
        with pytest.raises(DomainError, match=r"got \(5.0, 1.0\)$"):
            Event(0.0, 1.0, "c")._replace(start=5.0)
        with pytest.raises(DomainError, match=r"got \(-1.0, 2.0\)$"):
            Event._make((-1.0, 2.0, "c"))
        assert Event(0.0, 1.0, "c")._replace(end=3.0) == Event(0.0, 3.0, "c")
        assert type(Event._make((0.0, 1.0, "c"))) is Event

    def test_event_prediction_builds_the_same_event(self):
        interval = TimeInterval(2.0, 7.5, IntervalUnit.SECONDS)
        event = EventPrediction(interval, "stirring")
        assert type(event) is Event
        assert event == Event(2.0, 7.5, "stirring")

    def test_f1_over_event_prediction_truth_equals_f1_over_events(self):
        # the benchmark builds ground truth as
        # EventPrediction(TimeInterval(start, end, IntervalUnit.SECONDS), caption)
        rng = random.Random(18)
        for _ in range(200):
            times = [
                (s, s + rng.uniform(0.0, 6.0))
                for s in (rng.uniform(0, 10) for _ in range(rng.randint(1, 6)))
            ]
            preds = [ev(s, s + rng.uniform(0.1, 6.0)) for s, _ in times[: rng.randint(0, 6)]]
            events = [Event(s, e, "gt") for s, e in times]
            shimmed = [
                EventPrediction(TimeInterval(s, e, IntervalUnit.SECONDS), "gt") for s, e in times
            ]
            assert temporal_f1(preds, shimmed) == temporal_f1(preds, events)


class TestParseIndexMentions:
    def test_free_form_reads_integers(self):
        assert parse_index_mentions("The image index is 7.", FREE, 96) == [7]
        assert parse_index_mentions("indices 7, 24.", FREE, 96) == [7, 24]

    def test_rpt_reads_codes(self):
        assert parse_index_mentions("index <0><7><2><9>.", RPT, 96) == [7]
        text = "<0><7><2><9> then <2><5><0><0>"
        assert parse_index_mentions(text, RPT, 96) == [7, 24]

    def test_rpt_ignores_partial_codes(self):
        assert parse_index_mentions("just <7> alone", RPT, 96) == []

    def test_rpt_ignores_non_ascii_digits(self):
        text = "<\u0660><\u0667><\u0662><\u0669> then <2><5><0><0>"
        assert parse_index_mentions(text, RPT, 96) == [24]

    def test_no_mentions(self):
        assert parse_index_mentions("nothing numeric here", FREE, 96) == []


class TestIoU:
    def test_one_third(self):
        assert iou(sec(0, 10), sec(5, 15)) == pytest.approx(1 / 3)

    def test_identity(self):
        assert iou(sec(2, 8), sec(2, 8)) == 1.0

    def test_disjoint(self):
        assert iou(sec(0, 1), sec(2, 3)) == 0.0

    def test_touching_is_zero(self):
        assert iou(sec(0, 1), sec(1, 2)) == 0.0

    def test_zero_union(self):
        assert iou(sec(3, 3), sec(3, 3)) == 0.0

    @given(
        st.tuples(
            st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
        ),
        st.tuples(
            st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
        ),
    )
    def test_symmetric_and_bounded(self, pair_a, pair_b):
        a = sec(min(pair_a), max(pair_a))
        b = sec(min(pair_b), max(pair_b))
        value = iou(a, b)
        assert 0.0 <= value <= 1.0
        assert value == iou(b, a)


class TestRecallAt1:
    def test_half_at_05_none_at_07(self):
        preds = [ev(0, 6), ev(0, 4)]
        gts = [ev(0, 10), ev(0, 10)]
        assert recall_at_1(preds, gts) == {0.5: 0.5, 0.7: 0.0}

    def test_none_prediction_is_a_miss(self):
        assert recall_at_1([None], [ev(0, 10)]) == {0.5: 0.0, 0.7: 0.0}

    def test_accepts_bare_intervals(self):
        assert recall_at_1([sec(0, 10)], [sec(0, 10)]) == {0.5: 1.0, 0.7: 1.0}

    def test_custom_thresholds(self):
        scores = recall_at_1([ev(0, 6)], [ev(0, 10)], thresholds=(0.25, 0.6, 0.61))
        assert scores == {0.25: 1.0, 0.6: 1.0, 0.61: 0.0}

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="2 predictions for 1"):
            recall_at_1([ev(0, 1), ev(1, 2)], [ev(0, 1)])

    def test_empty_queries_undefined(self):
        with pytest.raises(DomainError, match="empty query set"):
            recall_at_1([], [])

    @pytest.mark.parametrize("bad", [0, -0.5, 1.5, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, bad):
        # at 0 a missing prediction would count as a hit
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\]"):
            recall_at_1([None, ev(0, 10)], [ev(0, 10), ev(0, 10)], thresholds=(0.5, bad))

    def test_threshold_list_checked_as_a_whole(self):
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\]"):
            recall_at_1([None], [ev(0, 10)], thresholds=(0, 1.5, math.nan))

    def test_no_thresholds_rejected(self):
        with pytest.raises(DomainError, match="at least one"):
            recall_at_1([ev(0, 10)], [ev(0, 10)], thresholds=())

    def test_thresholds_sharing_a_report_key_rejected(self):
        # the report keys each threshold f"{th:g}": 0.8000001 would overwrite 0.8
        message = "^thresholds 0.8 and 0.8000001 both report as 0.8$"
        with pytest.raises(DomainError, match=message):
            recall_at_1([ev(0, 10)], [ev(0, 10)], thresholds=(0.8, 0.8000001))


_POINTS = st.integers(0, 12) | st.floats(0, 12)
_INTERVALS = st.tuples(_POINTS, _POINTS).map(lambda ends: sec(min(ends), max(ends)))


@st.composite
def _pred_gt_lists(draw):
    """Pred and ground-truth lists that mix arbitrary intervals with ones
    whose ends come from a few shared points, so zero-length, touching and
    identical intervals are common."""
    points = st.sampled_from(draw(st.lists(_POINTS, min_size=1, max_size=4)))
    shared = st.tuples(points, points).map(lambda ends: sec(min(ends), max(ends)))
    events = st.lists(_INTERVALS | shared, max_size=6)
    return draw(events), draw(events)


class TestMatchedCounts:
    def test_greedy_trap(self):
        # matching pred order greedily gives 1 here; the optimum is 2
        preds = [sec(0, 10), sec(0, 5)]
        gts = [sec(0, 5), sec(5, 10)]
        assert _matched_counts(preds, gts, (0.5,))[0.5] == 2

    def test_empty_sides(self):
        assert _matched_counts([], [sec(0, 1)], (0.5,))[0.5] == 0
        assert _matched_counts([sec(0, 1)], [], (0.5,))[0.5] == 0

    def test_long_chain(self):
        # pred i overlaps gt i and gt i+1 and takes gt i, its first free one;
        # the last pred overlaps only gt 0, so its augmenting path re-routes
        # every earlier match: 1,500 deep over 3,002 events, beyond the
        # default recursion limit
        preds = [sec(i + 1.5, i + 2.5) for i in range(1500)] + [sec(0.5, 1.5)]
        gts = [sec(i + 1, i + 2) for i in range(1501)]
        assert _matched_counts(preds, gts, (0.3,))[0.3] == 1501

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(404)
        for trial in range(2000):
            preds = [
                sec(s, s + rng.uniform(0.1, 6.0))
                for s in (rng.uniform(0, 10) for _ in range(rng.randint(0, 4)))
            ]
            gts = [
                sec(s, s + rng.uniform(0.1, 6.0))
                for s in (rng.uniform(0, 10) for _ in range(rng.randint(0, 4)))
            ]
            threshold = rng.choice((0.3, 0.5, 0.7, 0.9))
            assert _matched_counts(preds, gts, (threshold,))[threshold] == brute_force_matching(
                preds, gts, threshold
            ), (preds, gts, threshold)

    def test_edgeless_preds_match_brute_force_at_several_thresholds(self, monkeypatch):
        # ground truth lies in [0, 10] and some preds in [20, 30]: those have no
        # edge, are never searched from, and bound the count by the others
        searched = []
        augment = evaluation._augment

        def spy(root, *rest):
            searched.append(root)
            return augment(root, *rest)

        def events(low, n):
            return [sec(s, s + rng.uniform(0.1, 6.0)) for s in
                    (rng.uniform(low, low + 4) for _ in range(n))]

        monkeypatch.setattr(evaluation, "_augment", spy)
        rng = random.Random(31)
        for _ in range(1500):
            preds = events(0, rng.randint(0, 4)) + events(20, rng.randint(0, 3))
            rng.shuffle(preds)
            gts = events(0, rng.randint(0, 4))
            thresholds = rng.sample((0.1, 0.3, 0.5, 0.7, 0.9, 1.0), rng.randint(1, 6))
            searched.clear()
            counts = _matched_counts(preds, gts, thresholds)
            assert counts == {
                th: brute_force_matching(preds, gts, th) for th in thresholds
            }, (preds, gts, thresholds)
            assert all(preds[u].start < 20 for u in searched)


class TestTemporalF1:
    def test_identity_is_one(self):
        events = [ev(0, 5), ev(5, 12), ev(12, 20)]
        result = temporal_f1(events, events)
        assert result.f1 == 1.0
        for score in result.per_threshold.values():
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_disjoint_is_zero(self):
        result = temporal_f1([ev(0, 1)], [ev(5, 6)])
        assert result.f1 == 0.0

    def test_empty_predictions(self):
        result = temporal_f1([], [ev(0, 5)])
        assert result.f1 == 0.0
        assert result.per_threshold[0.5].recall == 0.0

    def test_single_pair_iou_06_scores_half(self):
        # passes thresholds 0.3 and 0.5, fails 0.7 and 0.9
        result = temporal_f1([ev(0, 6)], [ev(0, 10)])
        assert result.f1 == pytest.approx(0.5)
        assert result.per_threshold[0.3].f1 == 1.0
        assert result.per_threshold[0.9].f1 == 0.0

    def test_two_event_hand_oracle(self):
        preds = [ev(0, 10), ev(0, 5)]
        gts = [ev(0, 5), ev(5, 10)]
        result = temporal_f1(preds, gts)
        assert result.per_threshold[0.3].f1 == 1.0
        assert result.per_threshold[0.5].f1 == 1.0
        assert result.per_threshold[0.7].f1 == pytest.approx(0.5)
        assert result.per_threshold[0.9].f1 == pytest.approx(0.5)
        assert result.f1 == pytest.approx(0.75)

    def test_f1_non_increasing_in_threshold(self):
        rng = random.Random(7)
        for _ in range(100):
            preds = [ev(s, s + rng.uniform(0.5, 5)) for s in range(rng.randint(1, 5))]
            gts = [ev(s, s + rng.uniform(0.5, 5)) for s in range(rng.randint(1, 5))]
            result = temporal_f1(preds, gts)
            series = [result.per_threshold[t].f1 for t in DEFAULT_F1_THRESHOLDS]
            assert series == sorted(series, reverse=True)

    def test_thresholds_required(self):
        with pytest.raises(DomainError, match="at least one"):
            temporal_f1([ev(0, 1)], [ev(0, 1)], thresholds=())

    @pytest.mark.parametrize("bad", [0, -0.1, 1.5, math.nan])
    def test_thresholds_must_lie_in_unit_interval(self, bad):
        # a threshold <= 0 would count pairs that do not overlap
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\]"):
            temporal_f1([ev(0, 1)], [ev(0, 1)], thresholds=(0.5, bad))

    def test_thresholds_sharing_a_report_key_rejected(self):
        message = "^thresholds 0.3 and 0.30000001 both report as 0.3$"
        with pytest.raises(DomainError, match=message):
            temporal_f1([ev(0, 1)], [ev(0, 1)], thresholds=(0.3, 0.5, 0.30000001))

    def test_equal_thresholds_and_integers_share_one_float_key(self):
        result = temporal_f1([ev(0, 1)], [ev(0, 1)], thresholds=(1, 0.5, 1.0))
        assert list(result.per_threshold) == [1.0, 0.5]
        assert all(type(th) is float for th in result.per_threshold)

    # integer endpoints and thresholds such as 0.5 or 1/3 put IoU values
    # exactly on a threshold, where >= must still hold; lists with two
    # values of one report name (1.0 and 0.9999999999999999) are refused
    @settings(max_examples=150, deadline=None)
    @given(
        _pred_gt_lists(),
        st.lists(
            st.sampled_from((1 / 3, 0.5, 0.6, 1.0)) | st.floats(0, 1, exclude_min=True),
            min_size=1,
            max_size=6,
        ).filter(lambda ths: len(set(map(_report_name, ths))) == len(set(ths))),
    )
    def test_warm_start_matches_brute_force_at_each_threshold(self, events, thresholds):
        preds, gts = events
        rows = _iou_rows(preds, gts)
        assert len(rows) == len(preds)
        for p, row in zip(preds, rows):
            overlapping = [
                j for j, g in enumerate(gts) if min(p.end, g.end) > max(p.start, g.start)
            ]
            assert row == [(iou(p, gts[j]), j) for j in overlapping]
            # every pair with IoU > 0 is listed; a listed IoU is 0 only when a
            # subnormal overlap underflows, and then it meets no threshold
            assert {j for j, g in enumerate(gts) if iou(p, g) > 0} <= set(overlapping)
        result = temporal_f1(preds, gts, thresholds)
        assert list(result.per_threshold) == list(dict.fromkeys(thresholds))
        for th in thresholds:
            matched = brute_force_matching(preds, gts, th)
            score = result.per_threshold[th]
            assert score.precision == (matched / len(preds) if preds else 0.0)
            assert score.recall == (matched / len(gts) if gts else 0.0)
        # the mean adds left to right from 0 (sum() compensates from Python 3.12 on)
        f1s = [s.f1 for s in result.per_threshold.values()]
        assert result.f1 == functools.reduce(operator.add, f1s, 0) / len(f1s)


class TestScoreVideos:
    @pytest.mark.parametrize(
        "thresholds", [DEFAULT_F1_THRESHOLDS, (0.9, 0.3, 0.5, 0.3), (1, 0.5, 1.0), (0.7, 0.05)]
    )
    def test_row_is_the_public_metrics(self, thresholds):
        # the scorer's row holds exactly what temporal_f1, _r1_hits and
        # _video_richness give for the video, also for preds that overlap nothing
        rng = random.Random(f"rows:{thresholds}")
        preds, gts = {}, {}
        for v in range(300):
            truth = [ev(s, s + rng.uniform(0.1, 6.0), rng.choice(("a b", "c", "")))
                     for s in (rng.uniform(0, 20) for _ in range(rng.randint(0, 5)))]
            lines = [f"{rng.uniform(0, 20):.2f} - {rng.uniform(0, 20):.2f} seconds, x y"
                     for _ in range(rng.randint(0, 4))]
            lines += [f"{s:.2f} - {s + 3:.2f} seconds: far" for s in
                      (rng.uniform(30, 40) for _ in range(rng.randint(0, 2)))]
            lines += rng.choice(([], ["garbage"], ["", "  "]))
            rng.shuffle(lines)
            preds[f"v{v}"], gts[f"v{v}"] = ("\n".join(lines), 40.0), truth
        ids = sorted(gts)
        r1 = (0.7, 0.5, 0.5)
        keys = tuple(dict.fromkeys(_check_thresholds(thresholds)))
        rows = _score_videos((preds, gts, ids, FREE, keys, r1), range(len(ids)))
        assert len(rows) == len(ids)
        for video_id, row in zip(ids, rows):
            events, skipped = parse_predictions(preds[video_id][0], FREE)
            result = temporal_f1(events, gts[video_id], thresholds)
            flat = [x for score in result.per_threshold.values() for x in score]
            assert row == (
                skipped,
                len(events),
                result.f1,
                flat,
                _r1_hits(zip(events, gts[video_id]), r1),
                _video_richness([e.caption for e in events]),
            )


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("A person, kneading-dough!") == [
            "a", "person", "kneading", "dough",
        ]

    def test_underscore_is_a_separator(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_digits_kept_in_tokens(self):
        assert tokenize("at 5pm") == ["at", "5pm"]

    def test_empty(self):
        assert tokenize("...") == []


class TestRichness:
    def test_single_video_oracles(self):
        assert aggregate_richness([["a a a a a"]]) == RichnessResult(l_avg=5.0, ttr=0.2)
        assert aggregate_richness([["a b c a b"]]) == RichnessResult(l_avg=5.0, ttr=0.6)

    def test_multiple_captions_pool_tokens(self):
        result = aggregate_richness([["one two three", "one"]])
        assert result.l_avg == 2.0
        assert result.ttr == pytest.approx(3 / 4)

    def test_single_token_ttr_is_one(self):
        assert aggregate_richness([["Hello"]]) == RichnessResult(l_avg=1.0, ttr=1.0)

    def test_empty_caption_list_undefined(self):
        with pytest.raises(DomainError, match="no video has caption tokens"):
            aggregate_richness([[]])

    def test_tokenless_captions_undefined(self):
        with pytest.raises(DomainError, match="no video has caption tokens"):
            aggregate_richness([["!!!", "..."]])

    def test_aggregate_averages_ttr_pools_length(self):
        result = aggregate_richness([["a a a a a"], ["a b c a b"]])
        assert result.l_avg == 5.0
        assert result.ttr == pytest.approx(0.4)

    def test_aggregate_skips_tokenless_videos(self):
        result = aggregate_richness([["a b"], ["..."]])
        assert result.l_avg == 1.0  # 2 tokens over 2 captions
        assert result.ttr == 1.0

    def test_aggregate_all_tokenless_undefined(self):
        with pytest.raises(DomainError, match="no video has caption tokens"):
            aggregate_richness([["..."], []])


class TestLoaders:
    def test_ground_truth_round_trip(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_rows(
            [
                {
                    "video_id": "v1",
                    "events": [
                        {"start": 0.0, "end": 5.0, "caption": "a"},
                        {"start": 5.0, "end": 9.0, "caption": "b"},
                        {"start": 9, "end": 12},
                    ],
                }
            ],
            path,
        )
        gts = load_ground_truth(path)
        assert list(gts) == ["v1"]
        assert (gts["v1"][1].start, gts["v1"][1].end) == (5.0, 9.0)
        assert gts["v1"][1].caption == "b"
        assert gts["v1"][2] == ev(9.0, 12.0, caption="")

    def test_ground_truth_bad_event_names_index(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_rows(
            [
                {
                    "video_id": "v1",
                    "events": [{"start": 0.0, "end": 5.0}, {"start": 9.0}],
                }
            ],
            path,
        )
        with pytest.raises(CorpusFormatError, match=r"line 1: bad event 1"):
            load_ground_truth(path)

    def test_ground_truth_inverted_event_rejected(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_rows(
            [{"video_id": "v1", "events": [{"start": 5.0, "end": 1.0}]}], path
        )
        with pytest.raises(CorpusFormatError, match="bad event 0"):
            load_ground_truth(path)

    def test_ground_truth_times_checked_before_caption(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_rows(
            [{"video_id": "v1", "events": [{"start": 5.0, "end": 1.0, "caption": 7}]}],
            path,
        )
        with pytest.raises(CorpusFormatError, match=r"bad event 0: interval requires"):
            load_ground_truth(path)

    def test_ground_truth_duplicate_video(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        write_rows(
            [
                {"video_id": "v1", "events": []},
                {"video_id": "v1", "events": []},
            ],
            path,
        )
        with pytest.raises(
            CorpusFormatError, match="duplicate video_id 'v1' at lines 1 and 2"
        ):
            load_ground_truth(path)

    def test_predictions_round_trip(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        write_rows(
            [{"video_id": "v1", "output": "0 - 5 seconds, x", "duration_s": 20.0}],
            path,
        )
        assert load_predictions(path) == {"v1": ("0 - 5 seconds, x", 20.0)}

    def test_predictions_require_positive_duration(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        write_rows([{"video_id": "v1", "output": "x", "duration_s": 0}], path)
        with pytest.raises(CorpusFormatError, match="positive duration_s"):
            load_predictions(path)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_predictions_reject_non_finite_duration(self, tmp_path, duration):
        path = tmp_path / "pred.jsonl"
        write_rows([{"video_id": "v1", "output": "x", "duration_s": duration}], path)
        with pytest.raises(CorpusFormatError, match="line 1: .*positive duration_s"):
            load_predictions(path)

    def test_predictions_reject_bool_duration(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        write_rows([{"video_id": "v1", "output": "x", "duration_s": True}], path)
        with pytest.raises(CorpusFormatError, match="positive duration_s"):
            load_predictions(path)


def _write_three_video_run(tmp_path):
    """v1 perfect, v2 IoU 0.6, v3 nothing parseable."""
    pred_rows = [
        {
            "video_id": "v1",
            "output": (
                "0.0 - 5.0 seconds, a person is kneading dough\n"
                "5.0 - 20.0 seconds, a person is raking leaves"
            ),
            "duration_s": 20.0,
        },
        {"video_id": "v2", "output": "0 - 6 seconds, x", "duration_s": 10.0},
        {"video_id": "v3", "output": "no timestamps here", "duration_s": 8.0},
    ]
    gt_rows = [
        {
            "video_id": "v1",
            "events": [
                {"start": 0.0, "end": 5.0, "caption": "kneading"},
                {"start": 5.0, "end": 20.0, "caption": "raking"},
            ],
        },
        {
            "video_id": "v2",
            "events": [{"start": 0.0, "end": 10.0, "caption": "whole"}],
        },
        {
            "video_id": "v3",
            "events": [{"start": 0.0, "end": 8.0, "caption": "missed"}],
        },
    ]
    pred_path, gt_path = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    write_rows(pred_rows, pred_path)
    write_rows(gt_rows, gt_path)
    return pred_path, gt_path


class TestEvaluateRun:
    def test_three_video_hand_oracle(self, tmp_path):
        pred_path, gt_path = _write_three_video_run(tmp_path)
        report = evaluate_run(pred_path, gt_path, FREE)
        assert report.n_videos == 3
        assert report.f1 == pytest.approx((1.0 + 0.5 + 0.0) / 3)
        assert report.f1_per_threshold[0.3] == pytest.approx(2 / 3)
        assert report.f1_per_threshold[0.5] == pytest.approx(2 / 3)
        assert report.f1_per_threshold[0.7] == pytest.approx(1 / 3)
        assert report.f1_per_threshold[0.9] == pytest.approx(1 / 3)
        assert report.r_at_1 == {0.5: 0.75, 0.7: 0.5}
        assert report.n_pred == pytest.approx(1.0)
        assert report.skipped_lines == 1
        # captions: v1 has 10 tokens over 2 captions, v2 has 1 over 1
        assert report.l_avg == pytest.approx(11 / 3)
        assert report.ttr == pytest.approx((0.7 + 1.0) / 2)
        assert report.time_repr == "free_form"

    def test_report_serializes(self, tmp_path):
        pred_path, gt_path = _write_three_video_run(tmp_path)
        report = evaluate_run(pred_path, gt_path, FREE)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["temporal_f1"] == pytest.approx(0.5)
        assert list(payload["f1_per_threshold"]) == ["0.3", "0.5", "0.7", "0.9"]
        assert list(payload["r_at_1"]) == ["0.5", "0.7"]
        assert "tokenization" in payload
        assert sorted(payload) == [
            "f1_per_threshold", "l_avg", "n_pred", "n_videos", "precision_per_threshold",
            "r_at_1", "recall_per_threshold", "skipped_lines", "temporal_f1", "time_repr",
            "tokenization", "ttr",
        ]

    @pytest.mark.parametrize("pred_file", ["well-formed", "malformed"])
    @pytest.mark.parametrize(
        "lists, message",
        [
            ({"thresholds": (0.5, 0.8, 0.8000001)}, "thresholds 0.8 and 0.8000001 both .* 0.8"),
            ({"r1_thresholds": (0.7, 0.70000001)}, "thresholds 0.7 and 0.70000001 both .* 0.7"),
            ({"thresholds": (0.5, 2)}, r"IoU thresholds must lie in \(0, 1\]"),
            ({"r1_thresholds": ()}, "at least one IoU threshold"),
        ],
        ids=["f1-shared-key", "r1-shared-key", "f1-out-of-range", "r1-none"],
    )
    def test_thresholds_refused_before_the_files_are_read(
        self, tmp_path, lists, message, pred_file
    ):
        # two thresholds with one report key would report one score under it,
        # and the threshold rule comes before any row of either file
        pred_path, gt_path = _write_three_video_run(tmp_path)
        if pred_file == "malformed":
            pred_path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(DomainError, match=f"^{message}"):
            evaluate_run(pred_path, gt_path, FREE, **lists)

    def test_caption_text_does_not_move_temporal_metrics(self, tmp_path):
        pred_path, gt_path = _write_three_video_run(tmp_path)
        base = evaluate_run(pred_path, gt_path, FREE)
        rows = [json.loads(line) for line in pred_path.read_text().splitlines()]
        rows[0]["output"] = (
            "0.0 - 5.0 seconds, totally different text\n"
            "5.0 - 20.0 seconds, again unrelated words"
        )
        write_rows(rows, pred_path)
        moved = evaluate_run(pred_path, gt_path, FREE)
        assert moved.f1 == base.f1
        assert moved.r_at_1 == base.r_at_1
        assert moved.f1_per_threshold == base.f1_per_threshold

    def test_id_mismatch_lists_both_directions(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        write_rows(
            [{"video_id": "v2", "output": "x", "duration_s": 1.0}], pred_path
        )
        write_rows([{"video_id": "v1", "events": []}], gt_path)
        with pytest.raises(
            CorpusFormatError,
            match=r"videos without predictions: v1; "
            r"predictions without ground truth: v2",
        ):
            evaluate_run(pred_path, gt_path, FREE)

    def test_empty_run_rejected(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        pred_path.write_text("", encoding="utf-8")
        gt_path.write_text("", encoding="utf-8")
        with pytest.raises(DomainError, match="empty run"):
            evaluate_run(pred_path, gt_path, FREE)

    def test_captionless_run_reports_none_richness(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        write_rows(
            [{"video_id": "v1", "output": "0 - 5 seconds,", "duration_s": 10.0}],
            pred_path,
        )
        write_rows(
            [{"video_id": "v1", "events": [{"start": 0, "end": 5}]}], gt_path
        )
        report = evaluate_run(pred_path, gt_path, FREE)
        assert report.l_avg is None
        assert report.ttr is None
        assert report.f1 == 1.0  # timing still scores

    def test_rpt_run(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        write_rows(
            [
                {
                    "video_id": "v1",
                    "output": "<0><0><0><0><5><0><0><0> first half",
                    "duration_s": 10.0,
                }
            ],
            pred_path,
        )
        write_rows(
            [
                {
                    "video_id": "v1",
                    "events": [{"start": 0.0, "end": 5.0, "caption": "first"}],
                }
            ],
            gt_path,
        )
        report = evaluate_run(pred_path, gt_path, RPT)
        assert report.f1 == 1.0
        assert report.r_at_1 == {0.5: 1.0, 0.7: 1.0}
        assert report.time_repr == "rpt"

    def test_extra_gt_events_become_misses(self, tmp_path):
        pred_path = tmp_path / "pred.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        write_rows(
            [{"video_id": "v1", "output": "0 - 5 seconds, a", "duration_s": 10.0}],
            pred_path,
        )
        write_rows(
            [
                {
                    "video_id": "v1",
                    "events": [
                        {"start": 0, "end": 5, "caption": "a"},
                        {"start": 5, "end": 10, "caption": "b"},
                    ],
                }
            ],
            gt_path,
        )
        report = evaluate_run(pred_path, gt_path, FREE)
        assert report.r_at_1 == {0.5: 0.5, 0.7: 0.5}


def _write_jobs_run(tmp_path, n_videos, output=None, events=None):
    """``n_videos`` videos of jittered, missing, extra and garbage lines; an
    ``output`` or ``events`` given replaces every video's."""
    rng = random.Random(n_videos)
    pred_rows, gt_rows = [], []
    for v in range(n_videos):
        truth = []
        for _ in range(rng.randint(0, 6)):
            start = rng.uniform(0, 50)
            truth.append({"start": start, "end": start + rng.uniform(0, 20), "caption": "x"})
        lines = [
            f"{max(0.0, e['start'] + rng.uniform(-2, 2)):.2f} - {e['end'] + rng.uniform(-2, 2):.2f}"
            f" seconds, {rng.choice(['Cut the onion', 'stir', '', 'ΑΣ pour Pour'])}"
            for e in truth if rng.random() < 0.8
        ] + ["garbage"] * rng.randint(0, 2)
        rng.shuffle(lines)
        video_id = f"v{v:02d}"
        pred_rows.append({"video_id": video_id, "output": "\n".join(lines) if output is None
                          else output, "duration_s": 80.0})
        gt_rows.append({"video_id": video_id, "events": truth if events is None else events})
    pred_path, gt_path = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    write_rows(pred_rows, pred_path)
    write_rows(gt_rows, gt_path)
    return pred_path, gt_path


class TestEvaluateRunJobs:
    """``jobs`` only splits the rows; the fold in id order gives the same bits.
    ``pool_above_16`` lowers the cutoff so that these small runs reach the
    pool."""

    def _same_at_both(self, pred_path, gt_path, pools, pooled, **kw):
        serial = evaluate_run(pred_path, gt_path, FREE, jobs=1, **kw)
        fanned = evaluate_run(pred_path, gt_path, FREE, jobs=2, **kw)
        assert bool(pools) == pooled
        assert fanned == serial
        assert repr(fanned) == repr(serial)  # float bits, signs of zeros included
        return serial

    @pytest.mark.parametrize("n_videos, pooled", [(1, False), (16, False), (17, True), (40, True)])
    def test_jobs_2_equals_jobs_1(self, tmp_path, pool_above_16, n_videos, pooled):
        report = self._same_at_both(*_write_jobs_run(tmp_path, n_videos), pool_above_16, pooled)
        assert report.n_videos == n_videos

    @pytest.mark.parametrize("extra, pooled", [(0, False), (1, True)])
    def test_pool_starts_only_above_serial_max(self, tmp_path, pool_starts, extra, pooled):
        # 2,500 videos, the documented cutoff, score in process at any jobs
        event = {"start": 1.0, "end": 2.0, "caption": "x"}
        paths = _write_jobs_run(tmp_path, 2500 + extra, "1 - 2 seconds, x", [event])
        report = evaluate_run(*paths, FREE, jobs=2)
        assert len(pool_starts) == pooled
        assert (report.n_videos, report.f1) == (2500 + extra, 1.0)

    def test_custom_and_repeated_thresholds(self, tmp_path, pool_above_16):
        paths = _write_jobs_run(tmp_path, 30)
        report = self._same_at_both(
            *paths, pool_above_16, True, thresholds=(0.1, 0.5, 0.5), r1_thresholds=(1.0, 0.05)
        )
        assert list(report.f1_per_threshold) == [0.1, 0.5]

    def test_all_garbage_outputs(self, tmp_path, pool_above_16):
        paths = _write_jobs_run(tmp_path, 20, output="no events here\nnor here")
        report = self._same_at_both(*paths, pool_above_16, True)
        assert (report.l_avg, report.ttr, report.n_pred) == (None, None, 0.0)
        assert report.skipped_lines == 40

    def test_a_video_without_events(self, tmp_path, pool_above_16):
        pred_path, gt_path = _write_jobs_run(tmp_path, 20)
        rows = [json.loads(line) for line in gt_path.read_text().splitlines()]
        rows[3]["events"] = []
        write_rows(rows, gt_path)
        self._same_at_both(pred_path, gt_path, pool_above_16, True)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_queries_at_all_is_undefined(self, tmp_path, pool_above_16, jobs):
        paths = _write_jobs_run(tmp_path, 20, events=[])
        with pytest.raises(DomainError, match="^recall@1 is undefined for an empty query set$"):
            evaluate_run(*paths, FREE, jobs=jobs)
        assert not pool_above_16  # refused before any video is scored

    def test_checks_come_before_any_scoring(self, tmp_path):
        # the parent's order: F1 thresholds, R@1 thresholds, the query set, then jobs
        paths = _write_jobs_run(tmp_path, 20, events=[])
        with pytest.raises(DomainError, match="at least one IoU threshold"):
            evaluate_run(*paths, FREE, thresholds=(), r1_thresholds=(0,), jobs=0)
        with pytest.raises(DomainError, match=r"must lie in \(0, 1\]"):
            evaluate_run(*paths, FREE, r1_thresholds=(0,), jobs=0)
        with pytest.raises(DomainError, match="empty query set"):
            evaluate_run(*paths, FREE, jobs=0)
        with pytest.raises(ConfigError, match="^jobs must be >= 1, got 0$"):
            evaluate_run(*_write_jobs_run(tmp_path, 20), FREE, jobs=0)

    def test_rows_fold_to_the_report(self, tmp_path, pool_above_16):
        # the report equals the old whole-run computation through the public metrics
        pred_path, gt_path = _write_jobs_run(tmp_path, 25)
        preds, gts = load_predictions(pred_path), load_ground_truth(gt_path)
        query_preds, query_gts, captions = [], [], []
        for video_id in sorted(gts):
            events = parse_predictions(preds[video_id][0], FREE).events
            for i, gt_event in enumerate(gts[video_id]):
                query_gts.append(gt_event)
                query_preds.append(events[i] if i < len(events) else None)
            captions.append([e.caption for e in events])
        report = evaluate_run(pred_path, gt_path, FREE, jobs=2)
        assert pool_above_16
        assert report.r_at_1 == recall_at_1(query_preds, query_gts)
        assert (report.l_avg, report.ttr) == tuple(aggregate_richness(captions))
