"""Parse timed-event predictions and score temporal/lexical quality.

Model outputs arrive as free text. Two line grammars are recognized,
matching how the generators render answers:

* free-form: ``<float> - <float> seconds[,:] <caption>`` (whitespace
  tolerant, ``second``/``seconds`` case-insensitive);
* position tokens: two 4-token codes back to back, then the caption.
  The line pattern admits only codes of four ASCII digit tokens, so each
  code is read in one step, its digits as an int over 10^4 times the
  video duration: the fraction ``decode_relative`` gives, scaled as
  ``to_timestamp`` scales it.

Non-blank lines matching neither grammar, or whose free-form time is too
long for a float, are skipped and counted, never fatal: real model
outputs are noisy. (Image answers mention positions, not intervals;
their parser sits beside their renderer, in ``seq2time.image_sequence``.)

Predicted and ground-truth events share one shape, ``Event(start, end,
caption)``: a tuple, times in seconds, ``0 <= start <= end`` checked once
when it is built. IoU has one formula, ``iou``; ``_iou_rows`` inlines it
for the pairs that overlap. Prediction and ground-truth files are read
under the package's one row-id rule (``dataset_io.unique_rows``), keyed
on ``video_id``.

Metrics:

* ``temporal_f1`` scores one video's predicted events against ground
  truth. Per IoU threshold it finds a one-to-one event matching of
  maximum size among pairs with IoU >= threshold (exact, via augmenting
  paths), then precision = matches/|pred|, recall = matches/|gt|, F1
  their harmonic mean. The reported F1 averages thresholds {0.3, 0.5,
  0.7, 0.9}, and run-level F1 averages videos. Absolute values depend on
  this protocol, so it is spelled out here and in the report metadata.
  Every threshold list obeys one rule (``_check_thresholds``, which
  ``evaluate_run`` applies before it reads a file): at least one
  threshold, each in (0, 1], and no two distinct ones that the report
  names alike. So a pair without overlap (IoU 0) is never an edge and
  only overlapping pairs enter each video's IoU table.
  The table is computed once and matched highest threshold first, and
  the search stops once every pred or every ground-truth event is
  matched; every threshold still gets an exact maximum matching, so no
  number changes.
* ``recall_at_1`` scores aligned single-query grounding at IoU 0.5/0.7.
* ``aggregate_richness`` reports caption diversity: mean tokens per
  caption, pooled, and type-token ratio, averaged over videos, with
  tokens = lowercased maximal alphanumeric runs.
  TTR is tokenizer-sensitive; the rule is embedded in the report.

Every number of a run's report is a sum of per-video numbers, so
``evaluate_run`` scores each video to a row of numbers and folds the rows
in sorted-id order. ``corpus.run_ranges``, the builds' runner, makes the
rows: in process at ``jobs=1`` or for ``corpus.SERIAL_MAX`` videos or
fewer, else in a pool whose workers inherit the loaded files by fork and
send back only rows.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import run_ranges
from .dataset_io import is_positive_number, unique_rows
from .errors import CorpusFormatError, DomainError
from .position_token import CODE_PATTERN, SCALE, TimeRepresentation

DEFAULT_F1_THRESHOLDS = (0.3, 0.5, 0.7, 0.9)
DEFAULT_R1_THRESHOLDS = (0.5, 0.7)
TOKENIZATION_RULE = "lowercase; tokens are maximal alphanumeric runs"
_report_name = "{:g}".format  # a threshold's key in ``MetricsReport.to_dict``

# a line holds no line break, so the caption group runs to its end, and ``strip``
# (``\s`` and ``str.isspace`` agree) costs less than a lazy group before ``\s*$``
_FREE_FORM_LINE = re.compile(
    r"^\s*(\d+(?:\.\d+)?)\s*-\s*(\d+(?:\.\d+)?)\s*seconds?\s*[,:]*(.*)", re.IGNORECASE
)
_RPT_LINE = re.compile(rf"^\s*({CODE_PATTERN})({CODE_PATTERN})(.*)")
_WORD = re.compile(r"[^\W_]+")


class Event(namedtuple("Event", "start end caption")):
    """One timed event in seconds; ``0 <= start <= end`` (so not NaN) is
    checked here, once, and a tuple is cheap to build and read."""

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))  # via __new__, so _replace checks too

    def __new__(cls, start: float, end: float, caption: str) -> Event:
        if not 0.0 <= start <= end:
            raise DomainError(f"interval requires 0 <= start <= end, got ({start}, {end})")
        return tuple.__new__(cls, (start, end, caption))


def EventPrediction(interval, caption: str) -> Event:
    """The ``Event`` of a ``position_token.TimeInterval`` and a caption; kept
    only for ``perfbench/check.py``, which builds its ground truth this way."""
    return Event(interval.start, interval.end, caption)


class ParseResult(NamedTuple):
    """Parsed events plus the count of non-blank lines that did not parse."""

    events: tuple[Event, ...]
    skipped_lines: int


def parse_predictions(
    text: str,
    time_repr: TimeRepresentation,
    video_duration_s: float | None = None,
) -> ParseResult:
    """Extract timed events from output text, line by line.

    Position-token decoding needs the video duration, positive and finite
    as ``to_timestamp`` requires. Inverted intervals are swapped rather
    than dropped. A free-form time too long for a float reads as infinity;
    its line is skipped and counted like one that does not match.
    """
    if time_repr is TimeRepresentation.RPT:
        if video_duration_s is None or not 0 < video_duration_s < math.inf:
            raise DomainError(
                "position-token decoding requires a positive, finite "
                f"video_duration_s, got {video_duration_s}"
            )
    events: list[Event] = []
    skipped = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        if time_repr is TimeRepresentation.RPT:
            match = _RPT_LINE.match(line)
            if match is None:
                skipped += 1
                continue
            start_code, end_code, caption = match.groups()
            # the pattern admits only codes of four digit tokens, so the
            # digits sit at every third character from the second
            start = int(start_code[1::3]) / SCALE * video_duration_s
            end = int(end_code[1::3]) / SCALE * video_duration_s
        else:
            match = _FREE_FORM_LINE.match(line)
            if match is None:
                skipped += 1
                continue
            start_text, end_text, caption = match.groups()
            start, end = float(start_text), float(end_text)
            if math.inf in (start, end):
                skipped += 1
                continue
        if start > end:
            start, end = end, start
        # both times are non-negative and now in order: Event's check holds
        events.append(tuple.__new__(Event, (start, end, caption.strip())))
    return ParseResult(tuple(events), skipped)


def iou(a: Event, b: Event) -> float:
    """Intersection over union; 0 when the union has zero length."""
    overlap = (b.end if b.end < a.end else a.end) - (b.start if b.start > a.start else a.start)
    intersection = overlap if overlap > 0.0 else 0.0
    union = (a.end - a.start) + (b.end - b.start) - intersection
    return 0.0 if union <= 0.0 else intersection / union


def _check_thresholds(thresholds: Sequence[float]) -> tuple[float, ...]:
    """``thresholds`` as floats; refused if empty, if one lies outside (0, 1]
    (NaN too), or if two distinct ones would share one key in the report."""
    if not thresholds:
        raise DomainError("at least one IoU threshold is required")
    if not all(0 < th <= 1 for th in thresholds):
        raise DomainError(f"IoU thresholds must lie in (0, 1], got {list(thresholds)}")
    thresholds, named = tuple(map(float, thresholds)), {}
    for th in thresholds:
        name = _report_name(th)
        if named.setdefault(name, th) != th:
            raise DomainError(f"thresholds {named[name]!r} and {th!r} both report as {name}")
    return thresholds


def recall_at_1(
    predictions: Sequence,
    ground_truth: Sequence,
    thresholds: Sequence[float] = DEFAULT_R1_THRESHOLDS,
) -> dict[float, float]:
    """Fraction of aligned queries whose prediction reaches each IoU bar.

    ``predictions[i]`` answers the query whose truth is
    ``ground_truth[i]``; a missing prediction may be passed as None and
    counts as a miss. Empty query sets are an error, not a silent zero,
    and so are thresholds the one rule refuses (``_check_thresholds``).
    """
    thresholds = _check_thresholds(thresholds)
    if len(predictions) != len(ground_truth):
        raise DomainError(
            f"{len(predictions)} predictions for {len(ground_truth)} queries"
        )
    _check_queries(len(ground_truth))
    pairs = [(pred, gt) for pred, gt in zip(predictions, ground_truth) if pred is not None]
    hits = _r1_hits(pairs, thresholds)
    return {th: h / len(ground_truth) for th, h in zip(thresholds, hits)}


def _check_queries(n_queries: int) -> None:
    if not n_queries:
        raise DomainError("recall@1 is undefined for an empty query set")


def _r1_hits(pairs: Iterable, thresholds: Sequence[float]) -> list[int]:
    """The R@1 hit rule: per threshold, the aligned (pred, gt) pairs whose
    IoU reaches it. A query without a prediction has no pair: a miss."""
    ious = [iou(pred, gt) for pred, gt in pairs]
    return [sum(v >= th for v in ious) for th in thresholds]


def _iou_rows(preds: Sequence, gts: Sequence) -> list[list[tuple[float, int]]]:
    """Per pred, ``(iou(p, g), j)`` for each ``g = gts[j]`` it overlaps, in
    ``j`` order: IoU 0 meets no threshold in (0, 1], and with overlap the
    union is positive, so this is ``iou``'s expression less its zero cases."""
    spans = [(g.start, g.end, g.end - g.start, j) for j, g in enumerate(gts)]
    rows = []
    for p in preds:
        start, end, length, row = p.start, p.end, p.end - p.start, []
        for g_start, g_end, g_length, j in spans:
            overlap = (g_end if g_end < end else end) - (g_start if g_start > start else start)
            if overlap > 0.0:
                row.append((overlap / (length + g_length - overlap), j))
        rows.append(row)
    return rows


def _matched_counts(
    pred_events: Sequence, gt_events: Sequence, thresholds: Sequence[float]
) -> dict[float, int]:
    """Maximum matching size per distinct threshold, from one IoU table: a
    lower threshold only adds edges, so one augmenting search per pred left
    unmatched above makes the kept matching maximum (Kuhn 1955; Berge 1957).
    Once every pred or every ground-truth event is matched, no threshold can
    add a match, so the lower ones report the same count."""
    rows = _iou_rows(pred_events, gt_events)
    owner, matches, counts = [-1] * len(gt_events), 0, {}
    most = min(len(rows), len(owner))
    for th in sorted(set(thresholds), reverse=True):
        if matches < most:
            adjacency = [[j for v, j in row if v >= th] for row in rows]
            for root in [u for u in range(len(rows)) if u not in owner]:
                matches += _augment(root, adjacency, owner)
                if matches == most:
                    break
        counts[th] = matches
    return counts


def _augment(root: int, adjacency: list[list[int]], owner: list[int]) -> bool:
    """Match the unmatched pred ``root`` to a free neighbour at once (the
    greedy start of Hopcroft & Karp 1973), else along an augmenting path
    found by depth-first search on an explicit stack, so long chains cannot
    hit the recursion limit; path[k] is the gt tried from stack[k], owned by
    the pred of stack[k + 1] or else free. False if there is no such path."""
    for v in adjacency[root]:
        if owner[v] < 0:
            owner[v] = root
            return True
    seen = [False] * len(owner)
    stack = [(root, iter(adjacency[root]))]
    path: list[int] = []
    while stack:
        for v in stack[-1][1]:
            if not seen[v]:
                seen[v] = True
                break
        else:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(v)
        if owner[v] < 0:
            for (u, _), gt in zip(stack, path):
                owner[gt] = u
            return True
        stack.append((owner[v], iter(adjacency[owner[v]])))
    return False


class ThresholdScore(NamedTuple):
    precision: float
    recall: float
    f1: float


class TemporalF1Result(NamedTuple):
    per_threshold: dict[float, ThresholdScore]
    f1: float  # mean of per-threshold F1


def temporal_f1(
    pred_events: Sequence,
    gt_events: Sequence,
    thresholds: Sequence[float] = DEFAULT_F1_THRESHOLDS,
) -> TemporalF1Result:
    """One video's event-level F1, averaged over IoU thresholds."""
    thresholds = _check_thresholds(thresholds)
    counts = _matched_counts(pred_events, gt_events, thresholds)
    n_pred, n_gt = len(pred_events), len(gt_events)
    per_threshold: dict[float, ThresholdScore] = {}
    f1_sum = 0  # left to right from 0: sum() compensates from Python 3.12 on
    for th in dict.fromkeys(thresholds):  # a repeated threshold counts once
        matched = counts[th]  # if 0, a side may be empty: every score is 0
        precision = matched / n_pred if matched else 0.0
        recall = matched / n_gt if matched else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if matched else 0.0
        per_threshold[th] = ThresholdScore(precision, recall, f1)
        f1_sum += f1
    return TemporalF1Result(per_threshold, f1_sum / len(per_threshold))


def tokenize(text: str) -> list[str]:
    return _WORD.findall(text.lower())


class RichnessResult(NamedTuple):
    l_avg: float  # mean tokens per caption
    ttr: float    # distinct tokens / total tokens


def aggregate_richness(
    captions_per_video: Sequence[Sequence[str]],
) -> RichnessResult:
    """Pooled mean caption length; TTR per video, then averaged.

    Videos contributing no tokens are skipped in the TTR average; if no
    video has tokens the ratio is undefined and raises.
    """
    return _pooled_richness(map(_video_richness, captions_per_video))


def _video_richness(captions: Sequence[str]) -> tuple[int, int, float | None]:
    """The richness rule for one video: token and caption counts, and TTR (None
    without tokens). No token spans a newline, so one ``tokenize`` does all."""
    tokens = tokenize("\n".join(captions))
    return len(tokens), len(captions), len(set(tokens)) / len(tokens) if tokens else None


def _pooled_richness(videos: Iterable[tuple[int, int, float | None]]) -> RichnessResult:
    total_tokens = total_captions = ttr_sum = n_ttrs = 0
    for n_tokens, n_captions, ttr in videos:
        total_tokens += n_tokens
        total_captions += n_captions
        if ttr is not None:
            ttr_sum += ttr
            n_ttrs += 1
    if not n_ttrs or total_captions == 0:
        raise DomainError("richness is undefined when no video has caption tokens")
    return RichnessResult(total_tokens / total_captions, ttr_sum / n_ttrs)


@dataclass(frozen=True)
class MetricsReport:
    n_videos: int
    f1: float
    f1_per_threshold: dict[float, float]
    precision_per_threshold: dict[float, float]
    recall_per_threshold: dict[float, float]
    r_at_1: dict[float, float]
    n_pred: float
    l_avg: float | None
    ttr: float | None
    skipped_lines: int
    time_repr: str
    tokenization: str = TOKENIZATION_RULE

    def to_dict(self) -> dict:
        """The fields, ``f1`` as ``temporal_f1``, thresholds sorted and named."""
        data = dict(vars(self))
        data["temporal_f1"] = data.pop("f1")
        for k in ("f1_per_threshold", "precision_per_threshold", "recall_per_threshold", "r_at_1"):
            data[k] = {_report_name(th): v for th, v in sorted(data[k].items())}
        return data


def _event_time(event: dict, key: str) -> float:
    """A ground-truth event's ``start`` or ``end``: a JSON number, finite."""
    value = event[key]
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be a finite number of seconds, got {value!r}")
    return float(value)


def load_ground_truth(path: str | Path) -> dict[str, list[Event]]:
    """Ground truth JSONL: {"video_id", "events": [{start, end, caption}]}."""
    videos: dict[str, list[Event]] = {}
    for p, lineno, obj, video_id in unique_rows(path, "video_id"):
        events = obj.get("events")
        if not isinstance(events, list):
            raise CorpusFormatError(f"{p}: line {lineno}: expected an events list")
        parsed = []
        for k, ev in enumerate(events):
            try:
                # the times are checked, by Event, before the caption
                start, end = _event_time(ev, "start"), _event_time(ev, "end")
                event = Event(start, end, ev.get("caption", ""))
                if not isinstance(event.caption, str):
                    raise TypeError(f"caption must be a string, got {event.caption!r}")
            except (KeyError, TypeError, ValueError, DomainError) as exc:
                raise CorpusFormatError(
                    f"{p}: line {lineno}: bad event {k}: {exc}"
                ) from exc
            parsed.append(event)
        videos[video_id] = parsed
    return videos


def load_predictions(path: str | Path) -> dict[str, tuple[str, float]]:
    """Prediction JSONL: {"video_id", "output", "duration_s"}."""
    videos: dict[str, tuple[str, float]] = {}
    for p, lineno, obj, video_id in unique_rows(path, "video_id"):
        output = obj.get("output")
        duration = obj.get("duration_s")
        if not isinstance(output, str) or not is_positive_number(duration):
            raise CorpusFormatError(
                f"{p}: line {lineno}: expected output and positive duration_s"
            )
        videos[video_id] = (output, float(duration))
    return videos


def _score_videos(state: tuple, ordinals: range) -> list[tuple]:
    """One row of numbers per video ``ids[k]``: skipped lines, events parsed,
    F1, the precision, recall and F1 at each distinct F1 threshold (one flat
    list), R@1 hits per R@1 threshold, ``_video_richness`` of its captions."""
    preds, gts, ids, time_repr, thresholds, r1_thresholds = state
    rows = []
    for k in ordinals:
        (output, duration), gt_events = preds[ids[k]], gts[ids[k]]
        events, skipped = parse_predictions(output, time_repr, duration)
        result = temporal_f1(events, gt_events, thresholds)
        scores = [x for score in result.per_threshold.values() for x in score]
        hits = _r1_hits(zip(events, gt_events), r1_thresholds)
        rows.append((skipped, len(events), result.f1, scores, hits,
                     _video_richness([event.caption for event in events])))
    return rows


def evaluate_run(
    pred_file: str | Path,
    gt_file: str | Path,
    time_repr: TimeRepresentation,
    thresholds: Sequence[float] = DEFAULT_F1_THRESHOLDS,
    r1_thresholds: Sequence[float] = DEFAULT_R1_THRESHOLDS,
    jobs: int = 1,
) -> MetricsReport:
    """Score a prediction file against ground truth, video by video.

    Videos must align one-to-one by id; mismatches are listed. Grounding
    queries are formed by pairing the i-th ground-truth event with the
    i-th predicted event of the same video (missing predictions count as
    misses), pooled across videos. Richness fields are None when the
    predictions carry no caption tokens at all. ``run_ranges`` scores the
    videos, in up to ``jobs`` worker processes for large runs; the report
    is the same for any ``jobs``.
    """
    thresholds, r1_thresholds = _check_thresholds(thresholds), _check_thresholds(r1_thresholds)
    preds = load_predictions(pred_file)
    gts = load_ground_truth(gt_file)
    missing = sorted(set(gts) - set(preds))
    extra = sorted(set(preds) - set(gts))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"videos without predictions: {', '.join(missing)}")
        if extra:
            parts.append(f"predictions without ground truth: {', '.join(extra)}")
        raise CorpusFormatError("; ".join(parts))
    if not gts:
        raise DomainError("cannot evaluate an empty run")
    n_queries = sum(map(len, gts.values()))
    _check_queries(n_queries)

    # sums over the rows in sorted-id order, left to right from 0
    ids = sorted(gts)
    state = (preds, gts, ids, time_repr, thresholds, r1_thresholds)
    keys = dict.fromkeys(thresholds)  # temporal_f1's keys, in its order
    f1_sum = n_pred = skipped = 0
    sums, hits, richness = [0] * (3 * len(keys)), [0] * len(r1_thresholds), []
    for chunk in run_ranges(_score_videos, state, len(ids), jobs):
        for video_skipped, video_n_pred, f1, scores, video_hits, video_richness in chunk:
            skipped += video_skipped
            n_pred += video_n_pred
            f1_sum += f1
            sums = [a + b for a, b in zip(sums, scores)]
            hits = [a + b for a, b in zip(hits, video_hits)]
            richness.append(video_richness)

    n_videos = len(ids)
    try:
        l_avg, ttr = _pooled_richness(richness)
    except DomainError:
        l_avg, ttr = None, None
    return MetricsReport(
        n_videos=n_videos,
        f1=f1_sum / n_videos,
        f1_per_threshold=dict(zip(keys, [v / n_videos for v in sums[2::3]])),
        precision_per_threshold=dict(zip(keys, [v / n_videos for v in sums[0::3]])),
        recall_per_threshold=dict(zip(keys, [v / n_videos for v in sums[1::3]])),
        r_at_1={th: h / n_queries for th, h in zip(r1_thresholds, hits)},
        n_pred=n_pred / n_videos,
        l_avg=l_avg,
        ttr=ttr,
        skipped_lines=skipped,
        time_repr=time_repr.value,
    )
