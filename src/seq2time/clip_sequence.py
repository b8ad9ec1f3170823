"""Pseudo-long-videos from short captioned clips, with derived timestamps.

A sample concatenates 2 to 10 clips into one synthetic video of
``total_frames`` sampled frames. Each clip gets a random rate factor, so
clips of equal length can occupy very different shares of the frame
budget; frames are then apportioned largest-remainder with a floor of one
frame per clip. A clip's temporal annotation is, by construction, exactly
the relative span of its frames, which is what makes the labels free: no
human timestamps are involved.

``clip_record`` makes a record of one of two tasks from a sample: DVC
(dense captioning: list every event with its time span) or TVG
(grounding: locate one queried caption). Times render as boundary
position codes or as seconds at 0.1 s display precision, and the
synthetic timeline is D = the sum of real clip durations, added left to
right.
``clip_record`` returns a record's fields but its id; ``clip_corpus``
builds draw them through ``Corpus.record``, which seeds, numbers and
names each record (``seq2time.corpus``).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, pairwise
from typing import Iterator, Sequence

from .corpus import Corpus, RecordFields, _sample_indices
from .dataset_io import CaptionedClip, json_plain
from .errors import ConfigError, InvariantViolation, TemplateError
from .position_token import (
    TimeRepresentation,
    decode_relative,
    encode_ratio,
    format_seconds,
    render_code,
)
from .templates import TemplateBank, render_template

MIN_CLIPS = 2
MAX_CLIPS = 10
# frame totals from here on are refused: below it the float quotas of up to 15
# weights (a sample has 10) err by under one frame in all, so the counts add up
MAX_TOTAL_FRAMES = 2**49


class ClipTask(Enum):
    DVC = "dvc"
    TVG = "tvg"


@dataclass(frozen=True)
class ClipSequenceSample:
    clips: tuple[CaptionedClip, ...]
    rate_factors: tuple[float, ...]
    frame_counts: tuple[int, ...]
    total_frames: int

    def __post_init__(self) -> None:
        if any(c < 1 for c in self.frame_counts):
            raise InvariantViolation(
                f"every clip needs at least one frame, got {self.frame_counts}"
            )
        if sum(self.frame_counts) != self.total_frames:
            raise InvariantViolation(
                f"frame counts {self.frame_counts} do not sum to {self.total_frames}"
            )

    @property
    def pseudo_duration_s(self) -> float:
        """The synthetic timeline D: the clips' durations added left to right
        from 0, so its last bit is the same on every Python (``sum``
        compensates from 3.12 on)."""
        total = 0
        for clip in self.clips:
            total += clip.duration_s
        return total


def apportion_frames(weights: Sequence[float], total: int) -> tuple[int, ...]:
    """Split ``total`` frames proportionally to weights, floor one each.

    Largest-remainder method; remainder ties resolve by position. If the
    proportional share of a clip rounds to zero frames it is topped up to
    one by taking a frame from the biggest allocation. ``total`` must be
    below ``MAX_TOTAL_FRAMES``.
    """
    if not weights:
        raise ConfigError("at least one weight is required")
    if any(w <= 0 for w in weights):
        raise ConfigError(f"weights must be positive, got {tuple(weights)}")
    if total < len(weights):
        raise ConfigError(
            f"cannot give {len(weights)} clips at least one of {total} frames"
        )
    if total >= MAX_TOTAL_FRAMES:
        raise ConfigError(f"cannot split {total} frames: totals must be below {MAX_TOTAL_FRAMES}")
    scale = 0  # left to right from 0: sum() compensates from Python 3.12 on
    for w in weights:
        scale += w
    quotas = [total * w / scale for w in weights]
    counts = [int(q) for q in quotas]
    leftovers = sorted(
        range(len(weights)), key=lambda j: (-(quotas[j] - counts[j]), j)
    )
    for j in leftovers[: total - sum(counts)]:
        counts[j] += 1
    while min(counts) < 1:
        recipient = counts.index(min(counts))
        donor = counts.index(max(counts))
        counts[donor] -= 1
        counts[recipient] += 1
    return tuple(counts)


def _spread_labels(chosen: Sequence[CaptionedClip]) -> list[CaptionedClip]:
    """Order clips so equal action labels are never adjacent when avoidable.

    Greedy most-frequent-first; deterministic given the input order.
    Distinct labels come back in input order, which is what the greedy
    picks for them, so only repeated labels run it.
    """
    if len({clip.label for clip in chosen}) == len(chosen):
        return list(chosen)
    queues: dict[str, list[CaptionedClip]] = {}
    for clip in chosen:
        queues.setdefault(clip.label, []).append(clip)
    first_seen = {label: i for i, label in enumerate(queues)}
    remaining = Counter({label: len(q) for label, q in queues.items()})
    out: list[CaptionedClip] = []
    last_label: str | None = None
    for _ in range(len(chosen)):
        order = sorted(
            (label for label in remaining if remaining[label] > 0),
            key=lambda lb: (-remaining[lb], first_seen[lb]),
        )
        pick = next((lb for lb in order if lb != last_label), order[0])
        out.append(queues[pick].pop(0))
        remaining[pick] -= 1
        last_label = pick
    return out


def compose_sequence(
    pool: Sequence[CaptionedClip],
    n_clips: int,
    total_frames: int,
    rate_bounds: tuple[float, float],
    rng: random.Random,
) -> ClipSequenceSample:
    """Draw clips without replacement and split the frame budget among them.

    Distinct action labels are preferred; when the drawn window cannot
    supply enough distinct labels, repeats are allowed but arranged so
    equal labels never sit next to each other (when avoidable). Rate
    factors are uniform on ``rate_bounds``, so a clip's share of frames is
    proportional to duration times its rate factor.
    """
    if not MIN_CLIPS <= n_clips <= MAX_CLIPS:
        raise ConfigError(f"n_clips must be in {MIN_CLIPS}..{MAX_CLIPS}, got {n_clips}")
    if len(pool) < n_clips:
        raise ConfigError(f"pool of {len(pool)} clips cannot supply {n_clips}")
    if total_frames < n_clips:
        raise ConfigError(
            f"total_frames {total_frames} below one frame per clip ({n_clips})"
        )
    lo, hi = rate_bounds
    if not 0 < lo <= hi < math.inf:
        raise ConfigError(f"rate_bounds must satisfy 0 < lo <= hi, got {rate_bounds}")
    taken: list[CaptionedClip] = []
    skipped: list[CaptionedClip] = []
    labels_used: set[str] = set()
    for i in _sample_indices(rng, len(pool), min(len(pool), 8 * n_clips)):
        if len(taken) == n_clips:
            break
        clip = pool[i]
        if clip.label in labels_used:
            skipped.append(clip)
            continue
        taken.append(clip)
        labels_used.add(clip.label)
    for clip in skipped:
        if len(taken) == n_clips:
            break
        taken.append(clip)
    clips = _spread_labels(taken)
    rates = tuple(rng.uniform(lo, hi) for _ in clips)
    counts = apportion_frames(
        [c.duration_s * r for c, r in zip(clips, rates)], total_frames
    )
    return ClipSequenceSample(
        clips=tuple(clips),
        rate_factors=rates,
        frame_counts=counts,
        total_frames=total_frames,
    )


@lru_cache(maxsize=4096)
def _boundary(frame: int, total_frames: int) -> tuple[str, float]:
    """The rendered code of boundary ``frame`` and the fraction it decodes to."""
    code = encode_ratio(frame, total_frames)
    return render_code(code), decode_relative(code)


def _spans(
    sample: ClipSequenceSample, time_repr: TimeRepresentation
) -> list[tuple[str, list[float]]]:
    """Per clip, its rendered interval and the [start_s, end_s] it parses to.

    Position codes are those of the boundary frame indices, so the end code
    of clip j equals the start code of clip j+1 exactly; seconds are the
    clip's relative span scaled by the pseudo duration, at display
    precision. Each of the n + 1 boundaries is rendered once: its code
    text and fraction come from a cache shared by every record
    (``_boundary``), its seconds from one ``format_seconds`` call.
    """
    total, duration = sample.total_frames, sample.pseudo_duration_s
    frames = accumulate(sample.frame_counts, initial=0)
    if time_repr is TimeRepresentation.RPT:
        bounds = [_boundary(frame, total) for frame in frames]
        return [
            (start + end, [start_fraction * duration, end_fraction * duration])
            for (start, start_fraction), (end, end_fraction) in pairwise(bounds)
        ]
    shown = [format_seconds(frame / total * duration) for frame in frames]
    return [
        (f"{start} - {end} seconds", [float(start), float(end)])
        for start, end in pairwise(shown)
    ]


def _answer(
    task: ClipTask,
    template: str,
    spans: Sequence[tuple[str, list[float]]],
    captions: Sequence[str],
    time_repr: TimeRepresentation,
) -> str:
    """A DVC answer: one line per (span, caption); a TVG answer: its one span."""
    if task is ClipTask.TVG:
        return render_template(template, {"<INTERVAL>": spans[0][0]})
    sep = " " if time_repr is TimeRepresentation.RPT else ", "
    lines = [f"{text}{sep}{caption}" for (text, _), caption in zip(spans, captions)]
    return render_template(template, {"<EVENTS>": "\n".join(lines)})


def clip_record(
    task: ClipTask,
    sample: ClipSequenceSample,
    templates: TemplateBank,
    time_repr: TimeRepresentation,
    rng: random.Random,
) -> RecordFields:
    """The ``task`` record of ``sample``, its templates drawn from ``rng``:
    its (media, task, question, answer, meta).

    DVC lists every clip's span and caption, one line per clip, in order;
    TVG draws one clip uniformly and puts its caption in the question and
    its span in the answer.
    """
    spans = _spans(sample, time_repr)
    captions = [clip.caption for clip in sample.clips]
    values, meta = {}, {}
    if task is ClipTask.TVG:
        pick = rng.randrange(len(sample.clips))
        spans, captions = spans[pick : pick + 1], captions[pick : pick + 1]
        values, meta = {"<CAPTION>": captions[0]}, {"target_clip": sample.clips[pick].id}
    q_tpl, a_tpl = templates.sample(task.value, "single", rng)
    return (
        tuple(clip.video for clip in sample.clips),
        task.name,
        render_template(q_tpl, values),
        _answer(task, a_tpl, spans, captions, time_repr),
        {
            "total_frames": sample.total_frames,
            "duration_s": sample.pseudo_duration_s,
            "intervals": [seconds for _, seconds in spans],
            "captions": captions,
            **meta,
            "time_repr": time_repr.value,
        },
    )


@dataclass(frozen=True)
class ClipCorpusConfig:
    n_instances: int
    clip_min: int = MIN_CLIPS
    clip_max: int = MAX_CLIPS
    total_frames: int = 96
    rate_min: float = 0.5
    rate_max: float = 2.0
    seed: int = 0
    time_repr: TimeRepresentation = TimeRepresentation.RPT
    # a record's cost in corpus.SERIAL_MAX units: 0.7-1.2 at any config (BENCH_24.json)
    record_weight = 1.0

    def __post_init__(self) -> None:
        if self.n_instances < 0:
            raise ConfigError(f"n_instances must be >= 0, got {self.n_instances}")
        if not MIN_CLIPS <= self.clip_min <= self.clip_max <= MAX_CLIPS:
            raise ConfigError(
                f"clip_min and clip_max must satisfy {MIN_CLIPS} <= clip_min <= "
                f"clip_max <= {MAX_CLIPS}, got {self.clip_min} and {self.clip_max}"
            )
        if self.total_frames < self.clip_max:
            raise ConfigError(
                f"total_frames {self.total_frames} below one frame per clip ({self.clip_max})"
            )
        if self.total_frames >= MAX_TOTAL_FRAMES:
            raise ConfigError(f"total_frames {self.total_frames} must be below {MAX_TOTAL_FRAMES}")
        if not 0 < self.rate_min <= self.rate_max < math.inf:
            raise ConfigError(
                "rate_min and rate_max must satisfy 0 < rate_min <= rate_max, got "
                f"{self.rate_min} and {self.rate_max}"
            )


def _draw(corpus: Corpus, task: ClipTask, rng: random.Random) -> RecordFields:
    """The ``task`` record of a sample composed from a ``clip_corpus`` pool."""
    config = corpus.config
    n_clips = rng.randint(config.clip_min, config.clip_max)
    sample = compose_sequence(
        corpus.pool, n_clips, config.total_frames, (config.rate_min, config.rate_max), rng
    )
    return clip_record(task, sample, corpus.templates, config.time_repr, rng)


# the fixed sample every DVC and TVG answer template is probed with
_PROBE = ClipSequenceSample(
    clips=(
        CaptionedClip("probe-1", "", "juggling", "a person is juggling", 4.0, 1.0),
        CaptionedClip("probe-2", "", "barking", "a dog is barking", 6.0, 1.0),
    ),
    rate_factors=(1.0, 1.0),
    frame_counts=(2, 3),
    total_frames=5,
)


def _probe_answers(time_repr: TimeRepresentation, templates: TemplateBank) -> None:
    """Refuse a DVC or TVG answer template unless ``parse_predictions`` reads
    back exactly the intervals, and for DVC the captions, that ``_answer``
    renders for ``_PROBE``. TVG is probed with the first clip: it starts at
    zero, so fixed text that merges into its start changes its end.
    """
    from .evaluation import parse_predictions  # keeps the scorer out of `import seq2time`

    spans = _spans(_PROBE, time_repr)
    captions = [clip.caption for clip in _PROBE.clips]
    for task in ClipTask:
        shown = spans if task is ClipTask.DVC else spans[:1]
        for template in templates.variants(task.value, "single")[1]:
            answer = _answer(task, template, shown, captions, time_repr)
            events = parse_predictions(answer, time_repr, _PROBE.pseudo_duration_s).events
            intervals = [[event.start, event.end] for event in events]
            if intervals != [seconds for _, seconds in shown] or (
                task is ClipTask.DVC and [event.caption for event in events] != captions
            ):
                raise TemplateError(
                    f"{task.value}/single answer template does not parse back in "
                    f"{time_repr.value} answers: {template!r} renders {answer!r}"
                )


def clip_corpus(
    config: ClipCorpusConfig,
    pool: Sequence[CaptionedClip],
    templates: TemplateBank | None = None,
) -> Corpus:
    """The build ``config`` describes, ready to run or write.

    A caption with a line break is rejected: DVC answers hold one event
    per line, so it would split its event and not parse back. So is an
    answer template that fails the parse-back probe (``_probe_answers``).
    """
    if len(pool) < config.clip_max:
        raise ConfigError(
            f"pool of {len(pool)} clips cannot fill sequences of up to {config.clip_max}"
        )
    for clip in pool:
        if clip.caption.splitlines() != [clip.caption]:
            raise ConfigError(
                f"clip {clip.id!r} has a caption with a line break: {clip.caption!r}"
            )
    if templates is None:
        templates = TemplateBank.load()
    _probe_answers(config.time_repr, templates)
    plain = json_plain(clip.video for clip in pool)
    return Corpus("clip-seq", "cs", ClipTask, _draw, config, tuple(pool), templates, plain)


def build_clip_corpus(
    config: ClipCorpusConfig,
    pool: Sequence[CaptionedClip],
    templates: TemplateBank | None = None,
    jobs: int = 1,
) -> Iterator:
    """Emit exactly ``n_instances`` records, each with a uniformly drawn task."""
    yield from clip_corpus(config, pool, templates).records(jobs)
