"""Image-sequence pretext tasks: position-aware instruction records.

A sample is a run of ``seq_len`` captioned images drawn without
replacement from a pool (duplicates would make index grounding
ill-posed). ``image_record`` makes a record of one of three tasks from
a sample:

* IIG (index grounding): caption in the question, index in the answer.
* IIC (indexed captioning): index in the question, index + caption in the
  answer.
* ALR (adjacent location reasoning): the question names the caption of an
  anchor image and a direction; the answer gives the index and caption of
  the immediate neighbor. Boundary anchors are re-drawn, never emitted.

Indices render per the active time representation: four digit position
tokens, or the bare integer (``render_index``), and parse back with
``parse_index_mentions``. A build refuses, at setup, any caption that
would itself read as a position, and any answer template whose answers
would not parse back to their own targets and captions.

``image_record`` returns a record's fields but its id; ``image_corpus``
builds draw them through ``Corpus.record``, which seeds, numbers and
names each record (``seq2time.corpus``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import product
from operator import itemgetter
from typing import Iterator, Sequence

from .corpus import Corpus, RecordFields, _sample_indices
from .dataset_io import CaptionedImage, json_plain
from .errors import ConfigError, TemplateError
from .position_token import (
    CODE_PATTERN,
    MAX_RPT_LENGTH,
    TimeRepresentation,
    code_from_string,
    code_to_index,
    encode_relative,
    render_code,
)
from .templates import (
    REQUIRED_SLOTS,
    TemplateBank,
    find_missing_in_order,
    render_template,
)

MAX_STANDARD_TARGETS = 5  # the paper's cap on targets per record


class PretextTask(Enum):
    IIG = "iig"
    IIC = "iic"
    ALR = "alr"


def _gather(items: Sequence, indices: Sequence[int]) -> tuple:
    """``tuple(items[i] for i in indices)``, in one call."""
    picked = itemgetter(*indices)(items)
    return picked if len(indices) > 1 else (picked,)


@dataclass(frozen=True)
class ImageSequenceSample:
    """The draw ``sample_sequence`` makes, unchecked here: the pool, the
    images' positions in it, and the sorted, distinct 1-based targets.

    The sample keeps indices, not images: a record reads only the
    captions it names (``caption``), and ``images`` gathers the rest on
    request.
    """

    pool: Sequence[CaptionedImage] = field(repr=False)
    indices: tuple[int, ...]
    targets: tuple[int, ...]

    @property
    def seq_len(self) -> int:
        return len(self.indices)

    @property
    def images(self) -> tuple[CaptionedImage, ...]:
        return _gather(self.pool, self.indices)

    def caption(self, position: int) -> str:
        """The caption of the image at 1-based ``position``."""
        return self.pool[self.indices[position - 1]].caption


def sample_sequence(
    pool: Sequence[CaptionedImage],
    seq_len: int,
    rng: random.Random,
    max_targets: int = MAX_STANDARD_TARGETS,
) -> ImageSequenceSample:
    """Draw a sequence uniformly without replacement, plus target positions.

    Target count is uniform on 1..max_targets (capped at seq_len); target
    positions are a sorted uniform draw. Deterministic given pool order
    and rng state. The images are those ``rng.sample(list(pool), seq_len)``
    picks, and the targets those of ``rng.sample(range(1, seq_len + 1),
    n)``, both drawn as indices without copying a population, by an
    inlined copy of ``random.sample`` (``corpus._sample_indices``) that
    makes the same ``getrandbits`` calls.
    """
    if seq_len < 1:
        raise ConfigError(f"seq_len must be >= 1, got {seq_len}")
    if len(pool) < seq_len:
        raise ConfigError(
            f"pool of {len(pool)} images cannot fill a sequence of {seq_len}"
        )
    if max_targets < 1:
        raise ConfigError(f"max_targets must be >= 1, got {max_targets}")
    indices = tuple(_sample_indices(rng, len(pool), seq_len))
    n_targets = rng.randint(1, min(max_targets, seq_len))
    targets = tuple(sorted(j + 1 for j in _sample_indices(rng, seq_len, n_targets)))
    return ImageSequenceSample(pool, indices, targets)


def render_index(index: int, seq_len: int, time_repr: TimeRepresentation) -> str:
    """Position as digit tokens, or the bare integer in free form."""
    if time_repr is TimeRepresentation.RPT:
        return render_code(encode_relative(index, seq_len))
    return str(index)


_CODE = re.compile(CODE_PATTERN)


def parse_index_mentions(
    text: str, time_repr: TimeRepresentation, seq_len: int
) -> list[int]:
    """All sequence positions mentioned in an image-task answer, in order.

    The inverse of :func:`render_index`. Free form reads every integer
    literal (so captions must be digit-free for the parse to be a faithful
    inverse); position tokens read every 4-token code and map it to the
    nearest position of ``seq_len``.
    """
    if time_repr is TimeRepresentation.RPT:
        return [
            code_to_index(code_from_string(m.group(0)), seq_len)
            for m in _CODE.finditer(text)
        ]
    return [int(m.group(0)) for m in re.finditer(r"\d+", text)]


def _join_captions(captions: Sequence[str]) -> str:
    if len(captions) == 1:
        return captions[0]
    return '"' + '", "'.join(captions) + '"'


def _answer(
    task: PretextTask, template: str, indices: Sequence[str], captions: Sequence[str]
) -> str:
    """The answer naming the rendered target ``indices`` and their ``captions``."""
    if task is PretextTask.IIG:
        return render_template(template, {"<INDEX>": ", ".join(indices)})
    # an IIC or ALR answer template is one (index, caption) sentence;
    # multi-target answers repeat it per target in question order
    slot = "<CAPTION2>" if task is PretextTask.ALR else "<CAPTION>"
    return " ".join(
        render_template(template, {"<INDEX>": index, slot: caption})
        for index, caption in zip(indices, captions)
    )


def image_record(
    task: PretextTask,
    sample: ImageSequenceSample,
    templates: TemplateBank,
    time_repr: TimeRepresentation,
    rng: random.Random,
    paths: Sequence[str],
) -> RecordFields:
    """The ``task`` record of ``sample``, its templates drawn from ``rng``:
    its (media, task, question, answer, meta).

    IIG and IIC answer on the sample's targets. ALR first draws a
    direction, then an anchor uniformly, re-drawing an anchor whose
    neighbor would fall off the sequence edge; its one target is that
    neighbor. ``paths`` holds the image path of every image in the pool
    the sample was drawn from, in pool order; the record's media are
    those at the sample's indices.
    """
    seq_len, targets, meta = sample.seq_len, sample.targets, {}
    if task is PretextTask.ALR:
        if seq_len < 2:
            raise ConfigError("adjacent-location reasoning needs seq_len >= 2")
        direction = rng.choice(("before", "after"))
        step = -1 if direction == "before" else 1
        anchor = rng.randint(1, seq_len)
        while not 1 <= anchor + step <= seq_len:
            anchor = rng.randint(1, seq_len)
        targets, meta = (anchor + step,), {"anchor": anchor, "direction": direction}
        values = {"<CAPTION1>": sample.caption(anchor), "<DIRECTION>": direction}
    captions = [sample.caption(t) for t in targets]
    indices = [render_index(t, seq_len, time_repr) for t in targets]
    if task is PretextTask.IIG:
        values = {"<CAPTION>": _join_captions(captions)}
    elif task is PretextTask.IIC:
        values = {"<INDEX>": ", ".join(indices)}
    arity = "single" if len(targets) == 1 else "multi"
    q_tpl, a_tpl = templates.sample(task.value, arity, rng)
    return (
        _gather(paths, sample.indices),
        task.name,
        render_template(q_tpl, values),
        _answer(task, a_tpl, indices, captions),
        {"seq_len": seq_len, "targets": list(targets), **meta, "time_repr": time_repr.value},
    )


@dataclass(frozen=True)
class ImageCorpusConfig:
    n_instances: int
    seq_len: int = 96
    max_targets: int = MAX_STANDARD_TARGETS
    seed: int = 0
    time_repr: TimeRepresentation = TimeRepresentation.RPT

    def __post_init__(self) -> None:
        if self.n_instances < 0:
            raise ConfigError(f"n_instances must be >= 0, got {self.n_instances}")
        if self.seq_len < 2:
            raise ConfigError(f"seq_len must be >= 2, got {self.seq_len}")
        if self.time_repr is TimeRepresentation.RPT and self.seq_len > MAX_RPT_LENGTH:
            raise ConfigError(
                f"seq_len {self.seq_len} exceeds {MAX_RPT_LENGTH}, the longest "
                "sequence whose position codes decode back to unique indices"
            )
        if not 1 <= self.max_targets <= self.seq_len:
            raise ConfigError(
                f"max_targets must be in 1..{self.seq_len}, got {self.max_targets}"
            )

    @property
    def record_weight(self) -> float:
        """A record's cost in ``corpus.SERIAL_MAX`` units, where a 96-image
        record weighs 1: its images, plus a fixed part that costs about as
        much as 150 images (BENCH_24.json "record_cost")."""
        return (150 + self.seq_len) / 246


def _draw(corpus: Corpus, task: PretextTask, rng: random.Random) -> RecordFields:
    """The ``task`` record of a sample drawn from an ``image_corpus`` pool:
    the images, and their paths."""
    config, (images, paths) = corpus.config, corpus.pool
    sample = sample_sequence(images, config.seq_len, rng, max_targets=config.max_targets)
    return image_record(task, sample, corpus.templates, config.time_repr, rng, paths)


def _probe_answers(config: ImageCorpusConfig, templates: TemplateBank) -> None:
    """Refuse an answer template the build can draw unless, rendered by
    ``_answer``, ``parse_index_mentions`` reads back exactly the probe
    targets, each probe caption after its index. Fixed code tokens can merge
    with the code after them, so each first target takes its least and its
    greatest value; and with the edges of a caption, which in rpt may start
    or end in three code tokens, so the rpt probe captions do.
    """
    n, time_repr = config.seq_len, config.time_repr
    edge = "<0><0><0>" if time_repr is TimeRepresentation.RPT else ""
    probe_captions = [edge + caption + edge for caption in ("a red kite", "a blue kettle")]
    probes = {"single": [(1,), (n,)], "multi": [(1, n), (n - 1, n)]}
    arities = ["single", "multi"] if config.max_targets > 1 else ["single"]
    for task, arity in product(PretextTask, arities):
        if (task.value, arity) not in REQUIRED_SLOTS:
            continue  # ALR always has one target
        answers = templates.variants(task.value, arity)[1]
        for template, targets in product(answers, probes[arity]):
            indices = [render_index(t, n, time_repr) for t in targets]
            captions = probe_captions[: len(targets)]
            answer = _answer(task, template, indices, captions)
            # each caption must follow its index; IIG answers hold no captions
            pairs = [] if task is PretextTask.IIG else zip(indices, captions)
            in_order = [part for pair in pairs for part in pair]
            if (
                parse_index_mentions(answer, time_repr, n) != list(targets)
                or find_missing_in_order(answer, in_order) is not None
            ):
                raise TemplateError(
                    f"{task.value}/{arity} answer template does not parse back in "
                    f"{time_repr.value} answers: {template!r} renders {answer!r}"
                )


def image_corpus(
    config: ImageCorpusConfig,
    pool: Sequence[CaptionedImage],
    templates: TemplateBank | None = None,
) -> Corpus:
    """The build ``config`` describes, ready to run or write.

    A caption that reads as a position under the build's time rendering
    (any integer in free form, a rendered code in rpt) is rejected, since
    answers would no longer parse back to their targets; so is an answer
    template that fails the parse-back probe (``_probe_answers``).
    """
    if len(pool) < config.seq_len:
        raise ConfigError(
            f"pool of {len(pool)} images cannot fill a sequence of {config.seq_len}"
        )
    # no position grammar spans a line break, so one pass over the joined
    # captions tells whether any caption mentions a position
    mentions = partial(
        parse_index_mentions, time_repr=config.time_repr, seq_len=config.seq_len
    )
    if mentions("\n".join(image.caption for image in pool)):
        image = next(image for image in pool if mentions(image.caption))
        raise ConfigError(
            f"image {image.id!r} has a caption that reads as a position in "
            f"{config.time_repr.value} answers: {image.caption!r}"
        )
    if templates is None:
        templates = TemplateBank.load()
    _probe_answers(config, templates)
    paths = tuple(image.image for image in pool)
    return Corpus(
        "image-seq", "is", PretextTask, _draw, config, (tuple(pool), paths), templates,
        json_plain(paths),
    )


def build_image_corpus(
    config: ImageCorpusConfig,
    pool: Sequence[CaptionedImage],
    templates: TemplateBank | None = None,
    jobs: int = 1,
) -> Iterator:
    """Emit exactly ``n_instances`` records, each with a uniformly drawn task.

    ``jobs`` > 1 fans large builds out across processes; output order (and
    bytes) match the sequential run because each record depends only on
    its ordinal.
    """
    yield from image_corpus(config, pool, templates).records(jobs)
