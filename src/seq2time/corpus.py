"""The corpus runner, record protocol and index draw both builders share.

Record i of a build depends only on (config, seed, i): ``Corpus.record``
seeds its rng from them, draws its task, lets the builder draw the rest
and names it ``{prefix}-{seed}-{i:08d}`` (``is`` for image sequences,
``cs`` for clip sequences). So the ordinals split into contiguous ranges
that can run anywhere: in the parent, one record at a time, at
``jobs=1``; otherwise in a process pool, with ``max(16, n // (8 *
jobs))`` ordinals per range. Ranges come back in ordinal order, so the
output never depends on ``jobs``.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache, partial
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Iterator

from .dataset_io import CorpusStats, InstructionRecord, encode_line, open_replacing
from .errors import ConfigError
from .templates import TemplateBank


@cache
def _task_draw(tasks: type[Enum]) -> tuple[tuple, tuple[float, ...]]:
    """The members of ``tasks`` in value order, and their cumulative weights."""
    members = tuple(sorted(tasks, key=lambda t: t.value))
    return members, tuple(accumulate([1.0 / len(members)] * len(members)))


def derive_record_seed(seed: int, ordinal: int, namespace: str) -> int:
    """Stable per-record RNG seed, independent of process hash randomization:
    the first 8 bytes of ``sha256("{namespace}:{seed}:{ordinal}")``."""
    digest = hashlib.sha256(f"{namespace}:{seed}:{ordinal}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# _sample_indices copies random.sample's code of this minor version
_SAMPLE_COPIED = sys.version_info[:2] == (3, 11)


def _sample_indices(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(n), k)``: the same indices, in the same order, and
    ``rng`` left in the same state.

    Copies CPython 3.11's ``random.sample`` where it tracks chosen indices
    in a set (n above ``setsize``), with ``_randbelow`` inlined: each index
    re-draws ``getrandbits(n.bit_length())`` while the value is not below n
    or was chosen before. Every other case calls ``rng.sample``: the pool
    branch, another Python version, and an rng class with its own
    ``sample`` or ``_randbelow`` (a subclass that overrides only
    ``random()`` gets another ``_randbelow``).
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    cls = type(rng)
    if (
        n <= setsize
        or not _SAMPLE_COPIED
        or cls.sample is not random.Random.sample
        or cls._randbelow is not random.Random._randbelow_with_getrandbits
    ):
        return rng.sample(range(n), k)
    draw, bits = rng.getrandbits, n.bit_length()
    selected: dict[int, None] = {}  # a set that keeps the draw order
    for _ in range(k):
        j = draw(bits)
        while j >= n or j in selected:
            j = draw(bits)
        selected[j] = None
    return list(selected)


@dataclass(frozen=True)
class Corpus:
    """One build: a builder's record draw and everything it reads."""

    namespace: str  # of the record seeds: "image-seq" or "clip-seq"
    prefix: str  # of the record ids: "is" or "cs"
    tasks: type[Enum]
    draw: Callable[[Corpus, Any, random.Random], InstructionRecord]
    config: Any  # ImageCorpusConfig or ClipCorpusConfig
    pool: tuple  # the clips, or the images and their paths
    templates: TemplateBank

    def record(self, ordinal: int) -> InstructionRecord:
        """Record ``ordinal`` of the run; pure in (config, seed, ordinal).

        Its rng is seeded by ``derive_record_seed``; the first draw picks
        its task, each task at the same rate (``rng.choices`` over the
        tasks in value order with equal weights, which ``choices`` turns
        into these cumulative weights), and ``draw`` draws the rest.
        """
        seed = self.config.seed
        rng = random.Random(derive_record_seed(seed, ordinal, self.namespace))
        members, cum_weights = _task_draw(self.tasks)
        record = self.draw(self, rng.choices(members, cum_weights=cum_weights)[0], rng)
        return replace(
            record,
            id=f"{self.prefix}-{seed}-{ordinal:08d}",
            meta={**record.meta, "seed": seed, "ordinal": ordinal},
        )

    def records(self, jobs: int = 1) -> Iterator[InstructionRecord]:
        for chunk in self._map(_generate, jobs):
            yield from chunk

    def write(self, path: str | Path, jobs: int = 1) -> CorpusStats:
        """Write the bytes ``write_jsonl(self.records())`` would write.

        Each range is encoded and counted where it was generated; the
        parent only writes the text in order and adds up the counts, so
        the stats equal what ``corpus_stats(path)`` would read back.
        """
        chunks = self._map(_encode, jobs)
        counts: Counter[str] = Counter()
        question_chars = answer_chars = 0
        with open_replacing(path) as fh:
            for text, chunk_counts, q_chars, a_chars in chunks:
                fh.write(text)
                counts.update(chunk_counts)
                question_chars += q_chars
                answer_chars += a_chars
        return CorpusStats.from_sums(dict(counts), question_chars, answer_chars)

    def _map(self, task: Callable, jobs: int) -> Iterator:
        """``task(self, ordinals)`` over consecutive ordinal ranges, in order."""
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        n = self.config.n_instances
        if jobs == 1 or n < 2:
            return (task(self, range(i, i + 1)) for i in range(n))
        size = max(16, n // (jobs * 8))
        ranges = [range(i, min(i + size, n)) for i in range(0, n, size)]
        return _pooled(task, self, jobs, ranges)


def _generate(corpus: Corpus, ordinals: range) -> list[InstructionRecord]:
    return [corpus.record(i) for i in ordinals]


def _encode(corpus: Corpus, ordinals: range) -> tuple[str, Counter, int, int]:
    records = _generate(corpus, ordinals)
    return (
        "".join(map(encode_line, records)),
        Counter(record.task for record in records),
        sum(len(record.question) for record in records),
        sum(len(record.answer) for record in records),
    )


_CORPUS: Corpus | None = None  # set only inside pool workers


def _init_worker(corpus: Corpus) -> None:
    global _CORPUS
    _CORPUS = corpus


def _run_in_worker(task: Callable, ordinals: range):
    return task(_CORPUS, ordinals)


def _pooled(task: Callable, corpus: Corpus, jobs: int, ranges: list[range]) -> Iterator:
    from concurrent.futures import ProcessPoolExecutor  # only fan-out needs it

    # a fork-started pool launches every worker up front, so never ask for
    # more than there are ranges or cores
    workers = min(jobs, len(ranges), os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(corpus,)) as pool:
        yield from pool.map(partial(_run_in_worker, task), ranges)
