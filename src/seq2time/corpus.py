"""The corpus runner, record protocol and index draw both builders share.

Record i of a build depends only on (config, seed, i): ``Corpus.record``
seeds its rng from them, draws its task, lets the builder draw the rest
and names it ``{prefix}-{seed}-{i:08d}`` (``is`` for image sequences,
``cs`` for clip sequences). So the ordinals split into contiguous ranges
that can run anywhere (``run_ranges``): in the parent, 16 at a time, at
``jobs=1`` or for at most ``SERIAL_MAX`` items of work (a config's
``record_weight`` each); otherwise in a process pool, with
``max(16, n // (8 * jobs))`` per range. Ranges come back in
ordinal order, so the output never depends on ``jobs``. ``evaluation``
runs its per-video score rows through ``run_ranges`` the same way.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
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


def _sample_indices(rng: random.Random, n: int, k: int) -> list[int]:
    """``rng.sample(range(n), k)``: the same indices, in the same order, and
    ``rng`` left in the same state.

    Copies both branches of ``random.sample``, whose drawing code is the
    same on CPython 3.10 to 3.13, with ``_randbelow`` inlined as its
    ``getrandbits`` loop. Up to ``setsize`` (21, plus a set's table size
    for k above 5) it keeps the undrawn indices in a list: the i-th index
    is ``pool[j]`` for j drawn below m = n - i, and ``pool[m - 1]`` fills
    the gap. Above that it tracks the chosen indices in a set, re-drawing
    j below n while it was chosen before. Two cases call ``rng.sample``:
    ``k`` outside 0..n (so its own ``ValueError`` is raised), and an rng
    class with its own ``sample`` or ``_randbelow`` (a subclass that
    overrides only ``random()`` gets another ``_randbelow``).
    """
    cls = type(rng)
    if (
        not 0 <= k <= n
        or cls.sample is not random.Random.sample
        or cls._randbelow is not random.Random._randbelow_with_getrandbits
    ):
        return rng.sample(range(n), k)
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    draw = rng.getrandbits
    if n <= setsize:
        pool, out = list(range(n)), []
        for m in range(n, n - k, -1):
            bits = m.bit_length()
            j = draw(bits)
            while j >= m:
                j = draw(bits)
            out.append(pool[j])
            pool[j] = pool[m - 1]
        return out
    bits = n.bit_length()
    selected: dict[int, None] = {}  # a set that keeps the draw order
    for _ in range(k):
        j = draw(bits)
        while j >= n or j in selected:
            j = draw(bits)
        selected[j] = None
    return list(selected)


# a builder's draw: a record's (media, task, question, answer, meta), all but its id
RecordFields = tuple[tuple[str, ...], str, str, str, dict]


@dataclass(frozen=True)
class Corpus:
    """One build: a builder's record draw and everything it reads."""

    namespace: str  # of the record seeds: "image-seq" or "clip-seq"
    prefix: str  # of the record ids: "is" or "cs"
    tasks: type[Enum]
    draw: Callable[[Corpus, Any, random.Random], RecordFields]
    config: Any  # ImageCorpusConfig or ClipCorpusConfig
    pool: tuple  # the clips, or the images and their paths
    templates: TemplateBank
    plain_media: bool  # every media path of the pool is ``json_plain``

    def record(self, ordinal: int) -> InstructionRecord:
        """Record ``ordinal`` of the run; pure in (config, seed, ordinal).

        Its rng is seeded by ``derive_record_seed``; the first draw picks
        its task, each task at the same rate (``rng.choices`` over the
        tasks in value order with equal weights, which ``choices`` turns
        into these cumulative weights), and ``draw`` draws the other fields.
        The seed and the ordinal close the record's ``meta``.
        """
        seed = self.config.seed
        rng = random.Random(derive_record_seed(seed, ordinal, self.namespace))
        members, cum_weights = _task_draw(self.tasks)
        task = rng.choices(members, cum_weights=cum_weights)[0]
        media, task_name, question, answer, meta = self.draw(self, task, rng)
        meta.update(seed=seed, ordinal=ordinal)
        record_id = f"{self.prefix}-{seed}-{ordinal:08d}"
        return InstructionRecord(record_id, media, task_name, question, answer, meta)

    def records(self, jobs: int = 1) -> Iterator[InstructionRecord]:
        n, weight = self.config.n_instances, self.config.record_weight
        for chunk in run_ranges(_generate, self, n, jobs, weight):
            yield from chunk

    def write(self, path: str | Path, jobs: int = 1) -> CorpusStats:
        """Write ``"".join(map(encode_line, self.records(jobs)))`` as UTF-8.

        Each range is encoded to bytes and counted where it was generated;
        the parent only writes the bytes in order and adds up the counts,
        so the stats equal what ``corpus_stats(path)`` would read back.
        """
        n, weight = self.config.n_instances, self.config.record_weight
        chunks = run_ranges(_encode, self, n, jobs, weight)
        counts: Counter[str] = Counter()
        question_chars = answer_chars = 0
        with open_replacing(path) as fh:
            for data, chunk_counts, q_chars, a_chars in chunks:
                fh.write(data)
                counts.update(chunk_counts)
                question_chars += q_chars
                answer_chars += a_chars
        return CorpusStats.from_sums(dict(counts), question_chars, answer_chars)


def _generate(corpus: Corpus, ordinals: range) -> list[InstructionRecord]:
    return [corpus.record(i) for i in ordinals]


def _encode(corpus: Corpus, ordinals: range) -> tuple[bytes, Counter, int, int]:
    records = _generate(corpus, ordinals)
    return (
        "".join([encode_line(record, corpus.plain_media) for record in records]).encode(),
        Counter(record.task for record in records),
        sum(len(record.question) for record in records),
        sum(len(record.answer) for record in records),
    )


_STATE: Any = None  # set only inside pool workers


def _init_worker(state: Any) -> None:
    global _STATE
    _STATE = state


def _run_in_worker(task: Callable, ordinals: range):
    return task(_STATE, ordinals)


def usable_cores() -> int:
    """The CPUs this process may run on (its affinity mask where the platform
    has one), not all the host's cores: the default and the cap of ``jobs``."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# At most this much work runs in this process at any ``jobs``, in items of
# weight 1 (a 96-image or a clip record, an eval video): about where a pool
# starts to win wall time. Measured on 2 cores only, at --seq-len and
# --total-frames 96 (BENCH_24.json "build_crossover", BENCH_23.json).
SERIAL_MAX = 2500


def run_ranges(task: Callable, state: Any, n: int, jobs: int, weight: float = 1) -> Iterator:
    """``task(state, ordinals)`` over consecutive ranges of ``range(n)``, in
    order: ranges of 16, run lazily in this process, at ``jobs=1`` or when
    ``n * weight <= SERIAL_MAX`` (``weight``: an item's cost in its units);
    else ranges of ``max(16, n // (8 * jobs))`` in a pool."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or n * weight <= SERIAL_MAX:
        return (task(state, range(i, min(i + 16, n))) for i in range(0, n, 16))
    size = max(16, n // (8 * jobs))
    ranges = [range(i, min(i + size, n)) for i in range(0, n, size)]
    return _pooled(task, state, jobs, ranges)


def _pooled(task: Callable, state: Any, jobs: int, ranges: list[range]) -> Iterator:
    from concurrent.futures import ProcessPoolExecutor  # only fan-out needs it

    # a fork-started pool launches every worker up front, so never ask for
    # more than there are ranges or usable cores
    workers = min(jobs, len(ranges), usable_cores())
    with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(state,)) as pool:
        yield from pool.map(partial(_run_in_worker, task), ranges)
