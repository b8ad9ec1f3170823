"""The corpus runner, record protocol and index draw both builders share.

Record i of a build depends only on (config, seed, i): ``Corpus.record``
seeds its rng from them, draws its task, lets the builder draw the rest
and names it ``{prefix}-{seed}-{i:08d}`` (``is`` for image sequences,
``cs`` for clip sequences); a range reseeds one rng for each of its
records. So the ordinals split into contiguous ranges
that can run anywhere (``run_ranges``), at ``workers = min(jobs,
usable_cores())``: in the parent, 16 at a time, at one worker or for at
most ``SERIAL_MAX`` items of work (a config's ``record_weight`` each);
else in up to ``workers`` forked children, ``max(16, n // (8 * workers))``
per range. Ranges come back in ordinal order, through a pipe per child, so
the output never depends on ``jobs``. ``evaluation`` runs its rows so too.

A ``Corpus`` is a named tuple, as are the configs it holds and the
samples its builders draw: equal to the plain tuple of its fields,
``_asdict()`` for a dict of them, ``AttributeError`` on setting one. The
configs check their fields in ``__new__``, so ``_make``, ``_replace`` and
unpickling check too.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from collections import Counter
from enum import Enum
from functools import cache
from itertools import accumulate, chain, cycle
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

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


class Corpus(NamedTuple):
    """One build: a builder's record draw and everything it reads."""

    namespace: str  # of the record seeds: "image-seq" or "clip-seq"
    prefix: str  # of the record ids: "is" or "cs"
    tasks: type[Enum]
    draw: Callable[[Corpus, Any, random.Random], RecordFields]
    config: Any  # ImageCorpusConfig or ClipCorpusConfig
    pool: tuple  # the clips, or the images and their paths
    templates: TemplateBank
    plain_media: bool  # every media path of the pool is ``json_plain``

    def record(self, ordinal: int, rng: random.Random | None = None) -> InstructionRecord:
        """Record ``ordinal`` of the run; pure in (config, seed, ordinal).

        Its rng, ``rng`` or else a new ``random.Random``, is seeded by
        ``derive_record_seed``; reseeding, as the constructor does, also
        clears ``gauss_next``. The first draw picks its task, each task at
        the same rate (``rng.choices`` over the tasks in value order with
        equal weights, which ``choices`` turns into these cumulative
        weights), and ``draw`` draws the other fields. The seed and the
        ordinal close the record's ``meta``.
        """
        seed = self.config.seed
        record_seed = derive_record_seed(seed, ordinal, self.namespace)
        if rng is None:
            rng = random.Random(record_seed)
        else:
            rng.seed(record_seed)
        members, cum_weights = _task_draw(self.tasks)
        task = rng.choices(members, cum_weights=cum_weights)[0]
        media, task_name, question, answer, meta = self.draw(self, task, rng)
        meta.update(seed=seed, ordinal=ordinal)
        record_id = f"{self.prefix}-{seed}-{ordinal:08d}"
        return InstructionRecord(record_id, media, task_name, question, answer, meta)

    def records(self, jobs: int = 1) -> Iterator[InstructionRecord]:
        n, weight = self.config.n_instances, self.config.record_weight
        yield from chain.from_iterable(run_ranges(_generate, self, n, jobs, weight))

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
    rng = random.Random(0)  # reseeded for each record; seeded, so os.urandom is not read
    return [corpus.record(i, rng) for i in ordinals]


def _encode(corpus: Corpus, ordinals: range) -> tuple[bytes, Counter, int, int]:
    records = _generate(corpus, ordinals)
    return (
        "".join([encode_line(record, corpus.plain_media) for record in records]).encode(),
        Counter(record.task for record in records),
        sum(len(record.question) for record in records),
        sum(len(record.answer) for record in records),
    )


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
    order, at ``workers = min(jobs, usable_cores())``: ranges of 16, run lazily
    in this process, at one worker, without ``os.fork`` or if ``n * weight <=
    SERIAL_MAX`` (``weight``: an item's cost); else ``max(16, n // (8 * workers))``
    in forked children, so call it from a single-threaded process."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, usable_cores())
    if workers == 1 or n * weight <= SERIAL_MAX or not hasattr(os, "fork"):
        return (task(state, range(i, min(i + 16, n))) for i in range(0, n, 16))
    size = max(16, n // (8 * workers))
    ranges = [range(i, min(i + size, n)) for i in range(0, n, size)]
    return _pooled(task, state, min(workers, len(ranges)), ranges)


def _pooled(task: Callable, state: Any, workers: int, ranges: list[range]) -> Iterator:
    """Child w of ``workers`` forked children pickles ``(True, result)`` or ``(False,
    exception)`` for each of ``ranges[w::workers]`` to a pipe of its own, read in
    range order. Each is reaped before this ends, killed first if the run ends early."""
    import pickle  # here, so that import seq2time loads neither
    import signal

    children: dict[int, Any] = {}  # pid: the read end of its pipe, until reaped
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # ends in os._exit: never back into the parent's frames
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent cleans up
                    os.close(read_fd)  # so writes fail with EPIPE once the parent is gone
                    for reader in children.values():
                        reader.close()
                    out = open(write_fd, "wb")
                    for ordinals in ranges[w::workers]:
                        try:
                            result = True, task(state, ordinals)
                        except Exception as exc:  # raised in the parent
                            result = False, exc
                        pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
                        out.flush()  # else range i waits for range i + workers
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        for _, pid in zip(ranges, cycle(list(children))):
            try:
                ok, result = pickle.load(children[pid])
            except (EOFError, pickle.UnpicklingError):  # it ended before it sent the range
                children.pop(pid).close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"ended by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"worker process {pid} {how}") from None
            if not ok:
                raise result
            yield result
    finally:
        for pid, reader in children.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
