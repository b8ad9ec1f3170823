"""Record seeds, and the corpus and eval digests of ``pinned_digests``,
pinned to fixed values, so a refactor cannot move a byte; and the range
runner every build runs on."""

import hashlib
import os
import random
import signal
import stat
import time

import pytest

from seq2time import corpus
from seq2time.clip_sequence import ClipCorpusConfig, clip_corpus
from seq2time.corpus import derive_record_seed, run_ranges, usable_cores
from seq2time.dataset_io import encode_line
from seq2time.errors import ConfigError, InvariantViolation
from seq2time.evaluation import evaluate_run
from seq2time.image_sequence import ImageCorpusConfig, image_corpus
from seq2time.position_token import TimeRepresentation

from conftest import reference_line, write_rows
from pinned_digests import DIGESTS, PATH_MARKS, digest, marked


@pytest.mark.parametrize("case", DIGESTS)
def test_matches_pinned_digest(case):
    assert digest(case) == DIGESTS[case]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("marks", sorted(PATH_MARKS))
@pytest.mark.parametrize("kind", ["image", "clip"])
def test_written_bytes_are_encode_line_over_records(
    image_pool, clip_pool, tmp_path, pool_above_16, kind, marks, jobs
):
    # 37 records: ranges of 16, 16 and 5 at either jobs, from a pool at jobs 2
    if kind == "image":
        pool = marked(image_pool, "image", PATH_MARKS[marks])
        build = image_corpus(ImageCorpusConfig(n_instances=37, seed=3), pool)
    else:
        pool = marked(clip_pool, "video", PATH_MARKS[marks])
        build = clip_corpus(ClipCorpusConfig(n_instances=37, seed=3), pool)
    # JSON escapes a quote, a backslash and a tab, but writes U+2028 and é as they are
    assert build.plain_media == (marks in {"line-separator", "e-acute", "ascii"})
    path = tmp_path / "corpus.jsonl"
    build.write(path, jobs)
    assert bool(pool_above_16) == (jobs == 2)
    expected = "".join(map(encode_line, build.records()))
    assert path.read_bytes() == expected.encode()
    assert expected == "".join(map(reference_line, build.records()))


class TestDeriveRecordSeed:
    def test_frozen_values(self):
        # regression anchors: changing these re-rolls every shipped corpus
        assert derive_record_seed(0, 0, "image-seq") == 1917915649756832745
        assert derive_record_seed(7, 3, "record") == 6000735022776850789

    def test_matches_sha256_prefix(self):
        digest = hashlib.sha256(b"clip-seq:42:17").digest()
        expected = int.from_bytes(digest[:8], "big")
        assert derive_record_seed(42, 17, "clip-seq") == expected

    def test_distinct_across_ordinals_and_namespaces(self):
        seeds = {
            derive_record_seed(seed, ordinal, ns)
            for seed in (0, 1)
            for ordinal in range(50)
            for ns in ("image-seq", "clip-seq")
        }
        assert len(seeds) == 2 * 50 * 2

    def test_in_uint64_range(self):
        for ordinal in range(100):
            value = derive_record_seed(123, ordinal, "record")
            assert 0 <= value < 2**64


class TestSharedRng:
    """A range reseeds one rng for each of its records: nothing a record
    drew is left for the next one."""

    @pytest.mark.parametrize("time_repr", list(TimeRepresentation))
    @pytest.mark.parametrize("kind", ["image", "clip"])
    def test_reused_rng_in_any_order_gives_each_record_alone(
        self, image_pool, clip_pool, tmp_path, kind, time_repr
    ):
        n = 40  # ranges of 16, 16 and 8
        if kind == "image":
            config = ImageCorpusConfig(n_instances=n, seed=4, time_repr=time_repr)
            build = image_corpus(config, image_pool)
        else:
            config = ClipCorpusConfig(n_instances=n, seed=4, time_repr=time_repr)
            build = clip_corpus(config, clip_pool)
        alone = [build.record(i) for i in range(n)]
        shuffled = list(range(n))
        random.Random(9).shuffle(shuffled)
        rng = random.Random(0)
        for order in (reversed(range(n)), shuffled):
            for i in order:
                rng.gauss(0.0, 1.0)  # leaves a cached second normal in the rng
                assert build.record(i, rng) == alone[i]
        path = tmp_path / "corpus.jsonl"
        build.write(path)
        assert path.read_bytes() == "".join(map(encode_line, alone)).encode()

    def test_reseeding_gives_the_state_of_a_new_rng(self):
        rng = random.Random(0)
        rng.gauss(0.0, 1.0)
        rng.random()
        seed = derive_record_seed(4, 17, "clip-seq")
        rng.seed(seed)
        assert rng.getstate() == random.Random(seed).getstate()


def _range_task(state, ordinals):
    return state, list(ordinals)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker process was forked")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunRanges:
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 40])
    def test_every_ordinal_once_in_range_order(self, monkeypatch, pool_above_16, n, jobs):
        if jobs == 1 or n <= 16:  # ranges this process runs itself
            monkeypatch.setattr(os, "fork", _no_pool)
        results = list(run_ranges(_range_task, "state", n, jobs))
        assert bool(pool_above_16) == (jobs > 1 and n > 16)
        assert all(state == "state" for state, _ in results)
        ranges = [ordinals for _, ordinals in results]
        assert [i for ordinals in ranges for i in ordinals] == list(range(n))
        # ranges of 16: in-process ones always, pooled ones while n // (8 * jobs) < 16
        assert [len(ordinals) for ordinals in ranges] == [
            min(16, n - start) for start in range(0, n, 16)
        ]

    @pytest.mark.parametrize("n, weight, pooled", [(8, 2, False), (9, 2, True), (32, 0.5, False)])
    def test_weight_counts_toward_the_cutoff(self, monkeypatch, pool_above_16, n, weight, pooled):
        if not pooled:
            monkeypatch.setattr(os, "fork", _no_pool)
        results = list(run_ranges(_range_task, "state", n, 2, weight))
        assert len(pool_above_16) == pooled
        assert [i for _, ordinals in results for i in ordinals] == list(range(n))

    @pytest.mark.parametrize("extra, pooled", [(0, False), (1, True)])
    def test_build_pools_only_above_serial_max(
        self, pool_starts, clip_pool, tmp_path, extra, pooled
    ):
        # 2,500 records, the documented cutoff, run in process at any jobs
        build = clip_corpus(ClipCorpusConfig(n_instances=2500 + extra), clip_pool)
        build.write(tmp_path / "two.jsonl", jobs=2)
        assert len(pool_starts) == pooled
        build.write(tmp_path / "one.jsonl", jobs=1)
        assert len(pool_starts) == pooled
        assert (tmp_path / "two.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()

    def test_usable_cores_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cores() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert usable_cores() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1

    def test_one_usable_core_starts_no_pool_at_any_jobs(
        self, monkeypatch, pool_above_16, clip_pool, tmp_path
    ):
        # jobs=2 above the cutoff, but one usable core makes one worker
        monkeypatch.setattr(corpus, "usable_cores", lambda: 1)
        monkeypatch.setattr(os, "fork", _no_pool)
        build = clip_corpus(ClipCorpusConfig(n_instances=40), clip_pool)
        assert build.write(tmp_path / "corpus.jsonl", jobs=2).total == 40
        ids = [f"v{i:02d}" for i in range(40)]
        pred = write_rows(
            [{"video_id": v, "output": "1 - 2 seconds, x", "duration_s": 10.0} for v in ids],
            tmp_path / "pred.jsonl",
        )
        gt = write_rows(
            [{"video_id": v, "events": [{"start": 1.0, "end": 2.0}]} for v in ids],
            tmp_path / "gt.jsonl",
        )
        report = evaluate_run(pred, gt, TimeRepresentation.FREE_FORM, jobs=2)
        assert (report.n_videos, report.f1) == (40, 1.0)
        assert not pool_above_16

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_small_build_starts_no_pool(self, monkeypatch, clip_pool, tmp_path, jobs):
        monkeypatch.setattr(os, "fork", _no_pool)
        build = clip_corpus(ClipCorpusConfig(n_instances=16), clip_pool)
        stats = build.write(tmp_path / "corpus.jsonl", jobs)
        assert stats.total == 16

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_config_error_before_any_range(self, jobs):
        def never_run(state, ordinals):
            raise AssertionError("a range ran")

        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            run_ranges(never_run, None, 40, jobs)

    def test_without_fork_runs_in_process_with_the_same_bytes(
        self, monkeypatch, pool_above_16, clip_pool, tmp_path
    ):
        build = clip_corpus(ClipCorpusConfig(n_instances=40), clip_pool)
        build.write(tmp_path / "one.jsonl", jobs=1)
        monkeypatch.delattr(os, "fork")
        build.write(tmp_path / "two.jsonl", jobs=2)  # above the lowered cutoff
        assert not pool_above_16
        assert (tmp_path / "two.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()


class TestWorkers:
    """The children ``run_ranges`` forks for a pooled run, and how they end.

    After each test no child of this process is left: every worker was
    reaped, whether its run finished, failed or was cut short."""

    @pytest.mark.parametrize(
        "error",
        [ConfigError("jobs must be >= 1, got 0"), InvariantViolation("synthetic failure"),
         KeyError("video"), OSError(2, "No such file or directory")],
        ids=repr,
    )
    def test_worker_exception_is_raised_in_the_parent(self, pool_above_16, error):
        def fail_at_20(state, ordinals):
            if 20 in ordinals:
                raise error
            return list(ordinals)

        with pytest.raises(type(error)) as raised:
            list(run_ranges(fail_at_20, None, 40, 2))
        assert pool_above_16
        assert type(raised.value) is type(error)
        assert (raised.value.args, str(raised.value)) == (error.args, str(error))
        _no_child_left()

    @pytest.mark.parametrize(
        "end, message",
        [(lambda: os.kill(os.getpid(), signal.SIGKILL), "ended by signal 9"),
         (lambda: os._exit(3), "exited with status 3")],
        ids=["sigkill", "exit-3"],
    )
    def test_worker_that_dies_is_a_child_process_error(self, pool_above_16, end, message):
        parent = os.getpid()

        def die_at_20(state, ordinals):
            if 20 in ordinals and os.getpid() != parent:
                end()
            return list(ordinals)

        results = run_ranges(die_at_20, None, 40, 2)
        assert next(results) == list(range(16))
        with pytest.raises(ChildProcessError, match=rf"^worker process \d+ {message}$") as raised:
            next(results)
        assert int(raised.value.args[0].split()[2]) != os.getpid()
        _no_child_left()

    def test_early_close_kills_and_reaps_the_workers(self, pool_above_16):
        def slow_after_first(state, ordinals):
            if ordinals.start:
                time.sleep(60)
            return list(ordinals)

        results = run_ranges(slow_after_first, None, 40, 2)
        assert next(results) == list(range(16))
        start = time.monotonic()
        results.close()
        assert time.monotonic() - start < 10
        _no_child_left()

    def test_every_worker_is_reaped_when_the_run_ends(self, pool_above_16):
        # so their CPU is in this process's RUSAGE_CHILDREN by then
        results = run_ranges(_range_task, "state", 40, 2)
        assert [next(results) for _ in range(3)][-1] == ("state", list(range(32, 40)))
        with pytest.raises(StopIteration):
            next(results)
        _no_child_left()

    def test_workers_reset_signals_and_hold_no_read_end(self, pool_above_16):
        def fifo_reads():
            fds = map(int, os.listdir("/proc/self/fd"))
            return sorted(
                fd for fd in fds
                if _is_fifo(fd) and _read_only(fd)
            )

        def probe(state, ordinals):
            handlers = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)
            return handlers, fifo_reads()

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("no /proc/self/fd here")
        parent_reads = fifo_reads()
        # as the CLI has it: SIGTERM raises, SIGINT raises KeyboardInterrupt
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            results = list(run_ranges(probe, None, 40, 2))
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        assert pool_above_16
        assert results == [((signal.SIG_DFL, signal.SIG_IGN), parent_reads)] * 3


def _is_fifo(fd):
    try:
        return stat.S_ISFIFO(os.fstat(fd).st_mode)
    except OSError:  # the listing's own descriptor, closed since
        return False


def _read_only(fd):
    import fcntl

    return fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE == os.O_RDONLY
