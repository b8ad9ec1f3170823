"""Record seeds and corpus bytes pinned to fixed values, so a refactor
cannot move a byte; and the range runner every build runs on."""

import concurrent.futures
import dataclasses
import hashlib
import os

import pytest

from seq2time.clip_sequence import ClipCorpusConfig, clip_corpus
from seq2time.corpus import derive_record_seed, run_ranges, usable_cores
from seq2time.dataset_io import encode_line
from seq2time.errors import ConfigError
from seq2time.image_sequence import ImageCorpusConfig, image_corpus
from seq2time.position_token import TimeRepresentation

from conftest import reference_line

# sha256 of 500-record builds (seed 0, default options) from the conftest pools
DIGESTS = {
    ("image", "rpt"): "ee4bd3f8b2ce3e939cf47a3d924674c97545fe1fe597b91035215d94a33ba1b8",
    ("image", "free_form"): "762ec8e68874dd6a45ef606058a46ae8db086eecaefe724ee101b700459de69c",
    ("clip", "rpt"): "35ebe9231be97b453bf57570c11182957da83fb1b95ce31fe01c0ae4667b2c93",
    ("clip", "free_form"): "4609d8871ae91e5d51f08b5c568a76bc67faca8ef2f57d00896e7828e0c9fe69",
}


# sha256 of a 500-record image build (seed 0, default options) whose media
# paths need JSON escapes: every third path ends in ", \\, a tab, U+2028 or é
ESCAPING_DIGEST = "2fda73558f23e4fa85d4113dd08cd681e41531849feffb9584111a527434da5b"

# a path mark JSON escapes ('"', "\\", a tab), and one it writes as it is
PATH_MARKS = {
    "quote": '"',
    "backslash": "\\",
    "tab": "\t",
    "line-separator": "\u2028",
    "e-acute": "\u00e9",
    "ascii": "",
    "mixed": '"\\\t\u2028\u00e9',
}


def marked(pool, field, marks):
    """``pool`` with every third ``field`` path ending in the next of ``marks``."""
    return [
        dataclasses.replace(item, **{field: getattr(item, field) + marks[k // 3 % len(marks)]})
        if k % 3 == 0 and marks
        else item
        for k, item in enumerate(pool)
    ]


@pytest.mark.parametrize("kind, repr_name", sorted(DIGESTS))
def test_written_corpus_matches_pinned_digest(
    image_pool, clip_pool, tmp_path, kind, repr_name
):
    time_repr = TimeRepresentation(repr_name)
    if kind == "image":
        build = image_corpus(ImageCorpusConfig(n_instances=500, time_repr=time_repr), image_pool)
    else:
        build = clip_corpus(ClipCorpusConfig(n_instances=500, time_repr=time_repr), clip_pool)
    path = tmp_path / "corpus.jsonl"
    build.write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[kind, repr_name]


def test_repeated_label_build_matches_pinned_digest(clip_pool, tmp_path):
    # 24 clips of 3 labels in sequences of 10: every record repeats labels,
    # draws its whole window from random.sample's pool branch and runs the
    # label-spreading greedy
    labels = {clip.label for clip in clip_pool[:3]}
    pool = [clip for clip in clip_pool if clip.label in labels]
    assert len(pool) == 24
    config = ClipCorpusConfig(n_instances=500, clip_min=10, clip_max=10)
    path = tmp_path / "corpus.jsonl"
    clip_corpus(config, pool).write(path)
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "cdc69186bb55b630f796b097f54ab5e02c539ce63bd04231b34a11903f976d26"
    )


def test_escaping_media_build_matches_pinned_digest(image_pool, tmp_path):
    pool = marked(image_pool, "image", PATH_MARKS["mixed"])
    path = tmp_path / "corpus.jsonl"
    image_corpus(ImageCorpusConfig(n_instances=500), pool).write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ESCAPING_DIGEST


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


def _range_task(state, ordinals):
    # module level, so pool workers can unpickle it
    return state, list(ordinals)


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


class TestRunRanges:
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 40])
    def test_every_ordinal_once_in_range_order(self, monkeypatch, pool_above_16, n, jobs):
        if jobs == 1 or n <= 16:  # ranges this process runs itself
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
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
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_small_build_starts_no_pool(self, monkeypatch, clip_pool, tmp_path, jobs):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        build = clip_corpus(ClipCorpusConfig(n_instances=16), clip_pool)
        stats = build.write(tmp_path / "corpus.jsonl", jobs)
        assert stats.total == 16

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_config_error_before_any_range(self, jobs):
        def never_run(state, ordinals):
            raise AssertionError("a range ran")

        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            run_ranges(never_run, None, 40, jobs)
