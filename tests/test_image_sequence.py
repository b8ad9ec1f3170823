"""Image pretext-task generators: grounding, captioning, adjacency."""

import concurrent.futures
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from seq2time import corpus, image_sequence
from seq2time.corpus import _sample_indices, derive_record_seed
from seq2time.dataset_io import InstructionRecord, encode_line
from seq2time.errors import ConfigError
from seq2time.image_sequence import (
    CaptionedImage,
    ImageCorpusConfig,
    ImageSequenceSample,
    PretextTask,
    build_image_corpus,
    image_corpus,
    parse_index_mentions,
    render_index,
    sample_sequence,
)
from seq2time.position_token import (
    MAX_RPT_LENGTH,
    TimeRepresentation,
    code_to_index,
    encode_relative,
)
from seq2time.templates import TemplateBank


def image_record(*args):
    """The fields ``image_sequence.image_record`` returns, read by name."""
    return InstructionRecord("", *image_sequence.image_record(*args))


class ScriptedRandom(random.Random):
    """random.Random whose randint and choice pop queued values first."""

    def __init__(self, seed=0, randints=(), choices=()):
        super().__init__(seed)
        self._randints = list(randints)
        self._choices = list(choices)

    def randint(self, a, b):
        if self._randints:
            value = self._randints.pop(0)
            assert a <= value <= b, f"scripted {value} outside {a}..{b}"
            return value
        return super().randint(a, b)

    def choice(self, seq):
        if self._choices:
            value = self._choices.pop(0)
            assert value in seq, f"scripted {value!r} not in {seq!r}"
            return value
        return super().choice(seq)


class RandomOnly(random.Random):
    """Overrides only random(), which swaps in a _randbelow that never calls
    getrandbits, so only rng.sample itself draws the same indices."""

    def random(self):
        return super().random()


def canonical_bank():
    """One canonical phrasing per task/arity, repeated to the ten a bank needs,
    so outputs are pinned exactly."""
    return TemplateBank(
        {
            "iig": {
                "single": {
                    "questions": [
                        "Which image matches the description: <CAPTION>?"
                        " Please output the image index."
                    ] * 10,
                    "answers": ["The image index is <INDEX>."] * 10,
                },
                "multi": {
                    "questions": [
                        "Which images match the descriptions: <CAPTION>?"
                        " Please output the image indices."
                    ] * 10,
                    "answers": ["The image indices are <INDEX>."] * 10,
                },
            },
            "iic": {
                "single": {
                    "questions": ["Please describe the image with index <INDEX>."] * 10,
                    "answers": ["The image with index <INDEX> describes <CAPTION>."] * 10,
                },
                "multi": {
                    "questions": ["Please describe the images with indices <INDEX>."] * 10,
                    "answers": ["The image with index <INDEX> describes <CAPTION>."] * 10,
                },
            },
            "alr": {
                "single": {
                    "questions": [
                        "What is the image right <DIRECTION> the image described"
                        " as <CAPTION1>? Please provide the index and describe"
                        " this image."
                    ] * 10,
                    "answers": ["The image index is <INDEX>. It describes <CAPTION2>."] * 10,
                },
            },
        }
    )


def make_sample(image_pool, seq_len, targets):
    """The first ``seq_len`` images of the pool, in pool order."""
    return ImageSequenceSample(
        pool=image_pool,
        indices=tuple(range(seq_len)),
        targets=tuple(targets),
    )


def pool_paths(pool):
    return tuple(img.image for img in pool)


class TestSampleContracts:
    def test_draw_without_replacement(self, image_pool):
        sample = sample_sequence(image_pool, 96, random.Random(0))
        assert sample.seq_len == 96
        assert len({img.id for img in sample.images}) == 96

    def test_targets_within_bounds(self, image_pool):
        for seed in range(50):
            sample = sample_sequence(image_pool, 24, random.Random(seed))
            assert 1 <= len(sample.targets) <= 5
            assert all(1 <= t <= 24 for t in sample.targets)
            assert list(sample.targets) == sorted(set(sample.targets))

    def test_max_targets_caps_draw(self, image_pool):
        for seed in range(30):
            sample = sample_sequence(
                image_pool, 10, random.Random(seed), max_targets=2
            )
            assert len(sample.targets) <= 2

    def test_deterministic(self, image_pool):
        one = sample_sequence(image_pool, 48, random.Random(7))
        two = sample_sequence(image_pool, 48, random.Random(7))
        assert one == two

    def test_index_draw_picks_what_a_pool_copy_picks(self, image_pool):
        # pools on both sides of random.sample's switch from a list copy to
        # a set of drawn indices (about 1,000 for 96 picks)
        large = [CaptionedImage(f"x{k}", f"x{k}.jpg", f"picture {k}") for k in range(5000)]
        for pool in (image_pool[:96], image_pool, large):
            for seq_len in (1, 2, 48, 96):
                for seed in range(5):
                    copied = random.Random(seed).sample(list(pool), seq_len)
                    sample = sample_sequence(pool, seq_len, random.Random(seed))
                    assert sample.images == tuple(copied)
                    assert sample.images == tuple(pool[i] for i in sample.indices)

    @pytest.mark.parametrize(
        "n, k",
        [(96, 96), (500, 96), (1045, 96), (1046, 96), (20_000, 96), (200_000, 96),
         (20_000, 2), (6_000, 5_000), (10, 3), (1, 1),
         (160, 16), (160, 32), (160, 80), (24, 24), (20, 16)],
    )
    def test_index_draw_is_random_sample(self, n, k):
        # random.sample's set branch starts above n = 1,045 for k = 96, its
        # pool branch is below; compose_sequence's windows (the last five)
        # are all pool-branch draws. Both inlined branches draw what
        # rng.sample draws and leave the rng in step
        for seed in range(200):
            rng, reference = random.Random(seed), random.Random(seed)
            assert _sample_indices(rng, n, k) == reference.sample(range(n), k)
            assert rng.random() == reference.random()

    def test_index_draw_defers_to_another_randbelow(self):
        for seed in range(20):
            rng, reference = RandomOnly(seed), RandomOnly(seed)
            assert _sample_indices(rng, 20_000, 96) == reference.sample(range(20_000), 96)
            assert rng.random() == reference.random()

    def test_pool_branch_defers_to_another_randbelow(self, monkeypatch):
        # the same deferral below setsize, seen by counting rng.sample calls
        calls = []
        sample = random.Random.sample

        def counted(self, population, k):
            calls.append((population, k))
            return sample(self, population, k)

        monkeypatch.setattr(random.Random, "sample", counted)
        for seed in range(20):
            rng, reference = RandomOnly(seed), RandomOnly(seed)
            assert _sample_indices(rng, 96, 80) == sample(reference, range(96), 80)
            assert rng.random() == reference.random()
        assert calls == [(range(96), 80)] * 20

    def test_default_rng_never_reaches_rng_sample(self, monkeypatch):
        # on every supported Python a plain random.Random draws through the
        # inlined copy, in both branches; only a k outside 0..n defers
        calls = []
        sample = random.Random.sample

        def counted(self, population, k):
            calls.append((population, k))
            return sample(self, population, k)

        monkeypatch.setattr(random.Random, "sample", counted)
        for n, k in [(1, 1), (10, 0), (24, 24), (96, 80), (1046, 96), (20_000, 96)]:
            for seed in range(20):
                rng, reference = random.Random(seed), random.Random(seed)
                assert _sample_indices(rng, n, k) == sample(reference, range(n), k)
                assert rng.random() == reference.random()
        assert calls == []
        with pytest.raises(ValueError):
            _sample_indices(random.Random(0), 3, 5)
        assert calls == [(range(3), 5)]

    @pytest.mark.parametrize("n, k", [(3, 5), (3, -1), (100, -1)])
    def test_index_draw_raises_what_random_sample_raises(self, n, k):
        with pytest.raises(ValueError) as expected:
            random.Random(0).sample(range(n), k)
        with pytest.raises(ValueError) as raised:
            _sample_indices(random.Random(0), n, k)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("seq_len", [2, 8, 21, 22, 96, 5_000])
    def test_target_draw_is_random_sample(self, seq_len):
        # sample_sequence's target positions; random.sample takes its pool
        # branch up to setsize (21 for at most 5 picks), its set branch above
        for seed in range(200):
            for k in {*range(1, min(5, seq_len) + 1), min(96, seq_len)}:
                rng, reference = random.Random(seed), random.Random(seed)
                drawn = sorted(j + 1 for j in _sample_indices(rng, seq_len, k))
                assert drawn == sorted(reference.sample(range(1, seq_len + 1), k))
                assert rng.random() == reference.random()

    def test_pool_too_small(self, image_pool):
        with pytest.raises(ConfigError, match="cannot fill"):
            sample_sequence(image_pool[:5], 6, random.Random(0))

    def test_bad_args(self, image_pool):
        with pytest.raises(ConfigError, match="seq_len"):
            sample_sequence(image_pool, 0, random.Random(0))
        with pytest.raises(ConfigError, match="max_targets"):
            sample_sequence(image_pool, 4, random.Random(0), max_targets=0)

    def test_empty_caption_rejected(self):
        with pytest.raises(ConfigError, match="empty caption"):
            CaptionedImage(id="x", image="x.jpg", caption=" ")


class TestRenderIndex:
    def test_rpt_worked_example(self):
        assert render_index(7, 96, TimeRepresentation.RPT) == "<0><7><2><9>"

    def test_free_form_is_bare_integer(self):
        assert render_index(7, 96, TimeRepresentation.FREE_FORM) == "7"

    def test_last_index_clamps(self):
        assert render_index(96, 96, TimeRepresentation.RPT) == "<9><9><9><9>"


class TestIIGRecord:
    def test_single_rpt_exact(self, image_pool):
        sample = make_sample(image_pool, 96, (7,))
        record = image_record(
            PretextTask.IIG, sample, canonical_bank(), TimeRepresentation.RPT,
            random.Random(0),
            pool_paths(image_pool),
        )
        caption = image_pool[6].caption
        assert record.task == "IIG"
        assert record.question == (
            f"Which image matches the description: {caption}?"
            " Please output the image index."
        )
        assert record.answer == "The image index is <0><7><2><9>."
        assert record.media == tuple(img.image for img in image_pool[:96])
        assert record.meta["targets"] == [7]
        assert record.meta["seq_len"] == 96

    def test_single_free_form(self, image_pool):
        sample = make_sample(image_pool, 96, (7,))
        record = image_record(
            PretextTask.IIG, sample, canonical_bank(), TimeRepresentation.FREE_FORM,
            random.Random(0),
            pool_paths(image_pool),
        )
        assert record.answer == "The image index is 7."

    def test_multi_joins_quoted_captions(self, image_pool):
        sample = make_sample(image_pool, 96, (7, 24))
        record = image_record(
            PretextTask.IIG, sample, canonical_bank(), TimeRepresentation.RPT,
            random.Random(0),
            pool_paths(image_pool),
        )
        cap7, cap24 = image_pool[6].caption, image_pool[23].caption
        assert f'"{cap7}", "{cap24}"' in record.question
        assert record.answer == "The image indices are <0><7><2><9>, <2><5><0><0>."

    def test_one_image_sequence(self, image_pool):
        # one index gathers a 1-tuple, not the bare image or path
        sample = sample_sequence(image_pool, 1, random.Random(3))
        record = image_record(
            PretextTask.IIG, sample, canonical_bank(), TimeRepresentation.FREE_FORM,
            random.Random(0),
            pool_paths(image_pool),
        )
        assert sample.images == (image_pool[sample.indices[0]],)
        assert record.media == (sample.images[0].image,)
        assert record.answer == "The image index is 1."

    def test_five_targets(self, image_pool):
        sample = make_sample(image_pool, 96, (1, 2, 3, 4, 5))
        record = image_record(
            PretextTask.IIG, sample, canonical_bank(), TimeRepresentation.FREE_FORM,
            random.Random(0),
            pool_paths(image_pool),
        )
        assert "1, 2, 3, 4, 5" in record.answer


class TestIICRecord:
    def test_single_rpt_exact(self, image_pool):
        sample = make_sample(image_pool, 96, (7,))
        record = image_record(
            PretextTask.IIC, sample, canonical_bank(), TimeRepresentation.RPT,
            random.Random(0),
            pool_paths(image_pool),
        )
        caption = image_pool[6].caption
        assert record.task == "IIC"
        assert record.question == "Please describe the image with index <0><7><2><9>."
        assert record.answer == (
            f"The image with index <0><7><2><9> describes {caption}."
        )

    def test_multi_repeats_answer_sentence(self, image_pool):
        sample = make_sample(image_pool, 96, (7, 24))
        record = image_record(
            PretextTask.IIC, sample, canonical_bank(), TimeRepresentation.FREE_FORM,
            random.Random(0),
            pool_paths(image_pool),
        )
        cap7, cap24 = image_pool[6].caption, image_pool[23].caption
        assert record.answer == (
            f"The image with index 7 describes {cap7}."
            f" The image with index 24 describes {cap24}."
        )

    def test_caption_appears_verbatim(self, image_pool):
        sample = make_sample(image_pool, 12, (3,))
        record = image_record(
            PretextTask.IIC, sample, canonical_bank(), TimeRepresentation.FREE_FORM,
            random.Random(0),
            pool_paths(image_pool),
        )
        assert image_pool[2].caption in record.answer


class TestALRRecord:
    def test_scripted_anchor_before(self, image_pool):
        sample = make_sample(image_pool, 96, (1,))
        record = image_record(
            PretextTask.ALR,
            sample,
            canonical_bank(),
            TimeRepresentation.RPT,
            ScriptedRandom(choices=["before"], randints=[8]),
            pool_paths(image_pool),
        )
        cap8, cap7 = image_pool[7].caption, image_pool[6].caption
        assert record.task == "ALR"
        assert record.question == (
            f"What is the image right before the image described as {cap8}?"
            " Please provide the index and describe this image."
        )
        assert record.answer == (
            f"The image index is <0><7><2><9>. It describes {cap7}."
        )
        assert record.meta["anchor"] == 8
        assert record.meta["targets"] == [7]
        assert record.meta["direction"] == "before"

    def test_scripted_anchor_after(self, image_pool):
        sample = make_sample(image_pool, 96, (1,))
        record = image_record(
            PretextTask.ALR,
            sample,
            canonical_bank(),
            TimeRepresentation.FREE_FORM,
            ScriptedRandom(choices=["after"], randints=[8]),
            pool_paths(image_pool),
        )
        assert record.meta["targets"] == [9]
        assert image_pool[8].caption in record.answer

    def test_boundary_anchor_redrawn(self, image_pool):
        sample = make_sample(image_pool, 96, (1,))
        record = image_record(
            PretextTask.ALR,
            sample,
            canonical_bank(),
            TimeRepresentation.FREE_FORM,
            # 1 has no "before" neighbor
            ScriptedRandom(choices=["before"], randints=[1, 1, 5]),
            pool_paths(image_pool),
        )
        assert record.meta["anchor"] == 5
        assert record.meta["targets"] == [4]

    def test_after_never_anchors_last(self, image_pool):
        for seed in range(40):
            record = image_record(
                PretextTask.ALR,
                make_sample(image_pool, 6, (1,)),
                canonical_bank(),
                TimeRepresentation.FREE_FORM,
                ScriptedRandom(seed, choices=["after"]),
                pool_paths(image_pool),
            )
            assert record.meta["anchor"] < 6

    def test_seq_len_two(self, image_pool):
        record = image_record(
            PretextTask.ALR,
            make_sample(image_pool, 2, (1,)),
            canonical_bank(),
            TimeRepresentation.FREE_FORM,
            ScriptedRandom(0, choices=["before"]),
            pool_paths(image_pool),
        )
        assert record.meta["anchor"] == 2
        assert record.meta["targets"] == [1]

    def test_seq_len_one_rejected(self, image_pool):
        with pytest.raises(ConfigError, match="seq_len >= 2"):
            image_record(
                PretextTask.ALR,
                make_sample(image_pool, 1, (1,)),
                canonical_bank(),
                TimeRepresentation.FREE_FORM,
                random.Random(0),
                pool_paths(image_pool),
            )


class TestOutputInvariants:
    @given(
        time_repr=st.sampled_from(list(TimeRepresentation)),
        task=st.sampled_from(list(PretextTask)),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_generate_parse_identity(self, large_image_pool, time_repr, task, data):
        # every accepted (seq_len, max_targets, time_repr) parses back to
        # its own targets, up to the longest position-token sequence
        seq_len = data.draw(st.integers(2, MAX_RPT_LENGTH), label="seq_len")
        config = ImageCorpusConfig(
            n_instances=2,
            seq_len=seq_len,
            max_targets=data.draw(st.integers(1, seq_len), label="max_targets"),
            time_repr=time_repr,
        )
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        templates = TemplateBank.load()
        for _ in range(config.n_instances):
            sample = sample_sequence(large_image_pool, seq_len, rng, config.max_targets)
            record = image_record(
                task, sample, templates, time_repr, rng, pool_paths(large_image_pool)
            )
            parsed = parse_index_mentions(record.answer, time_repr, seq_len)
            assert parsed == record.meta["targets"], record.answer

    @pytest.mark.parametrize("repr_name", ["rpt", "free_form"])
    def test_parse_back_recovers_targets(self, image_pool, repr_name):
        # answers must decode back to the exact target positions; this is
        # what makes the records usable as supervision
        time_repr = TimeRepresentation(repr_name)
        config = ImageCorpusConfig(n_instances=300, seq_len=96, time_repr=time_repr)
        templates = TemplateBank.load()
        for record in build_image_corpus(config, image_pool, templates):
            parsed = parse_index_mentions(
                record.answer, time_repr, record.meta["seq_len"]
            )
            assert parsed == record.meta["targets"], record.id


class TestImageCorpusConfig:
    def test_defaults(self):
        config = ImageCorpusConfig(n_instances=10)
        assert config.seq_len == 96
        assert config.max_targets == 5
        assert config.time_repr is TimeRepresentation.RPT

    def test_validation(self):
        with pytest.raises(ConfigError, match="n_instances"):
            ImageCorpusConfig(n_instances=-1)
        with pytest.raises(ConfigError, match="seq_len"):
            ImageCorpusConfig(n_instances=1, seq_len=1)
        with pytest.raises(ConfigError, match="max_targets"):
            ImageCorpusConfig(n_instances=1, seq_len=4, max_targets=5)

    def test_rpt_seq_len_limit(self):
        ImageCorpusConfig(n_instances=1, seq_len=MAX_RPT_LENGTH)
        ImageCorpusConfig(
            n_instances=1,
            seq_len=MAX_RPT_LENGTH + 1,
            time_repr=TimeRepresentation.FREE_FORM,
        )
        with pytest.raises(ConfigError, match="exceeds 5000"):
            ImageCorpusConfig(n_instances=1, seq_len=MAX_RPT_LENGTH + 1)
        # at the limit every position still decodes back to itself
        assert all(
            code_to_index(encode_relative(i, MAX_RPT_LENGTH), MAX_RPT_LENGTH) == i
            for i in range(1, MAX_RPT_LENGTH + 1)
        )


class TestBuildImageCorpus:
    @pytest.mark.parametrize(
        "time_repr, caption, rejected",
        [
            (TimeRepresentation.FREE_FORM, "3 dogs playing", True),
            (TimeRepresentation.FREE_FORM, "a dog with \u0663 legs", True),
            (TimeRepresentation.RPT, "a sign reading <1><2><3><4>", True),
            (TimeRepresentation.RPT, "3 dogs playing", False),
            (TimeRepresentation.RPT, "a sign reading <1><2><3>", False),
        ],
    )
    def test_captions_must_not_read_as_positions(
        self, image_pool, time_repr, caption, rejected
    ):
        pool = list(image_pool)
        pool[77] = CaptionedImage("odd-one", "odd.jpg", caption)
        config = ImageCorpusConfig(n_instances=50, seq_len=24, time_repr=time_repr)
        if rejected:
            with pytest.raises(ConfigError, match="image 'odd-one'"):
                image_corpus(config, pool)
            return
        for record in image_corpus(config, pool).records():
            parsed = parse_index_mentions(record.answer, time_repr, 24)
            assert parsed == record.meta["targets"], record.answer

    def test_record_ids_and_meta(self, image_pool):
        config = ImageCorpusConfig(n_instances=4, seed=5)
        records = list(build_image_corpus(config, image_pool))
        assert [r.id for r in records] == [f"is-5-{i:08d}" for i in range(4)]
        for ordinal, record in enumerate(records):
            assert record.meta["seed"] == 5
            assert record.meta["ordinal"] == ordinal

    def test_deterministic(self, image_pool):
        config = ImageCorpusConfig(n_instances=25, seed=9)
        assert list(build_image_corpus(config, image_pool)) == list(
            build_image_corpus(config, image_pool)
        )

    def test_ordinal_purity(self, image_pool):
        # record k of a run never depends on records before it
        config = ImageCorpusConfig(n_instances=10, seed=3)
        templates = TemplateBank.load()
        build = list(build_image_corpus(config, image_pool, templates))
        build_corpus = image_corpus(config, image_pool, templates)
        for k in (0, 4, 9):
            assert build[k] == build_corpus.record(k)

    def test_seed_changes_output(self, image_pool):
        a = list(build_image_corpus(ImageCorpusConfig(n_instances=5, seed=1), image_pool))
        b = list(build_image_corpus(ImageCorpusConfig(n_instances=5, seed=2), image_pool))
        assert a != b

    def test_zero_instances(self, image_pool):
        assert list(build_image_corpus(ImageCorpusConfig(n_instances=0), image_pool)) == []

    def test_parallel_matches_sequential(self, image_pool, pool_above_16):
        config = ImageCorpusConfig(n_instances=40, seed=11)
        sequential = list(build_image_corpus(config, image_pool, jobs=1))
        parallel = list(build_image_corpus(config, image_pool, jobs=2))
        assert pool_above_16
        as_bytes = lambda records: "".join(map(encode_line, records))
        assert as_bytes(parallel) == as_bytes(sequential)

    @pytest.mark.parametrize("n, pooled", [(119, False), (120, True)])
    def test_long_records_pool_sooner(self, large_image_pool, tmp_path, pool_starts, n, pooled):
        # a 5,000-image record weighs 5150 / 246, so past 119 of them the
        # work is above the 2,500 units of corpus.SERIAL_MAX
        build = image_corpus(ImageCorpusConfig(n_instances=n, seq_len=5000), large_image_pool)
        build.write(tmp_path / "two.jsonl", jobs=2)
        assert len(pool_starts) == pooled
        build.write(tmp_path / "one.jsonl", jobs=1)
        assert (tmp_path / "two.jsonl").read_bytes() == (tmp_path / "one.jsonl").read_bytes()

    def test_record_weight_is_one_at_96_images(self):
        weights = [ImageCorpusConfig(0, seq_len=k, max_targets=1).record_weight
                   for k in (2, 96, 342, 5000)]
        assert weights == [152 / 246, 1, 2, 5150 / 246]

    def test_workers_capped_at_cores(self, image_pool, tmp_path, monkeypatch, pool_above_16):
        # a fork-started pool launches every worker up front, so a huge
        # jobs value must not ask for more workers than there are cores;
        # the stand-in records the request and maps in this process
        requested = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                requested.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(corpus, "_STATE", None)
        build = image_corpus(ImageCorpusConfig(n_instances=100, seed=5), image_pool)
        build.write(tmp_path / "one.jsonl", jobs=1)
        build.write(tmp_path / "many.jsonl", jobs=10_000)
        assert len(requested) == len(pool_above_16) == 1
        assert 1 <= requested[0] <= (os.cpu_count() or 1)
        assert (tmp_path / "many.jsonl").read_bytes() == (
            tmp_path / "one.jsonl"
        ).read_bytes()

    def test_jobs_validation(self, image_pool):
        with pytest.raises(ConfigError, match="jobs"):
            list(build_image_corpus(ImageCorpusConfig(n_instances=1), image_pool, jobs=0))

    def test_task_mix_proportions(self, image_pool):
        # 3 sigma for p=1/3, n=600 is ~34.6
        config = ImageCorpusConfig(n_instances=600, seed=2)
        counts = {"IIG": 0, "IIC": 0, "ALR": 0}
        for record in build_image_corpus(config, image_pool):
            counts[record.task] += 1
        for task, count in counts.items():
            assert abs(count - 200) <= 35, counts

    def test_record_seed_matches_derivation(self, image_pool):
        # the per-record draw chain starts at the derived seed
        config = ImageCorpusConfig(n_instances=1, seed=4)
        record = image_corpus(config, image_pool).record(0)
        rseed = derive_record_seed(4, 0, "image-seq")
        rng = random.Random(rseed)
        names = sorted(t.value for t in PretextTask)
        expected_task = rng.choices(names, weights=[1 / 3] * 3)[0]
        assert record.task == PretextTask(expected_task).name

    def test_template_coverage_single_target(self, image_pool):
        # with one canonical slot value per record the template is
        # recoverable; about 500 IIG draws must exercise all ten phrasings
        config = ImageCorpusConfig(
            n_instances=1500,
            seq_len=24,
            max_targets=1,
            time_repr=TimeRepresentation.FREE_FORM,
        )
        templates = TemplateBank.load()
        questions, answers = templates.variants("iig", "single")
        caption_by_path = {img.image: img.caption for img in image_pool}
        seen_q, seen_a = set(), set()
        for record in build_image_corpus(config, image_pool, templates):
            if record.task != "IIG":
                continue
            (target,) = record.meta["targets"]
            caption = caption_by_path[record.media[target - 1]]
            seen_q.add(record.question.replace(caption, "<CAPTION>"))
            seen_a.add(record.answer.replace(str(target), "<INDEX>", 1))
        assert seen_q == set(questions)
        assert seen_a == set(answers)
