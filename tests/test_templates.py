"""Template bank loading, validation, slot rendering, and the parse-back
probe every build runs over its answer templates."""

import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from seq2time.clip_sequence import ClipCorpusConfig, clip_corpus
from seq2time.errors import TemplateError
from seq2time.evaluation import parse_predictions
from seq2time.image_sequence import ImageCorpusConfig, image_corpus, parse_index_mentions
from seq2time.position_token import MAX_RPT_LENGTH, TimeRepresentation
from seq2time.templates import (
    MIN_VARIANTS,
    REQUIRED_SLOTS,
    TemplateBank,
    find_missing_in_order,
    render_template,
)


@pytest.fixture(scope="module")
def bank():
    return TemplateBank.load()


class TestPackagedBank:
    def test_loads_and_validates(self, bank):
        assert isinstance(bank, TemplateBank)

    def test_every_required_pair_present(self, bank):
        for task, arity in REQUIRED_SLOTS:
            questions, answers = bank.variants(task, arity)
            assert len(questions) >= MIN_VARIANTS
            assert len(answers) >= MIN_VARIANTS

    def test_no_duplicate_variants(self, bank):
        for task, arity in REQUIRED_SLOTS:
            questions, answers = bank.variants(task, arity)
            assert len(set(questions)) == len(questions), (task, arity)
            assert len(set(answers)) == len(answers), (task, arity)

    def test_tvg_answers_lead_with_interval(self, bank):
        # grounding answers must parse with the line-anchored grammar,
        # so the interval has to open the line
        _, answers = bank.variants("tvg", "single")
        for tpl in answers:
            assert tpl.startswith("<INTERVAL>"), tpl

    def test_dvc_events_start_a_line(self, bank):
        _, answers = bank.variants("dvc", "single")
        for tpl in answers:
            at = tpl.index("<EVENTS>")
            assert at == 0 or tpl[at - 1] == "\n", tpl

    def test_variants_returns_copies(self, bank):
        questions, _ = bank.variants("iig", "single")
        questions.append("mutated")
        again, _ = bank.variants("iig", "single")
        assert "mutated" not in again

    def test_unknown_task_or_arity(self, bank):
        with pytest.raises(TemplateError, match="no templates"):
            bank.variants("iig", "triple")
        with pytest.raises(TemplateError, match="no templates"):
            bank.variants("ocr", "single")

    def test_slot_marker_does_not_match_digit_tokens(self):
        # position tokens are single digits; slot markers must stay disjoint
        from seq2time.templates import _SLOT_RE

        for digit in range(10):
            assert _SLOT_RE.search(f"<{digit}>") is None

    def test_sample_deterministic(self, bank):
        a = bank.sample("iig", "single", random.Random(11))
        b = bank.sample("iig", "single", random.Random(11))
        assert a == b

    def test_sample_covers_all_variants(self, bank):
        rng = random.Random(0)
        questions, answers = bank.variants("tvg", "single")
        seen_q, seen_a = set(), set()
        for _ in range(600):
            q, a = bank.sample("tvg", "single", rng)
            seen_q.add(q)
            seen_a.add(a)
        assert seen_q == set(questions)
        assert seen_a == set(answers)


class TestValidation:
    def _bank(self, task, arity, questions, answers, copies=MIN_VARIANTS):
        """A one-entry bank holding each given phrasing ``copies`` times."""
        return TemplateBank(
            {task: {arity: {"questions": questions * copies, "answers": answers * copies}}}
        )

    def test_min_variants_enforced(self):
        with pytest.raises(TemplateError, match="needs >= 10"):
            self._bank(
                "tvg",
                "single",
                ["When is <CAPTION>?"],
                ["<INTERVAL>"],
                copies=MIN_VARIANTS - 1,
            )

    def test_repeated_phrasings_meet_the_minimum(self):
        small = self._bank(
            "tvg", "single", ["When is <CAPTION>?"], ["<INTERVAL>"]
        )
        q, a = small.sample("tvg", "single", random.Random(0))
        assert q == "When is <CAPTION>?"
        assert a == "<INTERVAL>"

    def test_missing_required_slot(self):
        with pytest.raises(TemplateError, match="missing <INTERVAL>"):
            self._bank(
                "tvg", "single", ["When is <CAPTION>?"], ["at some point"]
            )

    def test_root_must_be_object(self):
        with pytest.raises(TemplateError, match="root must be an object"):
            TemplateBank(["not", "a", "dict"])

    @pytest.mark.parametrize(
        "data, where",
        [
            ({"iig": []}, "iig must map arities to objects"),
            ({"iig": {"single": "x"}}, "iig/single must be an object"),
            (
                {"tvg": {"single": {"questions": [1] * 10, "answers": ["<INTERVAL>"] * 10}}},
                "tvg/single/questions variant is not text: 1",
            ),
            (
                {"tvg": {"single": {"questions": ["<CAPTION>"] * 10, "answers": [None] * 10}}},
                "tvg/single/answers variant is not text: None",
            ),
            # a DVC question needs no slot, but a record needs a question
            (
                {"dvc": {"single": {"questions": [""] * 10, "answers": ["<EVENTS>"] * 10}}},
                "dvc/single/questions template is empty",
            ),
            *(
                (
                    {"dvc": {"single": {"questions": [blank] * 10, "answers": ["<EVENTS>"] * 10}}},
                    f"dvc/single/questions template is blank: {blank!r}",
                )
                for blank in (" ", "\n", "\t", " \u2028 ")
            ),
            (
                {"tvg": {"single": {"questions": ["<CAPTION>"] * 10,
                                    "answers": ["<INTERVAL>\ud800"] * 10}}},
                "tvg/single/answers template holds a lone surrogate escape, which "
                "is not text: '<INTERVAL>\\ud800'",
            ),
        ],
        ids=[
            "task-list", "arity-string", "question-int", "answer-null", "empty-question",
            "space-question", "newline-question", "tab-question", "separator-question",
            "lone-surrogate-answer",
        ],
    )
    def test_wrong_shape_names_the_entry(self, data, where):
        with pytest.raises(TemplateError) as excinfo:
            TemplateBank(data)
        assert where in str(excinfo.value)

    def test_load_rejects_non_utf8(self, tmp_path):
        bad = tmp_path / "bank.json"
        bad.write_bytes(b'{"iig": "caf\xe9"}')
        with pytest.raises(TemplateError, match="not valid JSON"):
            TemplateBank.load(bad)

    def test_load_rejects_invalid_json(self, tmp_path):
        bad = tmp_path / "bank.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(TemplateError, match="not valid JSON"):
            TemplateBank.load(bad)

    def test_load_custom_path(self, tmp_path):
        data = {
            "tvg": {
                "single": {
                    "questions": [f"q{i} <CAPTION>" for i in range(10)],
                    "answers": [f"<INTERVAL> a{i}" for i in range(10)],
                }
            }
        }
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        loaded = TemplateBank.load(path)
        questions, _ = loaded.variants("tvg", "single")
        assert questions[0] == "q0 <CAPTION>"


class TestRenderTemplate:
    def test_fills_slots(self):
        out = render_template(
            "The image index is <INDEX>. It describes <CAPTION2>.",
            {"<INDEX>": "<0><7><2><9>", "<CAPTION2>": "a red kite"},
        )
        assert out == "The image index is <0><7><2><9>. It describes a red kite."

    def test_extra_values_are_ignored(self):
        out = render_template("just text", {"<INDEX>": "3"})
        assert out == "just text"

    def test_missing_value_raises(self):
        with pytest.raises(TemplateError, match="no value provided for slot <INDEX>"):
            render_template("index <INDEX>", {"<CAPTION>": "x"})

    def test_value_holding_a_slot_is_inserted_verbatim(self):
        # slots are filled in one pass over the template, so a value is
        # never searched for slots of its own
        out = render_template("see <CAPTION>", {"<CAPTION>": "oops <INDEX>"})
        assert out == "see oops <INDEX>"


class TestFindMissingInOrder:
    def test_all_present_in_order(self):
        assert find_missing_in_order("a b c", ["a", "b", "c"]) is None

    def test_reports_first_missing(self):
        assert find_missing_in_order("a c", ["a", "b", "c"]) == "b"

    def test_order_matters(self):
        assert find_missing_in_order("b a", ["a", "b"]) == "b"

    def test_repeated_needles_need_repeats(self):
        assert find_missing_in_order("x x", ["x", "x"]) is None
        assert find_missing_in_order("x", ["x", "x"]) == "x"

    def test_empty_needles(self):
        assert find_missing_in_order("anything", []) is None


PACKAGED = resources.files("seq2time").joinpath("data/template_bank.json").read_text()
REPRS = list(TimeRepresentation)
IMAGE_ENTRIES = [key for key in REQUIRED_SLOTS if key[0] in ("iig", "iic", "alr")]

# fixed text around answer slots is drawn as lines of these: digits, code
# tokens and whole codes, and the words of a free-form interval
FRAGMENTS = [
    *"0123456789", "<1>", "<0>", "<9>", " - ", "seconds", "0 - 1 seconds", "<0><0><0><0>", "a ",
]


def _bank_with(answers: dict) -> TemplateBank:
    """The packaged bank with each (task, arity)'s answers set to one phrasing."""
    data = json.loads(PACKAGED)
    for (task, arity), answer in answers.items():
        data[task][arity]["answers"] = [answer] * MIN_VARIANTS
    return TemplateBank(data)


def _setup(task, arity, answer, time_repr, image_pool, clip_pool):
    """Set up a build whose ``task``/``arity`` answers all read ``answer``."""
    templates = _bank_with({(task, arity): answer})
    if task in ("dvc", "tvg"):
        config = ClipCorpusConfig(n_instances=0, time_repr=time_repr)
        return clip_corpus(config, clip_pool, templates)
    config = ImageCorpusConfig(n_instances=0, time_repr=time_repr)
    return image_corpus(config, image_pool, templates)


class TestParseBackProbe:
    """Builds refuse, at setup, an answer template whose answers would not
    parse back to their own targets under the scorer's parsers."""

    @pytest.mark.parametrize("time_repr", REPRS, ids=lambda r: r.value)
    def test_index_must_precede_caption_in_answers(self, image_pool, clip_pool, time_repr):
        # parse-back pairs each index with the caption that follows it
        with pytest.raises(
            TemplateError, match="iic/single answer template does not parse back"
        ):
            _setup(
                "iic", "single", "<CAPTION> is what image <INDEX> shows.",
                time_repr, image_pool, clip_pool,
            )

    @pytest.mark.parametrize("time_repr", REPRS, ids=lambda r: r.value)
    @pytest.mark.parametrize(
        "task, answer, accepted",
        [
            ("dvc", "<EVENTS>", True),
            ("dvc", "Events:\n<EVENTS>\nThat is all.", True),
            ("dvc", "Events: <EVENTS>", False),
            ("dvc", "<EVENTS> in order", False),
            ("dvc", "Events:\n<EVENTS>\n<EVENTS>.", False),
            ("tvg", "<INTERVAL>, the span.", True),
            ("tvg", "Span:\n<INTERVAL>", True),
            ("tvg", "The span is <INTERVAL>.", False),
        ],
    )
    def test_line_slots_keep_their_lines(
        self, image_pool, clip_pool, task, answer, accepted, time_repr
    ):
        # the DVC and TVG parsers read each event from the start of its line
        if accepted:
            _setup(task, "single", answer, time_repr, image_pool, clip_pool)
            return
        with pytest.raises(
            TemplateError, match=f"{task}/single answer template does not parse back"
        ):
            _setup(task, "single", answer, time_repr, image_pool, clip_pool)

    @pytest.mark.parametrize(
        "task, arity, answer",
        [
            # code tokens right before the position code merge with its
            # leading digits: wrong for most targets, right for some
            ("iig", "single", "Index <9><INDEX>."),
            ("iig", "multi", "Indices <1><INDEX>."),
            ("iic", "single", "Image <0><INDEX> shows <CAPTION>."),
            ("alr", "single", "Index <9><9><INDEX>, showing <CAPTION2>."),
        ],
    )
    @pytest.mark.parametrize("seq_len", [3, 96])
    def test_code_tokens_merging_with_a_position(
        self, image_pool, task, arity, answer, seq_len
    ):
        config = ImageCorpusConfig(n_instances=0, seq_len=seq_len, max_targets=2)
        with pytest.raises(
            TemplateError, match=f"{task}/{arity} answer template does not parse back"
        ):
            image_corpus(config, image_pool, _bank_with({(task, arity): answer}))

    def test_multi_target_answers_go_unprobed_without_multi_targets(self, image_pool):
        # max_targets 1 never draws a multi-target template
        bank = _bank_with({("iig", "multi"): "Indices <1><INDEX>."})
        image_corpus(ImageCorpusConfig(n_instances=0, max_targets=1), image_pool, bank)
        with pytest.raises(TemplateError, match="iig/multi answer template"):
            image_corpus(ImageCorpusConfig(n_instances=0, max_targets=2), image_pool, bank)

    @staticmethod
    def _draw_answer(data, slots) -> str:
        """``slots`` in a drawn order, with drawn fixed text around each."""
        line = st.lists(st.sampled_from(FRAGMENTS), max_size=3).map("".join)
        fixed = st.lists(line, max_size=3).map("\n".join)
        order = data.draw(st.permutations(slots), label="slot order")
        parts = [data.draw(fixed, label="fixed text")]
        for slot in order:
            parts += [slot, data.draw(fixed, label="fixed text")]
        return "".join(parts)

    @given(time_repr=st.sampled_from(REPRS), entry=st.sampled_from(IMAGE_ENTRIES), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepted_image_answers_parse_back(self, large_image_pool, time_repr, entry, data):
        answer = self._draw_answer(data, REQUIRED_SLOTS[entry][1])
        seq_len = data.draw(st.integers(2, MAX_RPT_LENGTH), label="seq_len")
        config = ImageCorpusConfig(
            n_instances=40,
            seq_len=seq_len,
            max_targets=data.draw(st.integers(1, min(seq_len, 5)), label="max_targets"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
            time_repr=time_repr,
        )
        try:
            corpus = image_corpus(config, large_image_pool, _bank_with({entry: answer}))
        except TemplateError:
            return
        for record in corpus.records():
            parsed = parse_index_mentions(record.answer, time_repr, seq_len)
            assert parsed == record.meta["targets"], record.answer

    @given(time_repr=st.sampled_from(REPRS), task=st.sampled_from(["dvc", "tvg"]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_accepted_clip_answers_parse_back(self, clip_pool, time_repr, task, data):
        answer = self._draw_answer(data, REQUIRED_SLOTS[(task, "single")][1])
        config = ClipCorpusConfig(
            n_instances=20,
            total_frames=data.draw(st.integers(10, 500), label="total_frames"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
            time_repr=time_repr,
        )
        try:
            corpus = clip_corpus(config, clip_pool, _bank_with({(task, "single"): answer}))
        except TemplateError:
            return
        for record in corpus.records():
            events = parse_predictions(
                record.answer, time_repr, record.meta["duration_s"]
            ).events
            intervals = [[e.start, e.end] for e in events]
            assert intervals == record.meta["intervals"], record.answer
            if record.task == "DVC":
                assert [e.caption for e in events] == record.meta["captions"], record.answer

    def test_packaged_bank_passes_at_any_length(self, large_image_pool, clip_pool):
        templates = TemplateBank.load()
        for time_repr in REPRS:
            for seq_len in (2, 3, 24, 96, MAX_RPT_LENGTH):
                config = ImageCorpusConfig(
                    n_instances=0, seq_len=seq_len, max_targets=2, time_repr=time_repr
                )
                image_corpus(config, large_image_pool, templates)
            clip_corpus(ClipCorpusConfig(n_instances=0, time_repr=time_repr), clip_pool, templates)

