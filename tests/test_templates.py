"""Template bank loading, validation, and slot rendering."""

import json
import random

import pytest

from seq2time.errors import InvariantViolation, TemplateError
from seq2time.templates import (
    MIN_VARIANTS,
    REQUIRED_SLOTS,
    TemplateBank,
    check_in_order,
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

    def test_index_must_precede_caption_in_answers(self):
        # parse-back pairs each index with the caption that follows it
        with pytest.raises(TemplateError, match="<INDEX> before <CAPTION>"):
            self._bank(
                "iic",
                "single",
                ["Describe image <INDEX>."],
                ["<CAPTION> is what image <INDEX> shows."],
            )

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
    def test_line_slots_keep_their_lines(self, task, answer, accepted):
        # the DVC and TVG parsers read each event from the start of its line
        question = "When is <CAPTION>?" if task == "tvg" else "List the events."
        if accepted:
            self._bank(task, "single", [question], [answer])
            return
        with pytest.raises(TemplateError, match=f"{task}/single/answers template: <"):
            self._bank(task, "single", [question], [answer])

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
        ],
        ids=["task-list", "arity-string", "question-int", "answer-null"],
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


class TestCheckInOrder:
    def test_check_in_order_raises_invariant_violation(self):
        check_in_order("a then b", ["a", "b"], "demo")
        with pytest.raises(InvariantViolation, match="'b' missing"):
            check_in_order("b then a", ["a", "b"], "demo")
