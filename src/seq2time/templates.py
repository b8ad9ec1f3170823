"""Question/answer template bank with slot substitution.

Templates live in an external JSON file (``data/template_bank.json`` ships
with the package) keyed by task then arity::

    {"iig": {"single": {"questions": [...], "answers": [...]}, ...}, ...}

Each list holds at least ten phrasings; the first entry of every list is
the canonical wording, the rest are paraphrases. Slots are uppercase
angle-bracket markers (``<CAPTION>``, ``<INDEX>``, ``<CAPTION1>``,
``<CAPTION2>``, ``<DIRECTION>``, ``<EVENTS>``, ``<INTERVAL>``); they never
collide with digit position tokens, which are single digits. The bank
validates on load that every template carries all slots its task needs,
and no slot its task leaves unfilled; and that none is blank (a record
needs a question) or holds a lone surrogate escape (``"\\ud800"``, which
no UTF-8 output can hold).
Whether an answer template parses back is checked where the parsing
rules are known: each build renders every answer template it can draw
with probe values and reads it back with the scorer's parsers, at setup.
"""

from __future__ import annotations

import json
import random
import re
from importlib import resources
from pathlib import Path
from typing import Iterable

from .dataset_io import _SURROGATE
from .errors import TemplateError

_SLOT_RE = re.compile(r"<(?:CAPTION[12]?|INDEX|DIRECTION|EVENTS|INTERVAL)>")

# (task, arity) -> (slots every question needs, slots every answer needs);
# these are also the only slots a generator fills in each
REQUIRED_SLOTS: dict[tuple[str, str], tuple[tuple[str, ...], tuple[str, ...]]] = {
    ("iig", "single"): (("<CAPTION>",), ("<INDEX>",)),
    ("iig", "multi"): (("<CAPTION>",), ("<INDEX>",)),
    ("iic", "single"): (("<INDEX>",), ("<INDEX>", "<CAPTION>")),
    # multi IIC answers are per-target sentences, joined by the generator
    ("iic", "multi"): (("<INDEX>",), ("<INDEX>", "<CAPTION>")),
    ("alr", "single"): (("<CAPTION1>", "<DIRECTION>"), ("<INDEX>", "<CAPTION2>")),
    ("dvc", "single"): ((), ("<EVENTS>",)),
    ("tvg", "single"): (("<CAPTION>",), ("<INTERVAL>",)),
}

MIN_VARIANTS = 10


def find_missing_in_order(text: str, needles: Iterable[str]) -> str | None:
    """First needle that does not appear in text after its predecessor.

    Returns None when all needles occur in order.
    """
    pos = 0
    for needle in needles:
        found = text.find(needle, pos)
        if found < 0:
            return needle
        pos = found + len(needle)
    return None


def render_template(template: str, values: dict[str, str]) -> str:
    """Fill every slot of ``template`` from ``values``, in one pass.

    Values are inserted verbatim, even one that holds a slot marker.
    Raises :class:`TemplateError` if the template contains a slot with no
    value.
    """

    def fill(match: re.Match) -> str:
        slot = match.group(0)
        if slot not in values:
            raise TemplateError(f"no value provided for slot {slot} in {template!r}")
        return values[slot]

    return _SLOT_RE.sub(fill, template)


class TemplateBank:
    """Validated question/answer phrasings, drawn uniformly per record."""

    def __init__(self, data: dict):
        self._data = data
        self._validate()

    @classmethod
    def load(cls, path: str | Path | None = None) -> "TemplateBank":
        """Read a bank from ``path`` or fall back to the packaged default."""
        if path is None:
            source = resources.files("seq2time").joinpath("data/template_bank.json")
        else:
            source = Path(path)
        try:
            data = json.loads(source.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise TemplateError(
                f"template bank {source} is not valid JSON: {exc}"
            ) from exc
        return cls(data)

    def _validate(self) -> None:
        if not isinstance(self._data, dict):
            raise TemplateError("template bank root must be an object")
        for (task, arity), (q_slots, a_slots) in REQUIRED_SLOTS.items():
            arities = self._data.get(task, {})
            if not isinstance(arities, dict):
                raise TemplateError(f"{task} must map arities to objects")
            entry = arities.get(arity)
            if entry is None:
                continue  # tasks may omit arities they do not support
            if not isinstance(entry, dict):
                raise TemplateError(f"{task}/{arity} must be an object")
            for kind, slots in (("questions", q_slots), ("answers", a_slots)):
                variants = entry.get(kind)
                if not isinstance(variants, list) or len(variants) < MIN_VARIANTS:
                    raise TemplateError(
                        f"{task}/{arity}/{kind} needs >= {MIN_VARIANTS} variants"
                    )
                for tpl in variants:
                    if not isinstance(tpl, str):
                        raise TemplateError(
                            f"{task}/{arity}/{kind} variant is not text: {tpl!r}"
                        )
                    for slot in slots:
                        if slot not in tpl:
                            raise TemplateError(
                                f"{task}/{arity}/{kind} template missing {slot}: {tpl!r}"
                            )
                    for slot in _SLOT_RE.findall(tpl):
                        if slot not in slots:
                            raise TemplateError(
                                f"{task}/{arity}/{kind} template holds {slot}, "
                                f"a slot its task never fills: {tpl!r}"
                            )
                    if not tpl.strip():
                        blank = f"blank: {tpl!r}" if tpl else "empty"
                        raise TemplateError(f"{task}/{arity}/{kind} template is {blank}")
                    if _SURROGATE.search(tpl):
                        raise TemplateError(
                            f"{task}/{arity}/{kind} template holds a lone surrogate "
                            f"escape, which is not text: {tpl!r}"
                        )

    def _entry(self, task: str, arity: str) -> dict:
        entry = self._data.get(task, {}).get(arity)
        if entry is None:
            raise TemplateError(f"no templates for task {task!r} arity {arity!r}")
        return entry

    def variants(self, task: str, arity: str) -> tuple[list[str], list[str]]:
        """All (questions, answers) for a task/arity pair, as copies."""
        entry = self._entry(task, arity)
        return list(entry["questions"]), list(entry["answers"])

    def sample(self, task: str, arity: str, rng: random.Random) -> tuple[str, str]:
        """One uniformly drawn question template and answer template."""
        entry = self._entry(task, arity)
        return rng.choice(entry["questions"]), rng.choice(entry["answers"])
