"""Seeded inputs for the benchmark workloads.

Everything here depends only on the seed and the size asked for, and on
nothing in ``seq2time``: pools and evaluation files are rendered by this
module with its own JSON writer and its own position-code renderer, so a
change to the program's generators or codec never moves the inputs.

Captions are digit-free, because free-form index parsing reads integer
literals, and clip durations stay in 5..15 s as in the test fixtures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ADJECTIVES = (
    "amber", "rusty", "pale", "shiny", "crooked", "quiet", "vivid", "dusty",
    "glossy", "faded", "narrow", "heavy", "tiny", "woven", "striped", "frosted",
    "bent", "polished", "muddy", "bright", "hollow", "chipped", "velvet", "wooden",
)
NOUNS = (
    "kettle", "bicycle", "lantern", "sparrow", "ladder", "teapot", "anvil",
    "compass", "mitten", "barrel", "violin", "umbrella", "basket", "candle",
    "wagon", "trumpet", "pumpkin", "helmet", "saddle", "bucket", "feather",
    "globe", "hammer", "kayak", "mirror", "notebook", "pillow", "quilt",
    "shovel", "teacup",
)
VERBS = (
    "rests", "spins", "leans", "glows", "wobbles", "sways", "hangs", "drips",
    "sits", "tilts", "shines", "waits",
)
PLACES = (
    "by the window", "on the porch", "under the awning", "near the fence",
    "in the garden", "on a shelf", "beside the door", "in the attic",
    "on the dock", "under a tree",
)
ACTIONS = (
    "kneading dough", "raking leaves", "tying a knot", "pouring tea",
    "folding laundry", "sharpening a pencil", "stacking crates",
    "wiping a counter", "rolling a barrel", "sweeping the floor",
    "braiding rope", "stirring soup", "hanging a picture", "packing a box",
    "washing windows", "planting seedlings", "shuffling cards",
    "polishing shoes", "carving wood", "threading a needle",
)
MANNERS = ("slowly", "carefully", "quickly", "with both hands", "while smiling",
           "near a table", "in a kitchen", "outdoors")

# Non-blank prediction lines that neither grammar accepts; the scorer must
# skip and count every one of them.
GARBAGE_LINES = (
    "Sure, here are the events in the video:",
    "<0><4><1> truncated code then text",
    "the video ends with a fade to black",
    "Events: none further.",
    "<9><9> <9><9><9><9><9><9> split code",
)

CLIP_POOL_SIZE = 160


def _rng(kind: str, seed: int, size: int) -> random.Random:
    return random.Random(f"perfbench:{kind}:{seed}:{size}")


def write_rows(rows, path: Path) -> int:
    """JSON-lines writer independent of ``seq2time.dataset_io``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")
    return len(rows)


def image_pool_rows(seed: int, size: int) -> list[dict]:
    rng = _rng("images", seed, size)
    return [
        {
            "id": f"img-{k:06d}",
            "image": f"images/{k:06d}.jpg",
            "caption": f"a {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} "
            f"{rng.choice(VERBS)} {rng.choice(PLACES)}",
        }
        for k in range(size)
    ]


def clip_pool_rows(seed: int, size: int = CLIP_POOL_SIZE) -> list[dict]:
    """Test-fixture shape: 20 action labels in turn, 5.0..15.0 s clips."""
    rng = _rng("clips", seed, size)
    rows = []
    for k in range(size):
        action = ACTIONS[k % len(ACTIONS)]
        rows.append(
            {
                "id": f"clip-{k:04d}",
                "video": f"clips/{k:05d}.mp4",
                "label": action,
                "caption": f"a person is {action} with a {rng.choice(ADJECTIVES)} rhythm",
                "duration_s": rng.randint(50, 150) / 10.0,
                "fps": 30.0,
            }
        )
    return rows


def render_code(t: float, duration: float) -> str:
    """``t/duration`` as four digit tokens, rounded half up, 1.0 clamped."""
    value = min(9999, int(t / duration * 10_000 + 0.5))
    return "".join(f"<{d}>" for d in f"{value:04d}")


@dataclass
class EvalInputs:
    pred_rows: list[dict]
    gt_rows: list[dict]
    event_lines: int     # prediction lines the scorer must parse
    garbage_lines: int   # prediction lines the scorer must skip


def eval_rows(seed: int, n_videos: int) -> EvalInputs:
    """Dense-captioning predictions and ground truth for ``n_videos`` videos.

    Each video has 2..10 ground-truth events. Its prediction keeps each
    event with probability 0.9 under Gaussian boundary jitter, adds an
    extra event with probability 0.1 per ground-truth event, and puts a
    garbage line before a line with probability 0.05.
    """
    rng = _rng("eval", seed, n_videos)
    pred_rows, gt_rows = [], []
    event_lines = garbage_lines = 0
    for v in range(n_videos):
        video_id = f"vid-{v:05d}"
        duration = rng.randint(300, 3000) / 10.0
        events = []
        for _ in range(rng.randint(2, 10)):
            start = rng.uniform(0.0, 0.9 * duration)
            end = min(duration, start + rng.uniform(0.03, 0.3) * duration)
            action = rng.choice(ACTIONS)
            events.append((round(start, 1), round(end, 1), action, rng.choice(MANNERS)))
        events.sort()
        lines = []
        for start, end, action, manner in events:
            if rng.random() < 0.1:
                lines.append(_random_event(rng, duration))
            if rng.random() < 0.1:
                continue
            sigma = 0.1 * (end - start) + 0.002 * duration
            s = min(duration, max(0.0, rng.gauss(start, sigma)))
            e = min(duration, max(0.0, rng.gauss(end, sigma)))
            if rng.random() < 0.5:
                manner = rng.choice(MANNERS)
            codes = render_code(s, duration) + render_code(e, duration)
            lines.append(f"{codes} a person is {action} {manner}")
        text_lines = []
        for line in lines:
            if rng.random() < 0.05:
                text_lines.append(rng.choice(GARBAGE_LINES))
                garbage_lines += 1
            text_lines.append(line)
        event_lines += len(lines)
        pred_rows.append(
            {"video_id": video_id, "output": "\n".join(text_lines), "duration_s": duration}
        )
        gt_rows.append(
            {
                "video_id": video_id,
                "events": [
                    {"start": s, "end": e, "caption": f"a person is {a} {m}"}
                    for s, e, a, m in events
                ],
            }
        )
    return EvalInputs(pred_rows, gt_rows, event_lines, garbage_lines)


def _random_event(rng: random.Random, duration: float) -> str:
    s = rng.uniform(0.0, duration)
    e = min(duration, s + rng.uniform(0.02, 0.2) * duration)
    return f"{render_code(s, duration)}{render_code(e, duration)} {rng.choice(ACTIONS)}"
