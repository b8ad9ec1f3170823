"""The 24 pinned sha256 digests, so that no change moves a byte: six
500-record corpus builds (``KIND/VARIANT``) and ``eval-dvc`` stdout on
``pinned_eval_run`` (``eval/TIME_REPR/MODE/JOBS``); and the caption pools
and eval run they are made from. It imports only the standard library and
``seq2time``, so every Python the package accepts runs it, from the
repository root: ``PYTHONPATH=src python tests/pinned_digests.py`` prints
one line per case and exits 1 on a mismatch. ``tests/test_corpus.py``
checks the same table.
"""

import contextlib
import hashlib
import io
import json
import platform
import random
import sys
import tempfile
from pathlib import Path

import seq2time.cli as cli
import seq2time.corpus as corpus
from seq2time.clip_sequence import CaptionedClip, ClipCorpusConfig, clip_corpus
from seq2time.image_sequence import CaptionedImage, ImageCorpusConfig, image_corpus
from seq2time.position_token import TimeRepresentation, render_code

# Captions are digit-free by construction, so that free-form index parse-back
# (which reads integer literals) is an exact inverse; clip durations stay in
# 5..15 s, so rendered 0.1 s timestamps never collapse a short event to a point.
_ADJECTIVES = ("amber", "rusty", "pale", "shiny", "crooked", "quiet", "vivid")
_NOUNS = (
    "kettle", "bicycle", "lantern", "sparrow", "ladder", "teapot", "anvil", "compass",
    "mitten", "barrel", "violin",
)
_VERBS = ("rests", "spins", "leans", "glows", "wobbles")
_PLACES = ("by the window", "on the porch", "under the awning")
_ACTIONS = (
    "kneading dough", "raking leaves", "tying a knot", "pouring tea", "folding laundry",
    "sharpening a pencil", "stacking crates", "wiping a counter", "rolling a barrel",
    "sweeping the floor", "braiding rope", "stirring soup", "hanging a picture",
    "packing a box", "washing windows", "planting seedlings", "shuffling cards",
    "polishing shoes", "carving wood", "threading a needle",
)


def _image_caption(k: int) -> str:
    a = _ADJECTIVES[k % len(_ADJECTIVES)]
    n = _NOUNS[(k // len(_ADJECTIVES)) % len(_NOUNS)]
    v = _VERBS[(k // (len(_ADJECTIVES) * len(_NOUNS))) % len(_VERBS)]
    p = _PLACES[(k // (len(_ADJECTIVES) * len(_NOUNS) * len(_VERBS))) % len(_PLACES)]
    return f"a {a} {n} {v} {p}"


def image_pool(n: int) -> list[CaptionedImage]:
    """``n`` images with digit-free captions, distinct for ``n`` up to 1,155."""
    return [
        CaptionedImage(f"img-{k:04d}", f"images/{k:06d}.jpg", _image_caption(k))
        for k in range(n)
    ]


def clip_pool() -> list[CaptionedClip]:
    """160 clips of 20 action labels, 5.0 to 15.0 s long at 30 fps."""
    return [
        CaptionedClip(
            f"clip-{k:04d}", f"clips/{k:05d}.mp4", _ACTIONS[k % 20],
            f"a person is {_ACTIONS[k % 20]} with a {_ADJECTIVES[k // 20 % 7]} rhythm",
            5.0 + (k * 37 % 101) / 10.0, 30.0,
        )
        for k in range(160)
    ]


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
        item._replace(**{field: getattr(item, field) + marks[k // 3 % len(marks)]})
        if k % 3 == 0 and marks
        else item
        for k, item in enumerate(pool)
    ]


_EVAL_CAPTIONS = ("a person is kneading dough", "raking leaves", "", "Stir, then pour!")
_EVAL_GARBAGE = (
    "no events here",
    "<1><2><3> a truncated code",
    "12.5 - seconds, no end time",
    "<\u0665><\u0660><\u0660><\u0660><\u0666><\u0660><\u0660><\u0660> other digits",
    "   ",
)


def pinned_eval_run(directory: Path, time_repr: str) -> tuple[Path, Path]:
    """300 seeded videos whose ground-truth events overlap, touch, repeat and
    have zero length, predicted with jitter, misses, extras, duplicates,
    inversions, reordering and garbage lines. Every time sits on grid point
    k of 0..9999: k/100 s in free-form, k/10^4 of the duration in rpt, the
    values the parser reads back, so touching and equal ends stay exact."""
    rng = random.Random(1616)
    rpt = time_repr == "rpt"
    gt_rows, pred_rows = [], []
    for v in range(300):
        duration = rng.choice((30.0, 61.5, 100.0, 240.0))

        def seconds(k):
            return k / 10000 * duration if rpt else k / 100

        def line(k0, k1):
            caption = rng.choice(_EVAL_CAPTIONS)
            if rpt:
                return f"{render_code(k0)}{render_code(k1)} {caption}"
            sep = rng.choice((" seconds, ", "second: ", " SECONDS "))
            return f"{seconds(k0)!r} - {seconds(k1)!r}{sep}{caption}"

        spans, cursor = [], rng.randint(0, 3000)
        for _ in range(rng.randint(0, 9)):
            if spans and rng.random() < 0.15:
                spans.append(spans[-1])  # duplicate event
                continue
            start = min(cursor, 9999)
            end = min(start + (0 if rng.random() < 0.1 else rng.randint(1, 2500)), 9999)
            spans.append((start, end))
            step = rng.random()
            if step < 0.3:
                cursor = end  # the next event touches this one
            elif step < 0.6:
                cursor = (start + end) // 2  # or overlaps it
            else:
                cursor = end + rng.randint(1, 800)  # or follows a gap
        lines = []
        for k0, k1 in spans:
            if rng.random() < 0.1:
                continue  # missed
            jitter = rng.choice((0, 0, 15, 300))
            p0 = min(max(k0 + rng.randint(-jitter, jitter), 0), 9999)
            p1 = min(max(k1 + rng.randint(-jitter, jitter), 0), 9999)
            lines.append(line(*((p1, p0) if rng.random() < 0.1 else (p0, p1))))
            if rng.random() < 0.1:
                lines.append(lines[-1])
        for _ in range(rng.choice((0, 0, 1, 2))):
            k = rng.randint(0, 9999)
            lines.append(line(k, min(k + rng.choice((0, rng.randint(1, 2000))), 9999)))
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            lines.insert(rng.randint(0, len(lines)), rng.choice(_EVAL_GARBAGE))
        if rng.random() < 0.2:
            rng.shuffle(lines)
        video_id = f"video-{v:03d}"
        gt_rows.append({"video_id": video_id, "events": [
            {"start": seconds(k0), "end": seconds(k1), "caption": rng.choice(_EVAL_CAPTIONS)}
            for k0, k1 in spans
        ]})
        pred_rows.append({"video_id": video_id, "output": "\n".join(lines), "duration_s": duration})
    paths = directory / "pred.jsonl", directory / "gt.jsonl"
    for path, rows in zip(paths, (pred_rows, gt_rows)):
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return paths


_EVAL_MODES = {
    "json": ["--json"],
    # a threshold of 1 needs equal events; 0.05 counts slight overlaps
    "json-custom": ["--json", "--thresholds", "1,0.05,0.5,0.5", "--iou", "1,0.05"],
    "text": [],
}
_JOBS = {"default-jobs": [], "jobs-1": ["--jobs", "1"], "jobs-2": ["--jobs", "2"]}
_EVAL_DIGESTS = {
    "free-form/json": "ef191256544dea327d32fc56dd6f833a9e8212cb808d65d065ce76a071f31cb5",
    "free-form/json-custom": "82b5dbdb3d8316f06a9c9a6eeaaa530aa2fec9a3b328b05ba8491c5bb5e44893",
    "free-form/text": "37aaaeea6b3f77e3b5ff8f461c499e742f023193c65b8f6f7a5b7c0a222d9d5f",
    "rpt/json": "02b9bab6b533499d5b44c7eed9d77d72b42e034b4f26e8b139b2d2bdccd5663c",
    "rpt/json-custom": "364875b17f9404150144d10820714447fb321dfc99b4c131294232abd1633aa6",
    "rpt/text": "86cf213c8c9e7c10ccc72d58d6288f87339dea790297156abe80210ee195cb23",
}
DIGESTS = {
    "image/rpt": "ee4bd3f8b2ce3e939cf47a3d924674c97545fe1fe597b91035215d94a33ba1b8",
    "image/free_form": "762ec8e68874dd6a45ef606058a46ae8db086eecaefe724ee101b700459de69c",
    "clip/rpt": "35ebe9231be97b453bf57570c11182957da83fb1b95ce31fe01c0ae4667b2c93",
    "clip/free_form": "4609d8871ae91e5d51f08b5c568a76bc67faca8ef2f57d00896e7828e0c9fe69",
    # every third media path ends in the next of PATH_MARKS["mixed"]
    "image/escaping": "2fda73558f23e4fa85d4113dd08cd681e41531849feffb9584111a527434da5b",
    # 24 clips of 3 labels in sequences of 10: every record repeats labels,
    # draws its whole window from random.sample's pool branch and runs the
    # label-spreading greedy
    "clip/repeated-label": "cdc69186bb55b630f796b097f54ab5e02c539ce63bd04231b34a11903f976d26",
    **{f"eval/{run}/{jobs}": sha for run, sha in _EVAL_DIGESTS.items() for jobs in _JOBS},
}


def _build(kind: str, variant: str):
    """A 500-record build, seed 0, default options but those ``variant`` names."""
    if variant == "escaping":
        pool = marked(image_pool(500), "image", PATH_MARKS["mixed"])
        return image_corpus(ImageCorpusConfig(n_instances=500), pool)
    if variant == "repeated-label":
        pool = [clip for clip in clip_pool() if clip.label in _ACTIONS[:3]]
        return clip_corpus(ClipCorpusConfig(n_instances=500, clip_min=10, clip_max=10), pool)
    if kind == "image":
        config = ImageCorpusConfig(n_instances=500, time_repr=TimeRepresentation(variant))
        return image_corpus(config, image_pool(500))
    config = ClipCorpusConfig(n_instances=500, time_repr=TimeRepresentation(variant))
    return clip_corpus(config, clip_pool())


def _eval_stdout(directory: Path, time_repr: str, mode: str, jobs: str) -> str:
    """``eval-dvc``'s stdout on ``pinned_eval_run``. While it runs,
    ``corpus.SERIAL_MAX`` is 16 and 2 cores are usable, so its rows come from
    a pool at ``--jobs 2``, and at the default on more than one usable core."""
    pred, gt = pinned_eval_run(directory, time_repr)
    argv = ["eval-dvc", "--pred", str(pred), "--gt", str(gt), "--time-repr", time_repr]
    saved, pools = (corpus.SERIAL_MAX, corpus.usable_cores, corpus._pooled), []
    corpus.SERIAL_MAX, corpus.usable_cores = 16, lambda: 2
    corpus._pooled = lambda *a: pools.append(1) or saved[2](*a)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv + _EVAL_MODES[mode] + _JOBS[jobs])
    finally:
        corpus.SERIAL_MAX, corpus.usable_cores, corpus._pooled = saved
    pooled = jobs == "jobs-2" or jobs == "default-jobs" and corpus.usable_cores() > 1
    if code != 0 or bool(pools) != pooled:
        raise AssertionError(f"exit {code}, {len(pools)} pools where {int(pooled)} was expected")
    return out.getvalue()


def digest(case: str) -> str:
    """The sha256 of what ``case`` writes: its corpus file, or eval stdout."""
    kind, *rest = case.split("/")
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "eval":
            return hashlib.sha256(_eval_stdout(Path(tmp), *rest).encode("utf-8")).hexdigest()
        _build(kind, *rest).write(Path(tmp) / "corpus.jsonl")
        return hashlib.sha256((Path(tmp) / "corpus.jsonl").read_bytes()).hexdigest()


def main() -> int:
    failed = 0
    for case, expected in DIGESTS.items():
        got = digest(case)
        failed += got != expected
        print(f"{case}: {'ok' if got == expected else 'MISMATCH: ' + got}", flush=True)
    version = platform.python_version()
    print(f"{len(DIGESTS) - failed} of {len(DIGESTS)} cases match on Python {version}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
