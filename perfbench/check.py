"""Output checks that do not trust the program under test.

Every check here re-derives what the CLI printed or wrote from the
benchmark's own inputs, with its own parser, code renderer and matcher,
and returns a list of problems (empty when the output is right). On top
of these, ``references.json`` holds the output sha256 and ``--json``
payload recorded from the seed commit for input seeds 0..63; every
``--seed`` is folded onto one of them by ``input_seed``.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

SCALE = 10_000
CODE = re.compile(r"(?:<\d>){4}")
EVENT_LINE = re.compile(r"^\s*((?:<\d>){8})\s*(.*?)\s*$")
WORD = re.compile(r"[^\W_]+")
REFERENCES = Path(__file__).with_name("references.json")
REFERENCE_SEEDS = 64  # input seeds with a recorded seed-commit reference


@dataclass
class Outcome:
    """What one benchmark run measured, and what its checks found."""

    metrics: dict[str, float]
    units: dict[str, str]
    problems: list[str]
    attempted: int  # outputs checked
    failed: int     # outputs that failed a check
    samples: dict   # how many samples are behind each figure


def code_for_ratio(num: int, den: int) -> str:
    """Exact half-up rounding of num/den to four decimals, 1.0 clamped."""
    value = min(SCALE - 1, (2 * SCALE * num + den) // (2 * den))
    return "".join(f"<{d}>" for d in f"{value:04d}")


def code_value(code: str) -> int:
    return int(code[1::3])


def input_seed(seed: int) -> int:
    """The input seed behind ``--seed``: one of the recorded ones."""
    return seed % REFERENCE_SEEDS


def reference(workload, seed: int) -> tuple | None:
    """The recorded (sha256, payload) of a workload at its current sizes."""
    table = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    entry = table.get(workload.name, {})
    ref = entry.get("seeds", {}).get(str(seed)) if entry.get("params") == workload.params else None
    return (ref["sha256"], ref["payload"]) if ref else None


def against_reference(workload, seed: int, key: tuple) -> list[str]:
    """Problems of an output key, (sha256, payload), against the reference.

    A missing reference is a problem too: the gate is never skipped.
    """
    ref = reference(workload, seed)
    if ref is None:
        return [f"no seed-commit reference for {workload.name} seed {seed} "
                f"at {workload.params!r}; see record_references.py"]
    if key != ref:
        return [f"differs from the seed-commit reference for seed {seed}"]
    return []


def _stats(records: list[dict]) -> dict:
    total = len(records)
    return {
        "total": total,
        "task_counts": dict(sorted(Counter(r["task"] for r in records).items())),
        "mean_question_chars": sum(len(r["question"]) for r in records) / total,
        "mean_answer_chars": sum(len(r["answer"]) for r in records) / total,
    }


def _in_order(text: str, needles) -> bool:
    pos = 0
    for needle in needles:
        pos = text.find(needle, pos)
        if pos < 0:
            return False
        pos += len(needle)
    return True


def _check_sequence(records: list[dict], n: int, seed: int, prefix: str) -> list[str]:
    """Exactly ``n`` records, with ids and ordinals in sequence."""
    problems = []
    if len(records) != n:
        problems.append(f"{len(records)} records, expected {n}")
    for i, rec in enumerate(records):
        if rec["id"] != f"{prefix}-{seed}-{i:08d}" or rec["meta"].get("ordinal") != i:
            problems.append(f"record {i}: id/ordinal {rec['id']!r} out of sequence")
            break
    return problems


def check_image_build(
    out_path: Path, payload: dict, pool_rows: list[dict], n: int, seq_len: int, seed: int
) -> list[str]:
    """Parse an image corpus back and check every record against the pool."""
    captions = {row["image"]: row["caption"] for row in pool_rows}
    records = [json.loads(line) for line in out_path.open(encoding="utf-8")]
    problems = _check_sequence(records, n, seed, "is")
    for rec in records:
        if len(problems) > 10:
            break
        media, meta, task = rec["media"], rec["meta"], rec["task"]
        where = f"record {rec['id']}"
        if len(media) != seq_len or len(set(media)) != seq_len or not all(
            m in captions for m in media
        ):
            problems.append(f"{where}: media is not {seq_len} distinct pool images")
            continue
        targets = meta["targets"]
        codes = [code_for_ratio(t, seq_len) for t in targets]
        caps = [captions[media[t - 1]] for t in targets]
        q, a = rec["question"], rec["answer"]
        if task == "IIG":
            ok = CODE.findall(a) == codes and _in_order(q, caps)
        elif task == "IIC":
            ok = (
                CODE.findall(q) == codes
                and CODE.findall(a) == codes
                and _in_order(a, [p for pair in zip(codes, caps) for p in pair])
            )
        elif task == "ALR":
            anchor = meta["anchor"]
            step = -1 if meta["direction"] == "before" else 1
            ok = (
                targets == [anchor + step]
                and CODE.findall(a) == codes
                and captions[media[anchor - 1]] in q
                and _in_order(a, codes + caps)
            )
        else:
            ok = False
        if not ok:
            problems.append(f"{where}: {task} text does not match its targets")
    expected = {"records": n, "seed": seed, "stats": _stats(records)}
    problems += _compare_payload(payload, expected)
    return problems


def check_clip_build(
    out_path: Path, payload: dict, pool_rows: list[dict], n: int, total_frames: int, seed: int
) -> list[str]:
    """Parse a clip corpus back: spans tile the frame budget, captions match."""
    clips = {row["video"]: row for row in pool_rows}
    records = [json.loads(line) for line in out_path.open(encoding="utf-8")]
    problems = _check_sequence(records, n, seed, "cs")
    for rec in records:
        if len(problems) > 10:
            break
        media, meta, task = rec["media"], rec["meta"], rec["task"]
        where = f"record {rec['id']}"
        if not 2 <= len(media) <= 10 or len(set(media)) != len(media) or not all(
            m in clips for m in media
        ):
            problems.append(f"{where}: media is not 2..10 distinct pool clips")
            continue
        duration = sum(clips[m]["duration_s"] for m in media)
        if not math.isclose(meta["duration_s"], duration, rel_tol=1e-9):
            problems.append(f"{where}: duration {meta['duration_s']} != {duration}")
            continue
        if task == "DVC":
            lines = rec["answer"].splitlines()
            spans = [m.group(1) for m in map(EVENT_LINE.match, lines) if m]
            bounds = [s[:12] for s in spans] + [spans[-1][12:]] if spans else []
            ok = (
                len(spans) == len(media)
                and all(a[12:] == b[:12] for a, b in zip(spans, spans[1:]))
                and _frame_boundaries(bounds, total_frames)
                and bounds[0] == code_for_ratio(0, total_frames)
                and bounds[-1] == code_for_ratio(total_frames, total_frames)
                and meta["captions"] == [clips[m]["caption"] for m in media]
                and _in_order(rec["answer"], meta["captions"])
            )
        elif task == "TVG":
            codes = CODE.findall(rec["answer"])
            spans = ["".join(codes)] if len(codes) == 2 else []
            ok = (
                len(spans) == 1
                and meta["target_clip"] in {clips[m]["id"] for m in media}
                and meta["captions"][0] in rec["question"]
                and _frame_boundaries([spans[0][:12], spans[0][12:]], total_frames)
            )
        else:
            ok, spans = False, []
        ok = ok and len(spans) == len(meta["intervals"]) and all(
            [code_value(s[:12]) / SCALE * duration, code_value(s[12:]) / SCALE * duration] == iv
            for s, iv in zip(spans, meta["intervals"])
        )
        if not ok:
            problems.append(f"{where}: {task} spans or captions do not match")
    expected = {"records": n, "seed": seed, "stats": _stats(records)}
    problems += _compare_payload(payload, expected)
    return problems


def _frame_boundaries(codes: list[str], total_frames: int) -> bool:
    """Codes are k/total_frames for strictly increasing whole frame counts k."""
    frames = []
    for code in codes:
        k = round(code_value(code) * total_frames / SCALE)
        if code_for_ratio(k, total_frames) != code:
            return False
        frames.append(k)
    return all(a < b for a, b in zip(frames, frames[1:]))


def _compare_payload(payload: dict, expected: dict) -> list[str]:
    got = {k: v for k, v in payload.items() if k != "output"}
    if got != expected:
        return [f"--json payload {got} != recomputed {expected}"]
    return []


# --- dense-captioning evaluation --------------------------------------------


def parse_output(text: str, duration: float) -> tuple[list[tuple[float, float, str]], int]:
    """Events and skipped-line count of one prediction, by the documented grammar."""
    events, skipped = [], 0
    for line in text.splitlines():
        if not line.strip():
            continue
        m = EVENT_LINE.match(line)
        if m is None:
            skipped += 1
            continue
        codes, caption = m.groups()
        start = code_value(codes[:12]) / SCALE * duration
        end = code_value(codes[12:]) / SCALE * duration
        events.append((min(start, end), max(start, end), caption))
    return events, skipped


def _iou(a, b) -> float:
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0.0 else 0.0


def max_matching(adjacency: list[int]) -> int:
    """Largest one-to-one matching; ``adjacency[p]`` is a bitmask of truths.

    Dynamic programme over the set of reachable masks of matched truths,
    exact for the at most ten ground-truth events a video has here.
    """
    states = {0}
    for allowed in adjacency:
        grown = set(states)
        for mask in states:
            free = allowed & ~mask
            while free:
                bit = free & -free
                grown.add(mask | bit)
                free ^= bit
        states = grown
    return max(bin(m).count("1") for m in states)


def video_scores(preds, gts, thresholds) -> dict[float, tuple[float, float, float]]:
    """Per threshold (precision, recall, F1) of one video."""
    ious = [[_iou(p, g) for g in gts] for p in preds]
    out = {}
    for th in thresholds:
        adjacency = [sum(1 << j for j, v in enumerate(row) if v >= th) for row in ious]
        matched = max_matching(adjacency)
        precision = matched / len(preds) if preds else 0.0
        recall = matched / len(gts) if gts else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision and recall else 0.0
        out[th] = (precision, recall, f1)
    return out


def eval_report(pred_rows, gt_rows, thresholds=(0.3, 0.5, 0.7, 0.9), r1=(0.5, 0.7)) -> dict:
    """The ``eval-dvc --json`` report, recomputed from the inputs."""
    preds = {row["video_id"]: row for row in pred_rows}
    per_video, queries, skipped, n_pred = [], [], 0, 0
    total_tokens = total_captions = 0
    ttrs = []
    for gt in sorted(gt_rows, key=lambda row: row["video_id"]):
        row = preds[gt["video_id"]]
        events, skip = parse_output(row["output"], row["duration_s"])
        truths = [(float(e["start"]), float(e["end"])) for e in gt["events"]]
        skipped += skip
        n_pred += len(events)
        per_video.append(video_scores(events, truths, thresholds))
        queries += [
            _iou(events[i], t) if i < len(events) else 0.0 for i, t in enumerate(truths)
        ]
        tokens = [w for e in events for w in WORD.findall(e[2].lower())]
        total_tokens += len(tokens)
        total_captions += len(events)
        if tokens:
            ttrs.append(len(set(tokens)) / len(tokens))
    n = len(per_video)

    def mean(k, th):
        return sum(v[th][k] for v in per_video) / n

    return {
        "n_videos": n,
        "temporal_f1": sum(sum(v[th][2] for th in thresholds) / len(thresholds) for v in per_video)
        / n,
        "f1_per_threshold": {f"{th:g}": mean(2, th) for th in thresholds},
        "precision_per_threshold": {f"{th:g}": mean(0, th) for th in thresholds},
        "recall_per_threshold": {f"{th:g}": mean(1, th) for th in thresholds},
        "r_at_1": {f"{th:g}": sum(1 for v in queries if v >= th) / len(queries) for th in r1},
        "n_pred": n_pred / n,
        "l_avg": total_tokens / total_captions if ttrs else None,
        "ttr": sum(ttrs) / len(ttrs) if ttrs else None,
        "skipped_lines": skipped,
        "time_repr": "rpt",
        "tokenization": "lowercase; tokens are maximal alphanumeric runs",
    }


def same_json(got, expected, path="report") -> list[str]:
    """Structural equality with floats compared to 1e-9 relative."""
    if isinstance(expected, dict) and isinstance(got, dict):
        if set(got) != set(expected):
            return [f"{path}: keys {sorted(got)} != {sorted(expected)}"]
        return [p for k in expected for p in same_json(got[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, float) and isinstance(got, (int, float)):
        if math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-12):
            return []
    elif got == expected:
        return []
    return [f"{path}: {got!r} != {expected!r}"]


def check_eval(payload: dict, inputs, seed: int, subset: int = 300) -> list[str]:
    """Recompute the whole report; then, per video on a seeded subset,
    compare the program's own ``temporal_f1`` with the independent matcher."""
    from seq2time.evaluation import parse_predictions, temporal_f1
    from seq2time.position_token import TimeRepresentation

    expected = eval_report(inputs.pred_rows, inputs.gt_rows)
    problems = same_json(payload, expected)
    if expected["skipped_lines"] != inputs.garbage_lines:
        problems.append(f"parser skipped {expected['skipped_lines']} of {inputs.garbage_lines}")
    if round(expected["n_pred"] * expected["n_videos"]) != inputs.event_lines:
        problems.append("parser did not find every rendered event line")
    rng = random.Random(f"perfbench:subset:{seed}")
    for k in rng.sample(range(len(inputs.gt_rows)), min(subset, len(inputs.gt_rows))):
        pred, gt = inputs.pred_rows[k], inputs.gt_rows[k]
        parsed = parse_predictions(pred["output"], TimeRepresentation.RPT, pred["duration_s"])
        ours = video_scores(
            parse_output(pred["output"], pred["duration_s"])[0],
            [(e["start"], e["end"]) for e in gt["events"]],
            (0.3, 0.5, 0.7, 0.9),
        )
        theirs = temporal_f1(parsed.events, _truth_events(gt))
        for th, (_, _, f1) in ours.items():
            if not math.isclose(theirs.per_threshold[th].f1, f1, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"{gt['video_id']}: F1@{th} {theirs.per_threshold[th].f1} != {f1}")
    return problems


def _truth_events(gt_row):
    from seq2time.evaluation import EventPrediction
    from seq2time.position_token import IntervalUnit, TimeInterval

    return [
        EventPrediction(TimeInterval(e["start"], e["end"], IntervalUnit.SECONDS), e["caption"])
        for e in gt_row["events"]
    ]
