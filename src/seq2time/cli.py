"""Command-line entry point.

One binary, eight subcommands: two corpus builders, the codec helpers
(tokenize/detokenize), the quantization analyzer, two evaluators, and a
corpus stats reader. Flags override values from a JSON config file given
via ``--config`` or the ``SEQ2TIME_CONFIG`` environment variable (config
keys are the long flag names with underscores).

Exit codes: 0 success, 2 usage/config errors, 3 generation invariant
violations, 4 I/O and data-format errors.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from typing import Sequence

from .clip_sequence import ClipCorpusConfig, clip_corpus
from .dataset_io import (
    CorpusStats,
    corpus_stats,
    load_clip_captions,
    load_image_captions,
)
from .errors import (
    CaptionProtocolError,
    ConfigError,
    CorpusFormatError,
    DomainError,
    InvariantViolation,
    StreamExhaustedError,
    TemplateError,
    TokenParseError,
)
from .evaluation import (
    DEFAULT_F1_THRESHOLDS,
    DEFAULT_R1_THRESHOLDS,
    evaluate_run,
)
from .image_sequence import ImageCorpusConfig, image_corpus
from .position_token import (
    ErrorModel,
    TimeRepresentation,
    code_from_string,
    encode_relative,
    quantization_error_report,
    render_code,
    to_timestamp,
)
from .templates import TemplateBank

log = logging.getLogger("seq2time")

MAX_STANDARD_TARGETS = 5

_TIME_REPRS = {
    "rpt": TimeRepresentation.RPT,
    "free-form": TimeRepresentation.FREE_FORM,
    "free_form": TimeRepresentation.FREE_FORM,
}

_MODELS = {
    "rounding-only": ErrorModel.ROUNDING_ONLY,
    "frame-sampling": ErrorModel.FRAME_SAMPLING,
}


def _load_config_file(explicit: str | None) -> dict:
    path = explicit or os.environ.get("SEQ2TIME_CONFIG")
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {p} is not valid JSON (only JSON configs are supported): {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return data


def _resolve(args_value, config: dict, key: str, default=None):
    """Flag value wins; otherwise the config file; otherwise the default."""
    if args_value is not None:
        return args_value
    return config.get(key, default)


def _require(value, name: str):
    if value is None:
        raise ConfigError(f"missing required option --{name.replace('_', '-')}")
    return value


def _time_repr(text: str) -> TimeRepresentation:
    try:
        return _TIME_REPRS[text]
    except KeyError:
        raise ConfigError(
            f"unknown time representation {text!r}; use rpt or free-form"
        ) from None


def _thresholds(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {text!r}") from exc
    if not values or any(not 0 < v <= 1 for v in values):
        raise ConfigError(f"thresholds must lie in (0, 1], got {text!r}")
    return values


def _existing_path(value: str, what: str) -> Path:
    p = Path(value)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {p}")
    return p


def _jobs(value, config: dict) -> int:
    jobs = _resolve(value, config, "jobs", os.cpu_count() or 1)
    jobs = int(jobs)
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _log_resolved(subcommand: str, resolved: dict) -> None:
    log.info("%s resolved config: %s", subcommand, json.dumps(resolved, sort_keys=True))


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _emit_build(args, output: str, seed: int, stats: CorpusStats) -> None:
    summary = stats.to_dict()
    _emit(
        args,
        {"records": stats.total, "output": str(output), "seed": seed, "stats": summary},
        f"wrote {stats.total} records to {output} "
        f"(tasks: {json.dumps(summary['task_counts'])})",
    )


def _cmd_build_image_seq(args) -> int:
    config = _load_config_file(args.config)
    source = _require(_resolve(args.source, config, "source"), "source")
    output = _require(_resolve(args.output, config, "output"), "output")
    n = int(_require(_resolve(args.n, config, "n"), "n"))
    seq_len = int(_resolve(args.seq_len, config, "seq_len", 96))
    max_targets = int(_resolve(args.max_targets, config, "max_targets", 5))
    seed = int(_resolve(args.seed, config, "seed", 0))
    time_repr = _time_repr(_resolve(args.time_repr, config, "time_repr", "rpt"))
    jobs = _jobs(args.jobs, config)
    templates_path = _resolve(args.templates, config, "templates")
    if max_targets > MAX_STANDARD_TARGETS and not args.allow_nonstandard:
        raise ConfigError(
            f"--max-targets {max_targets} exceeds the standard cap of "
            f"{MAX_STANDARD_TARGETS}; pass --allow-nonstandard to override"
        )
    pool = load_image_captions(_existing_path(source, "source"))
    bank = TemplateBank.load(templates_path)
    corpus_config = ImageCorpusConfig(
        n_instances=n,
        seq_len=seq_len,
        max_targets=max_targets,
        seed=seed,
        time_repr=time_repr,
    )
    resolved = {
        "source": str(source),
        "output": str(output),
        "n": n,
        "seq_len": seq_len,
        "max_targets": max_targets,
        "seed": seed,
        "time_repr": time_repr.value,
        "jobs": jobs,
        "templates": templates_path,
    }
    _log_resolved("build-image-seq", resolved)
    stats = image_corpus(corpus_config, pool, bank).write(output, jobs)
    _emit_build(args, output, seed, stats)
    return 0


def _cmd_build_clip_seq(args) -> int:
    config = _load_config_file(args.config)
    source = _require(_resolve(args.source, config, "source"), "source")
    output = _require(_resolve(args.output, config, "output"), "output")
    n = int(_require(_resolve(args.n, config, "n"), "n"))
    total_frames = int(_resolve(args.total_frames, config, "total_frames", 96))
    clip_min = int(_resolve(args.clip_min, config, "clip_min", 2))
    clip_max = int(_resolve(args.clip_max, config, "clip_max", 10))
    rate_min = float(_resolve(args.rate_min, config, "rate_min", 0.5))
    rate_max = float(_resolve(args.rate_max, config, "rate_max", 2.0))
    seed = int(_resolve(args.seed, config, "seed", 0))
    time_repr = _time_repr(_resolve(args.time_repr, config, "time_repr", "rpt"))
    jobs = _jobs(args.jobs, config)
    templates_path = _resolve(args.templates, config, "templates")
    pool = load_clip_captions(_existing_path(source, "source"))
    bank = TemplateBank.load(templates_path)
    corpus_config = ClipCorpusConfig(
        n_instances=n,
        clip_range=(clip_min, clip_max),
        total_frames=total_frames,
        rate_range=(rate_min, rate_max),
        seed=seed,
        time_repr=time_repr,
    )
    resolved = {
        "source": str(source),
        "output": str(output),
        "n": n,
        "total_frames": total_frames,
        "clip_range": [clip_min, clip_max],
        "rate_range": [rate_min, rate_max],
        "seed": seed,
        "time_repr": time_repr.value,
        "jobs": jobs,
        "templates": templates_path,
    }
    _log_resolved("build-clip-seq", resolved)
    stats = clip_corpus(corpus_config, pool, bank).write(output, jobs)
    _emit_build(args, output, seed, stats)
    return 0


def _cmd_tokenize(args) -> int:
    code = encode_relative(args.index, args.length)
    _emit(
        args,
        {
            "index": args.index,
            "length": args.length,
            "code": render_code(code),
            "fraction": code.value(),
        },
        render_code(code),
    )
    return 0


def _cmd_detokenize(args) -> int:
    code = code_from_string(args.code)
    fraction = code.value()
    if args.duration is not None:
        if args.duration <= 0:
            raise ConfigError(f"--duration must be positive, got {args.duration}")
        seconds = to_timestamp(fraction, args.duration)
        _emit(
            args,
            {"code": args.code, "fraction": fraction, "seconds": seconds},
            f"{seconds:.10g}",
        )
    else:
        _emit(args, {"code": args.code, "fraction": fraction}, f"{fraction:.10g}")
    return 0


def _cmd_analyze_quantization(args) -> int:
    try:
        model = _MODELS[args.model]
    except KeyError:
        raise ConfigError(f"unknown model {args.model!r}") from None
    report = quantization_error_report(
        model,
        video_duration_s=args.duration,
        fps=args.fps,
        sampled_frames=args.frames,
        grid_points=args.grid_points,
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _run_eval(args, lead_metric: str) -> int:
    pred = _existing_path(args.pred, "prediction")
    gt = _existing_path(args.gt, "ground truth")
    time_repr = _time_repr(args.time_repr)
    thresholds = _thresholds(args.thresholds)
    r1 = _thresholds(args.iou)
    report = evaluate_run(pred, gt, time_repr, thresholds, r1)
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    lines = []
    if lead_metric == "f1":
        lines.append(f"temporal_f1 {report.f1:.6f}")
        for th in sorted(report.r_at_1):
            lines.append(f"r@1(iou={th:g}) {report.r_at_1[th]:.6f}")
    else:
        for th in sorted(report.r_at_1):
            lines.append(f"r@1(iou={th:g}) {report.r_at_1[th]:.6f}")
        lines.append(f"temporal_f1 {report.f1:.6f}")
    for th in sorted(report.f1_per_threshold):
        lines.append(f"f1@{th:g} {report.f1_per_threshold[th]:.6f}")
    lines.append(f"n_pred {report.n_pred:.4f}")
    if report.l_avg is not None:
        lines.append(f"l_avg {report.l_avg:.4f}")
        lines.append(f"ttr {report.ttr:.4f}")
    lines.append(f"skipped_lines {report.skipped_lines}")
    print("\n".join(lines))
    return 0


def _cmd_eval_dvc(args) -> int:
    return _run_eval(args, lead_metric="f1")


def _cmd_eval_tvg(args) -> int:
    return _run_eval(args, lead_metric="r1")


def _cmd_stats(args) -> int:
    stats = corpus_stats(_existing_path(args.corpus, "corpus"))
    _emit(
        args,
        stats.to_dict(),
        "\n".join(
            [f"records {stats.total}"]
            + [f"{task} {count}" for task, count in sorted(stats.task_counts.items())]
            + [
                f"mean_question_chars {stats.mean_question_chars:.2f}",
                f"mean_answer_chars {stats.mean_answer_chars:.2f}",
            ]
        ),
    )
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    sub.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub.add_argument(
        "-v", "--verbose", action="count", default=0, help="log resolved config and more"
    )


def _add_build_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (or set SEQ2TIME_CONFIG)")
    sub.add_argument("--source", help="caption corpus (JSON-lines)")
    sub.add_argument("--output", help="output instruction corpus path")
    sub.add_argument("--n", type=int, help="number of records to generate")
    sub.add_argument(
        "--time-repr",
        dest="time_repr",
        choices=sorted(_TIME_REPRS),
        help="position rendering (default rpt)",
    )
    sub.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
    sub.add_argument("--templates", help="custom template bank JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seq2time",
        description=(
            "Build position-token instruction corpora from captioned images/clips "
            "and evaluate temporal predictions."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    p = subparsers.add_parser(
        "build-image-seq", help="generate image-sequence pretext records"
    )
    _add_build_common(p)
    p.add_argument("--seq-len", dest="seq_len", type=int, help="images per sequence")
    p.add_argument(
        "--max-targets", dest="max_targets", type=int, help="max targets per record"
    )
    p.add_argument(
        "--allow-nonstandard",
        action="store_true",
        help=f"permit settings beyond the standard cap of {MAX_STANDARD_TARGETS} targets",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_build_image_seq)

    p = subparsers.add_parser(
        "build-clip-seq", help="generate clip-sequence DVC/TVG records"
    )
    _add_build_common(p)
    p.add_argument(
        "--total-frames", dest="total_frames", type=int, help="frame budget per video"
    )
    p.add_argument("--clip-min", dest="clip_min", type=int, help="min clips (>= 2)")
    p.add_argument("--clip-max", dest="clip_max", type=int, help="max clips (<= 10)")
    p.add_argument("--rate-min", dest="rate_min", type=float, help="min rate factor")
    p.add_argument("--rate-max", dest="rate_max", type=float, help="max rate factor")
    _add_common(p)
    p.set_defaults(func=_cmd_build_clip_seq)

    p = subparsers.add_parser("tokenize", help="encode a position as digit tokens")
    p.add_argument("index", type=int, help="1-based position")
    p.add_argument("length", type=int, help="sequence length")
    _add_common(p)
    p.set_defaults(func=_cmd_tokenize)

    p = subparsers.add_parser("detokenize", help="decode digit tokens to a timestamp")
    p.add_argument("code", help='token string such as "<0><7><2><9>"')
    p.add_argument("--duration", type=float, help="video duration in seconds")
    _add_common(p)
    p.set_defaults(func=_cmd_detokenize)

    p = subparsers.add_parser(
        "analyze-quantization", help="temporal error report for the token codec"
    )
    p.add_argument("--duration", type=float, required=True, help="video seconds")
    p.add_argument("--fps", type=float, default=30.0, help="source frame rate")
    p.add_argument("--frames", type=int, default=96, help="sampled frame budget")
    p.add_argument(
        "--model",
        choices=sorted(_MODELS),
        default="rounding-only",
        help="error model",
    )
    p.add_argument(
        "--grid-points",
        dest="grid_points",
        type=int,
        default=1_000_000,
        help="grid density for the rounding-only sweep",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_analyze_quantization)

    for name, helptext, func in (
        ("eval-dvc", "score dense captioning predictions", _cmd_eval_dvc),
        ("eval-tvg", "score grounding predictions", _cmd_eval_tvg),
    ):
        p = subparsers.add_parser(name, help=helptext)
        p.add_argument("--pred", required=True, help="predictions JSON-lines")
        p.add_argument("--gt", required=True, help="ground truth JSON-lines")
        p.add_argument(
            "--time-repr",
            dest="time_repr",
            choices=sorted(_TIME_REPRS),
            default="free-form",
            help="how predictions render time",
        )
        p.add_argument(
            "--thresholds",
            default=",".join(str(t) for t in DEFAULT_F1_THRESHOLDS),
            help="F1 IoU thresholds, comma-separated",
        )
        p.add_argument(
            "--iou",
            default=",".join(str(t) for t in DEFAULT_R1_THRESHOLDS),
            help="R@1 IoU thresholds, comma-separated",
        )
        _add_common(p)
        p.set_defaults(func=func)

    p = subparsers.add_parser("stats", help="summarize an instruction corpus")
    p.add_argument("corpus", help="instruction corpus JSON-lines")
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ConfigError, DomainError, TemplateError, TokenParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (
        CorpusFormatError,
        CaptionProtocolError,
        StreamExhaustedError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
