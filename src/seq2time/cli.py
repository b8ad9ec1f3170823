"""Command-line entry point.

One binary, seven subcommands: two corpus builders, the codec helpers
(tokenize/detokenize), the quantization analyzer, the evaluator
(``eval-dvc``, also named ``eval-tvg``), and a corpus stats reader.

Both builders run ``_cmd_build``. Their parsers differ only in the
config class they fill, the options they add (each a field of that
class, which gives its type and default), and the ``load_pool`` and
``corpus`` functions they set, which read the caption source and turn
the config into a corpus. The options both take are one table,
``_shared_options``. Every build option is read once, from its flag or
else from a JSON config file given via ``--config`` or the
``SEQ2TIME_CONFIG`` environment variable (its keys are that table's and
either builder's own options; any other key is an error); ``-v`` logs
the options as read.

Exit codes: 0 success, 2 usage/config errors, 3 generation invariant
violations, 4 I/O and data-format errors, 141 (128 + SIGPIPE) when the
reader of stdout closes it early.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path
from typing import Sequence

from .clip_sequence import ClipCorpusConfig, clip_corpus
from .corpus import usable_cores
from .dataset_io import corpus_stats, load_clip_captions, load_image_captions
from .errors import (
    ConfigError,
    CorpusFormatError,
    DomainError,
    InvariantViolation,
    TemplateError,
    TokenParseError,
)
from .image_sequence import MAX_STANDARD_TARGETS, ImageCorpusConfig, image_corpus
from .position_token import (
    ErrorModel,
    TimeRepresentation,
    code_from_string,
    decode_relative,
    encode_relative,
    quantization_error_report,
    render_code,
    to_timestamp,
)
from .templates import TemplateBank

log = logging.getLogger("seq2time")

_TIME_REPRS = {
    "rpt": TimeRepresentation.RPT,
    "free-form": TimeRepresentation.FREE_FORM,
    "free_form": TimeRepresentation.FREE_FORM,
}

_MODELS = {
    "rounding-only": ErrorModel.ROUNDING_ONLY,
    "frame-sampling": ErrorModel.FRAME_SAMPLING,
}


def _load_config_file(explicit: str | None, keys: set[str]) -> dict:
    path = explicit or os.environ.get("SEQ2TIME_CONFIG")
    if not path:
        return {}
    p = _existing_path(path, "config")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ConfigError(
            f"config file {p} is not valid JSON (only JSON configs are supported): {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    unknown = sorted(data.keys() - keys)
    if unknown:
        raise ConfigError(f"config file {p} has unknown keys: {', '.join(unknown)}")
    return data


_REQUIRED = object()


def _shared_options() -> dict:
    """Each option both builds take, in ``--help`` order: its config key
    (the flag with underscores), type, default (or ``_REQUIRED``) and help.
    Built per parser, so ``--jobs`` defaults to the cores usable then."""
    return {
        "seed": (int, 0, "run seed (default 0)"),
        "source": (str, _REQUIRED, "caption corpus (JSON-lines)"),
        "output": (str, _REQUIRED, "output instruction corpus path"),
        "n": (int, _REQUIRED, "number of records to generate"),
        "time_repr": (str, "rpt", "position rendering (default rpt)"),
        "jobs": (int, usable_cores(), "worker processes (default: all usable cores)"),
        "templates": (str, None, "custom template bank JSON"),
    }


def _option(args, config: dict, key: str, kind: type, default):
    """The flag value, else the config file's, else ``default``, as a ``kind``.

    A missing required option, or a config value that is null, a bool, not
    text for a text option, or does not convert to ``kind`` without loss
    (8.9 to int, NaN to float), is a ConfigError. A ``default`` of None
    makes the option optional and lets it stay None.
    """
    value = getattr(args, key)
    if value is None:
        value = config.get(key, default)
    flag = "--" + key.replace("_", "-")
    if value is _REQUIRED:
        raise ConfigError(f"missing required option {flag}")
    if value is None and default is None:
        return None
    text_ok = kind is not str or isinstance(value, str)
    if text_ok and value is not None and not isinstance(value, bool):
        try:
            converted = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if not isinstance(value, float) or converted == value:
                return converted
    raise ConfigError(f"{flag} must be {kind.__name__}, got {json.dumps(value)}")


def _time_repr(text: str) -> TimeRepresentation:
    try:
        return _TIME_REPRS[text]
    except KeyError:
        raise ConfigError(
            f"unknown time representation {text!r}; use rpt or free-form"
        ) from None


def _thresholds(text: str | None, default: tuple[float, ...]) -> tuple[float, ...]:
    if text is None:
        return default
    try:  # the scorer checks the values
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {text!r}") from exc


def _existing_path(value: str, what: str) -> Path:
    """``value`` as a path that exists and is not a directory (a FIFO will do)."""
    p = Path(value)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {p}")
    if p.is_dir():
        raise ConfigError(f"{what} file is a directory: {p}")
    return p


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# help text of the options only one build subcommand takes; each is the
# config field of that name, which gives its type and default
_IMAGE_OPTIONS = {
    "seq_len": "images per sequence",
    "max_targets": "max targets per record",
}
_CLIP_OPTIONS = {
    "total_frames": "frame budget per video",
    "clip_min": "min clips (>= 2)",
    "clip_max": "max clips (<= 10)",
    "rate_min": "min rate factor",
    "rate_max": "max rate factor",
}


def _cmd_build(args) -> int:
    # a key of either builder is accepted, so one file can serve both
    config = _load_config_file(args.config, {*args.options, *_IMAGE_OPTIONS, *_CLIP_OPTIONS})
    options = {
        key: _option(args, config, key, kind, default)
        for key, (kind, default, _) in args.options.items()
    }
    time_repr = _time_repr(options["time_repr"])
    max_targets = options.get("max_targets", 0)
    if max_targets > MAX_STANDARD_TARGETS and not args.allow_nonstandard:
        raise ConfigError(
            f"--max-targets {max_targets} exceeds the standard cap of "
            f"{MAX_STANDARD_TARGETS}; pass --allow-nonstandard to override"
        )
    source = _existing_path(options["source"], "source")
    if options["templates"] is not None:
        _existing_path(options["templates"], "template bank")
    pool = args.load_pool(source)
    bank = TemplateBank.load(options["templates"])
    own = {key: options[key] for key in args.build_options}
    build = args.config_type(
        n_instances=options["n"], seed=options["seed"], time_repr=time_repr, **own
    )
    corpus = args.corpus(build, pool, bank)
    log.info(
        "%s resolved config: %s", args.subcommand, json.dumps(options, sort_keys=True)
    )
    output, seed = options["output"], options["seed"]
    stats = corpus.write(output, options["jobs"])
    summary = stats.to_dict()
    _emit(
        args,
        {"records": stats.total, "output": output, "seed": seed, "stats": summary},
        f"wrote {stats.total} records to {output} "
        f"(tasks: {json.dumps(summary['task_counts'])})",
    )
    return 0


def _cmd_tokenize(args) -> int:
    code = encode_relative(args.index, args.length)
    _emit(
        args,
        {
            "index": args.index,
            "length": args.length,
            "code": render_code(code),
            "fraction": decode_relative(code),
        },
        render_code(code),
    )
    return 0


def _cmd_detokenize(args) -> int:
    code = code_from_string(args.code)
    fraction = decode_relative(code)
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
    report = quantization_error_report(
        _MODELS[args.model],
        video_duration_s=args.duration,
        fps=args.fps,
        sampled_frames=args.frames,
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    # only scoring needs the scorer, so builds start without importing it
    from .evaluation import DEFAULT_F1_THRESHOLDS, DEFAULT_R1_THRESHOLDS, evaluate_run

    pred = _existing_path(args.pred, "prediction")
    gt = _existing_path(args.gt, "ground truth")
    time_repr = _time_repr(args.time_repr)
    thresholds = _thresholds(args.thresholds, DEFAULT_F1_THRESHOLDS)
    r1 = _thresholds(args.iou, DEFAULT_R1_THRESHOLDS)
    report = evaluate_run(pred, gt, time_repr, thresholds, r1, args.jobs)
    summary = report.to_dict()  # names each threshold as the report does
    lines = [f"temporal_f1 {report.f1:.6f}"]
    lines += [f"r@1(iou={th}) {value:.6f}" for th, value in summary["r_at_1"].items()]
    lines += [f"f1@{th} {value:.6f}" for th, value in summary["f1_per_threshold"].items()]
    lines.append(f"n_pred {report.n_pred:.4f}")
    if report.l_avg is not None:
        lines.append(f"l_avg {report.l_avg:.4f}")
        lines.append(f"ttr {report.ttr:.4f}")
    lines.append(f"skipped_lines {report.skipped_lines}")
    _emit(args, summary, "\n".join(lines))
    return 0


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
    sub.add_argument("--json", action="store_true", help="machine-readable stdout")
    sub.add_argument(
        "-v", "--verbose", action="count", default=0, help="log resolved config and more"
    )


def _add_build_common(
    sub: argparse.ArgumentParser, shared: dict, config_type: type, own: dict
) -> None:
    defaults = {f.name: f.default for f in dataclasses.fields(config_type)}
    options = shared | {k: (type(defaults[k]), defaults[k], text) for k, text in own.items()}
    # a flag defaults to None, so ``_cmd_build`` can tell it was not given
    sub.add_argument("--config", help="JSON config file (or set SEQ2TIME_CONFIG)")
    for key, (kind, _, text) in options.items():
        choices = sorted(_TIME_REPRS) if key == "time_repr" else None
        sub.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices, help=text)
    sub.set_defaults(func=_cmd_build, config_type=config_type, options=options, build_options=own)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seq2time",
        description=(
            "Build position-token instruction corpora from captioned images/clips "
            "and evaluate temporal predictions."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    shared = _shared_options()

    p = subparsers.add_parser(
        "build-image-seq", help="generate image-sequence pretext records"
    )
    _add_build_common(p, shared, ImageCorpusConfig, _IMAGE_OPTIONS)
    p.add_argument(
        "--allow-nonstandard",
        action="store_true",
        help=f"permit settings beyond the standard cap of {MAX_STANDARD_TARGETS} targets",
    )
    _add_common(p)
    p.set_defaults(load_pool=load_image_captions, corpus=image_corpus)

    p = subparsers.add_parser(
        "build-clip-seq", help="generate clip-sequence DVC/TVG records"
    )
    _add_build_common(p, shared, ClipCorpusConfig, _CLIP_OPTIONS)
    _add_common(p)
    p.set_defaults(load_pool=load_clip_captions, corpus=clip_corpus)

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
    _add_common(p)
    p.set_defaults(func=_cmd_analyze_quantization)

    p = subparsers.add_parser(
        "eval-dvc",
        aliases=["eval-tvg"],
        help="score dense captioning or grounding predictions",
    )
    p.add_argument("--pred", required=True, help="predictions JSON-lines")
    p.add_argument("--gt", required=True, help="ground truth JSON-lines")
    p.add_argument(
        "--time-repr",
        dest="time_repr",
        choices=sorted(_TIME_REPRS),
        default="free-form",
        help="how predictions render time",
    )
    p.add_argument("--thresholds", help="F1 IoU thresholds, comma-separated")
    p.add_argument("--iou", help="R@1 IoU thresholds, comma-separated")
    kind, default, text = shared["jobs"]
    p.add_argument("--jobs", type=kind, default=default, help=text)
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

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
        status = args.func(args)
        sys.stdout.flush()  # so a closed stdout shows up here, not at exit
        return status
    except BrokenPipeError:
        # the reader went away, as `| head` does: exit as SIGPIPE would, and
        # point stdout at /dev/null so the interpreter's final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, DomainError, TemplateError, TokenParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except (CorpusFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
