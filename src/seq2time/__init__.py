"""Position-token instruction data synthesis and temporal metrics.

Sequence positions (image indices, clip frame spans) become relative
position codes over a ten-token vocabulary; captioned images/clips become
instruction records for time-sensitive training; predictions parse back
into timed events for temporal F1, R@1 and lexical richness scoring.

The package root exports the names the benchmark under ``perfbench/``
imports, plus the exception classes; everything else is imported from
its module (``seq2time.position_token``, ``seq2time.evaluation``, ...).
"""

from .clip_sequence import (
    ClipCorpusConfig,
    apportion_frames,
    build_clip_corpus,
    compose_sequence,
)
from .dataset_io import (
    CaptionedImage,
    corpus_stats,
    load_clip_captions,
    load_image_captions,
    write_jsonl,
)
from .errors import (
    ConfigError,
    CorpusFormatError,
    DomainError,
    InvariantViolation,
    Seq2TimeError,
    TemplateError,
    TokenParseError,
)
from .image_sequence import (
    ImageCorpusConfig,
    build_image_corpus,
    sample_sequence,
)
from .position_token import (
    TimeRepresentation,
    code_from_string,
    encode_relative,
    render_code,
)
from .templates import TemplateBank, render_template

__version__ = "0.1.0"

__all__ = [
    "CaptionedImage",
    "ClipCorpusConfig",
    "ConfigError",
    "CorpusFormatError",
    "DomainError",
    "ImageCorpusConfig",
    "InvariantViolation",
    "Seq2TimeError",
    "TemplateBank",
    "TemplateError",
    "TimeRepresentation",
    "TokenParseError",
    "apportion_frames",
    "build_clip_corpus",
    "build_image_corpus",
    "code_from_string",
    "compose_sequence",
    "corpus_stats",
    "encode_relative",
    "load_clip_captions",
    "load_image_captions",
    "render_code",
    "render_template",
    "sample_sequence",
    "write_jsonl",
]
