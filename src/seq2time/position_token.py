"""Relative position codec: sequence positions as 4-digit token codes.

A 1-based position ``i`` in a sequence of length ``L`` becomes the code
``round(i/L, 4) * 10000``, a plain int in 0..9999 (``encode_relative``).
Its text form is four of the ten digit tokens ``<0>`` .. ``<9>``: the 7th
image of 96 is code 729, rendered ``<0><7><2><9>`` (``render_code``), read
by ``code_from_string`` and, from the digits of a ``CODE_PATTERN`` match,
by ``evaluation``. Absolute timestamps scale the fraction code / 10000
(``decode_relative``) by the video duration.

The value 1.0000 does not fit in four digits; it is clamped to 0.9999 so
every code is exactly four tokens wide. The clamp affects every ratio
that rounds to 1.0000 (that is, i/L >= 0.99995, always including i = L),
where the round-trip error grows to at most one quantum (1e-4) instead
of the usual half quantum. Rounding is half-away-from-zero on the 4th
decimal and is done in exact integer arithmetic, so results never depend
on binary float representation of ``i/L``.

``quantization_error_report`` computes, in closed form and without a
sampling grid, the temporal error of the representation under two
explicit models, because "the" error of a finite code depends on what is
being approximated:

* ``ROUNDING_ONLY`` -- pure 4-decimal rounding of a continuous target time.
  This is the precision of the code itself (mean exactly 0.0025% of the
  duration, max 0.005%) and is independent of frame rate. The boundary
  clamp is excluded: it belongs to the token rendering, not the rounding.
* ``FRAME_SAMPLING`` -- every source-frame time of a real video must be
  expressed through one of the uniformly sampled frames carried by the
  codec, so the error is dominated by the sampling stride, not the code.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, TokenParseError

SCALE = 10_000        # four decimal digits
MAX_CODE = SCALE - 1  # 0.9999, the largest representable fraction
# longest sequence whose every position code decodes back to its index
MAX_RPT_LENGTH = SCALE // 2

_TOKENS = tuple(f"<{d}>" for d in range(10))
# one rendered code, ASCII digits only: ``\d`` would also match digits
# such as Arabic-Indic ones, which no code renders and code_from_string rejects;
# spelled out, not a repeated group, so a search can skip ahead to each "<"
CODE_PATTERN = "<[0-9]>" * 4


class TimeRepresentation(Enum):
    """How generators render (and parsers read) positions and timestamps."""

    RPT = "rpt"              # four digit tokens per position
    FREE_FORM = "free_form"  # seconds like "12.3", or a bare integer index


# only perfbench/check.py and tests use these; TimeInterval checks nothing, as
# the evaluation.Event that EventPrediction builds from it checks 0 <= start <= end
class IntervalUnit(Enum):
    SECONDS = "seconds"


class TimeInterval(NamedTuple):
    """A start/end pair in seconds."""

    start: float
    end: float
    unit: IntervalUnit = IntervalUnit.SECONDS


def encode_ratio(numerator: int, denominator: int) -> int:
    """Encode the exact rational numerator/denominator in [0, 1] as a code.

    Integer-only half-away-from-zero rounding to 4 decimals, clamping
    1.0000 to 0.9999. Used for frame boundaries, where numerator 0 is
    legal.
    """
    if denominator < 1:
        raise DomainError(f"denominator must be >= 1, got {denominator}")
    if not 0 <= numerator <= denominator:
        raise DomainError(f"ratio {numerator}/{denominator} outside [0, 1]")
    # floor((SCALE*num + den/2) / den), exact for all integers
    scaled = (2 * SCALE * numerator + denominator) // (2 * denominator)
    return min(scaled, MAX_CODE)


def encode_relative(index: int, length: int) -> int:
    """Encode 1-based ``index`` of a ``length``-long sequence as a code.

    Computes round(index/length, 4) with half-away-from-zero rounding in
    integer arithmetic; ratios rounding to 1.0000 clamp to 0.9999.
    """
    if length < 1:
        raise DomainError(f"sequence length must be >= 1, got {length}")
    if not 1 <= index <= length:
        raise DomainError(f"index {index} outside valid range 1..{length}")
    return encode_ratio(index, length)


def decode_relative(code: int) -> float:
    """The fraction code/10000, in [0.0, 0.9999] for every valid code."""
    return code / SCALE


def code_to_index(code: int, length: int) -> int:
    """Nearest 1-based position for a decoded fraction.

    Inverse of :func:`encode_relative` for all length <= ``MAX_RPT_LENGTH``
    (10^4 / 2: half a code quantum resolves to a unique position).
    """
    if length < 1:
        raise DomainError(f"sequence length must be >= 1, got {length}")
    nearest = int(math.floor(decode_relative(code) * length + 0.5))
    return min(length, max(1, nearest))


def render_code(code: int) -> str:
    """The four digit tokens of ``code``, unseparated: 729 -> "<0><7><2><9>"."""
    if not 0 <= code <= MAX_CODE:
        raise DomainError(f"code value {code} outside 0..{MAX_CODE}")
    return "<%s><%s><%s><%s>" % tuple(f"{code:04d}")


def code_from_string(text: str) -> int:
    """Parse one rendered code such as "<0><7><2><9>" back into its int.

    The whole string must consist of exactly four digit tokens; otherwise
    :class:`TokenParseError` names the 1-based character where the first
    bad token starts, or the token count.
    """
    for i in range(0, len(text), 3):
        if text[i : i + 3] not in _TOKENS:
            raise TokenParseError(
                f"invalid token starting at character {i + 1}: {text[i:i+3]!r}"
            )
    if len(text) != 12:
        raise TokenParseError(f"expected exactly 4 digit tokens, got {len(text) // 3}")
    return int(text[1::3])


def to_timestamp(fraction: float, video_duration_s: float) -> float:
    """Reconstruct an absolute timestamp from a relative position.

    Returns ``fraction * video_duration_s`` at full float precision;
    callers round for display (see :func:`format_seconds`).
    """
    if not 0 < video_duration_s < math.inf:
        raise DomainError(
            f"duration must be positive and finite, got {video_duration_s}"
        )
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction {fraction} outside [0, 1]")
    return fraction * video_duration_s


def format_seconds(seconds: float) -> str:
    """Render seconds at the 0.1 s display precision used in answers."""
    return f"{seconds:.1f}"


class ErrorModel(Enum):
    ROUNDING_ONLY = "rounding_only"
    FRAME_SAMPLING = "frame_sampling"


class QuantizationErrorReport(NamedTuple):
    """Temporal error statistics of the codec under one error model."""

    model: ErrorModel
    video_duration_s: float
    fps: float
    sampled_frames: int
    mean_abs_error_s: float
    mean_relative_error_pct: float
    max_abs_error_s: float

    def to_dict(self) -> dict:
        return {**self._asdict(), "model": self.model.value}


def quantization_error_report(
    model: ErrorModel,
    video_duration_s: float,
    fps: float,
    sampled_frames: int,
) -> QuantizationErrorReport:
    """Measure codec temporal error for a video configuration, exactly.

    ROUNDING_ONLY rounds a continuous target time, as a fraction of the
    duration, to 4 decimals. Over whole quanta ``|x - round(x, 4)|`` is
    uniform on [0, quantum/2], so the mean is a quarter quantum (0.0025%
    of the duration) and the max half a quantum, whatever the frame rate.
    FRAME_SAMPLING takes every source-frame time ``i / fps``, for ``i <
    max(1, round(duration * fps))``, as a target and measures the
    distance to the nearest reconstruction among the ``sampled_frames``
    codec-carried frame positions; here the sampling stride dominates.
    It sums per reconstruction, in O(min(sampled_frames, 10**4)) steps.
    """
    finite = 0 < video_duration_s < math.inf and 0 < fps < math.inf
    if not finite or sampled_frames < 1:
        raise DomainError(
            "duration, fps and sampled_frames must all be positive and finite, got "
            f"({video_duration_s}, {fps}, {sampled_frames})"
        )
    duration, fps = float(video_duration_s), float(fps)
    if model is ErrorModel.ROUNDING_ONLY:
        mean_abs, max_abs = duration / (4 * SCALE), duration / (2 * SCALE)
    elif model is ErrorModel.FRAME_SAMPLING:
        if duration * fps > 2**53:  # past this, frame indices are not exact floats
            raise DomainError(f"duration * fps exceeds 2**53 frames: {duration * fps:g}")
        n_source = max(1, round(duration * fps))
        # from SCALE positions on, consecutive codes differ by at most one
        # (SCALE / sampled_frames <= 1), so every code from position 1's up occurs
        codes = (
            range(encode_ratio(1, sampled_frames), SCALE)
            if sampled_frames >= SCALE
            else (encode_relative(i, sampled_frames) for i in range(1, sampled_frames + 1))
        )
        reconstructed = sorted({to_timestamp(decode_relative(c), duration) for c in codes})
        # the frames nearest reconstruction r run from lo to hi - 1, between
        # the midpoints with its neighbours; the farthest is at one end
        ends = [
            min(n_source, math.floor((r + r_next) / 2 * fps) + 1)
            for r, r_next in zip(reconstructed, reconstructed[1:])
        ]
        total = max_abs = 0.0
        for lo, hi, r in zip([0] + ends, ends + [n_source], reconstructed):
            if lo == hi:
                continue
            # frames lo..split-1 lie before r and split..hi-1 at or after
            # it; each side's distances grow by 1/fps away from r
            split = min(hi, max(lo, math.ceil(r * fps)))
            below, above = split - lo, hi - split
            total += below * (r - (split - 1) / fps) + above * (split / fps - r)
            total += (below * (below - 1) + above * (above - 1)) // 2 / fps
            max_abs = max(max_abs, abs(lo / fps - r), abs((hi - 1) / fps - r))
        mean_abs = total / n_source
    else:
        raise DomainError(f"unknown error model {model!r}")
    return QuantizationErrorReport(
        model=model,
        video_duration_s=duration,
        fps=fps,
        sampled_frames=int(sampled_frames),
        mean_abs_error_s=mean_abs,
        mean_relative_error_pct=100.0 * mean_abs / duration,
        max_abs_error_s=max_abs,
    )
