"""Codec and quantization analyzer unit tests."""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seq2time.errors import DomainError, TokenParseError
from seq2time.position_token import (
    MAX_CODE,
    SCALE,
    ErrorModel,
    code_from_string,
    code_to_index,
    decode_relative,
    encode_ratio,
    encode_relative,
    format_seconds,
    quantization_error_report,
    render_code,
    to_timestamp,
)


class TestEncode:
    def test_worked_example(self):
        code = encode_relative(7, 96)
        assert code == 729
        assert render_code(code) == "<0><7><2><9>"

    def test_half_rounds_away_from_zero(self):
        # 1/32 = 0.03125 -> 0.0313, not banker's 0.0312
        assert encode_relative(1, 32) == 313

    def test_exact_fractions(self):
        assert encode_relative(1, 16) == 625
        assert encode_relative(48, 96) == 5000
        assert encode_relative(1, 96) == 104
        assert encode_relative(95, 96) == 9896

    def test_top_of_range_clamps(self):
        assert encode_relative(96, 96) == MAX_CODE
        assert encode_relative(1, 1) == MAX_CODE

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            encode_relative(0, 96)
        with pytest.raises(DomainError):
            encode_relative(97, 96)
        with pytest.raises(DomainError):
            encode_relative(1, 0)

    def test_ratio_allows_zero_numerator(self):
        assert encode_ratio(0, 96) == 0
        assert encode_ratio(24, 96) == 2500
        assert encode_ratio(96, 96) == MAX_CODE
        with pytest.raises(DomainError):
            encode_ratio(97, 96)


class TestTokens:
    def test_vocabulary_is_ten_digit_tokens(self):
        # code 1111 * d renders digit d's token four times
        for d in range(10):
            assert render_code(1111 * d) == f"<{d}>" * 4
            assert code_from_string(f"<{d}>" * 4) == 1111 * d

    def test_round_trip_tokens(self):
        code = encode_relative(7, 96)
        rendered = render_code(code)
        assert rendered == "<0><7><2><9>"
        assert code_from_string(rendered) == code

    def test_unknown_token_reports_position(self):
        # the second token starts at character 4
        with pytest.raises(TokenParseError, match="character 4"):
            code_from_string("<1><x><2><9>")

    def test_wrong_arity(self):
        with pytest.raises(TokenParseError, match="got 3"):
            code_from_string("<1><2><3>")
        with pytest.raises(TokenParseError, match="got 5"):
            code_from_string("<1><2><3><4><5>")

    def test_bad_character_reports_position(self):
        with pytest.raises(TokenParseError, match="character 4"):
            code_from_string("<0>x<2><9>")
        with pytest.raises(TokenParseError, match="character 1"):
            code_from_string("<\u0665><0><0><0>")  # ARABIC-INDIC DIGIT FIVE

    def test_code_from_string(self):
        assert code_from_string("<0><7><2><9>") == 729

    def test_digit_validation(self):
        assert render_code(0) == "<0><0><0><0>"
        assert render_code(MAX_CODE) == "<9><9><9><9>"
        with pytest.raises(DomainError):
            render_code(-1)
        with pytest.raises(DomainError):
            render_code(SCALE)


class TestDecode:
    def test_decode_value(self):
        assert decode_relative(encode_relative(7, 96)) == 0.0729

    def test_code_to_index_inverts_encode(self):
        for length in (1, 2, 5, 96, 100, 4999, 5000):
            for index in sorted({1, 2, length // 2, length - 1, length}):
                if not 1 <= index <= length:
                    continue
                code = encode_relative(index, length)
                assert code_to_index(code, length) == index

    def test_to_timestamp(self):
        assert to_timestamp(0.0729, 60.0) == pytest.approx(4.374, abs=1e-12)
        with pytest.raises(DomainError):
            to_timestamp(0.5, 0.0)
        with pytest.raises(DomainError):
            to_timestamp(1.5, 60.0)

    def test_format_seconds(self):
        assert format_seconds(4.374) == "4.4"
        assert format_seconds(0.0) == "0.0"
        assert format_seconds(19.999) == "20.0"


class TestProperties:
    @given(
        length=st.integers(min_value=1, max_value=1_000_000),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_error_bound(self, length, data):
        index = data.draw(st.integers(min_value=1, max_value=length))
        error = abs(decode_relative(encode_relative(index, length)) - index / length)
        if index / length >= 0.99995:  # documented clamp region (incl. i = L)
            assert error <= 1e-4 + 1e-12
        else:
            assert error <= 5e-5 + 1e-12

    @given(
        length=st.integers(min_value=2, max_value=100_000),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_index(self, length, data):
        i = data.draw(st.integers(min_value=1, max_value=length - 1))
        j = data.draw(st.integers(min_value=i + 1, max_value=length))
        assert encode_relative(i, length) <= encode_relative(j, length)

    @given(
        length=st.integers(min_value=1, max_value=5000),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_index_recovery_below_half_quantum(self, length, data):
        index = data.draw(st.integers(min_value=1, max_value=length))
        assert code_to_index(encode_relative(index, length), length) == index


class TestQuantizationAnalyzer:
    def test_rounding_only_matches_analytic_scale(self):
        report = quantization_error_report(ErrorModel.ROUNDING_ONLY, 60.0, 30.0, 96)
        # mean |x - round(x)| over whole quanta is a quarter quantum
        expected_mean_s = 1e-4 * 60.0 / 4.0
        assert report.mean_abs_error_s == pytest.approx(expected_mean_s, rel=0.02)
        assert report.mean_relative_error_pct == pytest.approx(0.0025, rel=0.02)
        # the exact supremum is half a quantum (0.003 s); allow float dust
        assert report.max_abs_error_s <= 0.003 + 1e-9
        assert report.mean_abs_error_s <= report.max_abs_error_s
        # and the closed form hits the exact values
        assert report.mean_abs_error_s == 0.0015
        assert report.max_abs_error_s == 0.003
        assert report.mean_relative_error_pct == 0.0025

    def test_frame_sampling_dominated_by_stride(self):
        report = quantization_error_report(ErrorModel.FRAME_SAMPLING, 60.0, 30.0, 96)
        # 96 carried frames over 60 s leave a 0.625 s stride; the mean
        # nearest-frame distance sits near a quarter of that
        assert 0.10 <= report.mean_abs_error_s <= 0.22
        assert 0.17 <= report.mean_relative_error_pct <= 0.37
        # worst target is t=0: the first carried frame sits at ~0.624 s
        assert report.max_abs_error_s <= 0.625 + 1e-6
        assert report.mean_relative_error_pct > 0.13  # larger than rounding alone

    def test_report_dict_shape(self):
        report = quantization_error_report(ErrorModel.ROUNDING_ONLY, 10.0, 24.0, 8)
        payload = report.to_dict()
        assert payload["model"] == "rounding_only"
        assert payload["video_duration_s"] == 10.0
        assert math.isclose(
            payload["mean_relative_error_pct"],
            100.0 * payload["mean_abs_error_s"] / 10.0,
        )

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            quantization_error_report(ErrorModel.ROUNDING_ONLY, 0.0, 30.0, 96)
        with pytest.raises(DomainError):
            quantization_error_report(ErrorModel.FRAME_SAMPLING, 60.0, -1.0, 96)
        with pytest.raises(DomainError, match="2\\*\\*53"):
            quantization_error_report(ErrorModel.FRAME_SAMPLING, 1e300, 1e10, 96)

    @settings(max_examples=200, deadline=None)
    @given(
        fps=st.floats(min_value=1e-3, max_value=1e4),
        frames=st.integers(min_value=1, max_value=5000),
        sampled_frames=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    def test_frame_sampling_against_brute_force(self, fps, frames, sampled_frames, data):
        # any duration with at most ``frames`` source frames at this rate
        duration = data.draw(st.floats(min_value=1e-6, max_value=frames / fps))
        report = quantization_error_report(
            ErrorModel.FRAME_SAMPLING, duration, fps, sampled_frames
        )
        errors = _nearest_reconstruction_errors(duration, fps, sampled_frames)
        assert math.isclose(
            report.mean_abs_error_s, sum(errors) / len(errors), rel_tol=1e-9
        )
        assert math.isclose(report.max_abs_error_s, max(errors), rel_tol=1e-9)

    @pytest.mark.parametrize("sampled_frames", [9_999, 10_000, 10_001, 25_000])
    def test_frame_sampling_past_ten_thousand_positions(self, sampled_frames):
        # from 10^4 positions on the report takes its codes as one range
        # instead of encoding each position; the oracle encodes every one.
        # 50,000 source frames put about five near each reconstruction
        report = quantization_error_report(
            ErrorModel.FRAME_SAMPLING, 100.0, 500.0, sampled_frames
        )
        errors = _nearest_reconstruction_errors(100.0, 500.0, sampled_frames)
        assert math.isclose(
            report.mean_abs_error_s, sum(errors) / len(errors), rel_tol=1e-12
        )
        assert report.max_abs_error_s == max(errors)


def _nearest_reconstruction_errors(duration, fps, sampled_frames):
    """Per source frame, the distance to the nearest reconstructed position."""
    ordered = sorted(
        {
            encode_relative(i, sampled_frames) / SCALE * duration
            for i in range(1, sampled_frames + 1)
        }
    )
    errors = []
    for i in range(max(1, round(duration * fps))):
        t = i / fps
        k = bisect.bisect_left(ordered, t)
        errors.append(min(abs(t - r) for r in ordered[max(0, k - 1) : k + 1]))
    return errors
