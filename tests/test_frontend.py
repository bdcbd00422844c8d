import numpy as np
import pytest

from revparams.audio_io import SAMPLE_RATE, AudioBuffer
from revparams.frontend import (
    FrameMatrix,
    FrameParams,
    frame_signal,
    hann_periodic,
    hz_to_mel,
    log_mel_spectrogram,
    mel_filterbank,
    mel_to_hz,
    power_spectrum,
)
from revparams.gabor import build_diagonal_filterbank, extract_features

PARAMS = FrameParams()


def tone(freq, duration=1.0, amplitude=0.5):
    t = np.arange(int(duration * SAMPLE_RATE)) / SAMPLE_RATE
    return AudioBuffer(amplitude * np.sin(2 * np.pi * freq * t))


def reference_frame_signal(x, params):
    """Index-gather framing that ``frame_signal``'s strided view replaces."""
    n_frames = (len(x) - params.frame_len) // params.hop + 1
    idx = np.arange(params.frame_len)[None, :] + params.hop * np.arange(n_frames)[:, None]
    return x[idx]


class TestFraming:
    def test_one_second_gives_98_frames(self):
        frames = frame_signal(AudioBuffer(np.zeros(16000)), PARAMS)
        assert frames.shape == (98, 400)

    def test_exactly_one_frame(self):
        assert frame_signal(AudioBuffer(np.zeros(400)), PARAMS).shape == (1, 400)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="input too short"):
            frame_signal(AudioBuffer(np.zeros(399)), PARAMS)

    def test_frames_start_at_multiples_of_hop(self):
        x = np.arange(2000, dtype=np.float64)
        frames = frame_signal(AudioBuffer(x), PARAMS)
        for i, frame in enumerate(frames):
            assert frame[0] == i * PARAMS.hop

    # 400: exactly one frame; 777 and 1234: a partial trailing frame
    @pytest.mark.parametrize("n", [16000, 777, 1234, 400])
    def test_frame_count_formula(self, n):
        frames = frame_signal(AudioBuffer(np.zeros(n)), PARAMS)
        assert frames.shape[0] == (n - PARAMS.frame_len) // PARAMS.hop + 1

    @pytest.mark.parametrize("n", [16000, 777, 1234, 400, 5000])
    def test_matches_index_gather_reference(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        frames = frame_signal(AudioBuffer(x), PARAMS)
        assert np.array_equal(frames, reference_frame_signal(x, PARAMS))
        assert not frames.flags.writeable

    def test_log_mel_matches_gathered_frames(self):
        """The row-blocked log-mel against one pass over all frames, at
        tolerance 0. Up to 1,024 frames are one block; 1,025 split into
        513 + 512, 6,073 into 6 near-equal blocks."""
        for n_frames in (148, 998, 1_024, 1_025, 1_039, 2_049, 6_073):
            n = PARAMS.frame_len + PARAMS.hop * (n_frames - 1)
            audio = AudioBuffer(0.1 * np.random.default_rng(n_frames).standard_normal(n))
            frames = reference_frame_signal(audio.samples, PARAMS) * hann_periodic(400)[None, :]
            power = np.abs(np.fft.rfft(frames, n=512, axis=1)) ** 2
            expected = np.log(np.maximum(power @ mel_filterbank(PARAMS).T, PARAMS.log_floor))
            values = log_mel_spectrogram(audio, PARAMS).values
            assert values.shape == (n_frames, PARAMS.n_mels)
            assert np.array_equal(values, expected), n_frames


class TestPowerSpectrum:
    def test_zero_frame_gives_zero_spectrum(self):
        spec = power_spectrum(np.zeros(400), PARAMS)
        assert spec.shape == (257,)
        assert np.all(spec == 0.0)

    def test_dc_frame_energy_in_bin_zero(self):
        c = 0.3
        spec = power_spectrum(np.full(400, c), PARAMS)
        expected = (c * hann_periodic(400).sum()) ** 2
        assert spec[0] == pytest.approx(expected, rel=1e-12)
        assert spec[0] == pytest.approx((c * 200.0) ** 2, rel=1e-12)

    def test_1khz_sine_peaks_at_bin_32(self):
        frame = np.sin(2 * np.pi * 1000.0 * np.arange(400) / 16000.0)
        spec = power_spectrum(frame, PARAMS)
        assert spec.argmax() == 32

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(3)
        frame = rng.standard_normal(400)
        windowed = np.concatenate([frame * hann_periodic(400), np.zeros(112)])
        k = np.arange(257)[:, None]
        n = np.arange(512)[None, :]
        dft = (windowed[None, :] * np.exp(-2j * np.pi * k * n / 512)).sum(axis=1)
        np.testing.assert_allclose(power_spectrum(frame, PARAMS), np.abs(dft) ** 2, rtol=1e-9, atol=1e-9)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            power_spectrum(np.zeros(401), PARAMS)

    def test_block_matches_row_by_row(self):
        """One rfft over an (n, 400) block gives each row's bits alone."""
        frames = np.random.default_rng(7).standard_normal((37, 400))
        block = power_spectrum(frames, PARAMS)
        assert block.shape == (37, 257)
        rows = np.stack([power_spectrum(frame, PARAMS) for frame in frames])
        assert np.array_equal(block, rows)


class TestMelFilterbank:
    def test_rows_nonnegative_with_positive_sums(self):
        bank = mel_filterbank(PARAMS)
        assert bank.shape == (26, 257)
        assert np.all(bank >= 0.0)
        assert np.all(bank.sum(axis=1) > 0.0)

    def test_rows_are_unit_area(self):
        np.testing.assert_allclose(mel_filterbank(PARAMS).sum(axis=1), 1.0, atol=1e-12)

    def test_repeat_calls_share_one_read_only_array(self):
        bank = mel_filterbank(PARAMS)
        assert mel_filterbank(FrameParams()) is bank
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0


class TestLogMel:
    def test_zero_audio_clamps_to_floor(self):
        spec = log_mel_spectrogram(AudioBuffer(np.zeros(16000)), PARAMS)
        assert spec.values.shape == (98, 26)
        assert np.all(spec.values == np.log(PARAMS.log_floor))

    @pytest.mark.parametrize("channel", range(26))
    def test_tone_at_channel_center_maximizes_that_channel(self, channel):
        edges = np.linspace(hz_to_mel(PARAMS.fmin), hz_to_mel(PARAMS.fmax), PARAMS.n_mels + 2)
        fc = mel_to_hz(edges[channel + 1])
        spec = log_mel_spectrogram(tone(fc), PARAMS)
        assert np.all(spec.values.argmax(axis=1) == channel)

    def test_scaling_by_ten_shifts_by_ln_100(self):
        rng = np.random.default_rng(0)
        x = 0.05 * rng.standard_normal(8000)
        a = log_mel_spectrogram(AudioBuffer(x), PARAMS).values
        b = log_mel_spectrogram(AudioBuffer(10.0 * x), PARAMS).values
        assert a.min() > np.log(PARAMS.log_floor)  # nothing clamped
        np.testing.assert_allclose(b - a, np.log(100.0), atol=1e-9)

    def test_invariant_to_sub_hop_trailing_samples(self, rng):
        # start from a frame-aligned length: 400 + 23 * 160
        x = rng.standard_normal(4080)
        base = log_mel_spectrogram(AudioBuffer(x), PARAMS).values
        for extra in (1, 80, 159):
            padded = np.concatenate([x, rng.standard_normal(extra)])
            np.testing.assert_array_equal(log_mel_spectrogram(AudioBuffer(padded), PARAMS).values, base)

    def test_energy_monotone_in_amplitude_scale(self, rng):
        x = 0.01 * rng.standard_normal(4000)
        a = log_mel_spectrogram(AudioBuffer(x), PARAMS).values
        b = log_mel_spectrogram(AudioBuffer(3.0 * x), PARAMS).values
        assert np.all(b >= a)


def test_both_stages_return_one_frame_matrix(rng):
    """The log-mel and Gabor stages return the one per-frame type, whose
    ``n_frames`` counts its rows; the default bank is built for this front end."""
    bank = build_diagonal_filterbank()
    assert (bank.n_mels, bank.frame_rate) == (PARAMS.n_mels, PARAMS.frame_rate()) == (26, 100.0)
    spec = log_mel_spectrogram(AudioBuffer(0.1 * rng.standard_normal(8000)), PARAMS)
    feats = extract_features(spec, bank)
    for matrix, width in ((spec, 26), (feats, 600)):
        assert type(matrix) is FrameMatrix
        assert matrix.values.shape == (48, width)
        assert matrix.n_frames == len(matrix.values) == 48


class TestFrameParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"frame_len": 600, "fft_size": 512},
            {"hop": 0},
            {"hop": 500},
            {"n_mels": 0},
            {"fmin": 9000.0},
        ],
    )
    def test_bad_params_raise(self, kwargs):
        with pytest.raises(TypeError, match="takes no arguments"):
            FrameParams(**kwargs)
