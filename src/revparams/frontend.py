"""Log-mel spectrogram front end.

Converts raw 16 kHz audio into 100 frames/s log-mel spectrograms: 25 ms
periodic-Hann frames hopped by 10 ms, 512-point FFT, 26 triangular mel
filters between 64 Hz and 8 kHz, natural log with an energy floor.

No pre-emphasis and no mean subtraction happen here; feature normalization
lives entirely in the classifier.

The frames are processed in ``parallel.row_blocks``, each block writing its
own rows of the spectrogram, and shared with a helper thread as
``parallel.split`` decides; the bits are those of the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import parallel
from .audio_io import SAMPLE_RATE, AudioBuffer
from .parallel import row_blocks


@dataclass(frozen=True, init=False)
class FrameParams:
    """The fixed framing and mel-analysis parameters of the feature
    contract: ``FrameParams()`` takes no arguments."""

    frame_len: int = 400
    hop: int = 160
    fft_size: int = 512
    n_mels: int = 26
    fmin: float = 64.0
    fmax: float = 8000.0
    log_floor: float = 1e-10

    def frame_rate(self) -> float:
        return SAMPLE_RATE / self.hop


@dataclass
class LogMelSpectrogram:
    """T x n_mels matrix of natural-log mel energies."""

    values: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank(params: FrameParams) -> np.ndarray:
    """Triangular mel filterbank, one row per channel, rows normalized to
    unit area. Cached, so the array is read-only."""
    mel_points = np.linspace(hz_to_mel(params.fmin), hz_to_mel(params.fmax), params.n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(params.fft_size // 2 + 1) * (SAMPLE_RATE / params.fft_size)

    bank = np.zeros((params.n_mels, len(bin_freqs)))
    for j in range(params.n_mels):
        lo, center, hi = hz_points[j], hz_points[j + 1], hz_points[j + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        bank[j] = np.maximum(0.0, np.minimum(rising, falling))
    bank /= bank.sum(axis=1)[:, None]
    bank.flags.writeable = False
    return bank


def hann_periodic(n: int) -> np.ndarray:
    """Periodic Hann window of length n: 0.5 - 0.5*cos(2*pi*k/n)."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_signal(audio: AudioBuffer, params: FrameParams = FrameParams()) -> np.ndarray:
    """Slice audio into overlapping frames, discarding any trailing partial frame.

    Frame i starts at sample i*hop; returns a read-only (n_frames, frame_len)
    strided view of the samples, not a copy.
    Raises ValueError("input too short") for audio below one frame.
    """
    x = audio.samples
    if len(x) < params.frame_len:
        raise ValueError(f"input too short: {len(x)} samples < one frame ({params.frame_len})")
    return np.lib.stride_tricks.sliding_window_view(x, params.frame_len)[:: params.hop]


def power_spectrum(frames: np.ndarray, params: FrameParams = FrameParams()) -> np.ndarray:
    """One-sided power spectra of Hann-windowed, zero-padded frames:
    (..., frame_len) in, (..., fft_size // 2 + 1) out, one rfft along the
    last axis."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-1:] != (params.frame_len,):
        raise ValueError(f"frames must have length {params.frame_len}, got shape {frames.shape}")
    power = np.abs(np.fft.rfft(frames * hann_periodic(params.frame_len), n=params.fft_size))
    return np.square(power, out=power)


def log_mel_spectrogram(audio: AudioBuffer, params: FrameParams = FrameParams()) -> LogMelSpectrogram:
    """Full front end: framing, Hann window, power FFT, mel filtering, natural log.

    Every output entry is >= ln(log_floor). Works through ``row_blocks``,
    shared with a helper thread as ``parallel.split`` decides, so the FFT
    and mel temporaries stay cache-sized; the bits equal one pass over all
    frames.
    """
    frames = frame_signal(audio, params)
    bank_t = mel_filterbank(params).T
    values = np.empty((len(frames), params.n_mels))

    def block(rows_out):
        rows, out = rows_out
        np.matmul(power_spectrum(rows, params), bank_t, out=out)
        np.maximum(out, params.log_floor, out=out)
        np.log(out, out=out)

    parallel.split(block, row_blocks(frames, values), len(frames))
    return LogMelSpectrogram(values)
