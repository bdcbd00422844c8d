"""Log-mel spectrogram front end.

Converts raw 16 kHz audio into 100 frames/s log-mel spectrograms: 25 ms
periodic-Hann frames hopped by 10 ms, 512-point FFT, 26 triangular mel
filters between 64 Hz and 8 kHz, natural log with an energy floor.

No pre-emphasis and no mean subtraction happen here; feature normalization
lives entirely in the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio_io import SAMPLE_RATE, AudioBuffer


@dataclass(frozen=True)
class FrameParams:
    """Framing and mel-analysis parameters (defaults fix the feature contract)."""

    frame_len: int = 400
    hop: int = 160
    fft_size: int = 512
    n_mels: int = 26
    fmin: float = 64.0
    fmax: float = 8000.0
    log_floor: float = 1e-10

    def __post_init__(self):
        if not self.frame_len <= self.fft_size:
            raise ValueError("frame_len must not exceed fft_size")
        if not 0 < self.hop <= self.frame_len:
            raise ValueError("hop must be in (0, frame_len]")
        if self.n_mels < 1:
            raise ValueError("n_mels must be >= 1")
        if not 0 <= self.fmin < self.fmax:
            raise ValueError("need 0 <= fmin < fmax")

    def frame_rate(self) -> float:
        return SAMPLE_RATE / self.hop


@dataclass
class LogMelSpectrogram:
    """T x n_mels matrix of natural-log mel energies."""

    values: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_mels(self) -> int:
        return self.values.shape[1]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_center_frequencies(params: FrameParams) -> np.ndarray:
    """Center frequency (Hz) of each mel channel."""
    edges = np.linspace(hz_to_mel(params.fmin), hz_to_mel(params.fmax), params.n_mels + 2)
    return mel_to_hz(edges[1:-1])


BLOCK_ROWS = 1024


def row_blocks(*arrays):
    """Zip of matching near-equal row blocks of ``arrays``, which share a
    row count T: one block when T <= BLOCK_ROWS, else ceil(T / BLOCK_ROWS)
    blocks of at least BLOCK_ROWS // 2 rows each.

    With OpenBLAS on one thread a matmul row does not depend on the other
    rows of a block of more than 100 rows, so blocked matmuls give the
    bits of one pass over all rows. A fixed BLOCK_ROWS stride would leave
    a short last block, which can differ in the last bits.
    """
    n_blocks = max(1, -(-len(arrays[0]) // BLOCK_ROWS))
    return zip(*(np.array_split(a, n_blocks) for a in arrays))


@lru_cache(maxsize=8)
def _mel_filterbank_cached(params: FrameParams) -> np.ndarray:
    mel_points = np.linspace(hz_to_mel(params.fmin), hz_to_mel(params.fmax), params.n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(params.fft_size // 2 + 1) * (SAMPLE_RATE / params.fft_size)

    bank = np.zeros((params.n_mels, len(bin_freqs)))
    for j in range(params.n_mels):
        lo, center, hi = hz_points[j], hz_points[j + 1], hz_points[j + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        bank[j] = np.maximum(0.0, np.minimum(rising, falling))
    sums = bank.sum(axis=1)
    if np.any(sums <= 0.0):
        raise ValueError("mel filter with empty support; increase fft_size or reduce n_mels")
    return bank / sums[:, None]


def mel_filterbank(params: FrameParams) -> np.ndarray:
    """Triangular mel filterbank, one row per channel, rows normalized to unit area."""
    return _mel_filterbank_cached(params).copy()


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


def power_spectrum(frame: np.ndarray, params: FrameParams = FrameParams()) -> np.ndarray:
    """One-sided power spectrum of a single windowed, zero-padded frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (params.frame_len,):
        raise ValueError(f"frame must have length {params.frame_len}, got {frame.shape}")
    windowed = frame * hann_periodic(params.frame_len)
    spectrum = np.fft.rfft(windowed, n=params.fft_size)
    return np.abs(spectrum) ** 2


def log_mel_spectrogram(audio: AudioBuffer, params: FrameParams = FrameParams()) -> LogMelSpectrogram:
    """Full front end: framing, Hann window, power FFT, mel filtering, natural log.

    Every output entry is >= ln(log_floor). Works through ``row_blocks``,
    so the FFT and mel temporaries stay cache-sized; the bits equal one
    pass over all frames.
    """
    frames = frame_signal(audio, params)
    window = hann_periodic(params.frame_len)
    bank_t = mel_filterbank(params).T
    values = np.empty((len(frames), params.n_mels))
    for rows, out in row_blocks(frames, values):
        power = np.abs(np.fft.rfft(rows * window, n=params.fft_size, axis=1))
        np.square(power, out=power)
        np.matmul(power, bank_t, out=out)
        np.maximum(out, params.log_floor, out=out)
        np.log(out, out=out)
    return LogMelSpectrogram(values)
