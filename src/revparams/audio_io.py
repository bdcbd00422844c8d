"""WAV file reading/writing and the in-memory audio buffer type.

All pipeline entry points operate on mono 16 kHz audio. Files at other
sample rates are rejected outright; there is no resampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.io import wavfile

SAMPLE_RATE = 16000

PCM16_SCALE = 32768.0


@dataclass
class AudioBuffer:
    """A single-channel signal at SAMPLE_RATE.

    Samples are dimensionless amplitudes, nominally full scale at +-1.0.
    """

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"audio must be single-channel, got shape {self.samples.shape}")
        # One NaN or inf spreads through the feature FFTs into every frame.
        if not np.isfinite(self.samples).all():
            raise ValueError("audio contains non-finite samples (NaN or inf)")

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self.samples) / SAMPLE_RATE

    def __len__(self) -> int:
        return len(self.samples)


def read_wav(path, channel: int = 0) -> AudioBuffer:
    """Read a 16 kHz RIFF/WAVE file into an AudioBuffer.

    Accepts PCM 16-bit signed little-endian or IEEE float-32. 16-bit samples
    map to [-1, 1) by division by 32768. Multichannel files are reduced to
    the requested channel (default 0). Other sample rates are rejected.

    A file that cannot be opened raises OSError; a malformed one raises
    ValueError naming it.
    """
    try:
        rate, data = wavfile.read(path)
    except OSError:
        raise
    except Exception as exc:
        # scipy's parser fails on malformed headers with whatever its
        # arithmetic hits: struct.error, UnboundLocalError, ZeroDivisionError...
        raise ValueError(f"{path}: not a readable WAV file ({type(exc).__name__}: {exc})") from exc
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate {rate} Hz not supported, expected {SAMPLE_RATE} Hz")
    if data.ndim == 2:
        if not 0 <= channel < data.shape[1]:
            raise ValueError(f"{path}: channel {channel} out of range for {data.shape[1]} channels")
        data = data[:, channel]
    elif data.ndim != 1:
        raise ValueError(f"{path}: unsupported data layout {data.shape}")

    if data.dtype == np.int16:
        samples = data.astype(np.float64) / PCM16_SCALE
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported sample format {data.dtype}, need int16 or float32")
    return AudioBuffer(samples)


def write_wav_pcm16(path, audio: AudioBuffer) -> None:
    """Write an AudioBuffer as 16-bit PCM, clipping to full scale."""
    clipped = np.clip(audio.samples, -1.0, 32767.0 / PCM16_SCALE)
    pcm = np.round(clipped * PCM16_SCALE).astype(np.int16)
    wavfile.write(path, SAMPLE_RATE, pcm)
