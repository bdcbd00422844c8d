"""WAV file reading/writing and the in-memory audio buffer type.

All pipeline entry points operate on mono 16 kHz audio. Files at other
sample rates are rejected outright; there is no resampling. ``read_wav``
parses RIFF itself, with numpy alone; only ``write_wav_pcm16``, which
corpus synthesis calls, imports scipy. ``naming`` states the package's one
rule for refusals: a ValueError about one input starts with that input's
name, once, as ``read_wav``'s own messages start with its path.
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000

PCM16_SCALE = 32768.0

_SAMPLE_TYPES = {(1, 16): "<i2", (3, 32): "<f4", (3, 64): "<f8"}  # (format tag, bits) -> dtype


@contextlib.contextmanager
def naming(name):
    """Prefix a ValueError raised inside with ``name``, the input it is
    about, unless its message starts with it already (read_wav's do)."""
    try:
        yield
    except ValueError as exc:
        if str(exc).startswith(f"{name}: "):
            raise
        raise ValueError(f"{name}: {exc}") from exc


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

    Accepts PCM 16-bit signed little-endian or IEEE float-32 or float-64,
    also under a WAVE_FORMAT_EXTENSIBLE header. 16-bit samples map to
    [-1, 1) by division by 32768. The requested channel (default 0) is
    read; a channel the file lacks, or another sample rate, is refused. A
    data chunk cut short is read up to its last whole frame.

    A file that cannot be opened raises OSError; a malformed one raises
    ValueError naming it.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    chunks, pos = {}, 12  # the first 'fmt ' and 'data' chunks, as views cut at the end of the file
    while pos + 8 <= len(blob) and len(chunks) < 2:
        name, size = struct.unpack_from("<4sI", blob, pos)
        if name in (b"fmt ", b"data"):
            chunks.setdefault(name, blob[pos + 8 : pos + 8 + size])
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
    form, fmt = bytes(blob[:4]), chunks.get(b"fmt ", b"")
    if form != b"RIFF" or blob[8:12] != b"WAVE" or len(fmt) < 16 or b"data" not in chunks:
        problem = f"{form.decode()} is not supported" if form in (b"RF64", b"RIFX") else "no RIFF 'fmt ' and 'data'"
        raise ValueError(f"{path}: not a readable WAV file ({problem})")
    tag, channels, rate, byte_rate, align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == 0xFFFE and len(fmt) >= 26:  # WAVE_FORMAT_EXTENSIBLE: the subformat GUID opens with the tag
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if not 0 < align * 8 == channels * bits or byte_rate != rate * align:
        raise ValueError(f"{path}: not a readable WAV file (block align {align}, byte rate {byte_rate})")
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate {rate} Hz not supported, expected {SAMPLE_RATE} Hz")
    if not 0 <= channel < channels:
        raise ValueError(f"{path}: channel {channel} out of range for {channels} channels")
    dtype = _SAMPLE_TYPES.get((tag, bits))
    if dtype is None:
        raise ValueError(f"{path}: unsupported sample format (tag {tag}, {bits} bits), need int16, float32 or float64")
    frames = len(chunks[b"data"]) // align
    data = np.frombuffer(chunks[b"data"][: frames * align], dtype).reshape(frames, channels)[:, channel]
    samples = data.astype(np.float64)
    if dtype == "<i2":
        samples /= PCM16_SCALE
    return AudioBuffer(samples)


def write_wav_pcm16(path, audio: AudioBuffer) -> None:
    """Write an AudioBuffer as 16-bit PCM, clipping to full scale."""
    from scipy.io import wavfile
    clipped = np.clip(audio.samples, -1.0, 32767.0 / PCM16_SCALE)
    pcm = np.round(clipped * PCM16_SCALE).astype(np.int16)
    wavfile.write(path, SAMPLE_RATE, pcm)
