"""Labeled noisy reverberant corpus synthesis.

Pipeline per item (matching how the evaluation data this estimator targets
was produced): noise is added to the anechoic utterance at an exact SNR
first, and the sum is then convolved with the room impulse response, so the
noise is reverberated too.

Noise kinds are synthetic stand-ins with the right coarse character:
``ambient`` is pink noise from a cascaded first-order IIR approximation,
``fan`` is pink noise low-passed at 500 Hz, and ``babble`` sums four
amplitude-modulated speech-shaped noise sources. All are unit RMS before
SNR scaling. Each function here imports scipy.signal itself: only
synthesis uses it, so estimating never loads it.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .acoustics import Rir, compute_drr, estimate_t60_from_edc, schroeder_edc
from .audio_io import SAMPLE_RATE, AudioBuffer, read_wav, write_wav_pcm16
from .grid import ClassGrid, ClassVocabulary, build_vocabulary, cell_of
from .parallel import map_items

NOISE_KINDS = ("ambient", "babble", "fan", "none")

# Matched-z pole/zero corner frequencies (Hz) for the pink (-3 dB/octave)
# approximation; each zero sits sqrt(10) above its pole, pairs one decade
# apart, giving -10 dB/decade with small ripple across 20 Hz .. 8 kHz.
_PINK_POLES_HZ = (12.0, 120.0, 1200.0, 6000.0)
_PINK_ZEROS_HZ = (37.9, 379.0, 3795.0, 18974.0)

_NYQUIST_HZ = SAMPLE_RATE / 2.0
_WARMUP = SAMPLE_RATE // 2  # 0.5 s of filter start-up, generated and dropped


@dataclass
class CorpusItem:
    path: str | None
    buffer: AudioBuffer | None
    rir_id: int
    noise_kind: str
    snr_db: float | None
    t60: float
    drr: float
    class_id: int

    def audio(self) -> AudioBuffer:
        """The item's audio: its buffer, or else the WAV at its path."""
        if self.buffer is not None:
            return self.buffer
        if not self.path:
            raise ValueError("item has neither buffer nor path")
        return read_wav(self.path)


@dataclass
class CorpusManifest:
    items: list
    grid: ClassGrid
    vocabulary: ClassVocabulary


def convolve(speech: AudioBuffer, rir: Rir) -> AudioBuffer:
    """Full linear convolution; output length N + L - 1."""
    from scipy.signal import fftconvolve
    return AudioBuffer(fftconvolve(speech.samples, rir.taps.samples))


def _pink(n: int, rng: np.random.Generator) -> np.ndarray:
    from scipy.signal import lfilter
    x = rng.standard_normal(n + _WARMUP)
    for fp, fz in zip(_PINK_POLES_HZ, _PINK_ZEROS_HZ):
        rp = np.exp(-2.0 * np.pi * fp / SAMPLE_RATE)
        rz = np.exp(-2.0 * np.pi * fz / SAMPLE_RATE)
        x = lfilter([1.0, -rz], [1.0, -rp], x)
    return x[_WARMUP:]


def _unit_rms(x: np.ndarray) -> np.ndarray:
    rms = np.sqrt(np.mean(x**2))
    if rms <= 0.0:
        raise ValueError("cannot normalize an all-zero signal")
    return x / rms


def _babble_source(n: int, rng: np.random.Generator) -> np.ndarray:
    from scipy.signal import butter, lfilter
    carrier = lfilter(*butter(1, 500.0 / _NYQUIST_HZ, btype="low"), rng.standard_normal(n + _WARMUP))
    syllabic = lfilter(*butter(2, 3.5 / _NYQUIST_HZ, btype="low"), rng.standard_normal(n + _WARMUP))
    return (carrier * np.abs(syllabic))[_WARMUP:]


def gen_noise(kind: str, duration: float, seed) -> AudioBuffer:
    """Generate ``duration`` seconds of unit-RMS noise, deterministic per seed."""
    from scipy.signal import butter, lfilter
    if duration <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration * SAMPLE_RATE))
    rng = np.random.default_rng(seed)
    if kind == "ambient":
        x = _pink(n, rng)
    elif kind == "fan":
        x = lfilter(*butter(4, 500.0 / _NYQUIST_HZ, btype="low"), _pink(n, rng))
    elif kind == "babble":
        x = sum(_babble_source(n, rng) for _ in range(4))
    else:
        raise ValueError(f"unknown noise kind {kind!r}, expected one of {NOISE_KINDS[:3]}")
    return AudioBuffer(_unit_rms(x))


def _power_ratio(snr: float) -> float:
    """10^(snr/10), refused unless it is a finite positive number."""
    try:
        with np.errstate(over="ignore"):  # a numpy SNR overflows to inf, a Python float raises
            ratio = 10.0 ** (snr / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"SNR {snr:g} dB is out of range: 10^(SNR/10) is not a finite positive number")
    return ratio


def mix_at_snr(signal: AudioBuffer, noise: AudioBuffer, snr: float) -> AudioBuffer:
    """Add noise scaled so the full-signal mean-square SNR is exactly ``snr`` dB."""
    if len(noise) < len(signal):
        raise ValueError(f"noise ({len(noise)} samples) shorter than signal ({len(signal)})")
    sig = signal.samples
    nse = noise.samples[: len(sig)]
    p_sig = np.mean(sig**2)
    p_noise = np.mean(nse**2)
    if p_sig <= 0.0 or p_noise <= 0.0:
        raise ValueError("signal and noise must both have nonzero power")
    scale = np.sqrt(p_sig / (p_noise * _power_ratio(snr)))
    return AudioBuffer(sig + scale * nse)


def make_speech_like(duration: float, seed) -> AudioBuffer:
    """Synthetic speech-like utterance: a drifting harmonic voice with two
    random formant emphases, syllabic (~4 Hz) amplitude modulation and a
    faint broadband floor. Deterministic per seed; peak-normalized to 0.5.

    Stands in for recorded speech in desk-scale experiments.
    """
    from scipy.signal import butter, lfilter
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration * SAMPLE_RATE))

    f0 = rng.uniform(105.0, 225.0)
    drift = lfilter(*butter(2, 2.0 / _NYQUIST_HZ, btype="low"), rng.standard_normal(n))
    drift = drift / (np.abs(drift).max() + 1e-12)
    inst_f0 = f0 * (1.0 + 0.06 * drift)
    phase = 2.0 * np.pi * np.cumsum(inst_f0) / SAMPLE_RATE

    formants = rng.uniform((300.0, 900.0), (800.0, 2400.0))
    voiced = np.zeros(n)
    for h in range(1, int(4000.0 / f0) + 1):
        fh = h * f0
        gain = 1.0 / h
        gain *= 1.0 + 2.0 * np.exp(-0.5 * ((fh - formants[0]) / 150.0) ** 2)
        gain *= 1.0 + 1.5 * np.exp(-0.5 * ((fh - formants[1]) / 250.0) ** 2)
        voiced += gain * np.sin(h * phase + rng.uniform(0.0, 2.0 * np.pi))

    syllabic = lfilter(*butter(2, 4.0 / _NYQUIST_HZ, btype="low"), rng.standard_normal(n))
    envelope = np.abs(syllabic) / (np.abs(syllabic).max() + 1e-12)
    # clip weak stretches to silence so utterances have real pauses
    envelope = np.maximum(envelope - 0.2, 0.0)
    x = voiced * envelope + 0.003 * rng.standard_normal(n)
    return AudioBuffer(0.5 * x / (np.abs(x).max() + 1e-12))


def _render_item(utt: AudioBuffer, rir: Rir, kind: str, snr, child_seed) -> AudioBuffer:
    if kind == "none":
        if np.mean(utt.samples**2) <= 0.0:  # an all-zero item, which train and estimate refuse as silent
            raise ValueError("signal must have nonzero power")
        mixed = utt
    else:
        noise = gen_noise(kind, duration=utt.duration, seed=child_seed)
        mixed = mix_at_snr(utt, noise, snr)
    wet = convolve(mixed, rir)
    peak = np.abs(wet.samples).max()
    if peak > 0.99:
        wet = AudioBuffer(wet.samples * (0.99 / peak))
    return wet


def build_corpus(
    speech,
    rirs,
    noise_kinds,
    snrs,
    grid: ClassGrid,
    seed: int,
    out_dir=None,
    jobs: int = 1,
) -> CorpusManifest:
    """Assemble the labeled corpus: every utterance crossed with every
    (noise kind, SNR) condition, RIRs assigned circularly by utterance index.

    Each item is labeled with its RIR's analyzed ground truth and the
    matching vocabulary class id. With ``out_dir`` set, items are written as
    16-bit PCM WAVs next to a ``manifest.csv``; otherwise buffers are kept
    in memory. Item rendering parallelizes over ``jobs`` workers; outputs
    are identical for any job count because every item's noise seed is
    pre-assigned. An error about one RIR or item starts with its indices
    (0-based, in input order), such as ``utterance 2, RIR 0: ...``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    speech = list(speech)
    rirs = list(rirs)
    if not speech or not rirs:
        raise ValueError("need at least one utterance and one RIR")
    kinds = list(noise_kinds) if noise_kinds else ["none"]
    snr_list = [float(s) for s in snrs] if snrs else []
    conditions = []
    for kind in kinds:
        if kind == "none":
            conditions.append(("none", None))
        elif not snr_list:
            raise ValueError(f"noise kind {kind!r} requires at least one SNR")
        else:
            for snr in snr_list:
                _power_ratio(snr)  # refused as the SNR's error, before any item is rendered
                conditions.append((kind, snr))

    truths = []
    for rir_id, rir in enumerate(rirs):
        try:
            truths.append((estimate_t60_from_edc(schroeder_edc(rir)), compute_drr(rir)))
        except ValueError as exc:
            raise ValueError(f"RIR {rir_id}: {exc}") from exc
    vocabulary = build_vocabulary(grid, truths)

    children = np.random.SeedSequence(seed).spawn(len(speech) * len(conditions))
    tasks = []
    for i in range(len(speech)):
        rir_id = i % len(rirs)
        for kind, snr in conditions:
            tasks.append((i, rir_id, kind, snr, children[len(tasks)]))

    def render(task):
        i, rir_id, kind, snr, child = task
        try:
            return _render_item(speech[i], rirs[rir_id], kind, snr, child)
        except ValueError as exc:
            raise ValueError(f"utterance {i}, RIR {rir_id}: {exc}") from exc

    rendered = map_items(render, tasks, jobs)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    items = []
    for (i, rir_id, kind, snr, _), wet in zip(tasks, rendered):
        t60, drr = truths[rir_id]
        class_id = vocabulary.class_id_of(cell_of(grid, t60, drr))
        path = None
        buffer = wet
        if out_dir is not None:
            path = f"item_{len(items):05d}.wav"
            write_wav_pcm16(os.path.join(out_dir, path), wet)
            buffer = None
        items.append(CorpusItem(path, buffer, rir_id, kind, snr, t60, drr, class_id))

    manifest = CorpusManifest(items, grid, vocabulary)
    if out_dir is not None:
        write_manifest_csv(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest


MANIFEST_COLUMNS = ("path", "rir_id", "noise_kind", "snr_db", "t60_s", "drr_db", "class_id")


def write_manifest_csv(manifest: CorpusManifest, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for item in manifest.items:
            writer.writerow(
                [
                    item.path or "",
                    item.rir_id,
                    item.noise_kind,
                    "" if item.snr_db is None else f"{item.snr_db:g}",
                    f"{item.t60:.6f}",
                    f"{item.drr:.6f}",
                    item.class_id,
                ]
            )


def _number(row: dict, column: str, kind=float):
    """``kind(row[column])``, checked to parse and to be finite."""
    text = row[column]
    try:
        value = kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ValueError(f"column {column!r} holds {text!r}, not {expected}") from None
    if not math.isfinite(value):
        raise ValueError(f"column {column!r} holds {text!r}, not a finite number")
    return value


def _manifest_item(row: dict, base: str) -> CorpusItem:
    # DictReader fills a short row's missing fields with None and files a
    # long row's extra fields under the key None.
    if None in row or None in row.values():
        raise ValueError("row does not have one field per column")
    audio_path = row["path"]
    if audio_path and not os.path.isabs(audio_path):
        audio_path = os.path.join(base, audio_path)
    return CorpusItem(
        path=audio_path or None,
        buffer=None,
        rir_id=_number(row, "rir_id", int),
        noise_kind=row["noise_kind"],
        snr_db=_number(row, "snr_db") if row["snr_db"] else None,
        t60=_number(row, "t60_s"),
        drr=_number(row, "drr_db"),
        class_id=_number(row, "class_id", int),
    )


def read_manifest_items(path) -> list:
    """Read manifest.csv rows back as CorpusItems; relative audio paths are
    resolved against the manifest's directory.

    A missing column, a row with missing or extra fields, a non-numeric
    field, or a non-finite SNR, T60 or DRR raises ValueError naming the
    file and line.
    """
    base = os.path.dirname(os.path.abspath(path))
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            missing = set(MANIFEST_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"manifest missing columns {sorted(missing)}")
            return [_manifest_item(row, base) for row in reader]
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
