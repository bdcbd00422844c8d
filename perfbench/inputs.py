"""Seeded benchmark inputs: synthetic rooms, noisy reverberant recordings
written as WAV files, and labelled Gabor-feature training sets.

Everything is built through the package's public functions from one seed,
so the same seed always gives the same inputs. Call
``benchenv.import_package()`` before importing this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import revparams as rp

# The twelve (T60 s, DRR dB) rooms of the desk-scale experiment. Each sits
# inside its own 100 ms x 1 dB grid cell, far enough from the cell edges that
# every RIR realization analyses back into the same cell.
ROOMS = tuple((t60, drr) for t60 in (0.25, 0.45, 0.65) for drr in (-3.5, 0.5, 4.5, 9.5))
NOISE_KINDS = ("ambient", "babble", "fan")
SNRS_DB = (0.0, 10.0, 20.0)
CONDITIONS = tuple((kind, snr) for kind in NOISE_KINDS for snr in SNRS_DB)

# One RIR length for every room, so recordings made from equal-length speech
# have equal lengths whatever the room.
RIR_S = 0.75
RIR_SAMPLES = int(round(RIR_S * rp.SAMPLE_RATE))

# Recordings are peak-limited like the corpus builder's, before 16-bit output.
PEAK = 0.99


@dataclass(frozen=True)
class Item:
    """One recording on disk and the grid cell of its room's ground truth."""

    path: str
    cell: tuple


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def room_rirs(seed: int) -> list:
    """One RIR realization of each room, in ROOMS order."""
    rng = np.random.default_rng(seed)
    return [rp.synth_rir(t60, drr, length=RIR_S, seed=_seed(rng)) for t60, drr in ROOMS]


def ground_truth_cells(rirs, grid, tracer) -> list:
    """Analysed (T60, DRR) grid cell of each room's RIR."""
    with tracer.span("acoustics.ground_truth"):
        cells = [
            rp.cell_of(grid, rp.estimate_t60_from_edc(rp.schroeder_edc(r)), rp.compute_drr(r))
            for r in rirs
        ]
    if len(set(cells)) != len(ROOMS):
        raise RuntimeError(f"rooms do not analyse into {len(ROOMS)} distinct cells: {cells}")
    return cells


def long_recordings(n_items: int, speech_s: float, rirs, seed: int, out_dir, grid, tracer) -> list:
    """``n_items`` recordings of ``speech_s`` seconds of speech each, one room
    per recording (cycling through the twelve in a seeded order).

    Each recording is a meeting rather than one talker: 2 s turns of talkers
    drawn from a shared pool, under background noise that steps through all
    nine (kind, SNR) conditions in a seeded order. Averaged over a minute of
    varied talkers and noise, the decision depends on the room rather than
    on which talker or condition a seed drew, so accuracy is steady across
    seeds.
    """
    rng = np.random.default_rng(seed)
    cells = ground_truth_cells(rirs, grid, tracer)
    turn_s = 2.0
    turns = int(round(speech_s / turn_s))
    room_order = rng.permutation(len(ROOMS))
    items = []
    with tracer.span("corpus.build"):
        pool = [rp.make_speech_like(turn_s, seed=_seed(rng)).samples for _ in range(2 * turns)]
        for j in range(n_items):
            room = int(room_order[j % len(ROOMS)])
            speech = np.concatenate([pool[i] for i in rng.permutation(len(pool))[:turns]])
            mixed = []
            for block, c in zip(np.array_split(speech, len(CONDITIONS)), rng.permutation(len(CONDITIONS))):
                kind, snr = CONDITIONS[c]
                block = rp.AudioBuffer(block)
                noise = rp.gen_noise(kind, block.duration, seed=_seed(rng))
                mixed.append(rp.mix_at_snr(block, noise, snr).samples)
            wet = rp.convolve(rp.AudioBuffer(np.concatenate(mixed)), rirs[room])
            wet.samples *= min(1.0, PEAK / np.abs(wet.samples).max())
            path = os.path.join(out_dir, f"long_{j:03d}.wav")
            rp.write_wav_pcm16(path, wet)
            items.append(Item(path, cells[room]))
    return items


def short_speech_samples(n_items: int, rng: np.random.Generator, lo_s=0.5, hi_s=3.0) -> list:
    """Speech lengths in samples, in [lo_s, hi_s] seconds, whose reverberant
    recordings all have a different number of frames (so no two inputs share
    an FFT length)."""
    params = rp.FrameParams()

    def frames(n_speech):
        return (n_speech + RIR_SAMPLES - 1 - params.frame_len) // params.hop + 1

    lo, hi = int(lo_s * rp.SAMPLE_RATE), int(hi_s * rp.SAMPLE_RATE)
    choices = np.arange(frames(lo) + 1, frames(hi))
    if n_items > len(choices):
        raise ValueError(f"only {len(choices)} distinct frame counts between {lo_s} and {hi_s} s")
    lengths = []
    for n_frames in rng.permutation(choices)[:n_items]:
        base = (int(n_frames) - 1) * params.hop + params.frame_len - (RIR_SAMPLES - 1)
        lengths.append(base + int(rng.integers(params.hop)))
    if len({frames(n) for n in lengths}) != n_items:
        raise RuntimeError("speech lengths do not give distinct frame counts")
    return lengths


def short_recordings(n_items: int, rirs, seed: int, out_dir, grid, tracer) -> list:
    """``n_items`` one-talker recordings of 0.5-3 s speech, each with a
    different number of frames, each in one room and one noise condition.
    Rooms cycle through all twelve and conditions through all nine, in a
    seeded order, so every seed sees the same balanced mix of difficulty."""
    rng = np.random.default_rng(seed)
    cells = ground_truth_cells(rirs, grid, tracer)
    lengths = short_speech_samples(n_items, rng)
    room_order = rng.permutation(len(ROOMS))
    condition_order = rng.permutation(len(CONDITIONS))
    rooms = [int(room_order[j % len(ROOMS)]) for j in range(n_items)]
    conditions = [int(condition_order[(j + j // len(ROOMS)) % len(CONDITIONS)]) for j in range(n_items)]
    speech_seeds = [_seed(rng) for _ in range(n_items)]
    corpus_seeds = [_seed(rng) for _ in CONDITIONS]
    items = [None] * n_items
    with tracer.span("corpus.build"):
        speech = [rp.make_speech_like(n / rp.SAMPLE_RATE, seed=s) for n, s in zip(lengths, speech_seeds)]
        for c, (kind, snr) in enumerate(CONDITIONS):
            members = [j for j in range(n_items) if conditions[j] == c]
            if not members:
                continue
            group_dir = os.path.join(out_dir, f"cond{c}")
            manifest = rp.build_corpus(
                [speech[j] for j in members],
                [rirs[rooms[j]] for j in members],
                [kind],
                [snr],
                grid,
                seed=corpus_seeds[c],
                out_dir=group_dir,
            )
            for j, item in zip(members, manifest.items):
                items[j] = Item(os.path.join(group_dir, item.path), cells[rooms[j]])
    return items


def training_corpus(seed: int, rirs, utterances_per_room: int, speech_s, grid, tracer):
    """The desk-scale recipe: every utterance crossed with every noise
    condition, utterance i recorded in room ``i % 12``. Returns the corpus
    manifest (buffers in memory) and the utterances."""
    rng = np.random.default_rng(seed)
    ground_truth_cells(rirs, grid, tracer)
    n_speech = utterances_per_room * len(ROOMS)
    durations = rng.uniform(*speech_s, size=n_speech)
    speech_seeds = [_seed(rng) for _ in range(n_speech)]
    with tracer.span("corpus.build"):
        speech = [rp.make_speech_like(float(d), seed=s) for d, s in zip(durations, speech_seeds)]
        manifest = rp.build_corpus(speech, rirs, NOISE_KINDS, SNRS_DB, grid, seed=_seed(rng))
    return manifest, speech


def features(manifest, params, bank, tracer) -> list:
    """(float32 T x 600 Gabor features, class id) for every corpus item."""
    dataset = []
    for item in manifest.items:
        with tracer.span("frontend.logmel") as span:
            spec = rp.log_mel_spectrogram(item.buffer, params)
            span.count = spec.n_frames
        with tracer.span("gabor.extract") as span:
            feats = rp.extract_features(spec, bank)
            span.count = feats.n_frames
        dataset.append((feats.values.astype(np.float32), item.class_id))
    return dataset


def rerecorded(speech, rirs, seed: int, out_dir, grid, tracer) -> list:
    """The utterances ``speech`` (utterance i in room ``i % 12``) recorded
    again in every noise condition with fresh noise, written as WAV."""
    cells = ground_truth_cells(rirs, grid, tracer)
    with tracer.span("corpus.build"):
        manifest = rp.build_corpus(speech, rirs, NOISE_KINDS, SNRS_DB, grid, seed=seed, out_dir=out_dir)
    return [Item(os.path.join(out_dir, it.path), cells[it.rir_id]) for it in manifest.items]
