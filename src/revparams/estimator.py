"""End-to-end blind (T60, DRR) estimation.

Pipeline: audio -> log-mel spectrogram -> Gabor features -> per-frame class
posteriors -> temporal average over the utterance -> winner-takes-all ->
cell-center (T60, DRR) estimate.

The front end is fixed: ``FrameParams()`` and one Gabor filterbank, built
once at import and shared read-only. No call passes a front end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .frontend import FrameParams, log_mel_spectrogram
from .gabor import GaborFilterbank, build_diagonal_filterbank, extract_features
from .grid import ClassGrid, ClassVocabulary, center_of
from .mlp import MlpModel, forward


@dataclass
class Estimate:
    t60_hat: float
    drr_hat: float
    class_id: int
    mean_posterior: np.ndarray
    n_frames: int


@dataclass(frozen=True)
class StageTimes:
    """Wall-clock seconds of one utterance's three timed stages: audio to
    log-mel spectrogram, log-mel to Gabor features, and the MLP forward
    pass."""

    logmel_s: float
    gabor_s: float
    mlp_s: float

    @property
    def total_s(self) -> float:
        return self.logmel_s + self.gabor_s + self.mlp_s


def temporal_average(posteriors: np.ndarray) -> np.ndarray:
    """Arithmetic mean of (T, C) per-frame posteriors over the utterance."""
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 2 or posteriors.size == 0:
        raise ValueError(f"need (T, C) posteriors with at least one frame, got shape {posteriors.shape}")
    return posteriors.mean(axis=0)


def decide(mean_posterior: np.ndarray, vocabulary: ClassVocabulary, grid: ClassGrid) -> tuple:
    """Winner-takes-all: (class_id, t60_hat, drr_hat) of the highest mean
    activation; exact ties break toward the lowest class index."""
    mean_posterior = np.asarray(mean_posterior)
    if mean_posterior.ndim != 1 or len(mean_posterior) != len(vocabulary):
        raise ValueError(f"posterior length {mean_posterior.shape} != vocabulary size {len(vocabulary)}")
    class_id = int(np.argmax(mean_posterior))
    t60_hat, drr_hat = center_of(grid, vocabulary.cells[class_id])
    return class_id, t60_hat, drr_hat


_FILTERBANK = build_diagonal_filterbank(FrameParams().n_mels, FrameParams().frame_rate())


def filterbank() -> GaborFilterbank:
    """The Gabor filterbank of the fixed front end, built once at import
    and shared, read-only, by every caller and thread."""
    return _FILTERBANK


def gabor_features(audio: AudioBuffer) -> np.ndarray:
    """Audio -> log-mel spectrogram -> Gabor features, (T, 600): one row per frame."""
    return extract_features(log_mel_spectrogram(audio, FrameParams()), filterbank()).values


def pipeline_for(model: MlpModel) -> tuple:
    """(filterbank, frame params): the fixed front end, in ``estimate_utterance``'s form."""
    return filterbank(), model.frame_params


def frame_posteriors(audio: AudioBuffer, model: MlpModel) -> tuple:
    """Per-frame class posteriors (T x C) and the wall-clock StageTimes
    that produced them.

    Raises, in this order, for a filterbank the model was not trained on,
    for audio below one frame ("input too short") and for constant audio.
    """
    if filterbank().feature_dim != model.d:
        raise ValueError(f"filterbank feature dim {filterbank().feature_dim} != model input dim {model.d}")
    params = FrameParams()
    # Constant audio (silence or a DC offset) carries no reverberation cue,
    # yet the MLP still picks a cell. Refused before the front end runs;
    # audio below one frame is left to its "input too short".
    samples = audio.samples
    if len(samples) >= params.frame_len and not (samples != samples[0]).any():
        raise ValueError("silent input: every sample equals the first")
    t0 = time.perf_counter()
    spec = log_mel_spectrogram(audio, params)
    t1 = time.perf_counter()
    feats = extract_features(spec, filterbank()).values
    t2 = time.perf_counter()
    post = forward(model, feats)
    t3 = time.perf_counter()
    return post, StageTimes(t1 - t0, t2 - t1, t3 - t2)


def estimate_from_posteriors(posteriors: np.ndarray, model: MlpModel) -> Estimate:
    """Average per-frame posteriors over the utterance and pick the winning cell."""
    mean_post = temporal_average(posteriors)
    # argmax returns the first NaN's index: a confident-looking wrong answer.
    if not np.isfinite(mean_post).all():
        raise ValueError("non-finite mean posterior: the model or its input is malformed")
    class_id, t60_hat, drr_hat = decide(mean_post, model.vocabulary, model.grid)
    return Estimate(t60_hat, drr_hat, class_id, mean_post, posteriors.shape[0])


def estimate_utterance(
    audio: AudioBuffer,
    model: MlpModel,
    bank: GaborFilterbank,
    params: FrameParams,
) -> Estimate:
    """Blind (T60, DRR) estimate for one utterance, as ``frame_posteriors``
    gives it. ``bank`` and ``params`` are unused: the front end is fixed.

    Deterministic for fixed inputs; raises "input too short" for audio
    below one frame.
    """
    return estimate_from_posteriors(frame_posteriors(audio, model)[0], model)
