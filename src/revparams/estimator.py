"""End-to-end blind (T60, DRR) estimation.

Pipeline: audio -> log-mel spectrogram -> Gabor features -> per-frame class
posteriors -> temporal average over the utterance -> winner-takes-all ->
cell-center (T60, DRR) estimate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .frontend import FrameParams, log_mel_spectrogram
from .gabor import FeatureMatrix, GaborFilterbank, build_diagonal_filterbank, extract_features
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
    """Wall-clock seconds of one utterance's two timed stages: audio to
    Gabor features, and the MLP forward pass."""

    features_s: float
    mlp_s: float

    @property
    def total_s(self) -> float:
        return self.features_s + self.mlp_s


def temporal_average(posteriors: np.ndarray) -> np.ndarray:
    """Arithmetic mean of per-frame posteriors over the utterance."""
    posteriors = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    if posteriors.shape[0] < 1 or posteriors.size == 0:
        raise ValueError("need at least one frame of posteriors")
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


def filterbank_for(params: FrameParams) -> GaborFilterbank:
    """The Gabor filterbank matching a front end's mel channels and frame rate."""
    return build_diagonal_filterbank(params.n_mels, params.frame_rate())


def gabor_features(audio: AudioBuffer, bank: GaborFilterbank, params: FrameParams) -> FeatureMatrix:
    """Audio -> log-mel spectrogram -> Gabor features, one row per frame."""
    return extract_features(log_mel_spectrogram(audio, params), bank)


def pipeline_for(model: MlpModel) -> tuple:
    """(filterbank, frame params) matching a model's embedded configuration."""
    return filterbank_for(model.frame_params), model.frame_params


def frame_posteriors(
    audio: AudioBuffer,
    model: MlpModel,
    bank: GaborFilterbank,
    params: FrameParams,
) -> tuple:
    """Per-frame class posteriors (T x C) and the wall-clock StageTimes
    that produced them.

    Raises, in this order, for a filterbank the model was not trained on,
    for audio below one frame ("input too short") and for constant audio.
    """
    if bank.feature_dim != model.d:
        raise ValueError(f"filterbank feature dim {bank.feature_dim} != model input dim {model.d}")
    t0 = time.perf_counter()
    feats = gabor_features(audio, bank, params)
    t1 = time.perf_counter()
    # Constant audio (silence or a DC offset) carries no reverberation cue,
    # yet the MLP still picks a cell.
    samples = audio.samples
    if not (samples != samples[0]).any():
        raise ValueError("silent input: every sample equals the first")
    post = forward(model, feats.values)
    t2 = time.perf_counter()
    return post, StageTimes(t1 - t0, t2 - t1)


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
    """Blind (T60, DRR) estimate for one utterance.

    Deterministic for fixed inputs; raises "input too short" for audio
    below one frame.
    """
    return estimate_from_posteriors(frame_posteriors(audio, model, bank, params)[0], model)
