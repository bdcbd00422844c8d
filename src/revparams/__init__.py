"""Blind joint estimation of room reverberation time (T60) and
direct-to-reverberation ratio (DRR) from single-channel noisy speech,
via 2D Gabor spectro-temporal features and an MLP classifier over a
discrete (T60, DRR) grid — plus the non-blind ground-truth, corpus
synthesis and evaluation machinery needed to train and validate it.
"""

from .acoustics import (
    Rir,
    compute_drr,
    estimate_t60_from_edc,
    schroeder_edc,
    synth_rir,
)
from .audio_io import SAMPLE_RATE, AudioBuffer, read_wav, write_wav_pcm16
from .corpus import (
    CorpusItem,
    CorpusManifest,
    build_corpus,
    convolve,
    gen_noise,
    make_speech_like,
    mix_at_snr,
    read_manifest_items,
    write_manifest_csv,
)
from .estimator import Estimate, StageTimes, decide, estimate_utterance, pipeline_for, temporal_average
from .evaluate import (
    BoxStats,
    EvalRecord,
    EvalResult,
    RtfReport,
    boxplot_stats,
    evaluate,
    fps_to_rtf,
    measure_rtf,
)
from .frontend import (
    FrameMatrix,
    FrameParams,
    frame_signal,
    log_mel_spectrogram,
    mel_filterbank,
    power_spectrum,
)
from .gabor import (
    GaborFilter,
    GaborFilterbank,
    GaborFilterSpec,
    build_diagonal_filterbank,
    export_filterbank,
    extract_features,
    hann_product_envelope,
    make_gabor_filter,
)
from .grid import ClassGrid, ClassVocabulary, build_vocabulary, cell_of, center_of
from .mlp import (
    FeatureNormalizer,
    MlpModel,
    TrainConfig,
    fit_normalizer,
    forward,
    gradient,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_model,
    train,
)

__version__ = "0.1.0"
