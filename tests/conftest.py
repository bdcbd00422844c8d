import os
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from revparams.acoustics import synth_rir
from revparams.audio_io import write_wav_pcm16
from revparams.corpus import make_speech_like
from revparams.grid import ClassVocabulary
from revparams.mlp import FeatureNormalizer, MlpModel


def make_model(d=5, h=3, c=2, seed=0, normalizer=None, vocabulary=None):
    """Random small model with an identity normalizer (for unit tests)."""
    rng = np.random.default_rng(seed)
    if vocabulary is None:
        vocabulary = ClassVocabulary(tuple((0, j) for j in range(c)))
    return MlpModel(
        w1=rng.standard_normal((h, d)),
        b1=rng.standard_normal(h),
        w2=rng.standard_normal((c, h)),
        b2=rng.standard_normal(c),
        normalizer=normalizer or FeatureNormalizer(np.zeros(d), np.ones(d)),
        vocabulary=vocabulary,
        seed=seed,
    )


def seeded_model(d=600, h=256, c=168, seed=11):
    """Model of the estimator's size with a non-trivial normalizer and
    weights scaled so hidden units span saturated and linear regimes."""
    rng = np.random.default_rng(seed)
    norm = FeatureNormalizer(rng.standard_normal(d), rng.uniform(0.5, 2.0, d))
    model = make_model(d=d, h=h, c=c, seed=seed, normalizer=norm)
    model.w1 *= 0.15
    model.w2 *= 0.5
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def write_data_dirs(root):
    """Tiny speech + RIR directories for corpus commands, under ``root``."""
    speech_dir = root / "speech"
    rir_dir = root / "rirs"
    speech_dir.mkdir()
    rir_dir.mkdir()
    for i in range(4):
        write_wav_pcm16(speech_dir / f"utt_{i}.wav", make_speech_like(0.5, seed=200 + i))
    for i, (t60, drr) in enumerate([(0.25, 0.5), (0.65, 9.5)]):
        rir = synth_rir(t60, drr, length=1.2 * t60, seed=300 + i)
        # float32 wav keeps the analyzed ground truth intact
        wavfile.write(rir_dir / f"rir_{i}.wav", 16000, rir.taps.samples.astype(np.float32))
    return speech_dir, rir_dir


@pytest.fixture
def data_dirs(tmp_path):
    return write_data_dirs(tmp_path)


def peak_rss_line() -> str | None:
    """This process's peak resident set size, or None where ``resource``
    is missing (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    # ru_maxrss counts KiB on Linux and bytes on macOS
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    return f"peak RSS of this pytest run: {maxrss:.0f} MB (ru_maxrss)"


def pytest_terminal_summary(terminalreporter):
    """Report the run's peak memory, which in the tier-1 run is c6's, also
    to a GitHub Actions step summary when there is one. It only reports:
    it never fails a run."""
    line = peak_rss_line()
    if line is None:
        return
    terminalreporter.write_line(line)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        try:
            with open(summary, "a") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            terminalreporter.write_line(f"could not append to GITHUB_STEP_SUMMARY: {exc}")
