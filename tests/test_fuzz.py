"""Seeded mutation fuzz through the CLI's ``main``.

Every input here is a valid file with some bytes truncated, overwritten or
bit-flipped: a WAV, a model or a manifest, and for ``synth`` and ``bench``
one WAV among valid ones in a directory. Whatever the mutation, every
command that reads the file (``estimate``, ``features``, ``evaluate``,
``ground-truth``, ``synth``, ``bench`` and ``train``) must exit 0 or 2 and
never raise: malformed input is a data error, not a crash.
"""

import struct

import numpy as np
import pytest
from scipy.io import wavfile

from conftest import make_model
from revparams.acoustics import synth_rir
from revparams.audio_io import write_wav_pcm16
from revparams.cli import main
from revparams.corpus import build_corpus, make_speech_like
from revparams.grid import ClassGrid
from revparams.mlp import MAGIC, model_to_bytes

WAV_HEADER = 44  # RIFF, fmt and data chunk headers of write_wav_pcm16's output
# The headers and first samples of a WAV: an RIR's direct path, 16 ms in, is
# sample 256, about byte 1,100 of a float32 file.
WAV_HEAD = 2048
RVPM_HEADER = len(MAGIC) + 4


def mutate(blob: bytes, lo: int, hi: int, rng) -> bytes:
    """``blob`` truncated inside [lo, hi), or with 1-3 bytes there
    overwritten by random values or bit-flipped."""
    kind = rng.integers(3)
    if kind == 0:
        return blob[: rng.integers(lo, hi)]
    out = bytearray(blob)
    for pos in rng.integers(lo, hi, size=rng.integers(1, 4)):
        out[pos] = rng.integers(256) if kind == 1 else out[pos] ^ (1 << rng.integers(8))
    return bytes(out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Each fuzzed file's name: its path, its valid bytes and the argvs run
    on it, each checked to exit 0 on the valid files."""
    root = tmp_path_factory.mktemp("fuzz")
    wav, model = root / "speech.wav", root / "model.rvpm"
    write_wav_pcm16(wav, make_speech_like(0.5, seed=3))
    model.write_bytes(model_to_bytes(make_model(d=600, h=3, c=2)))
    speech = [make_speech_like(0.5, seed=10 + i) for i in range(2)]
    rirs = [synth_rir(0.4, 3.0, length=0.6, seed=20), synth_rir(0.7, 6.0, length=0.8, seed=21)]
    build_corpus(speech, rirs[:1], ["ambient", "none"], [10], ClassGrid(), seed=1, out_dir=root / "corpus")
    manifest = root / "corpus" / "manifest.csv"
    for directory in ("speech", "bench", "rirs"):
        (root / directory).mkdir()
    for i, audio in enumerate(speech):
        write_wav_pcm16(root / "speech" / f"{i}.wav", audio)
        write_wav_pcm16(root / "bench" / f"{i}.wav", audio)
    for i, rir in enumerate(rirs):
        # float32, as measured RIRs often are: a flipped bit can make a huge tap
        wavfile.write(root / "rirs" / f"{i}.wav", 16000, rir.taps.samples.astype(np.float32))

    fuzz_wav, fuzz_rvpm, fuzz_csv = root / "fuzz.wav", root / "fuzz.rvpm", manifest.with_name("fuzz.csv")
    estimate = ["estimate", str(fuzz_wav), "--model", str(fuzz_rvpm)]
    features = ["features", str(fuzz_wav), "--out", str(root / "feats.csv")]
    evaluate = ["evaluate", "--manifest", str(fuzz_csv), "--model", str(model), "--out", str(root / "f.csv")]
    dirs = ["--speech-dir", str(root / "speech"), "--rir-dir", str(root / "rirs")]
    synth = ["synth", *dirs, "--noise", "ambient,none", "--snr", "10", "--out", str(root / "synth")]
    bench = ["bench", "--model", str(model), "--audio-dir", str(root / "bench")]
    train = ["train", "--manifest", str(fuzz_csv), "--out", str(root / "t.rvpm"), "--epochs", "1", "--hidden", "4"]
    # name: (fuzzed path, valid file, argvs run on it)
    files = {
        "wav": (fuzz_wav, wav, [estimate, features]),
        "rvpm": (fuzz_rvpm, model, [estimate]),
        "csv": (fuzz_csv, manifest, [evaluate]),
        "rir": (root / "rir.wav", root / "rirs" / "0.wav", [["ground-truth", str(root / "rir.wav")]]),
        "speech-dir": (root / "speech" / "1.wav", root / "speech" / "1.wav", [synth]),
        "rir-dir": (root / "rirs" / "1.wav", root / "rirs" / "1.wav", [synth]),
        "bench-dir": (root / "bench" / "1.wav", root / "bench" / "1.wav", [bench]),
        "train-csv": (fuzz_csv, manifest, [train]),
    }
    files = {name: (path, valid.read_bytes(), argvs) for name, (path, valid, argvs) in files.items()}
    for path, blob, _ in files.values():
        path.write_bytes(blob)
    for _, _, argvs in files.values():
        for argv in argvs:
            assert main(argv) == 0, argv
    return files


def regions(files: dict) -> dict:
    """(fuzzed file, first byte, end byte) of each fuzzed region."""
    wav, rvpm = files["wav"][1], files["rvpm"][1]
    (mlen,) = struct.unpack_from("<I", rvpm, len(MAGIC))
    weights = RVPM_HEADER + mlen
    return {
        "wav-header": ("wav", 0, WAV_HEADER),
        "wav-body": ("wav", WAV_HEADER, len(wav)),
        "rvpm-header": ("rvpm", 0, RVPM_HEADER),
        "rvpm-manifest": ("rvpm", RVPM_HEADER, weights),
        # sorted keys: dims, filterbank, frame_params and grid come before
        # the long normalizer arrays
        "rvpm-manifest-keys": ("rvpm", RVPM_HEADER, rvpm.index(b'"normalizer"')),
        "rvpm-weights": ("rvpm", weights, len(rvpm)),
        "manifest-csv": ("csv", 0, None),
        "ground-truth-rir": ("rir", 0, WAV_HEAD),
        "synth-speech-wav": ("speech-dir", 0, WAV_HEAD),
        "synth-rir-wav": ("rir-dir", 0, WAV_HEAD),
        "bench-wav": ("bench-dir", 0, WAV_HEAD),
        "train-manifest-csv": ("train-csv", 0, None),
    }


# region: (seed, cases). The first seven seeds are those regions' places in
# their sorted list, which seeded them before the later regions were added.
CASES = {
    "wav-header": (6, 100),
    "wav-body": (5, 40),
    "rvpm-header": (1, 40),
    "rvpm-manifest": (2, 60),
    "rvpm-manifest-keys": (3, 80),
    "rvpm-weights": (4, 40),
    "manifest-csv": (0, 120),
    "ground-truth-rir": (7, 200),
    "synth-speech-wav": (8, 100),
    "synth-rir-wav": (9, 150),
    "bench-wav": (10, 100),
    "train-manifest-csv": (11, 200),
}


@pytest.mark.parametrize("region", list(CASES))
def test_mutated_input_exits_0_or_2(region, inputs, capsys):
    for path, blob, _ in inputs.values():
        path.write_bytes(blob)
    target, lo, hi = regions(inputs)[region]
    path, blob, argvs = inputs[target]
    hi = len(blob) if hi is None else hi

    seed, n_cases = CASES[region]
    rng = np.random.default_rng(seed)
    codes, failures = [], []
    for case in range(n_cases):
        path.write_bytes(mutate(blob, lo, hi, rng))
        for argv in argvs:
            try:
                codes.append(main(argv))
            except Exception as exc:  # the contract under test: nothing escapes main
                failures.append((case, argv[0], f"{type(exc).__name__}: {exc}"))
            capsys.readouterr()
    assert failures == []
    assert set(codes) <= {0, 2}
