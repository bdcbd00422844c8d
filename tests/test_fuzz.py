"""Seeded mutation fuzz through the CLI's ``main``.

Every input here is a valid file with some bytes truncated, overwritten or
bit-flipped. Whatever the mutation, ``estimate``, ``features`` and
``evaluate`` must exit 0 or 2 and never raise: malformed input is a data
error, not a crash.
"""

import struct

import numpy as np
import pytest

from conftest import make_model
from revparams.acoustics import synth_rir
from revparams.audio_io import write_wav_pcm16
from revparams.cli import main
from revparams.corpus import build_corpus, make_speech_like
from revparams.grid import ClassGrid
from revparams.mlp import MAGIC, model_to_bytes

WAV_HEADER = 44  # RIFF, fmt and data chunk headers of write_wav_pcm16's output
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
    """A valid WAV, model and corpus manifest, each checked to exit 0."""
    root = tmp_path_factory.mktemp("fuzz")
    wav, model = root / "speech.wav", root / "model.rvpm"
    write_wav_pcm16(wav, make_speech_like(0.5, seed=3))
    model.write_bytes(model_to_bytes(make_model(d=600, h=3, c=2)))
    speech = [make_speech_like(0.5, seed=10 + i) for i in range(2)]
    rirs = [synth_rir(0.4, 3.0, length=0.6, seed=20)]
    build_corpus(speech, rirs, ["ambient", "none"], [10], ClassGrid(), seed=1, out_dir=root / "corpus")
    manifest = root / "corpus" / "manifest.csv"
    assert main(["estimate", str(wav), "--model", str(model)]) == 0
    assert main(["features", str(wav), "--out", str(root / "feats.csv")]) == 0
    assert main(["evaluate", "--manifest", str(manifest), "--model", str(model), "--out", str(root / "r.csv")]) == 0
    return root, wav, model, manifest


def regions(wav: bytes, rvpm: bytes) -> dict:
    """(file, first byte, end byte) of each fuzzed region."""
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
    }


CASES = {
    "wav-header": 100,
    "wav-body": 40,
    "rvpm-header": 40,
    "rvpm-manifest": 60,
    "rvpm-manifest-keys": 80,
    "rvpm-weights": 40,
    "manifest-csv": 120,
}


@pytest.mark.parametrize("region", list(CASES))
def test_mutated_input_exits_0_or_2(region, inputs, capsys):
    root, wav, model, manifest = inputs
    originals = {"wav": wav.read_bytes(), "rvpm": model.read_bytes(), "csv": manifest.read_bytes()}
    target, lo, hi = regions(originals["wav"], originals["rvpm"])[region]
    blob = originals[target]
    hi = len(blob) if hi is None else hi
    paths = {"wav": root / "fuzz.wav", "rvpm": root / "fuzz.rvpm", "csv": manifest.with_name("fuzz.csv")}
    for name, path in paths.items():
        path.write_bytes(originals[name])
    if target == "csv":
        argvs = [["evaluate", "--manifest", str(paths["csv"]), "--model", str(model), "--out", str(root / "f.csv")]]
    else:
        argvs = [["estimate", str(paths["wav"]), "--model", str(paths["rvpm"])]]
    if target == "wav":
        argvs.append(["features", str(paths["wav"]), "--out", str(root / "feats.csv")])

    rng = np.random.default_rng(sorted(CASES).index(region))
    codes, failures = [], []
    for case in range(CASES[region]):
        paths[target].write_bytes(mutate(blob, lo, hi, rng))
        for argv in argvs:
            try:
                codes.append(main(argv))
            except Exception as exc:  # the contract under test: nothing escapes main
                failures.append((case, argv[0], f"{type(exc).__name__}: {exc}"))
            capsys.readouterr()
    assert failures == []
    assert set(codes) <= {0, 2}
