import csv
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import revparams
from conftest import make_model
from revparams import cli
from revparams.audio_io import AudioBuffer, write_wav_pcm16
from revparams.cli import main
from revparams.corpus import make_speech_like
from revparams.mlp import MAGIC, model_to_bytes, save_model

SRC = str(Path(revparams.__file__).resolve().parents[1])


@pytest.fixture
def delta_wav(tmp_path):
    taps = np.zeros(1600)
    taps[100] = 0.9
    path = tmp_path / "delta.wav"
    write_wav_pcm16(path, AudioBuffer(taps))
    return path


def test_ground_truth_on_delta_prints_sentinel(delta_wav, capsys):
    assert main(["ground-truth", str(delta_wav)]) == 0
    out = capsys.readouterr().out
    assert "drr_db=400.00" in out
    assert "peak_sample=100" in out
    assert "t60_s=nan" in out


def test_estimate_with_missing_model_exits_2(delta_wav, capsys):
    code = main(["estimate", str(delta_wav), "--model", "/nonexistent/m.rvpm"])
    assert code == 2
    assert "error" in capsys.readouterr().err.lower()


@pytest.fixture
def model_600(tmp_path):
    """A small model whose input dimension matches the default filterbank."""
    path = tmp_path / "m600.rvpm"
    save_model(make_model(d=600, h=3, c=2), path)
    return path


def test_estimate_nan_audio_exits_2(model_600, tmp_path, capsys):
    samples = make_speech_like(0.5, seed=3).samples.astype(np.float32)
    samples[1000] = np.nan
    wav = tmp_path / "nan.wav"
    wavfile.write(wav, 16000, samples)
    assert main(["estimate", str(wav), "--model", str(model_600)]) == 2
    assert "non-finite" in capsys.readouterr().err


def _block_align_zero(wav: bytes) -> bytes:
    # nAvgBytesPerSec (offset 28) is zeroed too, so scipy's consistency
    # check passes and its frame count divides by nBlockAlign (offset 32).
    return wav[:28] + bytes(4) + wav[32:]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda wav: wav[:30],
        lambda wav: wav[:36] + b"zzzz" + wav[40:],
        _block_align_zero,
    ],
    ids=["truncated-header", "corrupt-chunk-header", "block-align-0"],
)
def test_estimate_malformed_wav_exits_2(mutate, model_600, tmp_path, capsys):
    wav = tmp_path / "speech.wav"
    write_wav_pcm16(wav, make_speech_like(0.5, seed=3))
    wav.write_bytes(mutate(wav.read_bytes()))
    assert main(["estimate", str(wav), "--model", str(model_600)]) == 2
    err = capsys.readouterr().err
    assert "not a readable WAV file" in err
    assert str(wav) in err
    assert "Traceback" not in err


def _run_cli(argv, cwd):
    """Run the CLI in a fresh interpreter, with Python's default warning
    filters; return (exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "revparams.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stderr


def _with_bext_chunk(wav: bytes) -> bytes:
    """A well-formed WAV with an extra 'bext' chunk between 'fmt ' and 'data'."""
    chunk = b"bext" + struct.pack("<I", 8) + bytes(8)
    wav = wav[:36] + chunk + wav[36:]
    return wav[:4] + struct.pack("<I", len(wav) - 8) + wav[8:]


def test_estimate_wav_with_unknown_chunk_leaves_stderr_empty(model_600, tmp_path):
    wav = tmp_path / "bext.wav"
    write_wav_pcm16(wav, make_speech_like(0.5, seed=3))
    wav.write_bytes(_with_bext_chunk(wav.read_bytes()))
    # two files over two threads: the warning is also silenced on workers
    code, err = _run_cli(["estimate", str(wav), str(wav), "--model", str(model_600), "--jobs", "2"], tmp_path)
    assert (code, err) == (0, "")


def test_estimate_corrupt_chunk_header_prints_only_the_error(model_600, tmp_path):
    wav = tmp_path / "speech.wav"
    write_wav_pcm16(wav, make_speech_like(0.5, seed=3))
    blob = wav.read_bytes()
    wav.write_bytes(blob[:36] + b"zzzz" + blob[40:])
    code, err = _run_cli(["estimate", str(wav), "--model", str(model_600)], tmp_path)
    assert code == 2
    assert err.startswith(f"error: {wav}: not a readable WAV file")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_truncated_manifest_exits_2_naming_the_line(command, model_600, tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,rir_id,noise_kind,snr_db,t60_s,drr_db,class_id\nitem_00000.wav,0,amb")
    argv = {
        "evaluate": ["--model", str(model_600), "--out", str(tmp_path / "r.csv")],
        "train": ["--out", str(tmp_path / "m.rvpm")],
    }[command]
    assert main([command, "--manifest", str(manifest), *argv]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {manifest}, line 2: row does not have one field per column\n"


def test_estimate_silent_audio_exits_2(model_600, tmp_path, capsys):
    wav = tmp_path / "silent.wav"
    write_wav_pcm16(wav, AudioBuffer(np.zeros(32000)))
    assert main(["estimate", str(wav), "--model", str(model_600)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "silent input" in captured.err


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_wav_pcm16(path, AudioBuffer(np.full(16000, 0.1))),
        lambda path: wavfile.write(path, 16000, np.full(16000, 3e38, dtype=np.float32)),
    ],
    ids=["pcm16-0.1", "float32-3e38"],
)
def test_estimate_constant_audio_exits_2(write, model_600, tmp_path, capsys):
    wav = tmp_path / "constant.wav"
    write(wav)
    assert main(["estimate", str(wav), "--model", str(model_600)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "silent input" in captured.err


def test_estimate_other_sample_rate_exits_2(model_600, tmp_path, capsys):
    wav = tmp_path / "8k.wav"
    wavfile.write(wav, 8000, (make_speech_like(1.0, seed=3).samples * 16000).astype(np.int16))
    assert main(["estimate", str(wav), "--model", str(model_600)]) == 2
    assert "sample rate 8000 Hz not supported" in capsys.readouterr().err


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


MANIFEST_HEADER = "path,rir_id,noise_kind,snr_db,t60_s,drr_db,class_id\n"


@pytest.mark.parametrize("rows", [[], ["constant.wav,0,ambient,10,0.5,3,0"]], ids=["header-only", "all-excluded"])
def test_evaluate_with_nothing_estimable_writes_strict_json(rows, model_600, tmp_path, capsys):
    write_wav_pcm16(tmp_path / "constant.wav", AudioBuffer(np.full(16000, 0.1)))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER + "".join(row + "\n" for row in rows))
    stats = tmp_path / "stats.json"
    argv = ["evaluate", "--manifest", str(manifest), "--model", str(model_600), "--out", str(tmp_path / "r.csv")]
    assert main([*argv, "--stats", str(stats), "--rtf"]) == 0
    captured = capsys.readouterr()
    assert _strict_json(captured.out) is None
    assert _strict_json(stats.read_text()) == {"excluded": len(rows), "groups": [], "rtf": None}
    assert captured.err.count("silent input") == len(rows)


@pytest.mark.parametrize("label", ["amb,ient", '"amb"ient', "amb\nient"], ids=["comma", "quote", "newline"])
def test_evaluate_results_csv_keeps_one_field_per_column(label, model_600, tmp_path):
    write_wav_pcm16(tmp_path / "a.wav", make_speech_like(0.5, seed=3))
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        fh.write(MANIFEST_HEADER)
        csv.writer(fh, lineterminator="\n").writerow(["a.wav", 0, label, 10, 0.5, 3, 0])
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--manifest", str(manifest), "--model", str(model_600), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 11
    assert row[header.index("noise")] == label


def _edit_manifest(blob: bytes, edit) -> bytes:
    """A model container whose JSON manifest went through ``edit``."""
    start = len(MAGIC) + 4
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    manifest = json.loads(blob[start : start + mlen])
    edit(manifest)
    mjson = json.dumps(manifest).encode("utf-8")
    return MAGIC + struct.pack("<I", len(mjson)) + mjson + blob[start + mlen :]


def _delete(manifest, dotted):
    *parents, key = dotted.split(".")
    for parent in parents:
        manifest = manifest[parent]
    del manifest[key]


@pytest.mark.parametrize(
    "key",
    [
        "dims",
        "normalizer",
        "vocabulary",
        "grid",
        "frame_params",
        "dims.h",
        "normalizer.mean",
        "grid.t60_step",
        "frame_params.hop",
        "filterbank",
        "seed",
    ],
)
def test_estimate_model_missing_manifest_key_exits_2(key, delta_wav, tmp_path, capsys):
    path = tmp_path / "broken.rvpm"
    path.write_bytes(_edit_manifest(model_to_bytes(make_model()), lambda m: _delete(m, key)))
    assert main(["estimate", str(delta_wav), "--model", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


def _set(section, key, value):
    return lambda blob: _edit_manifest(blob, lambda m: m[section].__setitem__(key, value))


# Dims whose weights would not fit in memory, an integer beyond float range
# and weights cut short: the container's length and numbers are checked in
# Python ints before numpy reads them.
BEYOND_RANGE = [
    (lambda blob: blob[:-9], "truncated"),
    (_set("dims", "h", 2**63), "truncated"),
    (_set("dims", "d", 10**30), "truncated"),
    (lambda blob: _edit_manifest(blob, lambda m: m["normalizer"]["mean"].__setitem__(0, 10**400)), "'normalizer.mean'"),
]
BEYOND_RANGE_IDS = ["weights-cut-9-bytes", "dims-h-2**63", "dims-d-10**30", "normalizer-int-10**400"]


def _manifest_byte(index: int, byte: bytes):
    start = len(MAGIC) + 4 + index
    return lambda blob: blob[:start] + byte + blob[start + 1 :]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: blob[:7], "truncated"),
        (lambda blob: blob[: len(MAGIC) + 4 + 10], "truncated"),
        (_set("grid", "bogus", 1), "'grid.bogus'"),
        (_set("frame_params", "bogus", 1), "'frame_params.bogus'"),
        (_set("dims", "h", 0), "positive integers"),
        (_set("normalizer", "mean", [0.0] * 4), "normalizer shapes"),
        (lambda blob: _edit_manifest(blob, lambda m: m["vocabulary"][-1].__setitem__(1, 99)), "outside"),
        (_set("grid", "t60_step", "x"), "'grid.t60_step'"),
        (_set("frame_params", "frame_len", "x"), "'frame_params.frame_len'"),
        (_set("frame_params", "hop", 160.5), "'frame_params.hop'"),
        (lambda blob: _edit_manifest(blob, lambda m: m["vocabulary"].__setitem__(0, 5)), "'vocabulary'"),
        (lambda blob: _edit_manifest(blob, lambda m: m.__setitem__("seed", "x")), "'seed'"),
        (lambda blob: _edit_manifest(blob, lambda m: m.__setitem__("seed", -5)), "'seed' must be >= 0, got -5"),
        (lambda blob: blob[:-4] + struct.pack("<f", float("nan")), "'b2'"),
        (
            lambda blob: _edit_manifest(blob, lambda m: m["normalizer"]["inv_std"].__setitem__(4, float("nan"))),
            "'normalizer.inv_std'",
        ),
        (lambda blob: _edit_manifest(blob, lambda m: m["normalizer"]["mean"].__setitem__(0, {})), "'normalizer.mean'"),
        (_set("normalizer", "inv_std", 1.0), "'normalizer.inv_std'"),
        (_set("frame_params", "fft_size", 2**28), "'frame_params.fft_size'"),
        (_set("frame_params", "hop", 1), "'frame_params.hop'"),
        (_set("frame_params", "hop", 160.0), "'frame_params.hop'"),
        (_set("grid", "drr_step", 2.0), "'grid.drr_step'"),
        (_set("filterbank", "frame_rate", 50.0), "'filterbank.frame_rate'"),
        (lambda blob: _edit_manifest(blob, lambda m: m.__setitem__("bogus", 1)), "unknown key 'bogus'"),
        (_set("dims", "d", True), "'dims.d'"),
        (lambda blob: MAGIC + struct.pack("<I", 100_000) + b"[" * 100_000, "model manifest is nested too deeply"),
        (_manifest_byte(3, b"\xff"), "can't decode byte 0xff in position 3"),
        (_manifest_byte(0, b"x"), "Expecting value"),
        *BEYOND_RANGE,
    ],
    ids=[
        "header",
        "manifest",
        "grid-key",
        "frame-params-key",
        "dims",
        "normalizer",
        "vocabulary",
        "grid-value-type",
        "frame-params-value-type",
        "frame-params-float-hop",
        "vocabulary-entry-type",
        "seed-type",
        "seed-negative",
        "nan-b2",
        "nan-inv-std",
        "normalizer-entry-type",
        "normalizer-not-a-list",
        "frame-params-fft-size",
        "frame-params-hop",
        "frame-params-float-valued-hop",
        "grid-value",
        "filterbank-value",
        "unknown-top-level-key",
        "dims-bool",
        "deep-nesting",
        "manifest-not-utf-8",
        "manifest-json-syntax",
        *BEYOND_RANGE_IDS,
    ],
)
def test_estimate_malformed_model_exits_2(corrupt, message, delta_wav, tmp_path, capsys):
    path = tmp_path / "broken.rvpm"
    path.write_bytes(corrupt(model_to_bytes(make_model())))
    assert main(["estimate", str(delta_wav), "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("corrupt, message", BEYOND_RANGE, ids=BEYOND_RANGE_IDS)
@pytest.mark.parametrize("command", ["estimate", "evaluate", "bench"])
def test_model_beyond_range_exits_2_naming_it(command, corrupt, message, tmp_path, monkeypatch, capsys):
    write_wav_pcm16(tmp_path / "a.wav", make_speech_like(0.5, seed=3))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER + "a.wav,0,ambient,10,0.5,3,0\n")
    model = tmp_path / "broken.rvpm"
    model.write_bytes(corrupt(model_to_bytes(make_model(d=600))))
    monkeypatch.setattr(cli, "read_wav", lambda *a, **k: pytest.fail("read a WAV"))
    monkeypatch.setattr(revparams.corpus, "read_wav", lambda *a, **k: pytest.fail("read a WAV"))
    argv = {
        "estimate": ["estimate", str(tmp_path / "a.wav")],
        "evaluate": ["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "r.csv")],
        "bench": ["bench", "--audio-dir", str(tmp_path)],
    }[command]
    assert main([*argv, "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: ")
    assert message in err


@pytest.mark.parametrize("command", ["synth", "estimate", "evaluate"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(command, jobs, capsys):
    required = {
        "synth": ["--speech-dir", "s", "--rir-dir", "r", "--out", "o"],
        "estimate": ["x.wav", "--model", "m.rvpm"],
        "evaluate": ["--manifest", "m.csv", "--model", "m.rvpm", "--out", "o.csv"],
    }[command]
    assert main([command, *required, "--jobs", jobs]) == 1
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_train_non_finite_learning_rate_exits_2(rate, data_dirs, tmp_path, capsys):
    speech_dir, rir_dir = data_dirs
    corpus = tmp_path / "corpus"
    argv = ["--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir), "--noise", "none", "--out", str(corpus)]
    assert main(["synth", *argv]) == 0
    model_path = tmp_path / "m.rvpm"
    argv = ["train", "--manifest", str(corpus / "manifest.csv"), "--out", str(model_path), "--lr", rate]
    assert main(argv) == 2
    assert "learning_rate" in capsys.readouterr().err
    assert not model_path.exists()


def test_train_negative_seed_exits_2_before_reading_audio(data_dirs, tmp_path, monkeypatch, capsys):
    speech_dir, rir_dir = data_dirs
    corpus = tmp_path / "corpus"
    argv = ["--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir), "--noise", "none", "--out", str(corpus)]
    assert main(["synth", *argv]) == 0
    capsys.readouterr()  # synth's log names tmp_path, which names this test
    extracted = []
    real = cli.gabor_features
    monkeypatch.setattr(cli, "gabor_features", lambda audio: extracted.append(audio) or real(audio))
    model_path = tmp_path / "m.rvpm"
    argv = ["--seed", "-1", "train", "--manifest", str(corpus / "manifest.csv"), "--out", str(model_path)]
    assert main(argv) == 2
    assert "seed" in capsys.readouterr().err
    assert extracted == []
    assert not model_path.exists()


def test_synth_negative_seed_exits_2_naming_the_seed(data_dirs, tmp_path, capsys):
    speech_dir, rir_dir = data_dirs
    out = tmp_path / "corpus"
    argv = ["--seed", "-1", "synth", "--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir), "--out", str(out)]
    assert main(argv) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (out / "manifest.csv").exists()


def test_train_bad_flag_is_named_before_a_missing_manifest(tmp_path, capsys):
    argv = ["train", "--manifest", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "m.rvpm"), "--epochs", "0"]
    assert main(argv) == 2
    assert "epochs" in capsys.readouterr().err


def test_train_help_exits_0(capsys):
    assert main(["train", "--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()

def test_unknown_flag_exits_1(capsys):
    assert main(["ground-truth", "x.wav", "--bogus"]) == 1


def test_missing_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_filters_export(tmp_path, capsys):
    out = tmp_path / "filters"
    assert main(["filters", "--out", str(out)]) == 0
    assert len(list(out.glob("filter_*.txt"))) == 48
    assert (out / "manifest.txt").exists()


def test_features_csv_shape(tmp_path, capsys):
    wav = tmp_path / "x.wav"
    write_wav_pcm16(wav, make_speech_like(0.5, seed=1))
    out = tmp_path / "feats.csv"
    assert main(["features", str(wav), "--out", str(out)]) == 0
    feats = np.loadtxt(out, delimiter=",")
    assert feats.shape == ((8000 - 400) // 160 + 1, 600)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--snr", "0,abc"),
        ("--snr", "10,nan"),
        ("--snr", ""),
        ("--noise", "wind"),
        ("--noise", "ambient,,wind"),
        ("--noise", ""),
        ("--noise", ","),
    ],
)
def test_bad_synth_argument_is_a_usage_error(flag, value, capsys):
    argv = ["synth", "--speech-dir", "s", "--rir-dir", "r", "--out", "o", flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_estimate_verbose_writes_one_stderr_line_per_input(jobs, tmp_path, model_600, capsys):
    wavs = []
    for i, seconds in enumerate((0.5, 1.3, 0.8)):
        wavs.append(str(tmp_path / f"in{i}.wav"))
        write_wav_pcm16(wavs[-1], make_speech_like(seconds, seed=40 + i))
    argv = ["estimate", *wavs, "--model", str(model_600), "--jobs", jobs]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(["-v", *argv]) == 0
    verbose = capsys.readouterr()
    assert verbose.out == plain.out
    assert plain.err == ""
    lines = verbose.err.splitlines()
    assert len(lines) == len(wavs)
    for line, wav, out_line in zip(lines, wavs, plain.out.splitlines()):
        path, *fields = line.split("\t")
        values = dict(field.split("=") for field in fields)
        assert path == wav
        assert set(values) == {"frames", "logmel_ms", "gabor_ms", "mlp_ms"}
        assert values["frames"] == out_line.split("\t")[-1]
        assert all(float(values[stage]) > 0 for stage in ("logmel_ms", "gabor_ms", "mlp_ms"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_estimate_per_frame_refuses_inputs_sharing_a_csv(jobs, tmp_path, model_600, monkeypatch, capsys):
    wavs = [tmp_path / "a" / "x.wav", tmp_path / "b" / "x.wav"]
    for seed, wav in enumerate(wavs):
        wav.parent.mkdir()
        write_wav_pcm16(wav, make_speech_like(0.5, seed=seed))
    monkeypatch.setattr(cli, "read_wav", lambda *a, **k: pytest.fail("read a WAV"))
    per_frame = tmp_path / "posteriors"
    argv = ["estimate", *map(str, wavs), "--model", str(model_600), "--per-frame", str(per_frame), "--jobs", jobs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(wavs[0]) in err and str(wavs[1]) in err
    assert not per_frame.exists()


def test_estimate_channel_missing_from_mono_file_exits_2(tmp_path, model_600, capsys):
    wav = tmp_path / "mono.wav"
    write_wav_pcm16(wav, make_speech_like(0.5, seed=3))
    assert main(["estimate", str(wav), "--model", str(model_600), "--channel", "0"]) == 0
    capsys.readouterr()
    assert main(["estimate", str(wav), "--model", str(model_600), "--channel", "1"]) == 2
    assert "channel 1 out of range for 1 channels" in capsys.readouterr().err


def test_synth_is_byte_deterministic(data_dirs, tmp_path):
    speech_dir, rir_dir = data_dirs
    args = ["--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir), "--noise", "ambient", "--snr", "10"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", *args, "--out", str(out_a)]) == 0
    assert main(["synth", *args, "--out", str(out_b)]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    assert files_a == sorted(p.name for p in out_b.iterdir())
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_full_pipeline_via_cli(data_dirs, tmp_path, capsys):
    speech_dir, rir_dir = data_dirs
    corpus = tmp_path / "corpus"
    assert (
        main(
            [
                "synth",
                "--speech-dir",
                str(speech_dir),
                "--rir-dir",
                str(rir_dir),
                "--noise",
                "ambient,fan",
                "--snr",
                "10,20",
                "--out",
                str(corpus),
            ]
        )
        == 0
    )
    assert (corpus / "manifest.csv").exists()
    assert len(list(corpus.glob("*.wav"))) == 16

    model_path = tmp_path / "model.rvpm"
    code = main(
        [
            "train",
            "--manifest",
            str(corpus / "manifest.csv"),
            "--out",
            str(model_path),
            "--hidden",
            "8",
            "--epochs",
            "2",
            "--batch-size",
            "128",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0].split("\t") == ["epoch", "train_ce", "train_acc", "val_ce", "val_acc"]
    assert len(lines) == 3
    assert model_path.exists()

    wavs = sorted(corpus.glob("*.wav"))[:2]
    per_frame = tmp_path / "posteriors"
    code = main(
        ["estimate", str(wavs[0]), str(wavs[1]), "--model", str(model_path), "--per-frame", str(per_frame)]
    )
    captured = capsys.readouterr()
    assert code == 0
    rows = captured.out.strip().splitlines()
    assert len(rows) == 2
    path, t60, drr, class_id, n_frames = rows[0].split("\t")
    assert path == str(wavs[0])
    assert 0.1 <= float(t60) <= 0.9
    assert -6.0 <= float(drr) <= 15.0
    assert int(n_frames) > 0
    post = np.loadtxt(per_frame / f"{wavs[0].stem}.posteriors.csv", delimiter=",")
    assert post.shape == (int(n_frames), 2)
    np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-6)

    results = tmp_path / "results.csv"
    stats = tmp_path / "stats.json"
    code = main(
        [
            "evaluate",
            "--manifest",
            str(corpus / "manifest.csv"),
            "--model",
            str(model_path),
            "--out",
            str(results),
            "--stats",
            str(stats),
            "--rtf",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    header = results.read_text().splitlines()[0]
    assert header == "item,t60,drr,t60_hat,drr_hat,e_t60,e_drr,noise,snr,audio_s,proc_s"
    assert len(results.read_text().splitlines()) == 17
    payload = json.loads(stats.read_text())
    assert payload["excluded"] == 0
    assert len(payload["groups"]) == 4  # 2 kinds x 2 snrs
    rtf_line = json.loads(captured.out.strip().splitlines()[-1])
    assert rtf_line["mean_rtf"] > 0

    code = main(["bench", "--model", str(model_path), "--audio-dir", str(corpus)])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["mean_rtf"] > 0
    assert set(report["stage_rtf"]) == {"logmel", "gabor", "mlp_forward"}
    assert report["fps"] > 0


def test_estimate_jobs_flag(data_dirs, tmp_path, capsys):
    speech_dir, rir_dir = data_dirs
    corpus = tmp_path / "c2"
    main(
        [
            "synth",
            "--speech-dir",
            str(speech_dir),
            "--rir-dir",
            str(rir_dir),
            "--noise",
            "none",
            "--out",
            str(corpus),
        ]
    )
    model_path = tmp_path / "m.rvpm"
    main(
        ["train", "--manifest", str(corpus / "manifest.csv"), "--out", str(model_path), "--hidden", "4", "--epochs", "1"]
    )
    capsys.readouterr()
    wavs = [str(p) for p in sorted(corpus.glob("*.wav"))]
    assert main(["estimate", *wavs, "--model", str(model_path), "--jobs", "2"]) == 0
    out_parallel = capsys.readouterr().out
    assert main(["estimate", *wavs, "--model", str(model_path)]) == 0
    assert capsys.readouterr().out == out_parallel


def test_features_without_out_writes_the_out_bytes_to_stdout(tmp_path, capsys):
    wav = tmp_path / "x.wav"
    write_wav_pcm16(wav, make_speech_like(0.5, seed=1))
    out = tmp_path / "feats.csv"
    assert main(["features", str(wav), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["features", str(wav)]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_features_constant_audio_exits_2_and_writes_no_csv(tmp_path, capsys):
    wav = tmp_path / "constant.wav"
    write_wav_pcm16(wav, AudioBuffer(np.full(16000, 0.1)))
    out = tmp_path / "feats.csv"
    assert main(["features", str(wav), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {wav}: silent input: every sample equals the first\n"
    assert not out.exists()


def _synth_corpus(data_dirs, out) -> Path:
    """A 4-item noise-free corpus from ``data_dirs``; returns its manifest."""
    speech_dir, rir_dir = data_dirs
    argv = ["synth", "--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir), "--noise", "none", "--out", str(out)]
    assert main(argv) == 0
    return out / "manifest.csv"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda wav: write_wav_pcm16(wav, AudioBuffer(np.full(8000, 0.1))), "silent input"),
        (lambda wav: write_wav_pcm16(wav, AudioBuffer(make_speech_like(0.5, seed=1).samples[:100])), "input too short"),
    ],
    ids=["constant", "100-samples"],
)
def test_train_refused_item_exits_2_naming_it(corrupt, message, data_dirs, tmp_path, capsys):
    manifest = _synth_corpus(data_dirs, tmp_path / "corpus")
    corrupt(manifest.parent / "item_00002.wav")
    capsys.readouterr()
    model_path = tmp_path / "m.rvpm"
    assert main(["train", "--manifest", str(manifest), "--out", str(model_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: manifest item 2: {message}")
    assert not model_path.exists()


def test_train_item_without_path_exits_2_naming_it(data_dirs, tmp_path, capsys):
    manifest = _synth_corpus(data_dirs, tmp_path / "corpus")
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(lines[:2]) + lines[2][lines[2].index(",") :] + "".join(lines[3:]))
    capsys.readouterr()
    model_path = tmp_path / "m.rvpm"
    assert main(["train", "--manifest", str(manifest), "--out", str(model_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: manifest item 1: item has neither buffer nor path"
    assert not model_path.exists()


def test_train_class_id_disagreeing_with_its_cell_exits_2(data_dirs, tmp_path, capsys):
    manifest = _synth_corpus(data_dirs, tmp_path / "corpus")
    lines = manifest.read_text().splitlines(keepends=True)
    lines[4] = lines[4][: lines[4].rindex(",")] + ",0\n"  # item 3 is in cell 1
    manifest.write_text("".join(lines))
    capsys.readouterr()
    model_path = tmp_path / "m.rvpm"
    assert main(["train", "--manifest", str(manifest), "--out", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: manifest item 3: class id 0 disagrees with grid cell (expected 1)\n"
    assert not model_path.exists()


def test_train_weights_beyond_float32_exit_2_without_a_warning(data_dirs, tmp_path):
    manifest = _synth_corpus(data_dirs, tmp_path / "corpus")
    model_path = tmp_path / "m.rvpm"
    argv = ["train", "--manifest", str(manifest), "--out", str(model_path), "--lr", "1e300", "--epochs", "2"]
    code, err = _run_cli([*argv, "--hidden", "4"], tmp_path)
    assert code == 2
    assert err.splitlines()[-1] == "error: trained w1 has entries beyond float32 range: training diverged"
    assert "Warning" not in err
    assert not model_path.exists()


@pytest.mark.parametrize("snr", ["4000", "-4000"])
def test_synth_snr_beyond_float_range_exits_2_naming_it(snr, data_dirs, tmp_path):
    speech_dir, rir_dir = data_dirs
    out = tmp_path / "corpus"
    argv = ["synth", "--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir), "--noise", "ambient", "--snr", snr]
    code, err = _run_cli([*argv, "--out", str(out)], tmp_path)
    assert code == 2
    assert err == f"error: SNR {snr} dB is out of range: 10^(SNR/10) is not a finite positive number\n"
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("command", ["estimate", "bench"])
def test_refused_input_is_named(command, model_600, tmp_path, capsys):
    good, silent = tmp_path / "a.wav", tmp_path / "b.wav"
    write_wav_pcm16(good, make_speech_like(0.5, seed=3))
    write_wav_pcm16(silent, AudioBuffer(np.zeros(8000)))
    argv = {
        "estimate": ["estimate", str(good), str(silent)],
        "bench": ["bench", "--audio-dir", str(tmp_path)],
    }[command]
    assert main([*argv, "--model", str(model_600)]) == 2
    assert capsys.readouterr().err == f"error: {silent}: silent input: every sample equals the first\n"


@pytest.mark.parametrize("command", ["estimate", "bench", "evaluate"])
def test_model_of_another_input_dim_exits_2_before_reading_audio(command, tmp_path, monkeypatch, capsys):
    write_wav_pcm16(tmp_path / "a.wav", make_speech_like(0.5, seed=3))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER + "a.wav,0,ambient,10,0.5,3,0\na.wav,0,ambient,10,0.5,3,1\n")
    model = tmp_path / "m5.rvpm"
    save_model(make_model(d=5), model)
    monkeypatch.setattr(cli, "read_wav", lambda *a, **k: pytest.fail("read a WAV"))
    monkeypatch.setattr(revparams.corpus, "read_wav", lambda *a, **k: pytest.fail("read a WAV"))
    out = tmp_path / "r.csv"
    argv = {
        "estimate": ["estimate", str(tmp_path / "a.wav")],
        "bench": ["bench", "--audio-dir", str(tmp_path)],
        "evaluate": ["evaluate", "--manifest", str(manifest), "--out", str(out)],
    }[command]
    assert main([*argv, "--model", str(model)]) == 2
    assert capsys.readouterr().err == f"error: {model}: filterbank feature dim 600 != model input dim 5\n"
    assert not out.exists()


def test_bench_audio_dir_without_wav_exits_2(model_600, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--model", str(model_600), "--audio-dir", str(empty)]) == 2
    assert capsys.readouterr().err == f"error: no .wav files in {empty}\n"


def _synth_argv(speech_dir, rir_dir, out):
    dirs = ["--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir)]
    return ["synth", *dirs, "--noise", "ambient", "--snr", "10", "--out", str(out)]


def test_synth_zero_rir_exits_2_naming_its_file(data_dirs, tmp_path, capsys):
    speech_dir, rir_dir = data_dirs
    zero = rir_dir / "rir_1.wav"
    write_wav_pcm16(zero, AudioBuffer(np.zeros(1600)))
    assert main(_synth_argv(speech_dir, rir_dir, tmp_path / "corpus")) == 2
    assert capsys.readouterr().err == f"error: {zero}: RIR has zero energy\n"


def test_synth_zero_utterance_exits_2_naming_its_item(data_dirs, tmp_path, capsys):
    speech_dir, rir_dir = data_dirs
    write_wav_pcm16(speech_dir / "utt_2.wav", AudioBuffer(np.zeros(8000)))
    out = tmp_path / "corpus"
    assert main(_synth_argv(speech_dir, rir_dir, out)) == 2
    err = capsys.readouterr().err
    assert err == "error: utterance 2, RIR 0: signal and noise must both have nonzero power\n"
    assert not (out / "manifest.csv").exists()


def test_synth_zero_utterance_without_noise_exits_2_naming_its_item(data_dirs, tmp_path, capsys):
    """Under ``--noise none`` an all-zero utterance would be an all-zero
    item, which ``train`` and ``estimate`` refuse as silent."""
    speech_dir, rir_dir = data_dirs
    write_wav_pcm16(speech_dir / "utt_2.wav", AudioBuffer(np.zeros(8000)))
    out = tmp_path / "corpus"
    argv = ["synth", "--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir), "--noise", "none", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: utterance 2, RIR 0: signal must have nonzero power\n"
    assert not (out / "manifest.csv").exists()


@pytest.mark.parametrize("noise", [["none"], ["ambient", "--snr", "10"]], ids=["none", "ambient"])
def test_synth_empty_utterance_exits_2_naming_its_item(noise, data_dirs, tmp_path, capsys):
    """A WAV with no samples is refused by name under every condition,
    before numpy takes a mean of no samples."""
    speech_dir, rir_dir = data_dirs
    write_wav_pcm16(speech_dir / "utt_1.wav", AudioBuffer(np.zeros(0)))
    out = tmp_path / "corpus"
    argv = ["synth", "--speech-dir", str(speech_dir), "--rir-dir", str(rir_dir), "--noise", *noise, "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert [w.message for w in caught] == []
    assert capsys.readouterr().err == "error: utterance 1, RIR 1: signal has no samples\n"
    assert not (out / "manifest.csv").exists()


def test_synth_rir_without_decay_exits_2_naming_its_index(data_dirs, tmp_path, capsys):
    speech_dir, rir_dir = data_dirs
    taps = np.zeros(1600)
    taps[100] = 0.9
    write_wav_pcm16(rir_dir / "rir_1.wav", AudioBuffer(taps))
    assert main(_synth_argv(speech_dir, rir_dir, tmp_path / "corpus")) == 2
    assert capsys.readouterr().err.startswith("error: RIR 1: insufficient decay range")


def test_ground_truth_zero_rir_exits_2_naming_its_file(tmp_path, capsys):
    zero = tmp_path / "zero.wav"
    write_wav_pcm16(zero, AudioBuffer(np.zeros(1600)))
    assert main(["ground-truth", str(zero)]) == 2
    assert capsys.readouterr().err == f"error: {zero}: RIR has zero energy\n"


_IMPORT_PROBE = """
import json, sys
from revparams.cli import main

loaded = {}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded[argv[0]] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""


def test_only_synth_loads_scipy(data_dirs, tmp_path):
    """One fresh interpreter runs the numpy-only commands, then synth; scipy
    stays unloaded until synth needs scipy.signal."""
    manifest = _synth_corpus(data_dirs, tmp_path / "corpus")
    wav, model = str(manifest.parent / "item_00000.wav"), str(tmp_path / "m.rvpm")
    argvs = [
        ["train", "--manifest", str(manifest), "--out", model, "--epochs", "1", "--hidden", "4"],
        ["estimate", wav, "--model", model],
        ["features", wav, "--out", str(tmp_path / "f.csv")],
        ["evaluate", "--manifest", str(manifest), "--model", model, "--out", str(tmp_path / "r.csv")],
        ["bench", "--model", model, "--audio-dir", str(manifest.parent)],
        _synth_argv(*data_dirs, tmp_path / "corpus2"),
    ]
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert {command: loaded[command] for command in loaded if command != "synth"} == {
        command: [] for command in ("train", "estimate", "features", "evaluate", "bench")
    }
    assert "scipy.signal" in loaded["synth"]


def test_train_manifest_without_rows_exits_2_naming_it(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST_HEADER)
    model_path = tmp_path / "m.rvpm"
    assert main(["train", "--manifest", str(manifest), "--out", str(model_path)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: cannot build a vocabulary from no (t60, drr) pairs\n"
    assert not model_path.exists()
