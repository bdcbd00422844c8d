import json
import struct

import numpy as np
import pytest
from scipy.io import wavfile

from conftest import make_model
from revparams.audio_io import AudioBuffer, write_wav_pcm16
from revparams.cli import main
from revparams.corpus import make_speech_like
from revparams.acoustics import synth_rir
from revparams.mlp import MAGIC, model_to_bytes, save_model


@pytest.fixture
def delta_wav(tmp_path):
    taps = np.zeros(1600)
    taps[100] = 0.9
    path = tmp_path / "delta.wav"
    write_wav_pcm16(path, AudioBuffer(taps))
    return path


@pytest.fixture
def data_dirs(tmp_path):
    """Tiny speech + RIR directories for corpus commands."""
    speech_dir = tmp_path / "speech"
    rir_dir = tmp_path / "rirs"
    speech_dir.mkdir()
    rir_dir.mkdir()
    for i in range(4):
        write_wav_pcm16(speech_dir / f"utt_{i}.wav", make_speech_like(0.5, seed=200 + i))
    for i, (t60, drr) in enumerate([(0.25, 0.5), (0.65, 9.5)]):
        rir = synth_rir(t60, drr, length=1.2 * t60, seed=300 + i)
        # float32 wav keeps the analyzed ground truth intact
        from scipy.io import wavfile

        wavfile.write(rir_dir / f"rir_{i}.wav", 16000, rir.taps.samples.astype(np.float32))
    return speech_dir, rir_dir


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


@pytest.mark.parametrize("key", ["dims", "normalizer", "vocabulary", "grid", "frame_params"])
def test_estimate_model_missing_manifest_key_exits_2(key, delta_wav, tmp_path, capsys):
    blob = model_to_bytes(make_model())
    start = len(MAGIC) + 4
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    manifest = json.loads(blob[start : start + mlen])
    del manifest[key]
    mjson = json.dumps(manifest).encode("utf-8")
    path = tmp_path / "broken.rvpm"
    path.write_bytes(MAGIC + struct.pack("<I", len(mjson)) + mjson + blob[start + mlen :])
    assert main(["estimate", str(delta_wav), "--model", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


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
    assert "features" in report["stage_rtf"]
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
            "--snr",
            "",
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
