"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end
desk-scale experiment (criterion 6) trains a real model and takes several
minutes single-core; everything else completes in seconds.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import revparams as rp
from conftest import make_model
from revparams.cli import main as cli_main
from revparams.frontend import FrameParams
from revparams.mlp import TrainConfig, cross_entropy

SEED = 42


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def test_c1_filterbank_contract():
    with criterion(1, "default filterbank has 48 filters and 600 feature dims", budget_s=1.0):
        bank = rp.build_diagonal_filterbank()
        assert len(bank.filters) == 48
        assert bank.feature_dim == 600


def test_c2_dc_rejection():
    with criterion(2, "constant log-mel spectrogram yields |features| < 1e-6", budget_s=1.0):
        bank = rp.build_diagonal_filterbank()
        spec = rp.log_mel_spectrogram(rp.AudioBuffer(np.zeros(16000)), FrameParams())
        assert np.ptp(spec.values) == 0.0  # truly constant input
        feats = rp.extract_features(spec, bank)
        assert np.abs(feats.values).max() < 1e-6


def test_c3_ground_truth_oracles():
    with criterion(3, "synthetic RIR grid: T60 within 5%, DRR within 0.1 dB", budget_s=30.0):
        for i, t60 in enumerate(np.round(np.arange(0.2, 0.81, 0.1), 10)):
            for j, drr in enumerate(range(-6, 16, 3)):
                rir = rp.synth_rir(float(t60), float(drr), length=1.5 * t60, seed=SEED + 10 * i + j)
                t60_est = rp.estimate_t60_from_edc(rp.schroeder_edc(rir))
                drr_est = rp.compute_drr(rir)
                assert abs(t60_est - t60) / t60 < 0.05, (t60, drr)
                assert abs(drr_est - drr) < 0.1, (t60, drr)


def test_c4_mlp_gradient_check():
    with criterion(4, "gradients match central differences (rel err < 1e-4)", budget_s=10.0):
        rng = np.random.default_rng(SEED)
        eps = 1e-4
        for point in range(10):
            model = make_model(d=5, h=3, c=2, seed=SEED + point)
            x = rng.standard_normal((8, 5))
            y = rng.integers(0, 2, 8)
            grads = rp.gradient(model, x, y)
            for key in ("w1", "b1", "w2", "b2"):
                arr = getattr(model, key)
                numeric = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + eps
                    hi = cross_entropy(model, x, y)
                    arr[idx] = orig - eps
                    lo = cross_entropy(model, x, y)
                    arr[idx] = orig
                    numeric[idx] = (hi - lo) / (2 * eps)
                scale = max(np.abs(numeric).max(), 1e-8)
                assert np.abs(grads[key] - numeric).max() / scale < 1e-4


def test_c5_snr_exactness():
    with criterion(5, "post-mix SNR within 0.01 dB of {0, 10, 20} dB targets", budget_s=5.0):
        rng = np.random.default_rng(SEED)
        signal = rp.AudioBuffer(0.2 * rng.standard_normal(32000))
        for kind in ("ambient", "babble", "fan"):
            noise = rp.gen_noise(kind, 2.0, seed=SEED)
            for target in (0.0, 10.0, 20.0):
                mixed = rp.mix_at_snr(signal, noise, target)
                added = mixed.samples - signal.samples
                measured = 10.0 * np.log10(np.mean(signal.samples**2) / np.mean(added**2))
                assert abs(measured - target) < 0.01


def test_c6_desk_scale_end_to_end():
    with criterion(
        6,
        "desk-scale 12-class corpus: accuracy >= 70%, median |E_T60| <= 0.1 s, "
        "median |E_DRR| <= 1.5 dB",
        budget_s=30 * 60,
    ):
        grid = rp.ClassGrid()
        params = FrameParams()
        bank = rp.build_diagonal_filterbank(params.n_mels, params.frame_rate())

        rooms = [(t, d) for t in (0.25, 0.45, 0.65) for d in (-3.5, 0.5, 4.5, 9.5)]
        rirs = [
            rp.synth_rir(t, d, length=max(1.5 * t, 0.4), seed=900 + i)
            for i, (t, d) in enumerate(rooms)
        ]
        kinds = ["ambient", "babble", "fan"]
        snrs = [0.0, 10.0, 20.0]

        # training corpus: 12 utterances per room, each in all 9 noise
        # conditions -> 108 noisy reverberant utterances per class
        rng = np.random.default_rng(5)
        speech = [
            rp.make_speech_like(float(rng.uniform(1.1, 1.6)), seed=10_000 + i)
            for i in range(12 * len(rooms))
        ]
        manifest = rp.build_corpus(speech, rirs, kinds, snrs, grid, seed=SEED)
        assert len(manifest.vocabulary) == 12
        per_class = len(manifest.items) / len(manifest.vocabulary)
        assert per_class >= 40

        dataset = [
            (
                rp.extract_features(rp.log_mel_spectrogram(item.buffer, params), bank).values.astype(
                    np.float32
                ),
                item.class_id,
            )
            for item in manifest.items
        ]
        config = TrainConfig(
            learning_rate=0.05, epochs=20, hidden_units=256, batch_size=256, seed=SEED
        )
        model, history = rp.train(dataset, config, grid, manifest.vocabulary, params)
        assert model.h == 256

        # held-out utterances from the same (seen) rooms, all conditions
        test_speech = [rp.make_speech_like(1.6, seed=90_000 + i) for i in range(3 * len(rooms))]
        test_manifest = rp.build_corpus(test_speech, rirs, kinds, snrs, grid, seed=7)
        result = rp.evaluate(test_manifest.items, model, bank, params)
        assert not result.excluded

        hits = 0
        for record, item in zip(result.records, test_manifest.items):
            cell = rp.cell_of(grid, record.t60_hat, record.drr_hat)
            hits += cell == manifest.vocabulary.cells[item.class_id]
        accuracy = hits / len(result.records)
        median_t60 = float(np.median([abs(r.e_t60) for r in result.records]))
        median_drr = float(np.median([abs(r.e_drr) for r in result.records]))
        print(
            f"\n  desk-scale: accuracy={accuracy:.3f}, median |E_T60|={median_t60:.3f} s, "
            f"median |E_DRR|={median_drr:.3f} dB over {len(result.records)} utterances"
        )
        assert accuracy >= 0.70
        assert median_t60 <= 0.1
        assert median_drr <= 1.5


def test_c7_decision_rule_invariants():
    with criterion(7, "decision rule: permutation, one-hot, scaling invariances", budget_s=1.0):
        vocab = rp.build_vocabulary(rp.ClassGrid(), [(0.15 + 0.1 * i, -5.5 + i) for i in range(8)])
        grid = rp.ClassGrid()
        rng = np.random.default_rng(SEED)
        post = rng.random((40, 8))
        post /= post.sum(axis=1, keepdims=True)
        base = rp.decide(rp.temporal_average(post), vocab, grid)
        for _ in range(10):
            perm = rng.permutation(40)
            assert rp.decide(rp.temporal_average(post[perm]), vocab, grid)[0] == base[0]
        for k in range(8):
            onehot = np.zeros(8)
            onehot[k] = 1.0
            assert rp.decide(onehot, vocab, grid)[0] == k
        mean = rp.temporal_average(post)
        for scale in (1e-6, 0.5, 3.0, 1e6):
            assert rp.decide(scale * mean, vocab, grid)[0] == base[0]
        tie = np.zeros(8)
        tie[2] = tie[7] = 0.5
        assert rp.decide(tie, vocab, grid)[0] == 2


def test_c8_performance(tmp_path, capsys):
    with criterion(8, "single-threaded RTF < 1.0 (H=256) and paper FPS conversion", budget_s=120.0):
        assert rp.fps_to_rtf(23736) == pytest.approx(0.0042, abs=5e-5)

        vocab = rp.build_vocabulary(rp.ClassGrid(), [(0.15 + 0.1 * i, 0.5) for i in range(8)])
        model = make_model(d=600, h=256, c=len(vocab), seed=SEED, vocabulary=vocab)
        for key in ("w1", "b1", "w2", "b2"):
            setattr(model, key, getattr(model, key).astype(np.float32).astype(np.float64))
        model_path = tmp_path / "bench.rvpm"
        rp.save_model(model, model_path)

        audio_dir = tmp_path / "audio"
        audio_dir.mkdir()
        for i in range(3):
            rp.write_wav_pcm16(audio_dir / f"u{i}.wav", rp.make_speech_like(4.0, seed=SEED + i))

        assert cli_main(["bench", "--model", str(model_path), "--audio-dir", str(audio_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        print(f"\n  bench: mean_rtf={report['mean_rtf']:.4f}, fps={report['fps']:.0f}, "
              f"stages={report['stage_rtf']}")
        assert report["mean_rtf"] < 1.0
        assert report["fps"] > 0


def test_c9_serialization_round_trip(rng):
    with criterion(9, "model container round trip is bit-exact on 100 inputs", budget_s=5.0):
        vocab = rp.build_vocabulary(rp.ClassGrid(), [(0.15 + 0.1 * i, 2.5) for i in range(5)])
        model = make_model(d=24, h=16, c=len(vocab), seed=SEED, vocabulary=vocab)
        for key in ("w1", "b1", "w2", "b2"):
            setattr(model, key, getattr(model, key).astype(np.float32).astype(np.float64))
        blob = rp.model_to_bytes(model)
        loaded = rp.model_from_bytes(blob)
        x = rng.standard_normal((100, 24))
        np.testing.assert_array_equal(rp.forward(model, x), rp.forward(loaded, x))
        assert rp.model_to_bytes(loaded) == blob
