import dataclasses

import numpy as np
import pytest

from conftest import make_model
from revparams import estimator
from revparams.audio_io import AudioBuffer
from revparams.estimator import (
    decide,
    estimate_from_posteriors,
    estimate_utterance,
    filterbank,
    frame_posteriors,
    pipeline_for,
    temporal_average,
)
from revparams.grid import ClassGrid, ClassVocabulary, center_of

GRID = ClassGrid()
VOCAB = ClassVocabulary(((0, 0), (1, 2), (2, 4), (3, 6), (4, 8), (5, 10), (6, 12), (7, 14)))


def full_model(seed=0):
    return make_model(d=600, h=16, c=len(VOCAB), seed=seed, vocabulary=VOCAB)


def estimate(audio, model):
    """The estimate command's path for one utterance."""
    return estimate_from_posteriors(frame_posteriors(audio, model)[0], model)


class TestFilterbank:
    def test_one_shared_bank(self):
        assert filterbank() is filterbank()
        assert filterbank().feature_dim == 600

    def test_every_array_is_read_only(self):
        bank = filterbank()
        arrays = [f.coeffs for f in bank.filters] + [a for g in bank.groups for a in (g.taps, g.mel_weights)]
        assert len(arrays) == 48 + 2 * 6
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0


class TestTemporalAverage:
    def test_identical_rows_average_to_that_row(self):
        row = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(temporal_average(np.tile(row, (9, 1))), row, atol=1e-15)

    def test_frame_permutation_invariance(self, rng):
        post = rng.random((30, 8))
        perm = rng.permutation(30)
        np.testing.assert_allclose(temporal_average(post), temporal_average(post[perm]), atol=1e-12)

    def test_two_one_hot_rows(self):
        post = np.zeros((2, 4))
        post[0, 1] = 1.0
        post[1, 3] = 1.0
        np.testing.assert_allclose(temporal_average(post), [0.0, 0.5, 0.0, 0.5])

    def test_zero_frames_raises(self):
        # (0, C), and posteriors that are not (T, C): one row alone, or a stack
        for shape in ((0, 4), (4,), (1, 1, 4)):
            with pytest.raises(ValueError):
                temporal_average(np.full(shape, 0.25))


class TestDecide:
    def test_one_hot_selects_that_class(self):
        mean = np.zeros(len(VOCAB))
        mean[5] = 1.0
        class_id, t60, drr = decide(mean, VOCAB, GRID)
        assert class_id == 5
        assert (t60, drr) == center_of(GRID, VOCAB.cells[5])

    def test_exact_tie_breaks_to_lowest_index(self):
        mean = np.zeros(len(VOCAB))
        mean[2] = mean[7] = 0.5
        assert decide(mean, VOCAB, GRID)[0] == 2

    def test_positive_scaling_invariance(self, rng):
        mean = rng.random(len(VOCAB))
        assert decide(mean, VOCAB, GRID)[0] == decide(42.0 * mean, VOCAB, GRID)[0]

    def test_dominating_class_always_wins(self, rng):
        post = rng.random((25, len(VOCAB)))
        post[:, 3] = post.max(axis=1) + 0.1  # class 3 dominates every frame
        assert decide(temporal_average(post), VOCAB, GRID)[0] == 3

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            decide(np.ones(3), VOCAB, GRID)


class TestEstimateUtterance:
    def test_deterministic(self, rng):
        model = full_model()
        audio = AudioBuffer(0.1 * rng.standard_normal(16000))
        e1 = estimate(audio, model)
        e2 = estimate(audio, model)
        assert e1.class_id == e2.class_id
        np.testing.assert_array_equal(e1.mean_posterior, e2.mean_posterior)

    def test_estimate_fields_consistent(self, rng):
        model = full_model()
        audio = AudioBuffer(0.1 * rng.standard_normal(12000))
        est = estimate(audio, model)
        assert est.n_frames == (12000 - 400) // 160 + 1
        assert (est.t60_hat, est.drr_hat) == center_of(GRID, VOCAB.cells[est.class_id])
        assert est.mean_posterior.sum() == pytest.approx(1.0, abs=1e-9)
        assert GRID.t60_min <= est.t60_hat <= GRID.t60_max
        assert GRID.drr_min <= est.drr_hat <= GRID.drr_max

    def test_self_concatenation_preserves_interior_mean(self, rng):
        model = full_model(seed=3)
        x = 0.1 * rng.standard_normal(3 * 16000)
        single, _ = frame_posteriors(AudioBuffer(x), model)
        double, _ = frame_posteriors(AudioBuffer(np.concatenate([x, x])), model)
        t = single.shape[0]
        margin = 60  # beyond the widest temporal filter half-extent
        a = single[margin : t - margin].mean(axis=0)
        b = double[margin : t - margin].mean(axis=0)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_too_short_input_propagates(self):
        with pytest.raises(ValueError, match="input too short"):
            estimate(AudioBuffer(np.zeros(100)), full_model())

    def test_feature_dim_mismatch_raises(self, rng):
        model = make_model(d=10, h=4, c=len(VOCAB), vocabulary=VOCAB)
        with pytest.raises(ValueError, match="feature dim"):
            estimate(AudioBuffer(np.zeros(16000)), model)

    def test_timings_recorded(self, rng):
        _, times = frame_posteriors(AudioBuffer(0.1 * rng.standard_normal(8000)), full_model())
        assert times.logmel_s > 0.0
        assert times.gabor_s > 0.0
        assert times.mlp_s > 0.0
        assert times.total_s == times.logmel_s + times.gabor_s + times.mlp_s

    @pytest.mark.parametrize("level", [0.0, 0.1, -1.0, 3e38])
    def test_constant_input_raises(self, level):
        with pytest.raises(ValueError, match="silent input"):
            frame_posteriors(AudioBuffer(np.full(8000, level)), full_model())

    def test_constant_input_is_refused_before_the_front_end(self, monkeypatch):
        calls = []
        monkeypatch.setattr(estimator, "log_mel_spectrogram", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="silent input"):
            frame_posteriors(AudioBuffer(np.full(8000, 0.1)), full_model())
        assert calls == []

    @pytest.mark.parametrize("n, message", [(399, "input too short"), (400, "silent input")])
    def test_constant_input_below_one_frame_is_too_short(self, n, message):
        with pytest.raises(ValueError, match=message):
            frame_posteriors(AudioBuffer(np.full(n, 0.1)), full_model())

    def test_single_differing_sample_is_not_constant(self):
        x = np.full(8000, 0.1)
        x[-1] = 0.2
        post, _ = frame_posteriors(AudioBuffer(x), full_model())
        assert post.shape[0] == (8000 - 400) // 160 + 1

    def test_four_argument_form_runs_the_estimate_path(self, rng):
        model = full_model(seed=5)
        audio = AudioBuffer(0.1 * rng.standard_normal(9000))
        got = estimate_utterance(audio, model, *pipeline_for(model))
        want = estimate(audio, model)
        for field in dataclasses.fields(want):
            np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_posterior_raises(self, bad):
        posteriors = np.full((4, len(VOCAB)), 1.0 / len(VOCAB))
        posteriors[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite mean posterior"):
            estimate_from_posteriors(posteriors, full_model())
