import dataclasses
import functools
import json
import os
import struct
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import make_model, seeded_model
from revparams import mlp, parallel
from revparams.frontend import FrameParams
from revparams.grid import ClassGrid, ClassVocabulary
from revparams.mlp import (
    MAGIC,
    FeatureNormalizer,
    TrainConfig,
    cross_entropy,
    fit_normalizer,
    forward,
    glorot_init,
    gradient,
    load_model,
    model_from_bytes,
    model_to_bytes,
    sigmoid,
    softmax,
    train,
)

VOCAB2 = ClassVocabulary(((0, 0), (0, 1)))


def blob_dataset(rng, frames_per_class=500, dim=4, sep=2.0):
    """Two Gaussian blobs as 50-frame utterances."""
    mu = np.zeros(dim)
    mu[:2] = sep
    a = rng.standard_normal((frames_per_class, dim)) + mu
    b = rng.standard_normal((frames_per_class, dim)) - mu
    per_utt = 50
    data = [(a[i : i + per_utt], 0) for i in range(0, frames_per_class, per_utt)]
    data += [(b[i : i + per_utt], 1) for i in range(0, frames_per_class, per_utt)]
    return data, a, b


def lda_accuracy(a, b):
    """Closed-form two-class LDA as an independent separability oracle."""
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    pooled = np.cov(np.concatenate([a - mu_a, b - mu_b]).T)
    w = np.linalg.solve(pooled, mu_a - mu_b)
    threshold = 0.5 * (mu_a + mu_b) @ w
    correct = int((a @ w > threshold).sum()) + int((b @ w <= threshold).sum())
    return correct / (len(a) + len(b))


def reference_sigmoid(x):
    """Masked logistic function that ``sigmoid`` replaces: each side of zero
    gathered, computed and scattered back separately."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_fit_normalizer(mats):
    """Normalizer fit that the streamed ``fit_normalizer`` replaces: mean
    and std over one concatenated float64 copy of every frame."""
    frames = np.concatenate([np.asarray(m, dtype=np.float64) for m in mats], axis=0)
    return FeatureNormalizer(frames.mean(axis=0), 1.0 / np.maximum(frames.std(axis=0), 1e-6))


def reference_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def reference_forward_parts(model, x):
    """Forward pass that ``_forward_parts`` replaces, on a float64 copy."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    xn = (x - model.normalizer.mean) * model.normalizer.inv_std
    z1 = reference_sigmoid(xn @ model.w1.T + model.b1)
    post = reference_softmax(z1 @ model.w2.T + model.b2)
    return xn, z1, post


def reference_gradient(model, x, labels):
    xn, z1, post = reference_forward_parts(model, x)
    n = xn.shape[0]
    d_logits = post.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    d_z1 = (d_logits @ model.w2) * z1 * (1.0 - z1)
    return {"w1": d_z1.T @ xn, "b1": d_z1.sum(axis=0), "w2": d_logits.T @ z1, "b2": d_logits.sum(axis=0)}


def reference_metrics(model, x, y):
    post = reference_forward_parts(model, x)[2]
    nll = -np.log(np.maximum(post[np.arange(len(y)), y], 1e-300)).sum()
    return nll / len(x), int((post.argmax(axis=1) == y).sum()) / len(x)


def reference_train(dataset, config, n_classes):
    """The training loop ``train`` replaces: the same split, init and batch
    order, with out-of-place momentum updates and the reference gradient."""
    mats = [np.asarray(f, dtype=np.float32) for f, _ in dataset]
    labels = [c for _, c in dataset]
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(mats))
    n_val = min(int(round(config.validation_fraction * len(mats))), len(mats) - 1)

    def stack(indices):
        return (
            np.concatenate([mats[i] for i in indices]),
            np.concatenate([np.full(len(mats[i]), labels[i]) for i in indices]),
        )

    x_train, y_train = stack(order[n_val:])
    x_val, y_val = stack(order[:n_val]) if n_val else (None, None)
    frames = x_train.astype(np.float64)
    norm = FeatureNormalizer(frames.mean(axis=0), 1.0 / np.maximum(frames.std(axis=0), 1e-6))
    dim, hidden = x_train.shape[1], config.hidden_units
    model = make_model(d=dim, h=hidden, c=n_classes, normalizer=norm)
    model.w1, model.b1 = glorot_init(rng, hidden, dim), np.zeros(hidden)
    model.w2, model.b2 = glorot_init(rng, n_classes, hidden), np.zeros(n_classes)
    velocity = {k: np.zeros_like(getattr(model, k)) for k in ("w1", "b1", "w2", "b2")}
    best, best_score, history = None, np.inf, []
    for epoch in range(config.epochs):
        perm = rng.permutation(len(x_train))
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start : start + config.batch_size]
            for key, g in reference_gradient(model, x_train[idx], y_train[idx]).items():
                velocity[key] = config.momentum * velocity[key] + g
                getattr(model, key)[...] -= config.learning_rate * velocity[key]
        train_ce, train_acc = reference_metrics(model, x_train, y_train)
        val_ce, val_acc = reference_metrics(model, x_val, y_val) if n_val else (float("nan"), float("nan"))
        history.append(
            {"epoch": epoch, "train_ce": train_ce, "train_acc": train_acc, "val_ce": val_ce, "val_acc": val_acc}
        )
        score = val_ce if n_val else train_ce
        if score < best_score:
            best_score = score
            best = {k: getattr(model, k).astype(np.float32).astype(np.float64) for k in velocity}
    return best, history


def stacked_train(dataset, config, vocabulary):
    """The stacked path that ``train``'s in-place row views replace: one
    float32 copy of the training and validation rows each, batches
    gathered with ``x_train[idx]`` and metrics in ``_METRICS_CHUNK``-row
    forward calls, serially. Only SGD draws from ``rng``, so the serial
    order gives the values of the split one."""
    mats = [np.asarray(f, dtype=np.float32) for f, _ in dataset]
    labels = [c for _, c in dataset]
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(mats))
    n_val = min(int(round(config.validation_fraction * len(mats))), len(mats) - 1)
    dim = mats[0].shape[1]

    def stack(indices):
        if len(indices) == 0:
            return np.empty((0, dim), dtype=np.float32), np.empty(0, dtype=np.intp)
        xs = np.concatenate([mats[i] for i in indices], axis=0)
        ys = np.concatenate([np.full(len(mats[i]), labels[i], dtype=np.intp) for i in indices])
        return xs, ys

    def chunked_metrics(model, x, y):
        total_nll, correct = 0.0, 0
        for start in range(0, len(x), mlp._METRICS_CHUNK):
            yb = y[start : start + mlp._METRICS_CHUNK]
            post = forward(model, x[start : start + mlp._METRICS_CHUNK])
            total_nll -= np.log(np.maximum(post[np.arange(len(yb)), yb], 1e-300)).sum()
            correct += int((post.argmax(axis=1) == yb).sum())
        return total_nll / len(x), correct / len(x)

    x_train, y_train = stack(order[n_val:])
    x_val, y_val = stack(order[:n_val])
    hidden, n_classes = config.hidden_units, len(vocabulary)
    model = make_model(d=dim, h=hidden, c=n_classes, normalizer=fit_normalizer(x_train), vocabulary=vocabulary)
    model.w1, model.b1 = glorot_init(rng, hidden, dim), np.zeros(hidden)
    model.w2, model.b2 = glorot_init(rng, n_classes, hidden), np.zeros(n_classes)
    velocity = {k: np.zeros_like(getattr(model, k)) for k in ("w1", "b1", "w2", "b2")}
    best, best_score, history = None, np.inf, []
    for epoch in range(config.epochs):
        perm = rng.permutation(len(x_train))
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start : start + config.batch_size]
            for key, g in gradient(model, x_train[idx], y_train[idx]).items():
                velocity[key] *= config.momentum
                velocity[key] += g
                getattr(model, key)[...] -= config.learning_rate * velocity[key]
        train_ce, train_acc = chunked_metrics(model, x_train, y_train)
        val_ce, val_acc = chunked_metrics(model, x_val, y_val) if n_val else (float("nan"), float("nan"))
        history.append(
            {"epoch": epoch, "train_ce": train_ce, "train_acc": train_acc, "val_ce": val_ce, "val_acc": val_acc}
        )
        score = val_ce if n_val else train_ce
        if score < best_score:
            best_score = score
            best = {k: getattr(model, k).astype(np.float32).astype(np.float64) for k in velocity}
    return best, history


@pytest.fixture(params=[True, False], ids=["metrics-thread", "metrics-inline"])
def metrics_thread(request, monkeypatch):
    """Forces the ``parallel`` gate on or off, so ``train``'s steps split
    or not, whatever this machine's BLAS and CPUs would select."""
    monkeypatch.setattr(parallel, "two_cores", lambda: request.param)
    return request.param


def metrics_threads_alive():
    return [t for t in threading.enumerate() if t.name.startswith("revparams-split")]


def split_dataset(rng):
    """``blob_dataset`` with 1,100 training frames: more than BLOCK_ROWS,
    so ``train``'s steps reach the split helper when the gate holds."""
    return blob_dataset(rng, frames_per_class=600)[0]


class TestBitExactHotPath:
    """The lean float64 hot path against the code it replaced, tolerance 0."""

    def test_sigmoid_matches_masked_reference(self, rng):
        special = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]
        x = np.concatenate([30.0 * rng.standard_normal(20_000), rng.standard_normal(5_000)])
        x[rng.choice(len(x), 40 * len(special), replace=False)] = np.repeat(special, 40)
        with np.errstate(invalid="ignore"):
            out = sigmoid(x)
            ref = reference_sigmoid(x)
            blocks = sigmoid(x.reshape(-1, 125))
        # compared as bit patterns: also the sign of zeros and NaNs
        assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(blocks.ravel().view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_forward_matches_reference(self, dtype, rng):
        """``forward`` splits inputs of more than 1,024 rows into near-equal
        blocks (1,025 rows: 513 + 512; 2,049: 3 x 683; 8,197: 7 x 911 +
        2 x 910); the reference runs all rows at once.

        Equality rests on the BLAS computing each matmul row independently
        of the other rows once a block has more than 100 rows (a split
        block has at least 512). This test guards that assumption for the
        installed BLAS, at tolerance 0.
        """
        model = seeded_model()
        for n_rows in (1_025, 2_049, 6_100, 8_197):
            x = (3.0 * rng.standard_normal((n_rows, model.d))).astype(dtype)
            assert np.array_equal(forward(model, x), reference_forward_parts(model, x)[2]), n_rows

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradient_matches_reference(self, dtype, rng):
        model = seeded_model()
        x = (3.0 * rng.standard_normal((4 * 256, model.d))).astype(dtype)
        y = rng.integers(0, model.c, len(x))
        for batch in range(4):
            rows = slice(256 * batch, 256 * (batch + 1))
            grads, ref = gradient(model, x[rows], y[rows]), reference_gradient(model, x[rows], y[rows])
            assert grads.keys() == ref.keys()
            for key in ref:
                assert np.array_equal(grads[key], ref[key]), key

    def test_train_matches_reference(self, monkeypatch, rng):
        """Weights and history against the serial reference, with the
        metrics pass forced onto the helper thread and inline."""
        n_classes, dim = 6, 120
        centers = 2.0 * rng.standard_normal((n_classes, dim))
        data = [(centers[i % n_classes] + 3.0 * rng.standard_normal((80, dim)), i % n_classes) for i in range(30)]
        vocab = ClassVocabulary(tuple((0, j) for j in range(n_classes)))
        for epochs, validation_fraction in [(1, 0.1), (2, 0.1), (5, 0.1), (3, 0.0)]:
            # Large steps on small batches drive the loss so low that a one-ulp
            # change in any activation shows in the history's float64 losses.
            cfg = TrainConfig(
                learning_rate=1.0,
                batch_size=16,
                epochs=epochs,
                hidden_units=64,
                seed=5,
                validation_fraction=validation_fraction,
            )
            best, ref_history = reference_train(data, cfg, n_classes)
            for in_thread in (True, False):
                monkeypatch.setattr(parallel, "two_cores", lambda in_thread=in_thread: in_thread)
                case = f"epochs={epochs} validation_fraction={validation_fraction} in_thread={in_thread}"
                model, history = train(data, cfg, ClassGrid(), vocab)
                np.testing.assert_equal(history, ref_history, err_msg=case)  # exact; NaN equals NaN
                for key, value in best.items():
                    assert np.array_equal(getattr(model, key), value), (key, case)


    @pytest.mark.parametrize("batch_size", [100, 256, 9_000])
    def test_train_matches_stacked_path(self, batch_size, metrics_thread, rng):
        """Weights and history at tolerance 0 against ``stacked_train``, on
        more than 8,192 training and validation rows each, in utterances of
        0, 1 and odd row counts, so rows cross SGD windows (8,100, 8,192
        and 9,000 rows) and metrics chunks. Gate forced on and off."""
        n_classes, dim = 5, 12
        centers = 2.0 * rng.standard_normal((n_classes, dim))
        lengths = [0, *rng.choice([1, 1, 1, 3, 7, 61, 127, 255, 1_001], size=200)]
        data = [(centers[i % 5] + 3.0 * rng.standard_normal((n, dim)), i % 5) for i, n in enumerate(lengths)]
        vocab = ClassVocabulary(tuple((0, j) for j in range(n_classes)))
        cfg = TrainConfig(
            learning_rate=1.0, batch_size=batch_size, epochs=2, hidden_units=16, seed=3, validation_fraction=0.45
        )
        order = np.random.default_rng(cfg.seed).permutation(len(data))  # train's split: validation first
        n_val = round(cfg.validation_fraction * len(data))
        assert min(sum(lengths[i] for i in part) for part in (order[:n_val], order[n_val:])) > mlp._METRICS_CHUNK
        best, ref_history = stacked_train(data, cfg, vocab)
        model, history = train(data, cfg, ClassGrid(), vocab)
        np.testing.assert_equal(history, ref_history)  # exact; NaN equals NaN
        for key, value in best.items():
            assert np.array_equal(getattr(model, key), value), key


class TestNormalizer:
    @pytest.mark.parametrize("dim", [1, 2, 3, 600])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_streamed_matches_concatenated_reference(self, dtype, dim, rng):
        """Arrays of 1,023, 1,024, 1,025 and 6,073 rows (the last made of
        matrices of 1, 1,023, 1,024, 1,025 and 3,000 rows) cross the
        1,024-row block size. For D >= 2 the bit patterns are equal,
        including a constant column and a -0.0 column. For D = 1 numpy
        sums the reference's one contiguous column pairwise, the streamed
        fit row after row: tolerance 1e-13 relative."""
        mats = [(5.0 + 3.0 * rng.standard_normal((n, dim))).astype(dtype) for n in (1, 1_023, 1_024, 1_025, 3_000)]
        if dim > 1:
            for m in mats:
                m[:, 0] = 7.25
                m[:, -1] = -0.0
        for parts in ([mats[1]], [mats[2]], [mats[3]], mats):
            norm, ref = fit_normalizer(np.concatenate(parts)), reference_fit_normalizer(parts)
            if dim == 1:
                np.testing.assert_allclose(norm.mean, ref.mean, rtol=1e-13)
                np.testing.assert_allclose(norm.inv_std, ref.inv_std, rtol=1e-13)
            else:
                assert np.array_equal(norm.mean.view(np.uint64), ref.mean.view(np.uint64))
                assert np.array_equal(norm.inv_std.view(np.uint64), ref.inv_std.view(np.uint64))

    def test_allocates_less_than_a_float64_copy(self, rng):
        frames = rng.standard_normal((20_000, 600), dtype=np.float32)
        tracemalloc.start()
        try:
            fit_normalizer(frames)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < frames.size * 8

    def test_two_frame_example(self):
        norm = fit_normalizer(np.array([[0.0, 2.0], [2.0, 0.0]]))
        np.testing.assert_allclose(norm.mean, [1.0, 1.0])
        np.testing.assert_allclose(norm.inv_std, [1.0, 1.0])

    def test_constant_dimension_floors_std(self):
        norm = fit_normalizer(np.full((10, 3), 5.0))
        np.testing.assert_allclose(norm.inv_std, 1e6)

    def test_self_normalization_centers_data(self, rng):
        frames = rng.standard_normal((160, 6)) * 3.0 + 1.5
        norm = fit_normalizer(frames)
        np.testing.assert_allclose(norm.apply(frames).mean(axis=0), 0.0, atol=1e-9)

    def test_too_few_frames_raises(self):
        with pytest.raises(ValueError):
            fit_normalizer(np.zeros((1, 4)))


class TestForward:
    def test_zero_output_layer_gives_uniform_posterior(self):
        model = make_model(d=6, h=4, c=5)
        model.w2 = np.zeros_like(model.w2)
        model.b2 = np.zeros_like(model.b2)
        post = forward(model, np.ones((1, 6)))
        np.testing.assert_allclose(post, 0.2, atol=1e-12)

    def test_posterior_sums_to_one(self, rng):
        model = make_model(d=8, h=5, c=7)
        post = forward(model, rng.standard_normal((20, 8)))
        assert np.all(post > 0.0)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_shift_invariance(self, rng):
        logits = rng.standard_normal(9)
        np.testing.assert_allclose(softmax(logits), softmax(logits + 123.4), atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            forward(make_model(d=5), np.zeros((1, 6)))


class TestGradient:
    def test_matches_finite_differences(self, rng):
        model = make_model(d=5, h=3, c=2, seed=9)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 2, 6)
        grads = gradient(model, x, y)
        eps = 1e-4
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

    def test_b2_gradient_is_mean_posterior_error(self, rng):
        model = make_model(d=4, h=3, c=3, seed=2)
        x = rng.standard_normal((10, 4))
        y = rng.integers(0, 3, 10)
        post = forward(model, x)
        onehot = np.eye(3)[y]
        np.testing.assert_allclose(gradient(model, x, y)["b2"], (post - onehot).mean(axis=0), atol=1e-12)

    def test_gradient_vanishes_at_saturated_correct_posterior(self):
        model = make_model(d=2, h=2, c=2, seed=4)
        model.w2 = np.zeros_like(model.w2)
        model.b2 = np.array([200.0, -200.0])  # posterior pinned to class 0
        grads = gradient(model, np.array([[0.3, -0.8]]), np.array([0]))
        for g in grads.values():
            assert np.abs(g).max() < 1e-12

    def test_batch_length_mismatch_raises(self):
        model = make_model()
        with pytest.raises(ValueError):
            gradient(model, np.zeros((3, 5)), np.zeros(2, dtype=int))
        # one label per row, each a class id in [0, C): C = 2 here
        x = np.zeros((10, model.d))
        bad = ((np.zeros(15, dtype=int), "one label per row"), ([0] * 9 + [-1], "outside"), ([0] * 9 + [7], "outside"))
        for labels, match in bad:
            for loss in (gradient, cross_entropy):
                with pytest.raises(ValueError, match=match):
                    loss(model, x, labels)
        # no row at all
        for loss in (gradient, cross_entropy):
            with pytest.raises(ValueError, match="T >= 1"):
                loss(model, np.zeros((0, model.d)), np.zeros(0, dtype=int))
        # features that are not (T, D): one row alone, or a stack of batches
        for shape in ((5,), (1, 1, 5)):
            with pytest.raises(ValueError):
                gradient(model, np.zeros(shape), np.zeros(1, dtype=int))
            with pytest.raises(ValueError):
                cross_entropy(model, np.zeros(shape), np.zeros(1, dtype=int))


class TestTrain:
    CFG = TrainConfig(learning_rate=0.1, epochs=12, hidden_units=16, batch_size=64, seed=7)

    def test_separable_blobs_reach_99_percent(self, rng):
        data, a, b = blob_dataset(rng)
        assert lda_accuracy(a, b) >= 0.99  # oracle: the task is separable
        model, history = train(data, self.CFG, ClassGrid(), VOCAB2)
        assert history[-1]["train_acc"] >= 0.99

    def test_same_seed_is_bit_identical(self, rng):
        data, _, _ = blob_dataset(rng)
        m1, h1 = train(data, self.CFG, ClassGrid(), VOCAB2)
        m2, h2 = train(data, self.CFG, ClassGrid(), VOCAB2)
        for key in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(m1, key), getattr(m2, key))
        assert h1 == h2

    def test_returns_best_validation_snapshot(self, monkeypatch, rng):
        data = split_dataset(rng)
        # reconstruct the deterministic validation split
        split_rng = np.random.default_rng(self.CFG.seed)
        order = split_rng.permutation(len(data))
        n_val = min(int(round(self.CFG.validation_fraction * len(data))), len(data) - 1)
        x_val = np.concatenate([np.asarray(data[i][0]) for i in order[:n_val]])
        y_val = np.concatenate([np.full(len(data[i][0]), data[i][1]) for i in order[:n_val]])
        for in_thread in (True, False):
            monkeypatch.setattr(parallel, "two_cores", lambda in_thread=in_thread: in_thread)
            model, history = train(data, self.CFG, ClassGrid(), VOCAB2)
            # running minimum of the loss history never increases
            mins = np.minimum.accumulate([h["val_ce"] for h in history])
            assert all(b <= a for a, b in zip(mins, mins[1:]))
            # the returned snapshot reproduces the best recorded validation CE
            ce = cross_entropy(model, x_val, y_val)
            assert ce == pytest.approx(min(mins), rel=1e-4), in_thread

    def test_allocates_less_than_a_float32_copy_of_the_set(self, rng):
        """40,000 float32 rows of 600 in 160 utterances: ``train`` reads
        them in place, so its peak stays below one copy of the set (96 MB)."""
        data = [(rng.standard_normal((250, 600), dtype=np.float32), i % 2) for i in range(160)]
        cfg = TrainConfig(epochs=1, hidden_units=8, seed=3)
        tracemalloc.start()
        try:
            train(data, cfg, ClassGrid(), VOCAB2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40_000 * 600 * 4

    def test_zero_learning_rate_leaves_parameters_unchanged(self, rng):
        data, _, _ = blob_dataset(rng)
        cfg_a = TrainConfig(learning_rate=0.0, epochs=1, hidden_units=8, seed=3)
        cfg_b = TrainConfig(learning_rate=0.0, epochs=6, hidden_units=8, seed=3)
        m1, _ = train(data, cfg_a, ClassGrid(), VOCAB2)
        m2, _ = train(data, cfg_b, ClassGrid(), VOCAB2)
        for key in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(m1, key), getattr(m2, key))

    @pytest.mark.parametrize(
        "shapes, class_ids, message",
        [
            ([], [], "empty training dataset"),
            ([(10, 4)], [2], "class id 2 out of range"),
            ([(10, 4), (10, 5)], [0, 1], "inconsistent feature dimensions"),
            ([(10, 4), (4,)], [0, 1], r"utterance 1 has features of shape \(4,\)"),
            ([(10, 4), (1, 10, 4)], [0, 1], r"utterance 1 has features of shape \(1, 10, 4\)"),
        ],
        ids=["empty", "class-out-of-range", "mixed-dims", "1-d", "3-d"],
    )
    def test_bad_dataset_raises(self, shapes, class_ids, message, rng):
        dataset = [(rng.standard_normal(shape), class_id) for shape, class_id in zip(shapes, class_ids)]
        with pytest.raises(ValueError, match=message):
            train(dataset, self.CFG, ClassGrid(), VOCAB2)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_learning_rate_is_refused(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_no_finite_epoch_raises(self, rng):
        # one NaN entry makes every epoch's score NaN, through the normalizer or the validation pass
        data, _, _ = blob_dataset(rng)
        data[0][0][3, 1] = np.nan
        with pytest.raises(ValueError, match="no epoch gave a finite cross-entropy"):
            train(data, self.CFG, ClassGrid(), VOCAB2)


class TestMetricsThread:
    CFG = TrainConfig(learning_rate=0.1, epochs=3, hidden_units=8, batch_size=64, seed=7)

    def spy_threads(self, monkeypatch):
        """The thread that ran each ``_epoch_metrics`` call, and the numpy
        error state it saw."""
        ran_on = []
        epoch_metrics = mlp._epoch_metrics

        def spy(*args):
            ran_on.append((threading.current_thread(), np.geterr()))
            return epoch_metrics(*args)

        monkeypatch.setattr(mlp, "_epoch_metrics", spy)
        return ran_on

    def test_runs_on_the_selected_thread(self, metrics_thread, monkeypatch, rng):
        """Gate on: passes 0 .. E - 2 beside the next SGD on the split
        helper, the last alone on the caller. Gate off: all on the caller."""
        ran_on = self.spy_threads(monkeypatch)
        _, history = train(split_dataset(rng), self.CFG, ClassGrid(), VOCAB2)
        assert len(ran_on) == len(history) == self.CFG.epochs
        on_helper = [thread is not threading.main_thread() for thread, _ in ran_on]
        assert on_helper == [metrics_thread] * (self.CFG.epochs - 1) + [False]
        assert metrics_threads_alive() == []

    def test_small_training_set_runs_inline(self, monkeypatch, rng):
        """900 training frames, at most BLOCK_ROWS: no step splits, even
        with the gate on."""
        monkeypatch.setattr(parallel, "two_cores", lambda: True)
        ran_on = self.spy_threads(monkeypatch)
        train(blob_dataset(rng)[0], self.CFG, ClassGrid(), VOCAB2)
        assert [thread for thread, _ in ran_on] == [threading.main_thread()] * self.CFG.epochs

    def test_metrics_pass_sees_the_callers_numpy_error_state(self, monkeypatch, rng):
        monkeypatch.setattr(parallel, "two_cores", lambda: True)
        ran_on = self.spy_threads(monkeypatch)
        with np.errstate(all="ignore"):
            train(split_dataset(rng), self.CFG, ClassGrid(), VOCAB2)
        assert any(thread is not threading.main_thread() for thread, _ in ran_on)
        ignored = dict.fromkeys(("divide", "over", "under", "invalid"), "ignore")
        assert [state for _, state in ran_on] == [ignored] * self.CFG.epochs

    @pytest.mark.parametrize("failing_call", [1, 4, 6])
    def test_exception_in_metrics_reaches_caller(self, failing_call, metrics_thread, monkeypatch, rng):
        """Calls 1-2 are epoch 0's train and val passes, 5-6 the last epoch's."""
        calls = []
        batched_metrics = mlp._batched_metrics

        def failing(*args):
            calls.append(args)
            if len(calls) == failing_call:
                raise RuntimeError("metrics pass failed")
            return batched_metrics(*args)

        monkeypatch.setattr(mlp, "_batched_metrics", failing)
        with pytest.raises(RuntimeError, match="metrics pass failed"):
            train(split_dataset(rng), self.CFG, ClassGrid(), VOCAB2)
        assert metrics_threads_alive() == []

    @pytest.mark.parametrize(
        "blas_threads, cpus, selected",
        [(1, {0, 1}, True), (1, {0, 1, 2, 3}, True), (1, {0}, False), (2, {0, 1}, False), (None, {0, 1}, False)],
    )
    def test_selection_needs_one_blas_thread_and_two_cpus(self, blas_threads, cpus, selected, monkeypatch):
        monkeypatch.setattr(parallel, "_blas_threads", lambda: blas_threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert parallel.two_cores.__wrapped__() is selected  # uncached: the process's answer stays as it is

    def test_blas_threads_reads_the_loaded_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        pinned = os.environ.get("OPENBLAS_NUM_THREADS")
        if "openblas" not in str(blas.get("name")) or not pinned or not hasattr(os, "sched_getaffinity"):
            pytest.skip("needs numpy on OpenBLAS, OPENBLAS_NUM_THREADS set and sched_getaffinity")
        # OpenBLAS caps the requested count at the CPUs it may use
        assert parallel._blas_threads() == min(int(pinned), len(os.sched_getaffinity(0)))


class TestSerialization:
    def test_round_trip_is_bit_exact(self, rng):
        data, _, _ = blob_dataset(rng)
        model, _ = train(data, TestTrain.CFG, ClassGrid(), VOCAB2)
        blob = model_to_bytes(model)
        loaded = model_from_bytes(blob)
        x = rng.standard_normal((50, 4))
        np.testing.assert_array_equal(forward(model, x), forward(loaded, x))
        assert model_to_bytes(loaded) == blob

    def test_container_preserves_metadata(self):
        model = make_model(d=5, h=3, c=2, seed=1)
        model.w1 = model.w1.astype(np.float32).astype(np.float64)
        model.b1 = model.b1.astype(np.float32).astype(np.float64)
        model.w2 = model.w2.astype(np.float32).astype(np.float64)
        model.b2 = model.b2.astype(np.float32).astype(np.float64)
        loaded = model_from_bytes(model_to_bytes(model))
        assert loaded.vocabulary.cells == model.vocabulary.cells
        assert loaded.grid == model.grid
        assert loaded.frame_params == model.frame_params
        assert loaded.seed == model.seed
        np.testing.assert_array_equal(loaded.normalizer.mean, model.normalizer.mean)

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("frame_params", functools.partial(FrameParams, hop=80), "'frame_params.hop'"),
            ("frame_params", functools.partial(FrameParams, n_mels=20), "'frame_params.n_mels'"),
            ("grid", functools.partial(ClassGrid, drr_step=3.0), "'grid.drr_step'"),
        ],
    )
    def test_other_grid_or_front_end_is_not_written(self, field, value, key):
        """No other grid or front end can be built or given to a model, and
        the written manifest holds the fixed value under ``key``."""
        with pytest.raises(TypeError, match="takes no arguments"):
            value()
        fixed = getattr(make_model(), field)
        with pytest.raises(TypeError):
            dataclasses.replace(make_model(), **{field: fixed})
        section, name = key.strip("'").split(".")
        blob = model_to_bytes(make_model())
        (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
        manifest = json.loads(blob[len(MAGIC) + 4 : len(MAGIC) + 4 + mlen])
        assert section == field
        assert manifest[section][name] == getattr(fixed, name)

    def test_grid_and_front_end_are_fixed(self):
        """The written manifest names the one grid and front end there is."""
        blob = model_to_bytes(make_model())
        (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
        manifest = json.loads(blob[len(MAGIC) + 4 : len(MAGIC) + 4 + mlen])
        assert dataclasses.asdict(FrameParams()) == manifest["frame_params"]
        assert dataclasses.asdict(ClassGrid()) == manifest["grid"]

    def test_checked_in_model_re_saves_byte_identically(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "model" / "estimate.rvpm"
        assert model_to_bytes(load_model(path)) == path.read_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            model_from_bytes(b"NOTAMODEL" + b"\x00" * 50)

    def test_trailing_bytes_rejected(self):
        blob = model_to_bytes(make_model())
        with pytest.raises(ValueError, match="trailing"):
            model_from_bytes(blob + b"\x00")
