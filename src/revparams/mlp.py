"""From-scratch 3-layer perceptron: 600 -> H sigmoid -> C softmax.

Covers feature normalization, deterministic minibatch SGD training with
momentum and best-validation checkpointing, exact gradients (exposed for
finite-difference checking), and a bit-exact binary model container that
embeds everything estimation needs: normalizer, class vocabulary, grid and
front-end parameters.

Training math runs in float64; finished weights are snapped to float32
precision so the container round-trips forward outputs bit-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from .frontend import FrameParams
from .gabor import FeatureMatrix
from .grid import ClassGrid, ClassVocabulary

MAGIC = b"RVPM1\x00"

_STD_FLOOR = 1e-6


@dataclass
class FeatureNormalizer:
    mean: np.ndarray
    inv_std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) * self.inv_std


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 256
    epochs: int = 20
    hidden_units: int = 256
    seed: int = 42
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1 or self.hidden_units < 1:
            raise ValueError("batch_size, epochs and hidden_units must be >= 1")
        if not 0 <= self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in [0, 1)")


@dataclass
class MlpModel:
    w1: np.ndarray  # H x D
    b1: np.ndarray  # H
    w2: np.ndarray  # C x H
    b2: np.ndarray  # C
    normalizer: FeatureNormalizer
    vocabulary: ClassVocabulary
    grid: ClassGrid
    frame_params: FrameParams
    seed: int = 0

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def h(self) -> int:
        return self.w1.shape[0]

    @property
    def c(self) -> int:
        return self.w2.shape[0]


def _as_frames(features) -> np.ndarray:
    values = features.values if isinstance(features, FeatureMatrix) else np.asarray(features)
    return np.atleast_2d(np.asarray(values, dtype=np.float64))


def fit_normalizer(feature_matrices) -> FeatureNormalizer:
    """Per-dimension mean and inverse standard deviation (population
    convention, std floored at 1e-6) over all frames of all matrices."""
    frames = np.concatenate([_as_frames(fm) for fm in feature_matrices], axis=0)
    if frames.shape[0] < 2:
        raise ValueError(f"need at least 2 frames to fit a normalizer, got {frames.shape[0]}")
    mean = frames.mean(axis=0)
    std = frames.std(axis=0)
    return FeatureNormalizer(mean, 1.0 / np.maximum(std, _STD_FLOOR))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _forward_parts(model: MlpModel, x: np.ndarray):
    xn = model.normalizer.apply(x)
    z1 = sigmoid(xn @ model.w1.T + model.b1)
    post = softmax(z1 @ model.w2.T + model.b2)
    return xn, z1, post


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class posteriors for one feature row (D,) or a batch (T, D)."""
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.d:
        raise ValueError(f"feature dimension {x.shape[1]} != model input dimension {model.d}")
    post = _forward_parts(model, x)[2]
    return post[0] if single else post


def cross_entropy(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean frame-level cross-entropy of a batch."""
    post = forward(model, np.atleast_2d(features))
    picked = post[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def gradient(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> dict:
    """Exact gradients of mean batch cross-entropy w.r.t. all parameters."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    if x.shape[1] != model.d:
        raise ValueError(f"feature dimension {x.shape[1]} != model input dimension {model.d}")
    if labels.shape != (x.shape[0],):
        raise ValueError("labels must match the batch length")
    xn, z1, post = _forward_parts(model, x)
    n = x.shape[0]
    d_logits = post.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    d_z1 = (d_logits @ model.w2) * z1 * (1.0 - z1)
    return {
        "w1": d_z1.T @ xn,
        "b1": d_z1.sum(axis=0),
        "w2": d_logits.T @ z1,
        "b2": d_logits.sum(axis=0),
    }


def glorot_init(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def _snap_f32(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float32).astype(np.float64)


def _batched_metrics(model: MlpModel, x: np.ndarray, y: np.ndarray, chunk: int = 8192):
    total_nll = 0.0
    correct = 0
    for start in range(0, len(x), chunk):
        xb = np.asarray(x[start : start + chunk], dtype=np.float64)
        yb = y[start : start + chunk]
        post = forward(model, xb)
        picked = post[np.arange(len(yb)), yb]
        total_nll -= np.log(np.maximum(picked, 1e-300)).sum()
        correct += int((post.argmax(axis=1) == yb).sum())
    return total_nll / len(x), correct / len(x)


def train(
    dataset,
    config: TrainConfig,
    grid: ClassGrid,
    vocabulary: ClassVocabulary,
    frame_params: FrameParams = FrameParams(),
):
    """Fit the MLP on (FeatureMatrix, class id) pairs.

    Splits off a validation fraction at the utterance level, fits the
    feature normalizer on the training portion, then runs minibatch SGD
    with momentum. Returns the snapshot with the best validation
    cross-entropy (training cross-entropy when no validation split) and the
    per-epoch history as a list of dicts.

    Shuffling, weight init and batching all derive from config.seed; two
    runs with identical inputs produce bit-identical models.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("empty training dataset")
    n_classes = len(vocabulary)
    mats = []
    utt_labels = []
    for features, class_id in dataset:
        class_id = int(class_id)
        if not 0 <= class_id < n_classes:
            raise ValueError(f"class id {class_id} out of range for {n_classes} classes")
        mats.append(np.asarray(_as_frames(features), dtype=np.float32))
        utt_labels.append(class_id)
    dim = mats[0].shape[1]
    if any(m.shape[1] != dim for m in mats):
        raise ValueError("inconsistent feature dimensions in dataset")

    rng = np.random.default_rng(config.seed)

    order = rng.permutation(len(mats))
    n_val = min(int(round(config.validation_fraction * len(mats))), len(mats) - 1)
    val_idx, train_idx = order[:n_val], order[n_val:]

    def stack(indices):
        if len(indices) == 0:
            return np.empty((0, dim), dtype=np.float32), np.empty(0, dtype=np.intp)
        xs = np.concatenate([mats[i] for i in indices], axis=0)
        ys = np.concatenate([np.full(len(mats[i]), utt_labels[i], dtype=np.intp) for i in indices])
        return xs, ys

    x_train, y_train = stack(train_idx)
    x_val, y_val = stack(val_idx)

    normalizer = fit_normalizer([mats[i] for i in train_idx])
    model = MlpModel(
        w1=glorot_init(rng, config.hidden_units, dim),
        b1=np.zeros(config.hidden_units),
        w2=glorot_init(rng, n_classes, config.hidden_units),
        b2=np.zeros(n_classes),
        normalizer=normalizer,
        vocabulary=vocabulary,
        grid=grid,
        frame_params=frame_params,
        seed=config.seed,
    )

    velocity = {k: np.zeros_like(getattr(model, k)) for k in ("w1", "b1", "w2", "b2")}
    best = {k: getattr(model, k).copy() for k in velocity}
    best_score = np.inf
    history = []

    for epoch in range(config.epochs):
        perm = rng.permutation(len(x_train))
        for start in range(0, len(perm), config.batch_size):
            idx = perm[start : start + config.batch_size]
            grads = gradient(model, x_train[idx], y_train[idx])
            for key, g in grads.items():
                velocity[key] = config.momentum * velocity[key] + g
                getattr(model, key)[...] -= config.learning_rate * velocity[key]

        train_ce, train_acc = _batched_metrics(model, x_train, y_train)
        if len(x_val):
            val_ce, val_acc = _batched_metrics(model, x_val, y_val)
        else:
            val_ce, val_acc = float("nan"), float("nan")
        history.append(
            {
                "epoch": epoch,
                "train_ce": train_ce,
                "train_acc": train_acc,
                "val_ce": val_ce,
                "val_acc": val_acc,
            }
        )
        score = val_ce if len(x_val) else train_ce
        if score < best_score:
            best_score = score
            best = {k: getattr(model, k).copy() for k in velocity}

    for key, value in best.items():
        setattr(model, key, _snap_f32(value))
    return model, history


# --- model container -------------------------------------------------------
#
# Layout: magic "RVPM1\0", uint32 little-endian manifest length, UTF-8 JSON
# manifest, then raw little-endian float32 blobs W1 (row-major), b1, W2, b2.


def model_to_bytes(model: MlpModel) -> bytes:
    fp = model.frame_params
    g = model.grid
    manifest = {
        "dims": {"d": model.d, "h": model.h, "c": model.c},
        "grid": {
            "t60_min": g.t60_min,
            "t60_max": g.t60_max,
            "t60_step": g.t60_step,
            "drr_min": g.drr_min,
            "drr_max": g.drr_max,
            "drr_step": g.drr_step,
        },
        "vocabulary": [[int(a), int(b)] for a, b in model.vocabulary.cells],
        "frame_params": {
            "frame_len": fp.frame_len,
            "hop": fp.hop,
            "fft_size": fp.fft_size,
            "n_mels": fp.n_mels,
            "fmin": fp.fmin,
            "fmax": fp.fmax,
            "log_floor": fp.log_floor,
        },
        "filterbank": {"n_mels": fp.n_mels, "frame_rate": 16000 / fp.hop},
        "normalizer": {
            "mean": model.normalizer.mean.tolist(),
            "inv_std": model.normalizer.inv_std.tolist(),
        },
        "seed": int(model.seed),
    }
    mjson = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(mjson)), mjson]
    for arr in (model.w1, model.b1, model.w2, model.b2):
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def model_from_bytes(blob: bytes) -> MlpModel:
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("not a model container (bad magic bytes)")
    offset = len(MAGIC)
    (mlen,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    manifest = json.loads(blob[offset : offset + mlen].decode("utf-8"))
    offset += mlen
    for key in ("dims", "normalizer", "vocabulary", "grid", "frame_params"):
        if key not in manifest:
            raise ValueError(f"model manifest lacks required key {key!r}")

    dims = manifest["dims"]
    d, h, c = dims["d"], dims["h"], dims["c"]
    shapes = [(h, d), (h,), (c, h), (c,)]
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        arrays.append(arr.astype(np.float64).reshape(shape))
    if offset != len(blob):
        raise ValueError(f"model container has {len(blob) - offset} trailing bytes")

    norm = FeatureNormalizer(
        np.asarray(manifest["normalizer"]["mean"], dtype=np.float64),
        np.asarray(manifest["normalizer"]["inv_std"], dtype=np.float64),
    )
    vocab = ClassVocabulary(tuple((int(a), int(b)) for a, b in manifest["vocabulary"]))
    if len(vocab) != c:
        raise ValueError("vocabulary size disagrees with output dimension")
    grid = ClassGrid(**manifest["grid"])
    frame_params = FrameParams(**manifest["frame_params"])
    return MlpModel(*arrays, norm, vocab, grid, frame_params, seed=manifest.get("seed", 0))


def save_model(model: MlpModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path) -> MlpModel:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
