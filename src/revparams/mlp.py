"""From-scratch 3-layer perceptron: 600 -> H sigmoid -> C softmax.

Covers feature normalization, deterministic minibatch SGD training with
momentum and best-validation checkpointing, exact gradients (exposed for
finite-difference checking), and a bit-exact binary model container that
embeds everything estimation needs: normalizer, class vocabulary, grid and
front-end parameters.

Training math runs in float64; finished weights are snapped to float32
precision so the container round-trips forward outputs bit-exactly.
`forward` and `gradient` accept float32 frames without a float64 copy:
the normalizer upcasts them exactly, so the math and every result stay
float64.

Rows are processed in blocks of at most BLOCK_ROWS (1,024), so float64
temporaries stay cache-sized whatever the input length. `forward` splits
longer inputs into near-equal blocks; `fit_normalizer` streams its column
sums through one (BLOCK_ROWS + 1, D) float64 buffer. `train` therefore
holds the training set in float32 plus one float64 block, never a float64
copy of the set. Both give the same bits as one pass over all rows.

`train` overlaps each epoch's metrics pass with the next epoch's SGD on
one helper thread, but only when the loaded BLAS runs one thread and the
process may use two or more CPUs; otherwise the pass runs inline. The
pass reads a copy of the epoch's weights and no random state, and each
single-threaded BLAS call gives the same bits on any thread, so the
output bits are identical either way.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import math
import os
import struct
from concurrent import futures
from dataclasses import dataclass, fields

import numpy as np

from .frontend import BLOCK_ROWS, FrameParams, row_blocks
from .grid import ClassGrid, ClassVocabulary, center_of

MAGIC = b"RVPM1\x00"

_STD_FLOOR = 1e-6


@dataclass
class FeatureNormalizer:
    mean: np.ndarray
    inv_std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.subtract(x, self.mean, dtype=np.float64)
        out *= self.inv_std
        return out


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


def _column_sum(mats, buf: np.ndarray, center=None) -> np.ndarray:
    """Float64 column sums of every row of ``mats`` (squared deviations
    from ``center`` when given), in row order.

    Each block of at most BLOCK_ROWS rows goes into ``buf[1:]`` behind the
    running sum in ``buf[0]``. A reduce over axis 0 of a C-contiguous
    (rows, D >= 2) array adds row after row to 0.0, so reducing
    ``buf[:k + 1]`` continues the order of one reduce over all rows.
    """
    buf[0] = 0.0
    for m in mats:
        for start in range(0, len(m), BLOCK_ROWS):
            block = m[start : start + BLOCK_ROWS]
            rows = buf[1 : len(block) + 1]
            if center is None:
                rows[...] = block
            else:
                np.subtract(block, center, out=rows)
                np.square(rows, out=rows)
            buf[0] = np.add.reduce(buf[: len(block) + 1], axis=0)
    return buf[0].copy()


def fit_normalizer(feature_matrices) -> FeatureNormalizer:
    """Per-dimension mean and inverse standard deviation (population
    convention, std floored at 1e-6) over all frames of all matrices,
    streamed in row blocks without a float64 copy of the data.

    Bit-identical to ``mean``/``std`` over the concatenated float64 frames
    for D >= 2. For D = 1 numpy sums that one column pairwise, so the last
    bits may differ.
    """
    mats = [np.atleast_2d(np.asarray(m)) for m in feature_matrices]
    n = sum(len(m) for m in mats)
    if n < 2:
        raise ValueError(f"need at least 2 frames to fit a normalizer, got {n}")
    dim = mats[0].shape[1]
    if any(m.shape[1] != dim for m in mats):
        raise ValueError("inconsistent feature dimensions")
    buf = np.empty((BLOCK_ROWS + 1, dim))
    mean = _column_sum(mats, buf) / n
    std = np.sqrt(_column_sum(mats, buf, center=mean) / n)
    return FeatureNormalizer(mean, 1.0 / np.maximum(std, _STD_FLOOR))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e) for x >= 0 and e/(1+e)
    below, with e = exp(min(x, -x)) (min keeps a NaN's sign)."""
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, x >= 0, out=e)  # the numerator: 1 where x >= 0 (e <= 1 there), else e
    np.divide(e, d, out=e)
    return e


def softmax(logits: np.ndarray, out=None) -> np.ndarray:
    ex = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex


def _forward_parts(model: MlpModel, x: np.ndarray, out=None):
    xn = model.normalizer.apply(x)
    a1 = xn @ model.w1.T
    a1 += model.b1
    z1 = sigmoid(a1)
    logits = z1 @ model.w2.T
    logits += model.b2
    return xn, z1, softmax(logits, out=out)


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class posteriors for one feature row (D,) or a batch (T, D).

    Runs the ``row_blocks`` of the input, each written into the one
    (T, C) result, which equals one pass over all rows; tests/test_mlp.py
    (``test_forward_matches_reference``) checks that bit for bit.
    """
    x = np.asarray(features)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.d:
        raise ValueError(f"feature dimension {x.shape[1]} != model input dimension {model.d}")
    post = np.empty((len(x), model.c))
    for rows, out in row_blocks(x, post):
        _forward_parts(model, rows, out=out)
    return post[0] if single else post


def cross_entropy(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean frame-level cross-entropy of a batch."""
    return float(_batched_metrics(model, np.atleast_2d(features), np.asarray(labels))[0])


def gradient(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> dict:
    """Exact gradients of mean batch cross-entropy w.r.t. all parameters."""
    x = np.atleast_2d(np.asarray(features))
    labels = np.asarray(labels, dtype=np.intp)
    if x.shape[1] != model.d:
        raise ValueError(f"feature dimension {x.shape[1]} != model input dimension {model.d}")
    if labels.shape != (x.shape[0],):
        raise ValueError("labels must match the batch length")
    xn, z1, post = _forward_parts(model, x)
    n = x.shape[0]
    d_logits = post
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    d_z1 = d_logits @ model.w2
    d_z1 *= z1
    d_z1 *= 1.0 - z1
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


_METRICS_CHUNK = 8192  # rows per forward call, which bounds the posteriors held at once


def _batched_metrics(model: MlpModel, x: np.ndarray, y: np.ndarray):
    total_nll = 0.0
    correct = 0
    for start in range(0, len(x), _METRICS_CHUNK):
        yb = y[start : start + _METRICS_CHUNK]
        post = forward(model, x[start : start + _METRICS_CHUNK])
        picked = post[np.arange(len(yb)), yb]
        total_nll -= np.log(np.maximum(picked, 1e-300)).sum()
        correct += int((post.argmax(axis=1) == yb).sum())
    return total_nll / len(x), correct / len(x)


def _epoch_metrics(model: MlpModel, x_train, y_train, x_val, y_val) -> dict:
    """One epoch's history row without its epoch number."""
    train_ce, train_acc = _batched_metrics(model, x_train, y_train)
    val_ce, val_acc = _batched_metrics(model, x_val, y_val) if len(x_val) else (float("nan"), float("nan"))
    return {"train_ce": train_ce, "train_acc": train_acc, "val_ce": val_ce, "val_acc": val_acc}


# numpy and scipy bundle OpenBLAS builds with prefixed and 64-bit-index names.
_OPENBLAS_THREAD_GETTERS = [f"{p}get_num_threads{s}" for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")]


def _blas_threads() -> int | None:
    """The thread count that every OpenBLAS mapped into this process reports
    (numpy and scipy each bundle one), or None when there is none, they
    disagree, or one cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
        counts = set()
        for path in (p for p in paths if "openblas" in os.path.basename(p).lower()):
            lib = ctypes.CDLL(path)
            getter = next((getattr(lib, name) for name in _OPENBLAS_THREAD_GETTERS if hasattr(lib, name)), None)
            if getter is None:
                return None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            counts.add(getter())
    except OSError:
        return None
    return counts.pop() if len(counts) == 1 else None


def _metrics_in_thread() -> bool:
    """Whether ``train`` runs the metrics pass on a helper thread: only when
    BLAS runs one thread and this process may use at least two CPUs. Two
    callers of a multi-threaded BLAS oversubscribe the cores and run slower
    than one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus >= 2 and _blas_threads() == 1


def _submit(pool, fn, *args):
    """Start ``fn(*args)`` on ``pool``, or run it now when ``pool`` is None.
    Returns a callable that gives the result or raises ``fn``'s exception."""
    if pool is None:
        value = fn(*args)
        return lambda: value
    return pool.submit(fn, *args).result


def train(
    dataset,
    config: TrainConfig,
    grid: ClassGrid,
    vocabulary: ClassVocabulary,
    frame_params: FrameParams = FrameParams(),
):
    """Fit the MLP on (frames, class id) pairs, frames a (T, D) array.

    Splits off a validation fraction at the utterance level, fits the
    feature normalizer on the training portion, then runs minibatch SGD
    with momentum. Returns the snapshot with the best validation
    cross-entropy (training cross-entropy when no validation split) and the
    per-epoch history as a list of dicts.

    Each epoch's metrics pass runs on a copy of that epoch's weights; when
    ``_metrics_in_thread()`` holds, on a helper thread while the next
    epoch's SGD runs. Results are collected in epoch order, so at most two
    copies are alive, and an exception in the pass reaches the caller.

    Shuffling, weight init and batching all derive from config.seed; two
    runs with identical inputs produce bit-identical models, with or
    without the helper thread.
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
        mats.append(np.atleast_2d(np.asarray(features, dtype=np.float32)))
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

    normalizer = fit_normalizer([x_train])
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

    keys = ("w1", "b1", "w2", "b2")
    velocity = {k: np.zeros_like(getattr(model, k)) for k in keys}
    best = {k: getattr(model, k).copy() for k in keys}
    best_score = np.inf
    history = []

    def collect(epoch, snapshot, result):
        nonlocal best, best_score
        row = result()
        history.append({"epoch": epoch, **row})
        score = row["val_ce"] if len(x_val) else row["train_ce"]
        if score < best_score:
            best_score, best = score, snapshot

    helper = futures.ThreadPoolExecutor(1, thread_name_prefix="revparams-metrics") if _metrics_in_thread() else None
    with helper or contextlib.nullcontext():
        pending = None
        for epoch in range(config.epochs):
            perm = rng.permutation(len(x_train))
            for start in range(0, len(perm), config.batch_size):
                idx = perm[start : start + config.batch_size]
                grads = gradient(model, x_train[idx], y_train[idx])
                for key, g in grads.items():
                    velocity[key] *= config.momentum
                    velocity[key] += g
                    getattr(model, key)[...] -= config.learning_rate * velocity[key]
            if pending is not None:
                collect(*pending)
            snapshot = {k: getattr(model, k).copy() for k in keys}
            metrics = _submit(
                helper, _epoch_metrics, dataclasses.replace(model, **snapshot), x_train, y_train, x_val, y_val
            )
            pending = epoch, snapshot, metrics
        collect(*pending)

    for key, value in best.items():
        setattr(model, key, _snap_f32(value))
    return model, history


# --- model container -------------------------------------------------------
#
# Layout: magic "RVPM1\0", uint32 little-endian manifest length, UTF-8 JSON
# manifest, then raw little-endian float32 blobs W1 (row-major), b1, W2, b2.


def model_to_bytes(model: MlpModel) -> bytes:
    fp = model.frame_params
    manifest = {
        "dims": {"d": model.d, "h": model.h, "c": model.c},
        "grid": dataclasses.asdict(model.grid),
        "vocabulary": [[int(a), int(b)] for a, b in model.vocabulary.cells],
        "frame_params": dataclasses.asdict(fp),
        "filterbank": {"n_mels": fp.n_mels, "frame_rate": fp.frame_rate()},
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


def _section(manifest: dict, key: str, names) -> dict:
    """``manifest[key]``, checked to be an object with exactly the keys ``names``."""
    section = manifest[key]
    if not isinstance(section, dict):
        raise ValueError(f"model manifest key {key!r} is not an object")
    for name in names:
        if name not in section:
            raise ValueError(f"model manifest lacks required key {f'{key}.{name}'!r}")
    for name in section:
        if name not in names:
            raise ValueError(f"model manifest has unknown key {f'{key}.{name}'!r}")
    return section


def _number(value, key: str, integer: bool):
    """``value``, checked to be an int if ``integer``, else a finite real."""
    ok = isinstance(value, int) or (not integer and isinstance(value, float) and math.isfinite(value))
    if isinstance(value, bool) or not ok:
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"model manifest key {key!r} must be {kind}, got {value!r}")
    return value


def _params(manifest: dict, key: str, cls):
    """``cls(**manifest[key])``, each field checked against its int/float annotation."""
    section = _section(manifest, key, [f.name for f in fields(cls)])
    for f in fields(cls):
        _number(section[f.name], f"{key}.{f.name}", integer=f.type in (int, "int"))
    return cls(**section)


def model_from_bytes(blob: bytes) -> MlpModel:
    """Parse a model container; any malformed or inconsistent part raises
    ValueError naming it."""
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("not a model container (bad magic bytes)")
    offset = len(MAGIC) + 4
    if len(blob) < offset:
        raise ValueError(f"model container truncated: {len(blob)} bytes < {offset}-byte header")
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC))
    if offset + mlen > len(blob):
        raise ValueError(f"model container truncated: its {mlen}-byte manifest runs past the end")
    manifest = json.loads(blob[offset : offset + mlen].decode("utf-8"))
    offset += mlen
    if not isinstance(manifest, dict):
        raise ValueError("model manifest is not a JSON object")
    for key in ("dims", "normalizer", "vocabulary", "grid", "frame_params"):
        if key not in manifest:
            raise ValueError(f"model manifest lacks required key {key!r}")

    dims = _section(manifest, "dims", ("d", "h", "c"))
    d, h, c = dims["d"], dims["h"], dims["c"]
    if not all(isinstance(n, int) and n >= 1 for n in (d, h, c)):
        raise ValueError(f"model manifest dims must be positive integers, got {dims}")
    shapes = [(h, d), (h,), (c, h), (c,)]
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        arrays.append(arr.astype(np.float64).reshape(shape))
    if offset != len(blob):
        raise ValueError(f"model container has {len(blob) - offset} trailing bytes")
    for name, arr in zip(("w1", "b1", "w2", "b2"), arrays):
        if not np.isfinite(arr).all():
            raise ValueError(f"model array {name!r} has non-finite entries")

    normalizer = _section(manifest, "normalizer", ("mean", "inv_std"))
    for name in ("mean", "inv_std"):
        if not isinstance(normalizer[name], list):
            raise ValueError(f"model manifest key 'normalizer.{name}' must be a list of numbers")
        for value in normalizer[name]:
            _number(value, f"normalizer.{name}", integer=False)
    norm = FeatureNormalizer(
        np.asarray(normalizer["mean"], dtype=np.float64),
        np.asarray(normalizer["inv_std"], dtype=np.float64),
    )
    if norm.mean.shape != (d,) or norm.inv_std.shape != (d,):
        raise ValueError(f"normalizer shapes {norm.mean.shape}/{norm.inv_std.shape}, expected ({d},)")
    cells = manifest["vocabulary"]
    if not isinstance(cells, list) or not all(isinstance(cell, list) and len(cell) == 2 for cell in cells):
        raise ValueError("model manifest key 'vocabulary' must be a list of [t60_bin, drr_bin] pairs")
    vocab = ClassVocabulary(tuple(tuple(_number(i, "vocabulary", integer=True) for i in cell) for cell in cells))
    if len(vocab) != c:
        raise ValueError("vocabulary size disagrees with output dimension")
    grid = _params(manifest, "grid", ClassGrid)
    for cell in vocab.cells:
        center_of(grid, cell)  # raises for a cell outside the grid
    fp = _params(manifest, "frame_params", FrameParams)
    seed = _number(manifest.get("seed", 0), "seed", integer=True)
    return MlpModel(*arrays, norm, vocab, grid, fp, seed=seed)


def save_model(model: MlpModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path) -> MlpModel:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
