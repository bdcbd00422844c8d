"""From-scratch 3-layer perceptron: 600 -> H sigmoid -> C softmax.

Covers feature normalization, deterministic minibatch SGD training with
momentum and best-validation checkpointing, exact gradients (exposed for
finite-difference checking), and a bit-exact binary model container that
embeds everything estimation needs: weights, normalizer and class
vocabulary, with the fixed grid and front end named and checked on load.
Its length must be what the manifest's dims give, checked in Python ints
before numpy reads a weight, and ``load_model`` names the file in every
error it raises.

Training math runs in float64; finished weights are snapped to float32
precision so the container round-trips forward outputs bit-exactly.
`forward` and `gradient` accept float32 frames without a float64 copy:
the normalizer upcasts them exactly, so the math and every result stay
float64.

Rows are processed in blocks of at most BLOCK_ROWS (1,024), so float64
temporaries stay cache-sized whatever the input length. `forward` runs
the near-equal ``parallel.row_blocks`` of its input, normalized into one
reused float64 block buffer per thread; `fit_normalizer` streams its
column sums through one (BLOCK_ROWS + 1, D) float64 buffer. Both give the
same bits as one pass over all rows. `train` reads the caller's
per-utterance float32 matrices in place, never a stacked copy of the set:
SGD gathers each shuffled batch into one (batch_size, D) buffer, and the
metrics pass takes `forward`'s row blocks straight into its block buffers.

`forward` shares its row blocks with a helper thread, and each `train`
step runs one epoch's SGD beside the previous epoch's metrics pass, both
as ``parallel.split`` decides. The pass reads a copy of the epoch's
weights and no random state, each block writes only its own rows, and
each single-threaded BLAS call gives the same bits on any thread, so the
output bits are identical either way.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import parallel
from .audio_io import naming
from .frontend import FrameParams
from .grid import ClassGrid, ClassVocabulary, center_of
from .parallel import BLOCK_ROWS, row_blocks

MAGIC = b"RVPM1\x00"

_STD_FLOOR = 1e-6

# MlpModel's weight fields, in the order the container stores them
_WEIGHTS = ("w1", "b1", "w2", "b2")


@dataclass
class FeatureNormalizer:
    mean: np.ndarray
    inv_std: np.ndarray

    def apply(self, x: np.ndarray, out=None) -> np.ndarray:
        out = np.subtract(x, self.mean, dtype=np.float64, out=out)
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
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1 or self.hidden_units < 1:
            raise ValueError("batch_size, epochs and hidden_units must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    seed: int = 0
    grid: ClassVar[ClassGrid] = ClassGrid()
    frame_params: ClassVar[FrameParams] = FrameParams()

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def h(self) -> int:
        return self.w1.shape[0]

    @property
    def c(self) -> int:
        return self.w2.shape[0]


class _Rows:
    """The rows of a list of (T_i, D) matrices, read in place in list order
    as if stacked: ``mats[i]`` holds rows ``offsets[i]`` to
    ``offsets[i + 1]``, and ``y`` is the label of each row. ``take`` is the
    one reader.
    """

    def __init__(self, mats, y):
        self.mats = mats
        self.offsets = np.cumsum([0] + [len(m) for m in mats])
        self.y = y

    def __len__(self) -> int:
        return int(self.offsets[-1])

    def take(self, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Rows ``rows``, in that order, into ``out[:len(rows)]``. A run of
        consecutive rows, as the metrics pass and the normalizer ask for,
        is copied as one slice per matrix; other requests row by row."""
        if len(rows) and (np.diff(rows) == 1).all():
            start, stop = int(rows[0]), int(rows[-1]) + 1
            first = int(np.searchsorted(self.offsets, start, side="right")) - 1
            for i in range(first, len(self.mats)):
                lo, hi = max(start, self.offsets[i]), min(stop, self.offsets[i + 1])
                if lo >= stop:
                    break
                out[lo - start : hi - start] = self.mats[i][lo - self.offsets[i] : hi - self.offsets[i]]
            return out[: len(rows)]
        which = np.searchsorted(self.offsets, rows, side="right") - 1  # past the empty matrices
        for j, (i, r) in enumerate(zip(which.tolist(), (rows - self.offsets[which]).tolist())):
            out[j] = self.mats[i][r]
        return out[: len(rows)]


def _column_sum(rows: _Rows, buf: np.ndarray, center=None) -> np.ndarray:
    """Float64 column sums of ``rows`` (squared deviations from ``center``
    when given), in row order.

    Each block of at most BLOCK_ROWS rows is taken into ``buf[1:]`` behind
    the running sum in ``buf[0]``. A reduce over axis 0 of a C-contiguous
    (rows, D >= 2) array adds row after row to 0.0, so reducing
    ``buf[:k + 1]`` continues the order of one reduce over all rows.
    """
    buf[0] = 0.0
    for start in range(0, len(rows), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(rows))
        block = rows.take(np.arange(start, stop), buf[1:])
        if center is not None:
            block -= center
            np.square(block, out=block)
        buf[0] = np.add.reduce(buf[: stop - start + 1], axis=0)
    return buf[0].copy()


def _fit_normalizer(rows: _Rows) -> FeatureNormalizer:
    if len(rows) < 2:
        raise ValueError(f"need at least 2 frames to fit a normalizer, got {len(rows)}")
    buf = np.empty((BLOCK_ROWS + 1, rows.mats[0].shape[1]))
    mean = _column_sum(rows, buf) / len(rows)
    std = np.sqrt(_column_sum(rows, buf, center=mean) / len(rows))
    return FeatureNormalizer(mean, 1.0 / np.maximum(std, _STD_FLOOR))


def fit_normalizer(frames: np.ndarray) -> FeatureNormalizer:
    """Per-dimension mean and inverse standard deviation (population
    convention, std floored at 1e-6) over the rows of a (T, D) array,
    streamed in row blocks without a float64 copy of the data.

    Bit-identical to ``mean``/``std`` over the float64 frames for D >= 2.
    For D = 1 numpy sums that one column pairwise, so the last bits may
    differ.
    """
    return _fit_normalizer(_Rows([np.asarray(frames)], None))


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


def _forward_parts(model: MlpModel, xn: np.ndarray, out=None):
    """Hidden activations and posteriors of normalized rows ``xn``."""
    a1 = xn @ model.w1.T
    a1 += model.b1
    z1 = sigmoid(a1)
    logits = z1 @ model.w2.T
    logits += model.b2
    return z1, softmax(logits, out=out)


def _forward_blocks(model: MlpModel, x, post: np.ndarray, take=lambda block, buf: block) -> None:
    """Posteriors into ``post`` of each of the ``row_blocks`` of ``x``, shared
    with a helper thread as ``split`` decides. A block's rows ``take(block,
    buf)`` are normalized into ``buf``, a float64 buffer of the first (largest)
    block's size that each thread reuses: one allocation per thread, not per
    block."""
    blocks = list(row_blocks(x, post, width=min(model.h, model.c)))
    free = []  # the buffers no thread holds; list.pop and append are atomic

    def run(block):
        try:
            buf = free.pop()
        except IndexError:
            buf = np.empty((len(blocks[0][0]), model.d))
        _forward_parts(model, model.normalizer.apply(take(block[0], buf), out=buf[: len(block[0])]), out=block[1])
        free.append(buf)

    parallel.split(run, blocks, len(post))


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class posteriors (T, C) of a batch of feature rows (T, D).

    Runs the ``row_blocks`` of the input, read as views, into the one (T, C)
    result, which equals one pass over all rows; tests/test_mlp.py
    (``test_forward_matches_reference``) checks that bit for bit.
    """
    x = np.asarray(features)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise ValueError(f"features of shape {x.shape}, model input needs (T, {model.d})")
    post = np.empty((len(x), model.c))
    _forward_blocks(model, x, post)
    return post


def _checked_batch(model: MlpModel, features, labels) -> tuple:
    """``features`` as a (T, D) array with T >= 1 and ``labels`` as T class
    ids in [0, C); anything else raises ValueError naming it."""
    x = np.asarray(features)
    labels = np.asarray(labels, dtype=np.intp)
    if x.ndim != 2 or x.shape[1] != model.d or not len(x):
        raise ValueError(f"features of shape {x.shape}, model input needs (T >= 1, {model.d})")
    if labels.shape != (len(x),):
        raise ValueError(f"labels of shape {labels.shape} for {len(x)} rows: need one label per row")
    if not 0 <= labels.min() <= labels.max() < model.c:
        raise ValueError(f"labels span [{labels.min()}, {labels.max()}], outside the classes [0, {model.c})")
    return x, labels


def cross_entropy(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean frame-level cross-entropy of a (T, D) batch."""
    x, labels = _checked_batch(model, features, labels)
    return float(_batched_metrics(model, _Rows([x], labels))[0])


def gradient(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> dict:
    """Exact gradients of mean (T, D) batch cross-entropy w.r.t. all parameters."""
    x, labels = _checked_batch(model, features, labels)
    xn = model.normalizer.apply(x)
    z1, post = _forward_parts(model, xn)
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
    with np.errstate(over="ignore"):  # train refuses the infinities, without a warning
        return a.astype(np.float32).astype(np.float64)


_METRICS_CHUNK = 8192  # rows summed per posterior array, which bounds the posteriors held at once


def _batched_metrics(model: MlpModel, rows: _Rows):
    """Mean cross-entropy and accuracy of ``rows``, summed over chunks of
    at most _METRICS_CHUNK rows. Each chunk runs ``forward``'s row blocks,
    each block's rows taken into the buffer ``forward`` normalizes into."""
    total_nll = 0.0
    correct = 0
    for start in range(0, len(rows), _METRICS_CHUNK):
        stop = min(start + _METRICS_CHUNK, len(rows))
        yb = rows.y[start:stop]
        post = np.empty((stop - start, model.c))
        _forward_blocks(model, np.arange(start, stop), post, rows.take)
        picked = post[np.arange(len(yb)), yb]
        total_nll -= np.log(np.maximum(picked, 1e-300)).sum()
        correct += int((post.argmax(axis=1) == yb).sum())
    return total_nll / len(rows), correct / len(rows)


def _epoch_metrics(model: MlpModel, train_rows: _Rows, val_rows: _Rows) -> dict:
    """One epoch's history row without its epoch number."""
    train_ce, train_acc = _batched_metrics(model, train_rows)
    val_ce, val_acc = _batched_metrics(model, val_rows) if len(val_rows) else (float("nan"), float("nan"))
    return {"train_ce": train_ce, "train_acc": train_acc, "val_ce": val_ce, "val_acc": val_acc}


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
    per-epoch history as a list of dicts; raises ValueError when no epoch's
    cross-entropy is finite or a weight of the best snapshot overflows
    float32. ``grid`` and ``frame_params``
    can only be the fixed ``ClassGrid()`` and ``FrameParams()``, which the
    model carries as class constants.

    The matrices are read in place (float32 C-contiguous ones are not
    copied, others are converted once each). Each SGD batch, metrics row
    block and normalizer block is gathered into a batch- or block-sized
    buffer holding the rows, in the order, that one stacked copy would
    give, so the bits are those of training on a stacked copy.

    Each step is one ``parallel.split`` over two parts: the caller runs
    the next epoch's SGD and the helper thread the metrics pass of a copy
    of this epoch's weights. The last pass runs alone on the caller. Rows
    are taken in epoch order when the step returns, so at most two copies
    are alive, the one being scored and the best, and an exception in
    either part reaches the caller.

    Shuffling, weight init and batching all derive from config.seed, and
    only SGD draws from it; two runs with identical inputs produce
    bit-identical models, whether or not the steps split.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("empty training dataset")
    n_classes = len(vocabulary)
    mats = []
    utt_labels = []
    for i, (features, class_id) in enumerate(dataset):
        class_id = int(class_id)
        if not 0 <= class_id < n_classes:
            raise ValueError(f"class id {class_id} out of range for {n_classes} classes")
        mat = np.asarray(features, dtype=np.float32, order="C")
        if mat.ndim != 2:
            raise ValueError(f"utterance {i} has features of shape {mat.shape}, training needs (T, D)")
        mats.append(mat)
        utt_labels.append(class_id)
    dim = mats[0].shape[1]
    if any(m.shape[1] != dim for m in mats):
        raise ValueError("inconsistent feature dimensions in dataset")

    rng = np.random.default_rng(config.seed)

    order = rng.permutation(len(mats))
    n_val = min(int(round(config.validation_fraction * len(mats))), len(mats) - 1)
    val_idx, train_idx = order[:n_val], order[n_val:]

    lengths = np.array([len(m) for m in mats])
    labels = np.array(utt_labels, dtype=np.intp)
    train_rows, val_rows = (
        _Rows([mats[i] for i in idx], np.repeat(labels[idx], lengths[idx])) for idx in (train_idx, val_idx)
    )
    normalizer = _fit_normalizer(train_rows)
    model = MlpModel(
        w1=glorot_init(rng, config.hidden_units, dim),
        b1=np.zeros(config.hidden_units),
        w2=glorot_init(rng, n_classes, config.hidden_units),
        b2=np.zeros(n_classes),
        normalizer=normalizer,
        vocabulary=vocabulary,
        seed=config.seed,
    )

    velocity = {k: np.zeros_like(getattr(model, k)) for k in _WEIGHTS}

    batch_buf = np.empty((min(config.batch_size, len(train_rows)), dim), dtype=np.float32)

    def sgd_epoch():
        perm = rng.permutation(len(train_rows))
        for start in range(0, len(perm), config.batch_size):
            rows = perm[start : start + config.batch_size]
            grads = gradient(model, train_rows.take(rows, batch_buf), train_rows.y[rows])
            for key, g in grads.items():
                velocity[key] *= config.momentum
                velocity[key] += g
                getattr(model, key)[...] -= config.learning_rate * velocity[key]

    best, best_score = None, np.inf
    history = []
    sgd_epoch()
    for epoch in range(config.epochs):
        scored = dataclasses.replace(model, **{k: getattr(model, k).copy() for k in _WEIGHTS})
        row = {"epoch": epoch}

        def metrics_pass():
            row.update(_epoch_metrics(scored, train_rows, val_rows))

        # this epoch's metrics pass beside the next epoch's SGD, which the caller runs
        parts = [sgd_epoch] * (epoch + 1 < config.epochs) + [metrics_pass]
        parallel.split(lambda part: part(), parts, len(train_rows))
        history.append(row)
        score = row["val_ce"] if len(val_rows) else row["train_ce"]
        if score < best_score:
            best_score, best = score, scored

    # NaN never compares below the initial inf: the weights would be the untrained ones.
    if best_score == np.inf:
        raise ValueError("no epoch gave a finite cross-entropy: non-finite features, or training diverged")
    for key in _WEIGHTS:
        snapped = _snap_f32(getattr(best, key))
        # a finite cross-entropy does not bound the weights; load_model refuses infinite ones
        if not np.isfinite(snapped).all():
            raise ValueError(f"trained {key} has entries beyond float32 range: training diverged")
        setattr(model, key, snapped)
    return model, history


# --- model container -------------------------------------------------------
#
# Layout: magic "RVPM1\0", uint32 little-endian manifest length, UTF-8 JSON
# manifest, then the _WEIGHTS as raw little-endian float32 blobs, each
# row-major, and nothing after them.


# The estimator has one grid and one front end. A manifest names them in
# these sections, and the loader refuses a model with any other value.
_FIXED = {
    "grid": dataclasses.asdict(ClassGrid()),
    "frame_params": dataclasses.asdict(FrameParams()),
    "filterbank": {"n_mels": FrameParams().n_mels, "frame_rate": FrameParams().frame_rate()},
}

_MANIFEST_KEYS = ("dims", "grid", "vocabulary", "frame_params", "filterbank", "normalizer", "seed")


def _exact_keys(obj: dict, names, prefix: str = "") -> None:
    """Raise naming the first of ``names`` missing from ``obj``, else the
    first key of ``obj`` not in ``names``."""
    for name in names:
        if name not in obj:
            raise ValueError(f"model manifest lacks required key {prefix + name!r}")
    for name in obj:
        if name not in names:
            raise ValueError(f"model manifest has unknown key {prefix + name!r}")


def _section(manifest: dict, key: str, names) -> dict:
    """``manifest[key]``, checked to be an object with exactly the keys ``names``."""
    section = manifest[key]
    if not isinstance(section, dict):
        raise ValueError(f"model manifest key {key!r} is not an object")
    _exact_keys(section, names, f"{key}.")
    return section


def _check_fixed(manifest: dict) -> None:
    """Raise naming the first key of the grid, frame_params and filterbank
    sections whose value (or JSON type) differs from ``_FIXED``."""
    for key, expected in _FIXED.items():
        section = _section(manifest, key, expected)
        for name, value in expected.items():
            got = section[name]
            if type(got) is not type(value) or got != value:
                raise ValueError(f"model manifest key {f'{key}.{name}'!r} is {got!r}, not the fixed {value!r}")


def model_to_bytes(model: MlpModel) -> bytes:
    """The model container."""
    manifest = {
        "dims": {"d": model.d, "h": model.h, "c": model.c},
        "vocabulary": [[int(a), int(b)] for a, b in model.vocabulary.cells],
        **_FIXED,
        "normalizer": {
            "mean": model.normalizer.mean.tolist(),
            "inv_std": model.normalizer.inv_std.tolist(),
        },
        "seed": int(model.seed),
    }
    mjson = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", len(mjson)), mjson]
    parts += [np.ascontiguousarray(getattr(model, name), dtype="<f4").tobytes() for name in _WEIGHTS]
    return b"".join(parts)


def _number(value, key: str, integer: bool):
    """``value``, checked to be an int if ``integer``, else a finite number: an int or float within float range."""
    ok = isinstance(value, int) if integer else isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not ok:
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"model manifest key {key!r} must be {kind}, got {value!r}")
    return value


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
    try:
        manifest = json.loads(blob[offset : offset + mlen].decode("utf-8"))
    except RecursionError:
        raise ValueError("model manifest is nested too deeply to parse") from None
    offset += mlen
    if not isinstance(manifest, dict):
        raise ValueError("model manifest is not a JSON object")
    _exact_keys(manifest, _MANIFEST_KEYS)
    _check_fixed(manifest)

    dims = _section(manifest, "dims", ("d", "h", "c"))
    d, h, c = (_number(dims[k], f"dims.{k}", integer=True) for k in ("d", "h", "c"))
    if min(d, h, c) < 1:
        raise ValueError(f"model manifest dims must be positive integers, got {dims}")
    shapes = ((h, d), (h,), (c, h), (c,))  # of the _WEIGHTS
    sizes = [math.prod(shape) for shape in shapes]
    size = offset + 4 * sum(sizes)  # Python ints: dims of any size give a length, not an overflow
    if len(blob) > size:
        raise ValueError(f"model container has {len(blob) - size} trailing bytes")
    if len(blob) < size:
        raise ValueError(f"model container truncated: {len(blob)} bytes, its dims need {size}")
    weights = np.split(np.frombuffer(blob, dtype="<f4", offset=offset).astype(np.float64), np.cumsum(sizes[:-1]))
    arrays = {name: arr.reshape(shape) for name, arr, shape in zip(_WEIGHTS, weights, shapes)}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"model array {name!r} has non-finite entries")

    normalizer = _section(manifest, "normalizer", ("mean", "inv_std"))
    for name in ("mean", "inv_std"):
        if not isinstance(normalizer[name], list):
            raise ValueError(f"model manifest key 'normalizer.{name}' must be a list of numbers")
        for value in normalizer[name]:
            _number(value, f"normalizer.{name}", integer=False)
    norm = FeatureNormalizer(*(np.asarray(normalizer[name], dtype=np.float64) for name in ("mean", "inv_std")))
    if norm.mean.shape != (d,) or norm.inv_std.shape != (d,):
        raise ValueError(f"normalizer shapes {norm.mean.shape}/{norm.inv_std.shape}, expected ({d},)")
    cells = manifest["vocabulary"]
    if not isinstance(cells, list) or not all(isinstance(cell, list) and len(cell) == 2 for cell in cells):
        raise ValueError("model manifest key 'vocabulary' must be a list of [t60_bin, drr_bin] pairs")
    vocab = ClassVocabulary(tuple(tuple(_number(i, "vocabulary", integer=True) for i in cell) for cell in cells))
    if len(vocab) != c:
        raise ValueError("vocabulary size disagrees with output dimension")
    for cell in vocab.cells:
        center_of(MlpModel.grid, cell)  # raises for a cell outside the grid
    seed = _number(manifest["seed"], "seed", integer=True)
    if seed < 0:
        raise ValueError(f"model manifest key 'seed' must be >= 0, got {seed}")
    return MlpModel(**arrays, normalizer=norm, vocabulary=vocab, seed=seed)


def save_model(model: MlpModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path) -> MlpModel:
    """The model in the container file ``path``; a malformed one raises
    ValueError naming the file."""
    with naming(path), open(path, "rb") as fh:
        return model_from_bytes(fh.read())
