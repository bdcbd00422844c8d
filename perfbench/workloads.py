"""The three benchmark workloads. Each is a closed loop with one client
(one call at a time, the next after the previous returns) in one process.

- ``estimate-long``: 24 recordings of 60 s speech through ``read_wav`` ->
  ``estimate_utterance``, cycled. Per-frame work dominates; every input has
  the same length, so a cache keyed on input length always hits.
- ``estimate-short``: 240 recordings of 0.5-3 s speech (plus the 0.75 s
  reverberant tail), each with a different number of frames, cycled in a
  fixed order. Per-call costs weigh far more; a cache keyed on input length
  that holds fewer than 240 entries misses on every call.
- ``train``: ``train`` at H=256, batch 256 on a fixed 216-item feature set,
  repeated; after each call the trained model estimates 108 held-out
  recordings. SGD and the per-epoch metrics pass do the timed work; Gabor
  and log-mel run only in set-up and in the held-out scoring.

Untraced runs time the package's own entry points. Traced runs alternate,
call by call, that path with the same work decomposed into each module's
public functions inside spans; the paired difference is the tracing
overhead. Only names exported from ``revparams`` are called.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import revparams as rp

MODEL_PATH = Path(__file__).resolve().parent / "model" / "estimate.rvpm"
MODEL_SHA256 = "fd68e9b240484770b2845f1a0382bbfbd0370a23c3615dfee441cfaedc2325a7"
# Every workload records in the twelve rooms ``inputs.room_rirs(ROOMS_SEED)``,
# the rooms the fixed model was trained in; the seed varies speech and noise.
# The desk-scale MLP learns each room's RIR realization, not (T60, DRR) in
# general: on other realizations of the same rooms it scores near chance.
ROOMS_SEED = 2015

HIDDEN_UNITS = 256
BATCH = 256
LEARNING_RATE = 0.1
METRICS_CHUNK = 8192  # frames per forward call in the training-metrics pass


@dataclass(frozen=True)
class Sizes:
    """Input sizes. The benchmark runs ``Sizes()``; the smoke test shrinks them."""

    long_items: int = 24
    long_speech_s: float = 60.0
    short_items: int = 240
    train_utterances_per_room: int = 2
    train_speech_s: tuple = (1.1, 1.6)
    train_epochs: int = 5
    probe_frames: int = 16384
    gradient_batches: int = 32
    setup_repeats: int = 3


@dataclass
class Outcome:
    """What one run measured."""

    metrics: dict = field(default_factory=dict)  # name -> {"value", "unit"}
    attempted: int = 0
    failed: int = 0
    detail: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def fail(self, what: str) -> None:
        """Count a failed operation; show the first few tracebacks."""
        self.failed += 1
        if self.failed <= 3:
            print(f"failed: {what}\n{traceback.format_exc()}", file=sys.stderr, flush=True)


class Workdir:
    """A scratch directory inside the checkout, removed when the run ends."""

    def __init__(self, root: Path):
        root.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=root))

    def fresh(self, name: str) -> str:
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return str(path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def derive_seed(seed: int, stream: int) -> int:
    """Independent seed for one input stream of a workload."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def train_config(epochs: int, seed: int):
    return rp.TrainConfig(
        learning_rate=LEARNING_RATE,
        epochs=epochs,
        hidden_units=HIDDEN_UNITS,
        batch_size=BATCH,
        seed=seed,
    )


# --- set-up ----------------------------------------------------------------


def load_pipeline(path, tracer, sha256=None):
    """Model and (filterbank, frame params), built as the estimate command
    builds them. With ``sha256``, refuse a model file with other bytes."""
    if sha256 is not None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if digest != sha256:
            raise RuntimeError(f"{path} has sha256 {digest}, expected {sha256}")
    with tracer.span("mlp.load"):
        model = rp.load_model(path)
    with tracer.span("estimator.pipeline"):
        bank, params = rp.pipeline_for(model)
    return model, bank, params


def repeat_setup(setup, repeats: int, tracer, outcome: Outcome):
    """Run ``setup`` ``repeats`` times on identical inputs and keep the last
    result. Set-up time is the median, so work moved into set-up shows and
    one slow repeat does not decide the figure."""
    times, result = [], None
    for r in range(repeats):
        result = None  # drop the previous repeat's inputs before building again
        start = time.perf_counter()
        with tracer.span("setup", f"setup-{r}"):
            result = setup()
        times.append(time.perf_counter() - start)
    outcome.put("setup_s", float(np.median(times)), "s")
    outcome.detail["setup_s_each"] = times
    return result


# --- estimation ------------------------------------------------------------


def check_estimate(est, model) -> None:
    """Raise unless ``est`` is finite, names a vocabulary class, and reports
    exactly that class's cell center."""
    if not (math.isfinite(est.t60_hat) and math.isfinite(est.drr_hat)):
        raise ValueError(f"non-finite estimate ({est.t60_hat}, {est.drr_hat})")
    if not np.all(np.isfinite(est.mean_posterior)):
        raise ValueError("non-finite mean posterior")
    if not 0 <= est.class_id < len(model.vocabulary):
        raise ValueError(f"class {est.class_id} outside the {len(model.vocabulary)}-class vocabulary")
    center = rp.center_of(model.grid, model.vocabulary.cells[est.class_id])
    if (est.t60_hat, est.drr_hat) != center:
        raise ValueError(f"estimate {(est.t60_hat, est.drr_hat)} is not its class center {center}")
    if est.n_frames < 1:
        raise ValueError("estimate over no frames")


def estimate_plain(model, bank, params, path):
    """One call as a user makes it. Returns (estimate, audio s, wall s, None),
    the shape ``estimate_traced`` returns."""
    start = time.perf_counter()
    audio = rp.read_wav(path)
    est = rp.estimate_utterance(audio, model, bank, params)
    return est, audio.duration, time.perf_counter() - start, None


def estimate_traced(model, bank, params, path, tracer, request):
    """The same work decomposed into one span per module; also returns the
    features, which the MLP probes reuse."""
    with tracer.span("estimate", request) as root:
        with tracer.span("audio_io.read"):
            audio = rp.read_wav(path)
        with tracer.span("frontend.logmel") as span:
            spec = rp.log_mel_spectrogram(audio, params)
            span.count = spec.n_frames
        with tracer.span("gabor.extract") as span:
            feats = rp.extract_features(spec, bank)
            span.count = feats.n_frames
        with tracer.span("mlp.forward") as span:
            post = rp.forward(model, feats.values)
            span.count = post.shape[0]
        with tracer.span("estimator.decide"):
            mean = rp.temporal_average(post)
            class_id, t60_hat, drr_hat = rp.decide(mean, model.vocabulary, model.grid)
    est = rp.Estimate(t60_hat, drr_hat, class_id, mean, post.shape[0])
    return est, audio.duration, root.duration, feats.values


@dataclass
class Scored:
    latencies: list = field(default_factory=list)  # untraced wall seconds per call
    traced_latencies: list = field(default_factory=list)
    audio_s: float = 0.0
    frames: int = 0
    decisions: dict = field(default_factory=dict)  # item index -> class id
    features: list = field(default_factory=list)  # (float32 features, item index)


def score(items, model, bank, params, tracer, outcome: Outcome, seconds: float, probe_frames=0, scored=None):
    """Closed loop over ``items``, cycled in order, until ``seconds`` have
    passed and every item ran once; adds to ``scored`` when given. A traced
    run makes every call both ways, alternating which goes first."""
    scored = Scored() if scored is None else scored
    kept = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(items) or time.perf_counter() < deadline:
        index = k % len(items)
        path = items[index].path
        order = ("plain", "traced") if k % 2 == 0 else ("traced", "plain")
        for how in order if tracer.enabled else ("plain",):
            outcome.attempted += 1
            try:
                if how == "plain":
                    est, audio_s, wall, _ = estimate_plain(model, bank, params, path)
                else:
                    est, audio_s, wall, feats = estimate_traced(model, bank, params, path, tracer, k)
                check_estimate(est, model)
                first = scored.decisions.setdefault(index, est.class_id)
                if est.class_id != first:
                    raise ValueError(f"item {index}: class {est.class_id}, earlier {first}")
            except Exception:
                outcome.fail(f"{how} estimate of {path}")
                continue
            if how == "plain":
                scored.latencies.append(wall)
                scored.audio_s += audio_s
                scored.frames += est.n_frames
            else:
                scored.traced_latencies.append(wall)
                if k < len(items) and kept < probe_frames:
                    scored.features.append((feats.astype(np.float32), index))
                    kept += len(feats)
        k += 1
    if not scored.latencies:
        raise RuntimeError("every estimate failed")
    return scored


def put_estimate_metrics(outcome: Outcome, items, scored: Scored, model) -> None:
    lat_ms = 1e3 * np.asarray(scored.latencies)
    busy = float(np.sum(scored.latencies))
    outcome.put("rtf", busy / scored.audio_s, "ratio")
    outcome.put("latency_ms_p50", np.percentile(lat_ms, 50), "ms")
    outcome.put("latency_ms_p90", np.percentile(lat_ms, 90), "ms")
    outcome.put("frames_per_s", scored.frames / busy, "1/s")
    hits = sum(
        model.vocabulary.cells[scored.decisions[i]] == item.cell
        for i, item in enumerate(items)
        if i in scored.decisions
    )
    outcome.put("cell_accuracy", hits / len(items), "fraction")
    outcome.detail["estimates"] = len(lat_ms)
    outcome.detail["estimates_beyond_p90"] = int(np.sum(lat_ms > np.percentile(lat_ms, 90)))


def put_peak_rss(outcome: Outcome) -> None:
    outcome.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")


# --- per-layer metrics (traced runs) -----------------------------------------


def _median_self_ms(tracer, name: str) -> float:
    return 1e3 * float(np.median(tracer.self_times(name)))


def _median_total_ms(tracer, name: str) -> float:
    """Median over requests (set-up repeats) of the layer's total time."""
    totals = defaultdict(float)
    for span in tracer.named(name):
        totals[span.request] += span.duration
    return 1e3 * float(np.median(list(totals.values())))


def put_setup_layers(outcome: Outcome, tracer) -> None:
    for layer, metric in (
        ("corpus.build", "corpus.build_ms"),
        ("acoustics.ground_truth", "acoustics.ground_truth_ms"),
        ("mlp.load", "mlp.load_ms"),
        ("estimator.pipeline", "estimator.pipeline_ms"),
    ):
        outcome.put(metric, _median_total_ms(tracer, layer), "ms")


def put_estimate_layers(outcome: Outcome, tracer, scored: Scored, model, bank) -> None:
    """Per-call medians of the decomposed estimate path's spans."""
    calls = {s.id for s in tracer.named("estimate")}

    def in_calls(name):
        return [s for s in tracer.named(name) if s.parent in calls]

    for layer, metric in (
        ("audio_io.read", "audio_io.read_ms"),
        ("frontend.logmel", "frontend.logmel_ms"),
        ("gabor.extract", "gabor.extract_ms"),
        ("mlp.forward", "mlp.forward_ms"),
        ("estimator.decide", "estimator.decide_ms"),
    ):
        outcome.put(metric, 1e3 * float(np.median([s.duration for s in in_calls(layer)])), "ms")
    for layer, metric in (
        ("frontend.logmel", "frontend.frames"),
        ("gabor.extract", "gabor.frames"),
        ("mlp.forward", "mlp.forward_frames"),
    ):
        outcome.put(metric, float(np.median([s.count for s in in_calls(layer)])), "count")
    # Outputs kept per frame over outputs the filterbank computes per frame:
    # each filter today correlates over all mel channels and keeps a subset.
    outcome.put(
        "gabor.kept_output_ratio", bank.feature_dim / (len(bank.filters) * bank.n_mels), "ratio"
    )
    forward = in_calls("mlp.forward")
    flop_per_frame = 2.0 * (model.d * model.h + model.h * model.c)
    busy = sum(s.duration for s in forward)
    outcome.put(
        "mlp.forward_gflop_s", flop_per_frame * sum(s.count for s in forward) / busy / 1e9, "GFLOP/s"
    )
    plain = float(np.median(scored.latencies))
    traced = float(np.median(scored.traced_latencies))
    outcome.put("tracing.overhead_pct", 100.0 * (traced - plain) / plain, "%")


def put_mlp_layers(outcome: Outcome, tracer, model, frames, labels, seed: int, batches: int) -> None:
    """Time ``gradient`` on 256-frame batches and a metrics-style forward
    pass (8,192-frame chunks) over ``frames``, with the given model."""
    rng = np.random.default_rng(seed)
    n_batches = min(batches, max(1, len(frames) // BATCH))
    picks = rng.permutation(len(frames))[: n_batches * BATCH].reshape(n_batches, -1)
    for batch in picks:
        with tracer.span("mlp.gradient"):
            grads = rp.gradient(model, frames[batch], labels[batch])
        if not all(np.all(np.isfinite(g)) for g in grads.values()):
            raise ValueError("non-finite gradient")
    outcome.put("mlp.gradient_ms_per_batch", _median_self_ms(tracer, "mlp.gradient"), "ms")
    with tracer.span("mlp.metrics_forward"):
        for start in range(0, len(frames), METRICS_CHUNK):
            post = rp.forward(model, frames[start : start + METRICS_CHUNK])
            if not np.all(np.isfinite(post)):
                raise ValueError("non-finite posteriors")
    outcome.put("mlp.metrics_forward_ms", _median_self_ms(tracer, "mlp.metrics_forward"), "ms")


def timed_train(dataset, config, grid, vocabulary, tracer, request):
    """One ``train`` call, checked: finite weights, one history entry per
    epoch. Returns (model, wall seconds)."""
    with tracer.span("mlp.train", request) as span:
        start = time.perf_counter()
        model, history = rp.train(dataset, config, grid, vocabulary)
        wall = time.perf_counter() - start
        span.count = config.epochs
    if len(history) != config.epochs:
        raise ValueError(f"history has {len(history)} entries for {config.epochs} epochs")
    for key in ("w1", "b1", "w2", "b2"):
        if not np.all(np.isfinite(getattr(model, key))):
            raise ValueError(f"non-finite {key} after training")
    return model, wall


def put_train_ms(outcome: Outcome, tracer) -> None:
    per_epoch = [s.duration / s.count for s in tracer.named("mlp.train")]
    outcome.put("mlp.train_ms", 1e3 * float(np.median(per_epoch)), "ms")


# --- workloads -------------------------------------------------------------


def run_estimate(kind: str, seed: int, seconds: float, tracer, workdir: Workdir, sizes: Sizes):
    outcome = Outcome()
    grid = rp.ClassGrid()

    def setup():
        rirs = inputs.room_rirs(ROOMS_SEED)
        out_dir = workdir.fresh("items")
        if kind == "long":
            items = inputs.long_recordings(
                sizes.long_items, sizes.long_speech_s, rirs, derive_seed(seed, 1), out_dir, grid, tracer
            )
        else:
            items = inputs.short_recordings(sizes.short_items, rirs, derive_seed(seed, 1), out_dir, grid, tracer)
        model, bank, params = load_pipeline(MODEL_PATH, tracer, MODEL_SHA256)
        missing = {item.cell for item in items} - set(model.vocabulary.cells)
        if missing:
            raise RuntimeError(f"input cells {sorted(missing)} are not in the model vocabulary")
        return items, model, bank, params

    items, model, bank, params = repeat_setup(setup, sizes.setup_repeats, tracer, outcome)
    scored = score(items, model, bank, params, tracer, outcome, seconds, sizes.probe_frames)
    put_estimate_metrics(outcome, items, scored, model)
    put_peak_rss(outcome)
    if tracer.enabled:
        put_setup_layers(outcome, tracer)
        put_estimate_layers(outcome, tracer, scored, model, bank)
        frames = np.concatenate([f for f, _ in scored.features])
        labels = np.concatenate(
            [np.full(len(f), model.vocabulary.class_id_of(items[i].cell)) for f, i in scored.features]
        )
        put_mlp_layers(outcome, tracer, model, frames, labels, derive_seed(seed, 3), sizes.gradient_batches)
        # One epoch on the same frames, labelled with their rooms' cells.
        dataset = [(f, model.vocabulary.class_id_of(items[i].cell)) for f, i in scored.features]
        timed_train(dataset, train_config(1, seed), grid, model.vocabulary, tracer, "probe")
        put_train_ms(outcome, tracer)
    return outcome


def run_train(seed: int, seconds: float, tracer, workdir: Workdir, sizes: Sizes):
    outcome = Outcome()
    grid, params = rp.ClassGrid(), rp.FrameParams()

    def setup():
        bank = rp.build_diagonal_filterbank(params.n_mels, params.frame_rate())
        rirs = inputs.room_rirs(ROOMS_SEED)
        manifest, speech = inputs.training_corpus(
            derive_seed(seed, 0), rirs, sizes.train_utterances_per_room, sizes.train_speech_s, grid, tracer
        )
        dataset = inputs.features(manifest, params, bank, tracer)
        # Held out: the first utterance of each room again, under fresh noise
        # in all nine conditions. A model trained for seconds on 24 talkers
        # scores near chance on new talkers, too noisy a figure to guard with.
        heldout = inputs.rerecorded(
            speech[: len(inputs.ROOMS)], rirs, derive_seed(seed, 1), workdir.fresh("heldout"), grid, tracer
        )
        return dataset, manifest.vocabulary, heldout

    dataset, vocabulary, heldout = repeat_setup(setup, sizes.setup_repeats, tracer, outcome)
    n_frames = sum(len(f) for f, _ in dataset)
    config = train_config(sizes.train_epochs, seed)
    rates, trained, scored = [], None, Scored()
    deadline = time.perf_counter() + seconds
    while trained is None or time.perf_counter() < deadline:
        outcome.attempted += 1
        try:
            model, wall = timed_train(dataset, config, grid, vocabulary, tracer, f"train-{len(rates)}")
            if trained is not None and not all(
                np.array_equal(getattr(model, key), getattr(trained, key)) for key in ("w1", "b1", "w2", "b2")
            ):
                raise ValueError("training twice with one seed gave different weights")
        except Exception:
            outcome.fail("train")
            if trained is None and outcome.attempted >= 3:
                raise RuntimeError("every training call failed") from None
            continue
        rates.append(n_frames * config.epochs / wall)
        if trained is None:
            trained = model
            model_path = str(Path(workdir.fresh("model")) / "trained.rvpm")
            rp.save_model(trained, model_path)
            estimator = load_pipeline(model_path, tracer)  # (model, bank, params)
        # Score the held-out set after every training (the weights are
        # identical each time), so estimate timings span the whole run too.
        score(heldout, *estimator, tracer, outcome, 0.0, scored=scored)

    model, bank, _ = estimator
    put_estimate_metrics(outcome, heldout, scored, model)
    outcome.put("frames_per_s", float(np.median(rates)), "1/s")
    outcome.detail.update(train_frames=n_frames, train_calls=len(rates))
    put_peak_rss(outcome)
    if tracer.enabled:
        put_setup_layers(outcome, tracer)
        put_estimate_layers(outcome, tracer, scored, model, bank)
        frames = np.concatenate([f for f, _ in dataset])
        labels = np.concatenate([np.full(len(f), c) for f, c in dataset])
        put_mlp_layers(outcome, tracer, model, frames, labels, derive_seed(seed, 3), sizes.gradient_batches)
        put_train_ms(outcome, tracer)
    return outcome


WORKLOADS = {
    "estimate-long": lambda *a: run_estimate("long", *a),
    "estimate-short": lambda *a: run_estimate("short", *a),
    "train": run_train,
}
