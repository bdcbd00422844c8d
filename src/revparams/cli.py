"""Command-line interface: one binary for the whole pipeline.

Subcommands: filters, features, ground-truth, synth, train, estimate,
evaluate, bench. Exit codes: 0 success, 1 usage error, 2 data error.
Diagnostics go to stderr; results go to stdout or the paths given by
--out style flags.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .acoustics import Rir, compute_drr, estimate_t60_from_edc, schroeder_edc
from .audio_io import read_wav
from .corpus import NOISE_KINDS, build_corpus, read_manifest_items
from .estimator import check_filterbank, estimate_from_posteriors, filterbank, frame_posteriors, gabor_features
from .evaluate import evaluate, measure_rtf
from .gabor import export_filterbank
from .grid import ClassGrid, build_vocabulary, cell_of
from .mlp import TrainConfig, load_model, save_model, train
from .parallel import map_items


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1 (not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


@contextlib.contextmanager
def _naming(name: str):
    """Prefix a ValueError raised inside with ``name``, the input it is
    about, unless its message starts with it already (read_wav's do)."""
    try:
        yield
    except ValueError as exc:
        if str(exc).startswith(f"{name}: "):
            raise
        raise ValueError(f"{name}: {exc}") from exc


def _wav_files(directory: str) -> list:
    files = sorted(glob.glob(os.path.join(directory, "*.wav")))
    if not files:
        raise ValueError(f"no .wav files in {directory}")
    return files


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _snrs(text: str) -> list:
    try:
        snrs = [float(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}") from None
    if not all(math.isfinite(snr) for snr in snrs):
        raise argparse.ArgumentTypeError(f"SNRs must be finite, got {text!r}")
    if not snrs:
        raise argparse.ArgumentTypeError(f"no SNR in {text!r}")
    return snrs


def _noise_kinds(text: str) -> list:
    kinds = [kind for kind in text.split(",") if kind]
    for kind in kinds:
        if kind not in NOISE_KINDS:
            raise argparse.ArgumentTypeError(f"unknown noise kind {kind!r}, expected any of {NOISE_KINDS}")
    if not kinds:
        raise argparse.ArgumentTypeError(f"no noise kind in {text!r}")
    return kinds


def _json(obj, **kwargs) -> str:
    """Strict JSON: a NaN or infinity raises instead of writing a file that
    JSON parsers reject."""
    return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)


def cmd_filters(args) -> int:
    bank = filterbank()
    export_filterbank(bank, args.out)
    _log(f"wrote {len(bank.filters)} filters (feature_dim={bank.feature_dim}) to {args.out}")
    return 0


def cmd_features(args) -> int:
    with _naming(args.input):
        feats = gabor_features(read_wav(args.input, channel=args.channel))[0]
    if args.out:
        np.savetxt(args.out, feats, delimiter=",")
        _log(f"wrote {feats.shape[0]} x {feats.shape[1]} features to {args.out}")
    else:
        np.savetxt(sys.stdout, feats, delimiter=",")
    return 0


def cmd_ground_truth(args) -> int:
    with _naming(args.rir):
        rir = Rir(read_wav(args.rir, channel=args.channel))
    drr = compute_drr(rir)
    try:
        t60 = estimate_t60_from_edc(schroeder_edc(rir))
    except ValueError as exc:
        _log(f"warning: T60 not measurable ({exc})")
        t60 = float("nan")
    print(f"t60_s={t60:.3f} drr_db={drr:.2f} peak_sample={rir.peak_index}")
    return 0


def _read_each(directory: str, wrap=lambda audio: audio) -> list:
    """``wrap(read_wav(path))`` for each WAV in ``directory``, in sorted
    order; a ValueError names its file."""
    out = []
    for path in _wav_files(directory):
        with _naming(path):
            out.append(wrap(read_wav(path)))
    return out


def cmd_synth(args) -> int:
    speech = _read_each(args.speech_dir)
    rirs = _read_each(args.rir_dir, Rir)
    manifest = build_corpus(
        speech,
        rirs,
        args.noise,
        args.snr,
        ClassGrid(),
        seed=args.seed,
        out_dir=args.out,
        jobs=args.jobs,
    )
    _log(f"wrote {len(manifest.items)} items and manifest.csv to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        batch_size=args.batch_size,
        epochs=args.epochs,
        hidden_units=args.hidden,
        seed=args.seed,
        validation_fraction=args.val_fraction,
    )
    items = read_manifest_items(args.manifest)
    grid = ClassGrid()
    vocabulary = build_vocabulary(grid, [(it.t60, it.drr) for it in items])
    for i, it in enumerate(items):
        with _naming(f"manifest item {i}"):
            expected = vocabulary.class_id_of(cell_of(grid, it.t60, it.drr))
            if it.class_id != expected:
                raise ValueError(f"class id {it.class_id} disagrees with grid cell (expected {expected})")
    _log(f"extracting features for {len(items)} items")
    # float32 as extracted: train reads float32 matrices in place, so this
    # list is the one copy of the training set
    dataset = []
    for i, it in enumerate(items):
        with _naming(f"manifest item {i}"):
            dataset.append((gabor_features(it.audio())[0].astype(np.float32), it.class_id))
    _log(f"training {filterbank().feature_dim} -> {config.hidden_units} -> {len(vocabulary)}")
    model, history = train(dataset, config, grid, vocabulary)
    print("epoch\ttrain_ce\ttrain_acc\tval_ce\tval_acc")
    for row in history:
        print(
            f"{row['epoch']}\t{row['train_ce']:.6f}\t{row['train_acc']:.4f}"
            f"\t{row['val_ce']:.6f}\t{row['val_acc']:.4f}"
        )
    save_model(model, args.out)
    _log(f"saved model to {args.out}")
    return 0


def _posterior_csvs(directory: str, inputs: list) -> dict:
    """Each input's per-frame posterior CSV in ``directory``; raises
    ValueError naming two inputs that would write the same one."""
    owner = {}
    for path in inputs:
        stem = os.path.splitext(os.path.basename(path))[0]
        csv = os.path.join(directory, f"{stem}.posteriors.csv")
        if csv in owner:
            raise ValueError(f"--per-frame: inputs {owner[csv]} and {path} would both write {csv}")
        owner[csv] = path
    return {path: csv for csv, path in owner.items()}


def cmd_estimate(args) -> int:
    csvs = _posterior_csvs(args.per_frame, args.inputs) if args.per_frame else None
    model = load_model(args.model)
    check_filterbank(model)  # once, before any input: the error is the model's
    if args.per_frame:
        os.makedirs(args.per_frame, exist_ok=True)

    def run_one(path):
        with _naming(path):
            post, times = frame_posteriors(read_wav(path, channel=args.channel), model)
            if args.per_frame:
                np.savetxt(csvs[path], post, delimiter=",")
            return estimate_from_posteriors(post, model), times

    for path, (est, times) in zip(args.inputs, map_items(run_one, args.inputs, args.jobs)):
        print(f"{path}\t{est.t60_hat:.3f}\t{est.drr_hat:.1f}\t{est.class_id}\t{est.n_frames}")
        if args.verbose:
            _log(
                f"{path}\tframes={est.n_frames}"
                f"\tlogmel_ms={1e3 * times.logmel_s:.3f}\tgabor_ms={1e3 * times.gabor_s:.3f}"
                f"\tmlp_ms={1e3 * times.mlp_s:.3f}"
            )
    return 0


def cmd_evaluate(args) -> int:
    items = read_manifest_items(args.manifest)
    result = evaluate(items, load_model(args.model), jobs=args.jobs)
    for item_id, reason in result.excluded:
        _log(f"excluded item {item_id}: {reason}")

    with open(args.out, "w") as fh:
        fh.write("item,t60,drr,t60_hat,drr_hat,e_t60,e_drr,noise,snr,audio_s,proc_s\n")
        for r in result.records:
            snr = "" if r.snr_db is None else f"{r.snr_db:g}"
            fh.write(
                f"{r.item_id},{r.t60:.6f},{r.drr:.6f},{r.t60_hat:.6f},{r.drr_hat:.6f},"
                f"{r.e_t60:.6f},{r.e_drr:.6f},{r.noise_kind},{snr},{r.audio_s:.6f},{r.times.total_s:.6f}\n"
            )
    _log(f"wrote {len(result.records)} rows to {args.out} ({len(result.excluded)} excluded)")

    rtf = None if result.rtf is None else asdict(result.rtf)
    if args.stats:
        groups = []
        for (kind, snr), axes in result.stats.items():
            groups.append(
                {
                    "noise_kind": kind,
                    "snr_db": snr,
                    "t60": asdict(axes["t60"]),
                    "drr": asdict(axes["drr"]),
                }
            )
        payload = {
            "groups": groups,
            "rtf": rtf,
            "excluded": len(result.excluded),
        }
        text = _json(payload, indent=2)  # before opening: a refused value leaves no partial file
        with open(args.stats, "w") as fh:
            fh.write(text + "\n")
    if args.rtf:
        print(_json(rtf))
    return 0


def cmd_bench(args) -> int:
    model = load_model(args.model)
    check_filterbank(model)
    runs = []
    for path in _wav_files(args.audio_dir):
        with _naming(path):
            audio = read_wav(path)
            post, times = frame_posteriors(audio, model)
            estimate_from_posteriors(post, model)
        runs.append((times, audio.duration))
    print(_json(asdict(measure_rtf(runs))))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="revparams", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42, help="seed for all stochastic steps")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0, help="estimate: each input's frames and stage times on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filters", help="export the Gabor filterbank for inspection")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filters)

    p = sub.add_parser("features", help="extract Gabor features from one WAV")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.add_argument("--channel", type=int, default=0)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("ground-truth", help="non-blind (T60, DRR) from an RIR WAV")
    p.add_argument("rir")
    p.add_argument("--channel", type=int, default=0)
    p.set_defaults(func=cmd_ground_truth)

    p = sub.add_parser("synth", help="synthesize a labeled noisy reverberant corpus")
    p.add_argument("--speech-dir", required=True)
    p.add_argument("--rir-dir", required=True)
    p.add_argument("--noise", type=_noise_kinds, default="ambient,babble,fan")
    p.add_argument("--snr", type=_snrs, default="0,10,20")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the MLP from a corpus manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", type=int, default=256)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="blind (T60, DRR) estimation for WAV files")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--model", required=True)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--per-frame", default=None, help="directory for per-frame posterior CSVs")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="run the estimator over a manifest and summarize errors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None)
    p.add_argument("--rtf", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="real-time factor of the estimate path, one file at a time")
    p.add_argument("--model", required=True)
    p.add_argument("--audio-dir", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
