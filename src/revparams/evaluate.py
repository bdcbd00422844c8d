"""Estimation-error statistics by condition and runtime-cost measurement.

Errors are estimate minus truth (seconds for T60, dB for DRR), summarized
per (noise kind, SNR) group as box-plot statistics: quartiles by linear
interpolation, outliers beyond 1.5*IQR from the quartiles, whiskers at the
most extreme non-outliers.

Runtime cost is the real-time factor: processing time over audio duration,
averaged as mean-of-ratios, with a per-stage split over the three timed
stages: log-mel spectrogram, Gabor features and MLP forward pass. FPS
converts via RTF = frame rate / FPS, with the front end's
``FrameParams().frame_rate()`` of 100 frames/s (10 ms hop).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimator import StageTimes, check_filterbank, estimate_from_posteriors, frame_posteriors
from .frontend import FrameParams
from .mlp import MlpModel
from .parallel import map_items


@dataclass
class BoxStats:
    median: float
    q25: float
    q75: float
    whisker_lo: float
    whisker_hi: float
    outliers: list
    n: int


def boxplot_stats(values) -> BoxStats:
    """Box-plot summary of a sample (n >= 1)."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    q25, median, q75 = np.percentile(values, [25.0, 50.0, 75.0])
    iqr = q75 - q25
    lo_fence, hi_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = values[(values >= lo_fence) & (values <= hi_fence)]
    outliers = values[(values < lo_fence) | (values > hi_fence)]
    return BoxStats(
        median=float(median),
        q25=float(q25),
        q75=float(q75),
        whisker_lo=float(inside.min()),
        whisker_hi=float(inside.max()),
        outliers=sorted(float(v) for v in outliers),
        n=int(values.size),
    )


@dataclass
class EvalRecord:
    item_id: int
    t60: float
    drr: float
    t60_hat: float
    drr_hat: float
    e_t60: float
    e_drr: float
    noise_kind: str
    snr_db: float | None
    audio_s: float
    times: StageTimes


@dataclass
class RtfReport:
    mean_rtf: float
    fps: float
    stage_rtf: dict


def fps_to_rtf(fps: float) -> float:
    """Real-time factor of a classifier running at ``fps`` front-end frames/s."""
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    return FrameParams().frame_rate() / fps


def measure_rtf(runs) -> RtfReport:
    """Mean-of-ratios RTF over (StageTimes, audio seconds) runs, in total
    and per stage."""
    runs = list(runs)
    if not runs:
        raise ValueError("no runs to measure")
    audio = np.asarray([a for _, a in runs], dtype=np.float64)
    if np.any(audio <= 0.0):
        raise ValueError("every run needs positive audio duration")
    proc = np.asarray([t.total_s for t, _ in runs])
    stage_rtf = {
        "logmel": float(np.mean(np.asarray([t.logmel_s for t, _ in runs]) / audio)),
        "gabor": float(np.mean(np.asarray([t.gabor_s for t, _ in runs]) / audio)),
        "mlp_forward": float(np.mean(np.asarray([t.mlp_s for t, _ in runs]) / audio)),
    }
    fps = FrameParams().frame_rate() * audio.sum() / proc.sum() if proc.sum() > 0 else float("inf")
    return RtfReport(mean_rtf=float(np.mean(proc / audio)), fps=float(fps), stage_rtf=stage_rtf)


@dataclass
class EvalResult:
    records: list
    stats: dict  # (noise_kind, snr_db) -> {"t60": BoxStats, "drr": BoxStats}
    rtf: RtfReport | None  # None when no item could be estimated
    excluded: list = field(default_factory=list)  # (item_id, reason)


def evaluate(items, model: MlpModel, jobs: int = 1) -> EvalResult:
    """Run the estimator over a list of CorpusItems and summarize errors by
    condition.

    Items that cannot be read or estimated (e.g. too short or silent) are
    excluded from the statistics and reported in ``excluded``, in item
    order for any ``jobs``. Use jobs=1 whenever the timing figures matter.
    A model that does not take the filterbank's features raises before
    any item is read.
    """
    check_filterbank(model)

    def run_one(pair):
        idx, item = pair
        try:
            audio = item.audio()
            post, times = frame_posteriors(audio, model)
            est = estimate_from_posteriors(post, model)
        except (OSError, ValueError) as exc:
            return idx, str(exc)
        return EvalRecord(
            item_id=idx,
            t60=item.t60,
            drr=item.drr,
            t60_hat=est.t60_hat,
            drr_hat=est.drr_hat,
            e_t60=est.t60_hat - item.t60,
            e_drr=est.drr_hat - item.drr,
            noise_kind=item.noise_kind,
            snr_db=item.snr_db,
            audio_s=audio.duration,
            times=times,
        )

    results = map_items(run_one, enumerate(items), jobs)
    records = [r for r in results if isinstance(r, EvalRecord)]
    excluded = [r for r in results if not isinstance(r, EvalRecord)]

    stats = {}
    # by kind, then SNR as a number; a kind's SNR-less group goes last
    keys = {(r.noise_kind, r.snr_db) for r in records}
    for key in sorted(keys, key=lambda k: (k[0], k[1] is None, k[1] or 0.0)):
        group = [r for r in records if (r.noise_kind, r.snr_db) == key]
        stats[key] = {
            "t60": boxplot_stats([r.e_t60 for r in group]),
            "drr": boxplot_stats([r.e_drr for r in group]),
        }

    rtf = measure_rtf([(r.times, r.audio_s) for r in records]) if records else None
    return EvalResult(records, stats, rtf, excluded)
