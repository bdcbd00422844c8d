"""Non-blind room acoustics: ground truth from RIRs and a synthetic-RIR
test oracle.

T60 comes from a least-squares line on the backward-integrated energy decay
curve between -5 and -25 dB (T20-style, extrapolated to 60 dB). DRR splits
the impulse response at +-8 ms around its absolute peak. The synthesizer
inverts both: it builds an exponential-tail RIR whose analyzed (T60, DRR)
match the requested values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import SAMPLE_RATE, AudioBuffer

EDC_FLOOR_DB = -400.0
DRR_INFINITE_DB = 400.0

EDC_FIT_TOP_DB = -5.0  # the T60 line is fitted over [EDC_FIT_BOTTOM_DB, EDC_FIT_TOP_DB]
EDC_FIT_BOTTOM_DB = -25.0
DIRECT_HALF_WINDOW_S = 0.008  # DRR's direct part spans this much either side of the peak

DIRECT_PATH_OFFSET_S = 0.016  # synth_rir puts the direct impulse here
DECAY_LN = 6.0 * np.log(10.0)  # energy decays exp(-DECAY_LN * t / T60)


@dataclass
class Rir:
    """A room impulse response and the location of its absolute peak."""

    taps: AudioBuffer
    peak_index: int = -1

    def __post_init__(self):
        if not np.any(self.taps.samples):
            raise ValueError("RIR has zero energy")
        if self.peak_index < 0:
            self.peak_index = int(np.argmax(np.abs(self.taps.samples)))


def schroeder_edc(rir: Rir) -> np.ndarray:
    """Backward-integrated squared RIR in dB relative to total energy, one
    value per sample; starts at 0 and never increases.

    All-zero tails map to the -400 dB sentinel rather than -inf.
    """
    energy = rir.taps.samples**2
    remaining = np.cumsum(energy[::-1])[::-1]
    total = remaining[0]
    with np.errstate(divide="ignore"):
        values = 10.0 * np.log10(remaining / total)
    values[remaining <= 0.0] = EDC_FLOOR_DB
    return values


def estimate_t60_from_edc(edc: np.ndarray) -> float:
    """T60 from a least-squares line over the EDC samples within
    [EDC_FIT_BOTTOM_DB, EDC_FIT_TOP_DB]: T60 = -60 / slope, slope in dB/s."""
    mask = (edc <= EDC_FIT_TOP_DB) & (edc >= EDC_FIT_BOTTOM_DB)
    if edc.min() > EDC_FIT_BOTTOM_DB or mask.sum() < 2:
        raise ValueError(f"insufficient decay range: EDC never spans [{EDC_FIT_BOTTOM_DB}, {EDC_FIT_TOP_DB}] dB")
    t = np.flatnonzero(mask) / SAMPLE_RATE
    slope = np.polyfit(t, edc[mask], 1)[0]
    if slope >= 0.0:
        raise ValueError("EDC is not decaying over the fit range")
    return -60.0 / slope


def compute_drr(rir: Rir) -> float:
    """Direct-to-reverberation ratio in dB.

    Direct energy is everything within +-DIRECT_HALF_WINDOW_S of the
    absolute peak (window clamped at the signal edges); the remainder is
    reverberant. A zero reverberant part yields the +400 dB sentinel.
    """
    h2 = rir.taps.samples**2
    half = int(round(DIRECT_HALF_WINDOW_S * SAMPLE_RATE))
    lo = max(0, rir.peak_index - half)
    hi = min(len(h2), rir.peak_index + half + 1)
    direct = h2[lo:hi].sum()
    reverb = h2.sum() - direct
    if reverb <= 0.0:
        return DRR_INFINITE_DB
    return float(10.0 * np.log10(direct / reverb))


def synth_rir(t60: float, drr: float, length: float, seed: int) -> Rir:
    """Synthesize an RIR with prescribed analyzed (T60, DRR).

    Construction: a unit direct impulse at 16 ms followed by Gaussian noise
    under an exponential envelope decaying 60 dB per t60. The tail is scaled
    in closed form so that compute_drr recovers drr exactly. Whenever the
    energy budget allows, the noise starts immediately after the impulse
    (inside the direct window) so the decay curve has no flat shelf
    and the T60 fit stays unbiased; at low DRR, where that is infeasible,
    the tail starts after the direct window instead (the resulting shelf
    then sits above the -5 dB fit bound, where it cannot bias the fit).

    Deterministic per seed.
    """
    if t60 <= 0:
        raise ValueError(f"t60 must be positive, got {t60}")
    if length < t60:
        raise ValueError(f"length {length} s too short for t60 {t60} s")
    n = int(round(length * SAMPLE_RATE))
    peak = int(round(DIRECT_PATH_OFFSET_S * SAMPLE_RATE))
    window_end = peak + int(round(DIRECT_HALF_WINDOW_S * SAMPLE_RATE)) + 1  # first sample outside it
    if n <= window_end:
        raise ValueError("length leaves no room for a reverberant tail")

    rng = np.random.default_rng(seed)
    k = np.arange(peak + 1, n)
    envelope = np.exp(-DECAY_LN * (k - (peak + 1)) / (2.0 * SAMPLE_RATE * t60))
    shaped = envelope * rng.standard_normal(len(k))

    # Equalize energy in short blocks so the realized decay curve pins to the
    # ideal exponential; raw chi-square fluctuation would wobble the T60 fit.
    block = 32
    edges = np.arange(0, len(shaped), block)
    actual = np.add.reduceat(shaped**2, edges)
    target = np.add.reduceat(envelope**2, edges)
    lengths = np.diff(np.append(edges, len(shaped)))
    shaped *= np.repeat(np.sqrt(target / actual), lengths)

    in_window = k < window_end
    energy_window = float((shaped[in_window] ** 2).sum())
    energy_tail = float((shaped[~in_window] ** 2).sum())
    if energy_tail <= 0.0:
        raise ValueError("degenerate tail (no energy outside the direct window)")

    ratio = 10.0 ** (drr / 10.0)
    denom = ratio * energy_tail - energy_window
    taps = np.zeros(n)
    taps[peak] = 1.0
    if denom > 0.0:
        # Continuous decay: noise fills the direct window too.
        taps[peak + 1 :] = shaped / np.sqrt(denom)
    else:
        # Low-DRR fallback: keep the direct window clean, scale the tail only.
        taps[window_end:] = shaped[~in_window] / np.sqrt(ratio * energy_tail)
    return Rir(AudioBuffer(taps), peak_index=peak)
