"""2D Gabor filterbank for spectro-temporal modulation features.

Each filter's kernel is a cosine carrier under a separable 2D Hann envelope,
tuned to one (spectral, temporal) modulation frequency pair, made zero-sum
and scaled to unit Frobenius norm (Schaedler, Meyer & Kollmeier, JASA
131(5), 2012). The bank holds only the diagonal filters: 6 temporal
modulation frequencies (2.4 .. 25 Hz) crossed with 8 signed spectral
modulation frequencies (+-0.03125 .. +-0.25 cycles/channel), 48 filters.

A filter's response is the same-size 2D correlation of the log-mel
spectrogram with its kernel, aligned to the envelope peak, with the
spectrogram edge-replicated on both axes. It is sampled at a per-filter
subset of mel channels ("representative channels", stride 1/(4|f_s|));
concatenated over the default bank, built for ``FrameParams()``'s 26
channels at 100 frames/s, this yields exactly 600 features per frame.
``extract_features`` returns them as the front end's ``FrameMatrix``, one
row per log-mel frame.

The bank applies all 48 filters as one linear operator, derived once when
the bank is built:

- Time factors. cos(x + y) = cos x cos y - sin x sin y, so a kernel is
  env_m cos_m (x) env_l cos_l - env_m sin_m (x) env_l sin_l - s env_m (x) env_l
  (scaled by 1/norm): rank <= 3. The filters of one temporal frequency
  share these time factors; the bank keeps an orthonormal basis of them
  per group (18 time kernels in all) and each filter's spectral factors.
- Mel axis. Edge replication is index clamping, so the clamp folds into
  one weight per (time kernel, mel channel, output column): one matrix per
  group (78 x 100 for the default bank).
- Time axis. The spectrogram is edge-padded once at the bank's largest
  extent and transformed with one rfft along its frames, laid out as
  channels x frames so every transform runs along contiguous memory. Each
  group multiplies it by its time-kernel spectra, transforms back, and
  applies its mel matrix.

Each group reads the one rfft and writes its own output columns. The
groups are shared with a helper thread as ``parallel.split`` decides, as
log-mel and the MLP share their row blocks; the bits are those of the
serial loop.

Kernels have exactly zero coefficient sum and the padding replicates
edges, so the features reject any constant offset of the log-mel
spectrogram. A gain g shifts log-mel by ln g only where no entry sits at
the floor ln(FrameParams().log_floor): on such input the features do not
depend on level, up to rounding. Entries at the floor stay there, so an
input with digital silence or a tail decayed below the floor gives
features that change with its gain.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from . import parallel
from .frontend import FrameMatrix, FrameParams

TEMPORAL_MOD_HZ = (2.4, 3.9, 6.2, 9.9, 15.7, 25.0)
SPECTRAL_MOD_CYC = (0.03125, 0.0625, 0.125, 0.25)

# Envelope spans this many carrier half-periods per axis, capped so the
# support stays commensurate with desk-scale spectrograms.
ENVELOPE_HALF_WAVES = 3.5
MAX_TEMPORAL_EXTENT = 99
MAX_SPECTRAL_EXTENT = 25

# Singular values of a group's stacked kernels below this fraction of the
# largest are rounding noise (exact rank is 3); their time factors are dropped.
_RANK_RTOL = 1e-12


@dataclass(frozen=True)
class GaborFilterSpec:
    """Carrier frequencies (radians per channel/frame) and envelope lengths."""

    omega_m: float
    omega_l: float
    w_m: int
    w_l: int


@dataclass(frozen=True)
class GaborFilter:
    spec: GaborFilterSpec
    coeffs: np.ndarray  # real kernel, (w_m + 2) x (w_l + 2), spectral axis first
    representative_channels: tuple


@dataclass(frozen=True)
class TimeKernelGroup:
    """Filters that share one time-factor basis, as one stage of the bank's
    operator.

    ``taps`` holds the r basis kernels, peak-aligned on a common support of
    2 * pad + 1 frames; ``mel_weights`` maps the r x n_mels time-filtered
    channels, flattened kernel-major, to the group's output ``columns``.
    """

    columns: slice
    taps: np.ndarray
    mel_weights: np.ndarray


@dataclass(frozen=True)
class GaborFilterbank:
    """The filters plus the linear operator that applies them all at once
    (``pad`` frames of edge padding per side, one ``TimeKernelGroup`` per run
    of filters with the same temporal carrier), derived on construction.
    Its arrays are read-only, so one bank can serve every thread."""

    filters: tuple
    n_mels: int
    frame_rate: float
    pad: int = field(init=False, repr=False, compare=False)
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pad = max(f.coeffs.shape[1] // 2 for f in self.filters)
        object.__setattr__(self, "pad", pad)
        object.__setattr__(self, "groups", _time_kernel_groups(self.filters, self.n_mels, pad))

    @property
    def feature_dim(self) -> int:
        return sum(len(f.representative_channels) for f in self.filters)


def hann_product_envelope(w_m: int, w_l: int) -> np.ndarray:
    """Separable product of two Hann windows on support [0, W+1] per axis.

    h(n; W) = 0.5 - 0.5*cos(2*pi*n/(W+1)); zero along all edges, unit peak
    at n = (W+1)/2 on each axis when W is odd.
    """
    if w_m < 1 or w_l < 1:
        raise ValueError("envelope lengths must be >= 1")

    def hann(w):
        n = np.arange(w + 2)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (w + 1))

    return np.outer(hann(w_m), hann(w_l))


def make_gabor_filter(spec: GaborFilterSpec, representative_channels: tuple = ()) -> GaborFilter:
    """Build one Gabor filter: the real part of carrier times envelope, made
    zero-sum and scaled to unit Frobenius norm.

    The carrier phase reference sits at the envelope peak (W+1)/2 on each
    axis, so kernels are even around the peak.
    """
    env = hann_product_envelope(spec.w_m, spec.w_l)
    a = np.arange(spec.w_m + 2)[:, None] - (spec.w_m + 1) / 2.0
    b = np.arange(spec.w_l + 2)[None, :] - (spec.w_l + 1) / 2.0
    raw = np.cos(spec.omega_m * a + spec.omega_l * b) * env

    # Zero the plain coefficient sum so correlation rejects constant inputs
    # exactly, then normalize the energy. Scaling by the reciprocal norm (not
    # dividing), and adding 0.0 to turn the -0.0 products on the envelope's
    # zero edges into +0.0, keep the exported kernels byte-identical to their
    # pinned digests.
    real = raw - env * (raw.sum() / env.sum())
    kernel = real * (1.0 / np.linalg.norm(real)) + 0.0
    kernel.flags.writeable = False
    return GaborFilter(spec, kernel, tuple(representative_channels))


def _envelope_length(mod_freq: float, cap: int) -> int:
    """Half-wave rule: the envelope spans ENVELOPE_HALF_WAVES carrier
    half-periods, W = round(nu / (2 f)) - 1, capped."""
    w = int(np.floor(ENVELOPE_HALF_WAVES / (2.0 * mod_freq) + 0.5)) - 1
    return min(w, cap)


def representative_channel_stride(f_s: float) -> int:
    """Channel sampling stride for spectral modulation magnitude |f_s|."""
    return int(round(1.0 / (4.0 * abs(f_s))))


def build_diagonal_filterbank(
    n_mels: int = FrameParams().n_mels, frame_rate: float = FrameParams().frame_rate()
) -> GaborFilterbank:
    """Construct the 48-filter diagonal bank (600 features at ``FrameParams()``'s 26 channels).

    Ordering: temporal frequency ascending, spectral frequency ascending
    (-0.25 .. -0.03125, then +0.03125 .. +0.25) within each temporal block.
    """
    if n_mels < 8:
        raise ValueError("need at least 8 mel channels")
    signed_spectral = sorted([-f for f in SPECTRAL_MOD_CYC] + list(SPECTRAL_MOD_CYC))
    filters = []
    for f_t in TEMPORAL_MOD_HZ:
        f_t_per_frame = f_t / frame_rate
        w_l = _envelope_length(f_t_per_frame, MAX_TEMPORAL_EXTENT)
        for f_s in signed_spectral:
            w_m = _envelope_length(abs(f_s), MAX_SPECTRAL_EXTENT)
            spec = GaborFilterSpec(
                omega_m=2.0 * np.pi * f_s,
                omega_l=2.0 * np.pi * f_t_per_frame,
                w_m=w_m,
                w_l=w_l,
            )
            channels = tuple(range(0, n_mels, representative_channel_stride(f_s)))
            filters.append(make_gabor_filter(spec, channels))
    return GaborFilterbank(tuple(filters), n_mels, frame_rate)


def _time_kernel_groups(filters: tuple, n_mels: int, pad: int) -> tuple:
    """Factor each run of filters with the same temporal carrier into a
    shared time-kernel basis and one mel matrix with the clamp folded in."""
    groups = []
    start = 0
    for _, run in groupby(filters, key=lambda f: (f.spec.omega_l, f.spec.w_l)):
        run = list(run)
        _, sv, vt = np.linalg.svd(np.concatenate([f.coeffs for f in run]), full_matrices=False)
        basis = vt[sv > sv[0] * _RANK_RTOL]  # r x time support, orthonormal rows
        first = pad - (basis.shape[1] - 1) // 2
        taps = np.zeros((len(basis), 2 * pad + 1))
        taps[:, first : first + basis.shape[1]] = basis
        blocks = []
        for f in run:
            height = f.coeffs.shape[0]
            mel = np.array(f.representative_channels)[:, None] + np.arange(height) - (height - 1) // 2
            clamp = np.eye(n_mels)[np.clip(mel, 0, n_mels - 1)]  # channel x spectral tap x mel
            blocks.append(np.einsum("ar,cam->rmc", f.coeffs @ basis.T, clamp))
        weights = np.concatenate(blocks, axis=2)
        stop = start + weights.shape[2]
        taps.flags.writeable = weights.flags.writeable = False  # the reshaped view inherits it
        groups.append(TimeKernelGroup(slice(start, stop), taps, weights.reshape(-1, stop - start)))
        start = stop
    return tuple(groups)


def _fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: the FFT length scipy.fft.next_fast_len(n, real=True) picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())  # least p35 * 2^a >= n
            p35 *= 3
        p5 *= 5
    return best


def extract_features(spec: FrameMatrix, bank: GaborFilterbank) -> FrameMatrix:
    """Filter a log-mel spectrogram with every filter in the bank and sample
    each response at that filter's representative channels.

    Returns one row per spectrogram frame, columns concatenated in
    filterbank order.
    """
    values = spec.values
    if values.shape[1] != bank.n_mels:
        raise ValueError(f"spectrogram has {values.shape[1]} channels, filterbank expects {bank.n_mels}")
    n_frames, pad = values.shape[0], bank.pad
    # Correlation through one FFT length: no wrap-around reaches the n_frames
    # outputs as long as n_fft covers the padded input. The transforms run
    # along the last, contiguous axis: channels x frames.
    n_fft = _fast_len(n_frames + 2 * pad)
    spectrum = np.fft.rfft(np.pad(values.T, ((0, 0), (pad, pad)), mode="edge"), n_fft)
    out = np.empty((n_frames, bank.feature_dim))

    def apply(group):
        kernel_spectra = np.fft.rfft(group.taps, n_fft).conj()
        product = (spectrum * kernel_spectra[:, None, :]).reshape(-1, spectrum.shape[1])
        filtered = np.ascontiguousarray(np.fft.irfft(product, n_fft)[:, :n_frames].T)
        np.matmul(filtered, group.mel_weights, out=out[:, group.columns])

    parallel.split(apply, bank.groups, n_frames)
    return FrameMatrix(out)


def export_filterbank(bank: GaborFilterbank, out_dir) -> None:
    """Dump each filter's kernel as a plain-text matrix (row = spectral
    axis) plus a manifest line per filter for debugging."""
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, filt in enumerate(bank.filters):
        np.savetxt(os.path.join(out_dir, f"filter_{i:02d}.txt"), filt.coeffs)
        f_t = filt.spec.omega_l * bank.frame_rate / (2.0 * np.pi)
        f_s = filt.spec.omega_m / (2.0 * np.pi)
        chans = ",".join(str(c) for c in filt.representative_channels)
        lines.append(f"{i}\t{f_t:.6g}\t{f_s:.6g}\t{filt.spec.w_l}\t{filt.spec.w_m}\t{chans}")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
