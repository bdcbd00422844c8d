import numpy as np
import pytest

from revparams.acoustics import (
    DECAY_LN,
    DRR_INFINITE_DB,
    EDC_FLOOR_DB,
    Rir,
    compute_drr,
    estimate_t60_from_edc,
    schroeder_edc,
    synth_rir,
)
from revparams.audio_io import SAMPLE_RATE, AudioBuffer
from revparams.grid import ClassGrid, cell_of


def exponential_rir(t60, n=16000):
    """Deterministic pure-exponential envelope, h^2 decaying 60 dB per t60."""
    k = np.arange(n)
    return Rir(AudioBuffer(np.exp(-DECAY_LN * k / (2 * SAMPLE_RATE * t60))))


class TestSchroederEdc:
    def test_starts_at_zero(self, rng):
        edc = schroeder_edc(Rir(AudioBuffer(rng.standard_normal(2000))))
        assert edc[0] == 0.0

    def test_non_increasing(self, rng):
        edc = schroeder_edc(Rir(AudioBuffer(rng.standard_normal(2000))))
        assert np.all(np.diff(edc) <= 1e-12)

    def test_delta_gives_zero_then_sentinel(self):
        taps = np.zeros(100)
        taps[0] = 1.0
        edc = schroeder_edc(Rir(AudioBuffer(taps)))
        assert edc[0] == 0.0
        assert np.all(edc[1:] == EDC_FLOOR_DB)

    def test_exponential_envelope_slope_is_minus_60_over_t60(self):
        t60 = 0.4
        edc = schroeder_edc(exponential_rir(t60))
        lo, hi = 1000, 4000  # away from the truncation cliff
        t = np.arange(lo, hi) / SAMPLE_RATE
        slope = np.polyfit(t, edc[lo:hi], 1)[0]
        assert slope == pytest.approx(-60.0 / t60, rel=0.005)

    def test_all_zero_rir_rejected(self):
        with pytest.raises(ValueError):
            Rir(AudioBuffer(np.zeros(100)))


class TestT60Fit:
    def test_recovers_half_second_decay(self):
        rir = synth_rir(0.5, 3.0, length=0.9, seed=11)
        t60 = estimate_t60_from_edc(schroeder_edc(rir))
        assert t60 == pytest.approx(0.5, rel=0.02)

    def test_double_decay_rate_halves_estimate(self):
        t1 = estimate_t60_from_edc(schroeder_edc(exponential_rir(0.6)))
        t2 = estimate_t60_from_edc(schroeder_edc(exponential_rir(0.3)))
        assert t1 == pytest.approx(2.0 * t2, rel=0.01)

    def test_scale_invariance(self, rng):
        rir = synth_rir(0.4, 2.0, length=0.7, seed=5)
        scaled = Rir(AudioBuffer(rir.taps.samples * 17.5))
        a = estimate_t60_from_edc(schroeder_edc(rir))
        b = estimate_t60_from_edc(schroeder_edc(scaled))
        assert a == pytest.approx(b, rel=1e-9)

    def test_insufficient_decay_raises(self):
        # flat 100-sample RIR: EDC bottoms out at -20 dB, never reaching -25
        with pytest.raises(ValueError, match="insufficient decay range"):
            estimate_t60_from_edc(schroeder_edc(Rir(AudioBuffer(np.ones(100)))))


class TestDrr:
    def test_equal_split_gives_zero_db(self):
        taps = np.zeros(16000)
        taps[256] = 1.0  # direct window [128, 384]
        taps[5000] = 1.0  # far tail, same energy
        assert compute_drr(Rir(AudioBuffer(taps))) == pytest.approx(0.0, abs=1e-9)

    def test_pure_delta_gives_infinite_sentinel(self):
        taps = np.zeros(1000)
        taps[10] = 0.7
        assert compute_drr(Rir(AudioBuffer(taps))) == DRR_INFINITE_DB

    def test_window_is_257_samples_at_16khz(self):
        # energy at peak +- 128 counts as direct; at +- 129 it is reverberant
        taps = np.zeros(16000)
        taps[1000] = 1.0
        inside = taps.copy()
        inside[1000 + 128] = 1.0
        outside = taps.copy()
        outside[1000 + 129] = 1.0
        assert compute_drr(Rir(AudioBuffer(inside))) == DRR_INFINITE_DB
        assert compute_drr(Rir(AudioBuffer(outside))) == pytest.approx(0.0, abs=1e-9)

    def test_scale_invariance(self):
        rir = synth_rir(0.3, 6.0, length=0.5, seed=2)
        scaled = Rir(AudioBuffer(0.01 * rir.taps.samples))
        assert compute_drr(rir) == pytest.approx(compute_drr(scaled), abs=1e-9)


class TestSynthRir:
    @pytest.mark.parametrize("t60", [0.25, 0.55])
    @pytest.mark.parametrize("drr", [-6.0, 1.0, 15.0])
    def test_self_consistency(self, t60, drr):
        rir = synth_rir(t60, drr, length=1.5 * t60, seed=37)
        assert compute_drr(rir) == pytest.approx(drr, abs=0.05)
        assert estimate_t60_from_edc(schroeder_edc(rir)) == pytest.approx(t60, rel=0.05)

    def test_same_seed_identical(self):
        r1 = synth_rir(0.5, 4.0, length=0.8, seed=99)
        r2 = synth_rir(0.5, 4.0, length=0.8, seed=99)
        np.testing.assert_array_equal(r1.taps.samples, r2.taps.samples)

    def test_different_seed_differs(self):
        r1 = synth_rir(0.5, 4.0, length=0.8, seed=99)
        r2 = synth_rir(0.5, 4.0, length=0.8, seed=100)
        assert not np.array_equal(r1.taps.samples, r2.taps.samples)

    def test_peak_at_16ms(self):
        rir = synth_rir(0.3, 0.0, length=0.5, seed=1)
        assert rir.peak_index == 256

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            synth_rir(0.0, 0.0, length=1.0, seed=0)
        with pytest.raises(ValueError):
            synth_rir(0.5, 0.0, length=0.3, seed=0)

    def test_oracle_loop_recovers_cells_at_centers(self):
        grid = ClassGrid()
        for t60_bin in (1, 3, 6):
            for drr_bin in (0, 7, 14, 20):
                t60 = grid.t60_min + (t60_bin + 0.5) * grid.t60_step
                drr = grid.drr_min + (drr_bin + 0.5) * grid.drr_step
                rir = synth_rir(t60, drr, length=max(1.5 * t60, 0.4), seed=t60_bin * 100 + drr_bin)
                t60_est = estimate_t60_from_edc(schroeder_edc(rir))
                drr_est = compute_drr(rir)
                assert cell_of(grid, t60_est, drr_est) == (t60_bin, drr_bin)
