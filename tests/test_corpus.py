import warnings

import numpy as np
import pytest

from revparams.acoustics import Rir, synth_rir
from revparams.audio_io import AudioBuffer
from revparams.corpus import (
    build_corpus,
    convolve,
    gen_noise,
    make_speech_like,
    mix_at_snr,
    read_manifest_items,
    write_manifest_csv,
)
from revparams.grid import ClassGrid, cell_of

GRID = ClassGrid()


def delta_rir(lag=0, scale=1.0, n=None):
    taps = np.zeros((n or lag + 1))
    taps[lag] = scale
    return Rir(AudioBuffer(taps))


class TestConvolve:
    def test_unit_delta_is_identity(self, rng):
        x = rng.standard_normal(500)
        out = convolve(AudioBuffer(x), delta_rir())
        assert len(out) == 500
        np.testing.assert_allclose(out.samples, x, atol=1e-12)

    def test_delayed_delta_shifts(self, rng):
        x = rng.standard_normal(300)
        out = convolve(AudioBuffer(x), delta_rir(lag=40))
        assert len(out) == 300 + 41 - 1
        np.testing.assert_allclose(out.samples[40:], x, atol=1e-12)
        np.testing.assert_allclose(out.samples[:40], 0.0, atol=1e-12)

    def test_scaled_delta_scales(self, rng):
        x = rng.standard_normal(200)
        out = convolve(AudioBuffer(x), delta_rir(scale=0.5))
        np.testing.assert_allclose(out.samples, 0.5 * x, atol=1e-12)

    def test_output_length_is_full(self, rng):
        x = rng.standard_normal(1000)
        rir = synth_rir(0.2, 0.0, length=0.3, seed=0)
        assert len(convolve(AudioBuffer(x), rir)) == 1000 + len(rir.taps) - 1

    def test_linearity(self, rng):
        a = AudioBuffer(rng.standard_normal(400))
        b = AudioBuffer(rng.standard_normal(400))
        rir = synth_rir(0.2, 0.0, length=0.3, seed=1)
        lhs = convolve(AudioBuffer(2.0 * a.samples + 3.0 * b.samples), rir).samples
        rhs = 2.0 * convolve(a, rir).samples + 3.0 * convolve(b, rir).samples
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


class TestGenNoise:
    @pytest.mark.parametrize("kind", ["ambient", "babble", "fan"])
    def test_unit_rms(self, kind):
        noise = gen_noise(kind, 2.0, seed=5)
        assert len(noise) == 32000
        assert np.sqrt(np.mean(noise.samples**2)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind", ["ambient", "babble", "fan"])
    def test_deterministic_per_seed(self, kind):
        a = gen_noise(kind, 0.5, seed=7)
        b = gen_noise(kind, 0.5, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = gen_noise(kind, 0.5, seed=8)
        assert not np.array_equal(a.samples, c.samples)

    def test_ambient_psd_slope_is_pink(self):
        noise = gen_noise("ambient", 60.0, seed=3)
        spec = np.abs(np.fft.rfft(noise.samples)) ** 2 / len(noise)
        freqs = np.fft.rfftfreq(len(noise), 1.0 / 16000)
        centers = [125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0]
        levels = []
        for fc in centers:
            band = (freqs >= fc / np.sqrt(2)) & (freqs < fc * np.sqrt(2))
            levels.append(10.0 * np.log10(spec[band].mean()))
        slope = np.polyfit(np.log2(centers), levels, 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.7)

    def test_fan_is_lowpassed(self):
        noise = gen_noise("fan", 10.0, seed=3)
        spec = np.abs(np.fft.rfft(noise.samples)) ** 2
        freqs = np.fft.rfftfreq(len(noise), 1.0 / 16000)
        low = spec[(freqs > 100) & (freqs < 400)].mean()
        high = spec[freqs > 2000].mean()
        assert 10.0 * np.log10(high / low) < -40.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            gen_noise("rain", 1.0, seed=0)

    def test_nonpositive_duration_raises(self):
        with pytest.raises(ValueError):
            gen_noise("ambient", 0.0, seed=0)

    def test_duration_under_one_sample_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="duration must be at least one sample"):
                gen_noise("ambient", 1e-5, seed=0)


class TestMixAtSnr:
    def test_zero_snr_equalizes_power(self, rng):
        sig = AudioBuffer(0.3 * rng.standard_normal(8000))
        noise = AudioBuffer(rng.standard_normal(8000))
        mixed = mix_at_snr(sig, noise, 0.0)
        added = mixed.samples - sig.samples
        assert np.mean(added**2) == pytest.approx(np.mean(sig.samples**2), rel=1e-9)

    @pytest.mark.parametrize("snr", [0.0, 10.0, 20.0])
    def test_measured_snr_matches_target(self, snr, rng):
        sig = AudioBuffer(0.2 * rng.standard_normal(16000))
        noise = gen_noise("ambient", 1.0, seed=4)
        mixed = mix_at_snr(sig, noise, snr)
        added = mixed.samples - sig.samples
        measured = 10.0 * np.log10(np.mean(sig.samples**2) / np.mean(added**2))
        assert measured == pytest.approx(snr, abs=0.01)

    @pytest.mark.parametrize("snr", [-300.0, -20.0, 0.0, 7.5, 30.0, 300.0])
    def test_bits_of_the_closed_form(self, snr, rng):
        sig = 0.2 * rng.standard_normal(4000)
        nse = rng.standard_normal(4000)
        want = sig + np.sqrt(np.mean(sig**2) / (np.mean(nse**2) * 10.0 ** (snr / 10.0))) * nse
        assert np.array_equal(mix_at_snr(AudioBuffer(sig), AudioBuffer(nse), snr).samples, want)

    @pytest.mark.parametrize("snr", [4000.0, -4000.0, np.float64(4000.0)])
    def test_snr_beyond_float_range_raises_naming_it(self, snr, rng):
        sig, nse = AudioBuffer(rng.standard_normal(100)), AudioBuffer(rng.standard_normal(100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"SNR {snr:g} dB is out of range"):
                mix_at_snr(sig, nse, snr)

    def test_zero_noise_raises(self, rng):
        with pytest.raises(ValueError):
            mix_at_snr(AudioBuffer(rng.standard_normal(100)), AudioBuffer(np.zeros(100)), 0.0)

    def test_empty_signal_raises(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="signal has no samples"):
                mix_at_snr(AudioBuffer(np.zeros(0)), AudioBuffer(rng.standard_normal(100)), 10.0)

    def test_short_noise_raises(self, rng):
        with pytest.raises(ValueError, match="shorter"):
            mix_at_snr(AudioBuffer(rng.standard_normal(100)), AudioBuffer(np.ones(50)), 0.0)


class TestSpeechLike:
    def test_deterministic_and_bounded(self):
        a = make_speech_like(1.0, seed=1)
        b = make_speech_like(1.0, seed=1)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert np.abs(a.samples).max() == pytest.approx(0.5, abs=1e-9)

    def test_duration_under_one_sample_raises(self):
        with pytest.raises(ValueError, match="duration must be at least one sample"):
            make_speech_like(1e-5, seed=0)

    def test_contains_pauses(self):
        x = make_speech_like(2.0, seed=2).samples
        frame_rms = np.sqrt(np.convolve(x**2, np.ones(160) / 160, mode="valid"))
        assert (frame_rms < 0.02 * frame_rms.max()).mean() > 0.05


class TestBuildCorpus:
    def rirs(self, n=3):
        return [synth_rir(0.2 + 0.2 * i, 3.0 * i, length=0.8, seed=50 + i) for i in range(n)]

    def speech(self, n, duration=0.4):
        return [make_speech_like(duration, seed=100 + i) for i in range(n)]

    def test_circular_rir_assignment(self):
        manifest = build_corpus(self.speech(10), self.rirs(3), ["none"], [], GRID, seed=0)
        assert [item.rir_id for item in manifest.items] == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]

    def test_condition_cross_product(self):
        manifest = build_corpus(self.speech(1), self.rirs(1), ["ambient"], [0, 10, 20], GRID, seed=0)
        assert len(manifest.items) == 3
        assert [item.snr_db for item in manifest.items] == [0.0, 10.0, 20.0]

    def test_deterministic_manifest(self):
        m1 = build_corpus(self.speech(4), self.rirs(2), ["ambient", "fan"], [0, 20], GRID, seed=9)
        m2 = build_corpus(self.speech(4), self.rirs(2), ["ambient", "fan"], [0, 20], GRID, seed=9)
        for a, b in zip(m1.items, m2.items):
            np.testing.assert_array_equal(a.buffer.samples, b.buffer.samples)
            assert (a.rir_id, a.noise_kind, a.snr_db, a.class_id) == (b.rir_id, b.noise_kind, b.snr_db, b.class_id)

    def test_jobs_do_not_change_outputs(self):
        m1 = build_corpus(self.speech(4), self.rirs(2), ["ambient"], [10], GRID, seed=9, jobs=1)
        m2 = build_corpus(self.speech(4), self.rirs(2), ["ambient"], [10], GRID, seed=9, jobs=3)
        for a, b in zip(m1.items, m2.items):
            np.testing.assert_array_equal(a.buffer.samples, b.buffer.samples)

    def test_class_ids_consistent_with_grid(self):
        manifest = build_corpus(self.speech(6), self.rirs(3), ["babble"], [10], GRID, seed=3)
        for item in manifest.items:
            cell = cell_of(GRID, item.t60, item.drr)
            assert manifest.vocabulary.class_id_of(cell) == item.class_id

    def test_round_robin_balance(self):
        manifest = build_corpus(self.speech(8), self.rirs(3), ["none"], [], GRID, seed=0)
        counts = np.bincount([item.rir_id for item in manifest.items], minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            build_corpus([], self.rirs(1), ["none"], [], GRID, seed=0)
        with pytest.raises(ValueError):
            build_corpus(self.speech(1), [], ["none"], [], GRID, seed=0)

    def test_writes_wavs_and_manifest(self, tmp_path):
        out = tmp_path / "corpus"
        manifest = build_corpus(self.speech(2), self.rirs(1), ["fan"], [10], GRID, seed=1, out_dir=out)
        assert sorted(p.name for p in out.glob("*.wav")) == ["item_00000.wav", "item_00001.wav"]
        items = read_manifest_items(out / "manifest.csv")
        assert len(items) == 2
        assert items[0].noise_kind == "fan"
        assert items[0].snr_db == 10.0
        assert items[0].class_id == manifest.items[0].class_id
        assert items[0].path.endswith("item_00000.wav")

    def test_manifest_csv_round_trip_with_none_noise(self, tmp_path):
        manifest = build_corpus(self.speech(2), self.rirs(1), ["none"], [], GRID, seed=1)
        path = tmp_path / "manifest.csv"
        write_manifest_csv(manifest, path)
        items = read_manifest_items(path)
        assert items[0].noise_kind == "none"
        assert items[0].snr_db is None
        assert items[0].t60 == pytest.approx(manifest.items[0].t60, abs=1e-6)


HEADER = "path,rir_id,noise_kind,snr_db,t60_s,drr_db,class_id\n"
GOOD_ROW = "item_00000.wav,0,ambient,10,0.500000,3.000000,1\n"


@pytest.mark.parametrize(
    "row, message",
    [
        ("item_00000.wav,0,amb", "one field per column"),
        ("item_00000.wav,0,ambient,10,0.5,3.0,1,7\n", "one field per column"),
        ("item_00000.wav,x,ambient,10,0.5,3.0,1\n", "'rir_id' holds 'x', not an integer"),
        ("item_00000.wav,0,ambient,ten,0.5,3.0,1\n", "'snr_db' holds 'ten', not a number"),
        ("item_00000.wav,0,ambient,10,,3.0,1\n", "'t60_s' holds '', not a number"),
        ("item_00000.wav,0,ambient,10,0.5,3.0,1.5\n", "'class_id' holds '1.5', not an integer"),
        ("item_00000.wav,0,ambient,10,nan,3.0,1\n", "'t60_s' holds 'nan', not a finite number"),
        ("item_00000.wav,0,ambient,10,0.5,-inf,1\n", "'drr_db' holds '-inf', not a finite number"),
        ("item_00000.wav,0,ambient,inf,0.5,3.0,1\n", "'snr_db' holds 'inf', not a finite number"),
        ("item_00000.wav,0,ambient,10,0,3.0,1\n", "'t60_s' holds '0', not a positive number"),
        ("item_00000.wav,0,ambient,10,-0.5,3.0,1\n", "'t60_s' holds '-0.5', not a positive number"),
    ],
    ids=[
        "truncated",
        "extra-field",
        "rir-id",
        "snr",
        "empty-t60",
        "class-id",
        "nan-t60",
        "inf-drr",
        "inf-snr",
        "zero-t60",
        "negative-t60",
    ],
)
def test_malformed_manifest_row_names_file_and_line(row, message, tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(HEADER + GOOD_ROW + row)
    with pytest.raises(ValueError) as info:
        read_manifest_items(path)
    assert str(info.value).startswith(f"{path}, line 3: ")
    assert message in str(info.value)


def test_manifest_missing_column_names_file(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("path,rir_id\nitem_00000.wav,0\n")
    with pytest.raises(ValueError, match="line 1: manifest missing columns"):
        read_manifest_items(path)
