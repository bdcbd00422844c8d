import hashlib

import numpy as np
import pytest
from scipy.signal import correlate

from revparams.frontend import FrameMatrix
from revparams.gabor import (
    GaborFilterSpec,
    build_diagonal_filterbank,
    export_filterbank,
    extract_features,
    hann_product_envelope,
    make_gabor_filter,
)

BANK = build_diagonal_filterbank()


def spectro(values):
    return FrameMatrix(np.asarray(values, dtype=np.float64))


def brute_force_features(values, bank):
    """Independent oracle: nested-loop edge-padded correlation, sampled at
    each filter's representative channels."""
    values = np.asarray(values, dtype=np.float64)
    n_frames, n_chan = values.shape
    out_cols = []
    for filt in bank.filters:
        real = filt.coeffs.real  # (spectral, temporal)
        s_m, s_l = real.shape
        a_c = (filt.spec.w_m + 1) // 2
        b_c = (filt.spec.w_l + 1) // 2
        response = np.zeros((n_frames, n_chan))
        for t in range(n_frames):
            for m in range(n_chan):
                acc = 0.0
                for a in range(s_m):
                    for b in range(s_l):
                        tt = min(max(t + b - b_c, 0), n_frames - 1)
                        mm = min(max(m + a - a_c, 0), n_chan - 1)
                        acc += real[a, b] * values[tt, mm]
                response[t, m] = acc
        out_cols.append(response[:, list(filt.representative_channels)])
    return np.concatenate(out_cols, axis=1)


def reference_features(values, bank):
    """Per-filter reference for the bank's operator: each filter's kernel
    correlated with its own edge-padded copy of the spectrogram, aligned to
    the envelope peak, sampled at its representative channels."""
    columns = []
    for filt in bank.filters:
        kernel = filt.coeffs.T  # (time, channel)
        b_c, a_c = (filt.spec.w_l + 1) // 2, (filt.spec.w_m + 1) // 2
        pad_t = (b_c, kernel.shape[0] - 1 - b_c)
        pad_m = (a_c, kernel.shape[1] - 1 - a_c)
        padded = np.pad(values, (pad_t, pad_m), mode="edge")
        response = correlate(padded, kernel, mode="valid", method="auto")
        columns.append(response[:, list(filt.representative_channels)])
    return np.concatenate(columns, axis=1)


class TestEnvelope:
    def test_zero_along_all_edges(self):
        env = hann_product_envelope(5, 9)
        assert np.all(env[0, :] == 0.0)
        assert np.all(env[-1, :] == 0.0)
        assert np.all(env[:, 0] == 0.0)
        assert np.all(env[:, -1] == 0.0)

    def test_unit_peak_for_odd_lengths(self):
        env = hann_product_envelope(7, 7)
        assert env[4, 4] == pytest.approx(1.0)

    def test_symmetric_under_axis_flips(self):
        env = hann_product_envelope(3, 3)
        np.testing.assert_allclose(env, env[::-1, :], atol=1e-15)
        np.testing.assert_allclose(env, env[:, ::-1], atol=1e-15)

    def test_bad_lengths_raise(self):
        with pytest.raises(ValueError):
            hann_product_envelope(0, 3)


class TestFilterConstruction:
    SPEC = GaborFilterSpec(omega_m=2 * np.pi * 0.25, omega_l=2 * np.pi * 0.1, w_m=7, w_l=9)

    def test_matches_manual_construction(self):
        filt = make_gabor_filter(self.SPEC)
        env = hann_product_envelope(7, 9)
        a = np.arange(9)[:, None] - 4.0
        b = np.arange(11)[None, :] - 5.0
        raw = np.cos(self.SPEC.omega_m * a + self.SPEC.omega_l * b) * env
        expected = raw - env * (raw.sum() / env.sum())
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(filt.coeffs.real, expected, atol=1e-12)

    def test_center_before_dc_removal_is_envelope_peak(self):
        # carrier phase is zero at the envelope peak: raw real part there
        # equals the envelope value, raw imaginary part is zero
        env = hann_product_envelope(7, 9)
        a = np.arange(9)[:, None] - 4.0
        b = np.arange(11)[None, :] - 5.0
        raw = np.exp(1j * (self.SPEC.omega_m * a + self.SPEC.omega_l * b)) * env
        assert raw[4, 5].real == pytest.approx(env[4, 5])
        assert raw[4, 5].imag == pytest.approx(0.0, abs=1e-12)

    def test_real_part_sums_to_zero(self):
        for filt in BANK.filters:
            assert abs(filt.coeffs.real.sum()) < 1e-9

    def test_real_part_has_unit_frobenius_norm(self):
        for filt in BANK.filters:
            assert np.linalg.norm(filt.coeffs.real) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_spectral_modulation_mirrors_real_part(self):
        up = make_gabor_filter(GaborFilterSpec(2 * np.pi * 0.125, 2 * np.pi * 0.062, 13, 27))
        down = make_gabor_filter(GaborFilterSpec(-2 * np.pi * 0.125, 2 * np.pi * 0.062, 13, 27))
        np.testing.assert_allclose(down.coeffs.real, up.coeffs.real[::-1, :], atol=1e-12)

    def test_real_part_even_around_peak_for_odd_lengths(self):
        # diagonal carrier: even under simultaneous flip of both axes
        filt = make_gabor_filter(GaborFilterSpec(2 * np.pi * 0.25, 2 * np.pi * 0.1, 7, 7))
        real = filt.coeffs.real
        np.testing.assert_allclose(real, real[::-1, ::-1], atol=1e-12)


class TestFilterbank:
    def test_default_bank_has_48_filters(self):
        assert len(BANK.filters) == 48

    def test_default_feature_dim_is_600(self):
        assert BANK.feature_dim == 600
        assert BANK.feature_dim == 6 * 2 * (26 + 13 + 7 + 4)

    def test_temporal_frequency_set(self):
        freqs = {round(f.spec.omega_l * BANK.frame_rate / (2 * np.pi), 6) for f in BANK.filters}
        assert freqs == {2.4, 3.9, 6.2, 9.9, 15.7, 25.0}

    def test_spectral_frequency_set(self):
        freqs = {round(f.spec.omega_m / (2 * np.pi), 6) for f in BANK.filters}
        assert freqs == {s * m for s in (-1, 1) for m in (0.03125, 0.0625, 0.125, 0.25)}

    def test_representative_channel_counts_per_stride(self):
        for filt in BANK.filters:
            f_s = filt.spec.omega_m / (2 * np.pi)
            stride = int(round(1 / (4 * abs(f_s))))
            assert stride in (1, 2, 4, 8)
            assert filt.representative_channels == tuple(range(0, 26, stride))
            assert len(filt.representative_channels) == int(np.ceil(26 / stride))

    def test_channels_strictly_increasing_and_in_range(self):
        for filt in BANK.filters:
            chans = filt.representative_channels
            assert all(c2 > c1 for c1, c2 in zip(chans, chans[1:]))
            assert all(0 <= c < BANK.n_mels for c in chans)

    def test_construction_is_deterministic(self):
        other = build_diagonal_filterbank()
        for f1, f2 in zip(BANK.filters, other.filters):
            np.testing.assert_array_equal(f1.coeffs, f2.coeffs)

    def test_too_few_channels_raises(self):
        with pytest.raises(ValueError):
            build_diagonal_filterbank(n_mels=4)


class TestExtractFeatures:
    def test_constant_spectrogram_gives_zero_features(self):
        c = np.log(1e-10)
        feats = extract_features(spectro(np.full((50, 26), c)), BANK)
        assert np.abs(feats.values).max() < 1e-6 * abs(c)

    def test_row_count_matches_frames(self):
        feats = extract_features(spectro(np.zeros((37, 26))), BANK)
        assert feats.values.shape == (37, 600)

    def test_matches_brute_force_oracle_on_impulse(self):
        small = build_diagonal_filterbank(n_mels=10)
        values = np.zeros((10, 10))
        values[5, 4] = 1.0
        fast = extract_features(spectro(values), small).values
        slow = brute_force_features(values, small)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_matches_brute_force_oracle_on_random_input(self, rng):
        small = build_diagonal_filterbank(n_mels=10)
        values = rng.standard_normal((12, 10))
        fast = extract_features(spectro(values), small).values
        slow = brute_force_features(values, small)
        np.testing.assert_allclose(fast, slow, atol=1e-10)

    def test_linearity(self, rng):
        a = rng.standard_normal((30, 26))
        b = rng.standard_normal((30, 26))
        fa = extract_features(spectro(a), BANK).values
        fb = extract_features(spectro(b), BANK).values
        fab = extract_features(spectro(1.5 * a - 2.0 * b), BANK).values
        scale = max(np.abs(fab).max(), 1.0)
        np.testing.assert_allclose(fab, 1.5 * fa - 2.0 * fb, atol=1e-6 * scale)

    def test_constant_offset_rejection(self, rng):
        a = rng.standard_normal((40, 26))
        fa = extract_features(spectro(a), BANK).values
        fshift = extract_features(spectro(a + 7.0), BANK).values
        assert np.abs(fshift - fa).max() / 7.0 < 1e-6

    @pytest.mark.parametrize("n_mels", [8, 10, 26])
    def test_matches_per_filter_reference(self, n_mels, rng):
        # frame counts below, at and above the longest kernel's half-extents
        # (36 / 37 frames), so the time-axis clamp is hit at both ends
        bank = build_diagonal_filterbank(n_mels=n_mels)
        for n_frames in (1, 2, 36, 37, 38, 74, 248, 998):
            values = 10.0 * rng.standard_normal((n_frames, n_mels)) - 20.0
            fast = extract_features(spectro(values), bank).values
            np.testing.assert_allclose(fast, reference_features(values, bank), rtol=0, atol=1e-9)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            extract_features(spectro(np.zeros((5, 20))), BANK)


def test_export_filterbank(tmp_path):
    out = tmp_path / "filters"
    export_filterbank(BANK, out)
    files = sorted(out.glob("filter_*.txt"))
    assert len(files) == 48
    first = np.loadtxt(files[0])
    assert first.shape == BANK.filters[0].coeffs.shape
    manifest = (out / "manifest.txt").read_text().strip().splitlines()
    assert len(manifest) == 48
    index, f_t, f_s, w_l, w_m, chans = manifest[0].split("\t")
    assert int(index) == 0
    assert float(f_t) == 2.4
    assert [int(c) for c in chans.split(",")] == list(BANK.filters[0].representative_channels)


# sha256 of every file `export_filterbank` writes for the default bank.
EXPORT_SHA256 = {
    "filter_00.txt": "091360a0a3f9474ba8e6b631302ceafc932aae63c1f8473b49a5864b1dfd06ae",
    "filter_01.txt": "d10ad1cbd99d9ceea250ec7745e7ad7a510a495084fa1f6f81a638bb191e652e",
    "filter_02.txt": "5a6115d541968b93598bb26c3e9d51645d316c3eb9f1e703fbfa358ba79c8ee2",
    "filter_03.txt": "17df0e9fbc96cd30dcd67845863ad306595f2a21cb295b71ea3e2d29c906d6a0",
    "filter_04.txt": "e33977a4630461d994d975577a642a73e153cec7e04a2519e97f0e158a4c67e3",
    "filter_05.txt": "0cdaa2821315020f3d3d2367ffbb83284b4d3854ae1ac22bd6156b73ff7ce466",
    "filter_06.txt": "98fc0916600a3d26421ef49650b13f8f827ae5787e94c7867b5bd92e0f801489",
    "filter_07.txt": "d3f119b089527065104fe89b99ed8a401a903030b529356aa271930098628039",
    "filter_08.txt": "e3f85ae69e589bf8e5dc4bf94185e029dde923e36deacb831ae03540e38ccb48",
    "filter_09.txt": "791120c3c3fc94c748debc7050d8f39fcc9a60dbc61a5e2410ef61f5164e916f",
    "filter_10.txt": "3957f123cc3d6f42663bc8ffd9878eda3dda7374f3391960d1f6016beba15eab",
    "filter_11.txt": "38933c63ad292e9d59475020f4861d8699dc7f23d03ec54e26077123377639f1",
    "filter_12.txt": "36548f4e2722cec9b475223afb33c6793785503bc85838d6d1e77f24522e8f68",
    "filter_13.txt": "871f5f6275a3cf175bdc60d150546676f7225d1c03031af369ec254488b84cf0",
    "filter_14.txt": "d73a6fe008fd7f302465680d1cec7c1af414d2d28d0e4d3f725bc210b3956fbf",
    "filter_15.txt": "f0e06362e2afec2171fa02e19143e00f08cba0636e0d2cedb6aa3a6747a1b674",
    "filter_16.txt": "5267b7f16465103121a19b66de36e084994a019becdc4e4de6b43811580d5307",
    "filter_17.txt": "48c4f73b6f5232a8323ad0475439b53b8974903895ce037e969f9aabb5ae4a06",
    "filter_18.txt": "5d6665982942a66240cee45c4d15d52e6b137967d4377c666afed408cfc8d79c",
    "filter_19.txt": "2a67eed2d9ae998c31dfb1ee26b215d64fcfce1be1f6c8760a8541021f536374",
    "filter_20.txt": "aabad98ec7a5ce473445f4e3f648a4e0f2693f111c9d14b72dae3a950340558a",
    "filter_21.txt": "33a81a9242c4ce55be2de645236e0ca5f8dd044c1940be78d7c4b378f470ad23",
    "filter_22.txt": "23b96ed9050e94f0c7a41315d942e27d58d31fecb3572bd6b6e462e8971fa3c2",
    "filter_23.txt": "df6168bb939c3c833d54d10148c29b1dc6f3b8535f63a502c043479077bb14f8",
    "filter_24.txt": "833cdccbc7f796391c6fe16dd888fc664e5ff5c0e8f926ae7bf2eba27cf56c1d",
    "filter_25.txt": "b9a7e4a143ff8ae464c02731209acf79dba15d2381bf884600b5ff0ff11a24d4",
    "filter_26.txt": "dfb701919c20a992f3042a9e555106c5ea1df4a3d2102cb46f2ab326a3ea3e75",
    "filter_27.txt": "f650cf4fe1f31554a70b4153518587dbcaf7023bdcc4d8f34e547d6862c0e571",
    "filter_28.txt": "1ae582c35bb6953742b54c00fd63d5bb5ad245f35d12459541d2b997e4ff8d0f",
    "filter_29.txt": "3ab78d031ab899cc7ca7485b80d1315015b63c371b70c04867cc6006b1a54cb0",
    "filter_30.txt": "c6053a7edbbb687cd29b3d40a54fd8d5eb99a51bbfdc7d04a16c8189da378353",
    "filter_31.txt": "1487c8914b1fdad9a5f7bc1d1c2a083296d1bf31d2ec026e074ff9e42c6f5772",
    "filter_32.txt": "90cfb032c2a07af81bbf5f0243ffab357980f003e9b693b55ad07fa71aace721",
    "filter_33.txt": "04fafee6b797b6f9d9ce8cdea16937079e7df4f0df4431c8b47f7dec815e2c4b",
    "filter_34.txt": "b3056ae1ef32260b5bb0cef71f55944cc190c9a60e7f952c88623d7e79d55bb9",
    "filter_35.txt": "9db81fd9f2170746ad7ee230b38daf1ae3b8ad309fd2fd0367040ee7f30f242d",
    "filter_36.txt": "d54fb7ceacfe7c592cebff62dac40a34b883bf87fc4df27952d577fe6b683453",
    "filter_37.txt": "1c2b257f5cc7b01c3fa0a560680a58b3cd72e9caf73e04b111dc656af8ca794e",
    "filter_38.txt": "dfdf1e12df9a3a17ce8552e2ff8932688a76b135456bafde138a1433bc1bfeff",
    "filter_39.txt": "084bb9e468bfdc80c2af3b0b3e06dc661d0d812adde8639c80e6a495b615a30e",
    "filter_40.txt": "cb14daf61a91ae3e5c8671559c861c2a49a20aad5828ae83d978ab724312b354",
    "filter_41.txt": "4abded70baeca576181520ab614c380fa733a244d43170bad6014cb148cec059",
    "filter_42.txt": "7d0aa25309ceda9ade4047829b1b4ada584dcd1b989dd2ae140f6cac7a409391",
    "filter_43.txt": "a403f38ad8ec05a6e73d7321bc4ffe5ccdcf978262c219ce82a2e9b85adca4f9",
    "filter_44.txt": "ed1f736f73ae92465164a0360c1f0d1ba7b95062f5f2bfab7f57e0bae445fc1e",
    "filter_45.txt": "dc6d0f40604883ba072f73a97b7f3ae5c93ce2d9add407952f2e06fa2f61692e",
    "filter_46.txt": "e3caf9e17344b3d5da65259754c3a09bc907068a4e826ed5f5d4e4e45b2b8a01",
    "filter_47.txt": "5b0abfbf0f9ed7f961a8528ff8a4cbfa8a724d6f26222e87f9b6dc8301fdf918",
    "manifest.txt": "0cab8e75f476e437be1f9ea1c29edf520b33b07c4dab1d482306ff2a3fda552a",
}


def test_export_filterbank_bytes_are_pinned(tmp_path):
    export_filterbank(BANK, tmp_path)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == EXPORT_SHA256


def test_fft_length_matches_scipy_next_fast_len():
    """The 5-smooth search picks scipy's real-FFT length for every n up to
    2^17 (about 22 minutes of frames), so the features keep their bits."""
    from scipy.fft import next_fast_len

    from revparams.gabor import _fast_len

    ns = range(1, 2**17 + 1)
    assert [_fast_len(n) for n in ns] == [next_fast_len(n, real=True) for n in ns]
