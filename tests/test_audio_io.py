"""``read_wav`` against scipy's parser as the oracle, the files it refuses,
and ``naming``, the rule that puts an input's name before a refusal once.

The oracle is ``scipy.io.wavfile.read`` followed by ``read_wav``'s conversion:
the requested channel, as float64, divided by 32768 for PCM16. Every accepted
file must give the same samples, bit for bit.
"""

import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from revparams.audio_io import PCM16_SCALE, naming, read_wav
from revparams.cli import main

RATE = 16000
GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"  # KSDATAFORMAT_SUBTYPE_* after the tag


def scipy_read(path, channel):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)  # scipy warns for each chunk it skips
        rate, data = wavfile.read(path)
    assert rate == RATE
    data = data[:, None] if data.ndim == 1 else data
    samples = data[:, channel].astype(np.float64)
    return samples / PCM16_SCALE if data.dtype == np.int16 else samples


def assert_reads_as_scipy(path, channels):
    for channel in range(channels):
        got, want = read_wav(path, channel=channel).samples, scipy_read(path, channel)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def samples(dtype, frames, channels):
    """Random full-scale samples, (frames,) for one channel, else (frames, channels)."""
    rng = np.random.default_rng(frames * channels)
    if dtype == np.int16:
        x = rng.integers(-32768, 32768, size=(frames, channels), dtype=np.int16)
    else:
        x = rng.uniform(-1.0, 1.0, size=(frames, channels)).astype(dtype)
    return x[:, 0] if channels == 1 else x


def chunk(name: bytes, payload: bytes) -> bytes:
    """One RIFF chunk, with its pad byte when the payload has an odd size."""
    return name + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def riff(*chunks: bytes, form: bytes = b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack("<I", len(body)) + body


def fmt_chunk(tag, channels, bits, extensible=False):
    align = channels * bits // 8
    head = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, RATE, RATE * align, align, bits)
    if extensible:  # cbSize 22, valid bits, channel mask, then the subformat GUID
        head += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", tag) + GUID_TAIL
    return chunk(b"fmt ", head)


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64], ids=["pcm16", "float32", "float64"])
def test_read_wav_equals_scipy(dtype, channels, tmp_path):
    path = tmp_path / "x.wav"
    wavfile.write(path, RATE, samples(dtype, 1601, channels))
    assert_reads_as_scipy(path, channels)


def test_read_wav_skips_chunks_before_and_after_data(tmp_path):
    path = tmp_path / "x.wav"
    data = samples(np.int16, 800, 2).tobytes()
    path.write_bytes(riff(fmt_chunk(1, 2, 16), chunk(b"bext", bytes(602)), chunk(b"data", data), chunk(b"LIST", b"INFO")))
    assert_reads_as_scipy(path, 2)


def test_read_wav_skips_the_pad_byte_of_an_odd_chunk(tmp_path):
    path = tmp_path / "x.wav"
    odd = chunk(b"note", b"abc")
    assert len(odd) == 12  # 8 header bytes, 3 payload bytes, 1 pad byte
    path.write_bytes(riff(fmt_chunk(1, 1, 16), odd, chunk(b"data", samples(np.int16, 800, 1).tobytes())))
    assert_reads_as_scipy(path, 1)


@pytest.mark.parametrize("tag, dtype", [(1, np.int16), (3, np.float32)], ids=["pcm16", "float32"])
def test_read_wav_accepts_extensible_headers(tag, dtype, tmp_path):
    path = tmp_path / "x.wav"
    data = samples(dtype, 800, 2)
    path.write_bytes(riff(fmt_chunk(tag, 2, 8 * data.itemsize, extensible=True), chunk(b"data", data.tobytes())))
    assert_reads_as_scipy(path, 2)


def test_read_wav_reads_a_cut_data_chunk_up_to_its_last_whole_frame(tmp_path):
    path = tmp_path / "x.wav"
    wavfile.write(path, RATE, samples(np.int16, 1000, 1))
    path.write_bytes(path.read_bytes()[:-3])  # 998 whole samples and one odd byte
    assert len(read_wav(path).samples) == 998
    assert_reads_as_scipy(path, 1)


def _pcm24(path):
    path.write_bytes(riff(fmt_chunk(1, 1, 24), chunk(b"data", bytes(3 * 800))))


def _rifx(path):
    wav = riff(fmt_chunk(1, 1, 16), chunk(b"data", samples(np.int16, 800, 1).tobytes()))
    path.write_bytes(b"RIFX" + wav[4:])


def _rf64(path):
    ds64 = chunk(b"ds64", struct.pack("<QQQI", 0, 1600, 800, 0))
    body = riff(ds64, fmt_chunk(1, 1, 16), chunk(b"data", samples(np.int16, 800, 1).tobytes()))
    path.write_bytes(b"RF64" + b"\xff\xff\xff\xff" + body[8:])


@pytest.mark.parametrize(
    "write, message",
    [
        (lambda path: wavfile.write(path, RATE, samples(np.int16, 800, 1).view(np.uint8)[:800]), "sample format"),
        (_pcm24, "sample format"),
        (lambda path: wavfile.write(path, RATE, samples(np.int16, 800, 2).view(np.int32)[:, 0]), "sample format"),
        (_rifx, "RIFX"),
        (_rf64, "RF64"),
        (lambda path: path.write_bytes(riff(chunk(b"data", bytes(1600)))), "not a readable WAV file"),
        (lambda path: path.write_bytes(riff(fmt_chunk(1, 1, 16), chunk(b"LIST", b"INFO"))), "not a readable WAV file"),
    ],
    ids=["pcm8", "pcm24", "pcm32", "rifx", "rf64", "no-fmt", "no-data"],
)
def test_refused_wav_exits_2_naming_the_file(write, message, tmp_path, capsys):
    path = tmp_path / "x.wav"
    write(path)
    assert main(["features", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert message in err
    assert err.count("\n") == 1



def test_naming_prefixes_the_name_once_and_chains_the_original():
    with pytest.raises(ValueError, match="^a.wav: bad$") as caught:
        with naming("a.wav"):
            raise ValueError("bad")
    assert str(caught.value.__cause__) == "bad"


def test_naming_leaves_a_message_that_starts_with_the_name():
    with pytest.raises(ValueError, match="^a.wav: bad$"):
        with naming("a.wav"), naming("a.wav"):
            raise ValueError("bad")


def test_nested_naming_puts_the_outer_name_first():
    with pytest.raises(ValueError, match="^m.csv: manifest item 2: bad$"):
        with naming("m.csv"), naming("manifest item 2"):
            raise ValueError("bad")


def test_naming_passes_other_errors_through():
    with pytest.raises(OSError, match="^gone$"):
        with naming("a.wav"):
            raise OSError("gone")
