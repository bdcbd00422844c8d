"""The threading policy of ``revparams.parallel``: ``split`` against the
serial loop at tolerance 0, its exception and thread rules, the once-per-
process gate and its answer from the real BLAS, and ``--jobs`` workers
that never split."""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import make_model, seeded_model
from revparams import parallel
from revparams.audio_io import AudioBuffer, write_wav_pcm16
from revparams.cli import main
from revparams.corpus import CorpusItem, make_speech_like
from revparams.estimator import filterbank
from revparams.evaluate import evaluate
from revparams.frontend import FrameMatrix, FrameParams, log_mel_spectrogram
from revparams.gabor import GaborFilterbank, extract_features
from revparams.grid import ClassVocabulary
from revparams.mlp import forward, save_model
from revparams.parallel import BLOCK_ROWS, SPLIT_ROWS, split

SRC = str(Path(parallel.__file__).resolve().parents[1])
HELPER = "revparams-split"
JOIN_TIMEOUT_S = 30.0


def force_gate(monkeypatch, on: bool) -> None:
    monkeypatch.setattr(parallel, "two_cores", lambda: on)


@pytest.fixture
def threads_that_ran(monkeypatch):
    """Names of the threads that ran each item of every ``split`` call, in
    item order, one list per call."""
    calls = []
    real_split = parallel.split

    def spy(fn, items, n_rows):
        items = list(items)
        ran = [None] * len(items)
        calls.append(ran)

        def traced(indexed):
            i, item = indexed
            ran[i] = threading.current_thread().name
            fn(item)

        real_split(traced, enumerate(items), n_rows)

    monkeypatch.setattr(parallel, "split", spy)
    return calls


@pytest.fixture
def threads_created(monkeypatch):
    """Every threading.Thread created while the test runs."""
    created = []
    real = threading.Thread

    class Spy(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(threading, "Thread", Spy)
    return created


def split_helpers_alive():
    return [t for t in threading.enumerate() if t.name.startswith(HELPER)]


def audio_of(n_frames: int, rng) -> AudioBuffer:
    """Noise that frames into exactly ``n_frames`` frames."""
    params = FrameParams()
    return AudioBuffer(0.1 * rng.standard_normal(params.frame_len + params.hop * (n_frames - 1)))


def caller_then_helper(n_items: int) -> list:
    """Thread names of a split run: the caller takes the first, larger half."""
    first = (n_items + 1) // 2
    return ["MainThread"] * first + [HELPER] * (n_items - first)


def expected_threads(n_items: int, n_rows: int) -> list:
    """Thread names of a ``split`` call with the gate on: a plain loop below SPLIT_ROWS rows."""
    return caller_then_helper(n_items) if n_rows >= SPLIT_ROWS else ["MainThread"] * n_items


def n_row_blocks(n_rows: int) -> int:
    """``row_blocks``' count for a product of 12 or more columns (log-mel's 26,
    ``seeded_model``'s 168): at most BLOCK_ROWS rows each, two from SPLIT_ROWS rows."""
    return 1 if n_rows < SPLIT_ROWS else max(2, -(-n_rows // BLOCK_ROWS))


class TestSplitMatchesSerial:
    """Each stage with ``split`` forced on and off, tolerance 0."""

    # 201 rows: 1 block, no split; 202 (the least that splits) to 2,048: 2 row
    # blocks, 202 and 203 of 101 rows and more; 2,049: 3 (an odd split); 6,073: 6.
    N_FRAMES = (201, 202, 203, 256, 511, 1_024, 1_025, 2_048, 2_049, 6_073)

    @pytest.mark.parametrize("n_frames", N_FRAMES)
    def test_log_mel_spectrogram(self, n_frames, monkeypatch, threads_that_ran, rng):
        audio = audio_of(n_frames, rng)
        force_gate(monkeypatch, False)
        serial = log_mel_spectrogram(audio).values
        assert serial.shape[0] == n_frames
        force_gate(monkeypatch, True)
        assert np.array_equal(log_mel_spectrogram(audio).values, serial)
        n_blocks = n_row_blocks(n_frames)
        assert threads_that_ran == [["MainThread"] * n_blocks, expected_threads(n_blocks, n_frames)]

    @pytest.mark.parametrize("n_frames", N_FRAMES)
    def test_extract_features(self, n_frames, monkeypatch, threads_that_ran, rng):
        spec = FrameMatrix(rng.standard_normal((n_frames, 26)))
        bank = filterbank()
        force_gate(monkeypatch, False)
        serial = extract_features(spec, bank).values
        force_gate(monkeypatch, True)
        split_out = extract_features(spec, bank).values
        assert np.array_equal(split_out, serial)
        assert threads_that_ran == [["MainThread"] * 6, expected_threads(6, n_frames)]

    def test_extract_features_odd_group_count(self, monkeypatch, threads_that_ran, rng):
        bank = GaborFilterbank(filterbank().filters[:40], 26, 100.0)  # 5 temporal carriers: 5 groups
        assert len(bank.groups) == 5
        spec = FrameMatrix(rng.standard_normal((2_049, 26)))
        force_gate(monkeypatch, False)
        serial = extract_features(spec, bank).values
        force_gate(monkeypatch, True)
        assert np.array_equal(extract_features(spec, bank).values, serial)
        assert threads_that_ran[1] == caller_then_helper(5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n_frames", N_FRAMES)
    def test_forward(self, n_frames, dtype, monkeypatch, threads_that_ran, rng):
        model = seeded_model()
        x = (3.0 * rng.standard_normal((n_frames, model.d))).astype(dtype)
        force_gate(monkeypatch, False)
        serial = forward(model, x)
        force_gate(monkeypatch, True)
        assert np.array_equal(forward(model, x), serial)
        n_blocks = n_row_blocks(n_frames)
        assert threads_that_ran == [["MainThread"] * n_blocks, expected_threads(n_blocks, n_frames)]

    def test_frequent_thread_switches_keep_the_bits(self, monkeypatch, rng):
        """Both halves write into one output while the interpreter switches
        threads every microsecond."""
        model = seeded_model()
        audio = audio_of(3_100, rng)
        force_gate(monkeypatch, False)
        spec = log_mel_spectrogram(audio)
        feats = extract_features(spec, filterbank()).values
        post = forward(model, feats)
        force_gate(monkeypatch, True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert np.array_equal(log_mel_spectrogram(audio).values, spec.values)
                assert np.array_equal(extract_features(spec, filterbank()).values, feats)
                assert np.array_equal(forward(model, feats), post)
        finally:
            sys.setswitchinterval(interval)


class TestSplitRules:
    N_ROWS = 6_073

    def test_exception_in_the_helper_half_reaches_the_caller(self, monkeypatch):
        force_gate(monkeypatch, True)
        done = []

        def fn(item):
            if item == 3:
                raise RuntimeError(f"item {item} failed")
            done.append(item)

        with pytest.raises(RuntimeError, match="item 3 failed"):
            split(fn, range(4), self.N_ROWS)
        assert sorted(done) == [0, 1, 2]
        assert split_helpers_alive() == []

    def test_exception_in_the_caller_half_waits_for_the_helper(self, monkeypatch):
        force_gate(monkeypatch, True)
        helper_started = threading.Event()
        helper_done = []

        def fn(item):
            if item == 0:
                assert helper_started.wait(JOIN_TIMEOUT_S)
                raise RuntimeError("caller half failed")
            helper_started.set()
            threading.Event().wait(0.2)  # still working when the caller raises
            helper_done.append(item)

        with pytest.raises(RuntimeError, match="caller half failed"):
            split(fn, range(2), self.N_ROWS)
        assert helper_done == [1]  # nothing writes after split raised
        assert split_helpers_alive() == []

    @pytest.mark.parametrize(
        "n_rows, gate",
        [(SPLIT_ROWS - 1, True), (1, True), (N_ROWS, False)],
        ids=["below-split-rows", "one-row", "gate-off"],
    )
    def test_serial_starts_no_thread(self, n_rows, gate, monkeypatch, threads_created):
        force_gate(monkeypatch, gate)
        ran = []
        split(lambda item: ran.append((item, threading.current_thread().name)), range(4), n_rows)
        assert ran == [(i, "MainThread") for i in range(4)]
        assert threads_created == []

    def test_one_part_starts_no_thread(self, monkeypatch, threads_created):
        force_gate(monkeypatch, True)
        ran = []
        split(lambda item: ran.append((item, threading.current_thread().name)), ["only"], 5_000)
        assert ran == [("only", "MainThread")]
        assert threads_created == []

    def test_off_the_main_thread_starts_no_thread(self, monkeypatch, threads_created):
        force_gate(monkeypatch, True)
        ran = []
        worker = threading.Thread(
            target=split, args=(lambda item: ran.append(threading.current_thread().name), range(4), self.N_ROWS)
        )
        worker.start()
        worker.join(JOIN_TIMEOUT_S)
        assert not worker.is_alive()
        assert ran == [worker.name] * 4
        assert threads_created == [worker]  # the test's own worker only

    def test_split_starts_one_helper(self, monkeypatch, threads_created):
        force_gate(monkeypatch, True)
        ran = {}
        split(lambda item: ran.update({item: threading.current_thread().name}), range(4), SPLIT_ROWS)
        assert [ran[i] for i in range(4)] == caller_then_helper(4)
        assert [thread.name for thread in threads_created] == [HELPER]
        assert split_helpers_alive() == []

    @pytest.mark.parametrize(
        "n_rows, width, sizes",
        [
            (1, 26, [1]),
            (SPLIT_ROWS - 1, 26, [201]),
            (SPLIT_ROWS, 26, [101, 101]),
            (203, 12, [102, 101]),
            (2_048, 168, [1_024] * 2),
            (2_049, 168, [683] * 3),
            (401, 6, [401]),  # 201 rows x 6 columns: the least block above 1,200 entries
            (402, 6, [201, 201]),
            (1_201, 2, [1_201]),  # 601 rows or more: one block above BLOCK_ROWS
            (2_049, 2, [683] * 3),
        ],
    )
    def test_row_blocks(self, n_rows, width, sizes):
        """Near-equal blocks of at most BLOCK_ROWS rows where each can keep
        more than 100 rows and 1,200 entries of a ``width``-column product,
        two from SPLIT_ROWS rows."""
        x, y = np.arange(n_rows), np.arange(n_rows) + 0.5
        blocks = list(parallel.row_blocks(x, y, width=width))
        assert [len(bx) for bx, _ in blocks] == sizes
        assert all(np.array_equal(bx + 0.5, by) for bx, by in blocks)
        assert np.array_equal(np.concatenate([bx for bx, _ in blocks]), x)

    def test_helper_runs_in_the_callers_numpy_error_state(self, monkeypatch):
        force_gate(monkeypatch, True)
        states = []
        with np.errstate(all="raise"):
            split(lambda item: states.append(np.geterr()["divide"]), range(2), self.N_ROWS)
        assert states == ["raise", "raise"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_map_items_runs_in_the_callers_numpy_error_state(self, jobs):
        with np.errstate(over="raise"):
            states = parallel.map_items(lambda _: np.geterr()["over"], [0, 1], jobs)
        assert states == ["raise", "raise"]


def test_only_parallel_imports_concurrent_futures():
    """Every thread that splits a stage or maps ``--jobs`` items is started
    in ``revparams.parallel``, and no other module imports ``threading``."""
    for module in ("concurrent", "threading"):
        importers = [
            path.name
            for path in sorted(Path(parallel.__file__).parent.glob("*.py"))
            if re.search(rf"^\s*(import|from)\s+{module}\b", path.read_text(), re.MULTILINE)
        ]
        assert importers == ["parallel.py"], module


_GATE_PROBE = """
import json, numpy
from revparams import parallel
print(json.dumps([numpy.__file__, parallel._blas_threads(), parallel.two_cores()]))
"""


def probe_gate(blas_threads: int, *path: Path) -> tuple:
    """``(numpy.__file__, _blas_threads(), two_cores())`` of a fresh
    interpreter with OpenBLAS at ``blas_threads`` threads and ``path``
    ahead of the package on its import path."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    env["PYTHONPATH"] = os.pathsep.join([*map(str, path), SRC])
    proc = subprocess.run([sys.executable, "-c", _GATE_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


real_openblas = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or parallel._blas_threads() is None,
    reason="needs sched_getaffinity and a numpy that calls OpenBLAS",
)


class TestGate:
    def test_two_cores_asks_the_blas_once_per_process(self, monkeypatch):
        asked = []
        monkeypatch.setattr(parallel, "_blas_threads", lambda: asked.append(1) or 1)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parallel.two_cores.cache_clear()
        try:
            assert [parallel.two_cores() for _ in range(5)] == [True] * 5
            assert asked == [1]
        finally:
            parallel.two_cores.cache_clear()  # the next call asks this process again, unpatched

    @real_openblas
    @pytest.mark.parametrize("blas_threads", [1, 2])
    def test_gate_asks_the_real_blas(self, blas_threads):
        cpus = len(os.sched_getaffinity(0))
        _, threads, gate = probe_gate(blas_threads)
        assert threads == min(blas_threads, cpus)  # OpenBLAS caps the count at the CPUs it may use
        assert gate == (blas_threads == 1 and cpus >= 2)

    @real_openblas
    def test_gate_opens_when_numpys_path_has_a_space(self, tmp_path):
        numpy_dir = Path(np.__file__).parent
        libs = numpy_dir.with_name("numpy.libs")
        if not libs.is_dir():
            pytest.skip("numpy has no bundled numpy.libs (a system or conda build)")
        spaced = tmp_path / "sp ace"
        for source in (numpy_dir, libs):
            shutil.copytree(source, spaced / source.name, ignore=shutil.ignore_patterns("tests", "__pycache__"))
        numpy_file, threads, gate = probe_gate(1, spaced)
        assert Path(numpy_file).is_relative_to(spaced)
        assert threads == 1
        assert gate == (len(os.sched_getaffinity(0)) >= 2)

    def test_real_gate_gives_the_serial_bits(self, monkeypatch, rng):
        """Whatever this process's gate says, split or not."""
        model = seeded_model()
        audio = audio_of(2_049, rng)
        spec = log_mel_spectrogram(audio)
        feats = extract_features(spec, filterbank()).values
        post = forward(model, feats)
        force_gate(monkeypatch, False)
        assert np.array_equal(log_mel_spectrogram(audio).values, spec.values)
        assert np.array_equal(extract_features(spec, filterbank()).values, feats)
        assert np.array_equal(forward(model, feats), post)


class TestJobsNeverSplit:
    """``--jobs`` workers run serially; the bytes equal ``--jobs 1``, where
    the 12 s input (1,198 frames) splits."""

    @pytest.fixture
    def audios(self):
        return [make_speech_like(12.0, seed=31), make_speech_like(1.5, seed=32), make_speech_like(0.8, seed=33)]

    @pytest.fixture
    def model(self):
        return make_model(d=600, h=16, c=3, seed=4, vocabulary=ClassVocabulary(((1, 3), (4, 9), (6, 15))))

    @staticmethod
    def check_split_threads(calls, jobs):
        """Three split calls per input (log-mel, Gabor, MLP); only the long
        input's, and only with ``--jobs 1``, reach the helper."""
        reached = [call for call in calls if any(name.startswith(HELPER) for name in call)]
        assert [len(call) for call in reached] == ([2, 6, 2] if jobs == 1 else [])

    def test_evaluate(self, audios, model, monkeypatch, threads_that_ran):
        force_gate(monkeypatch, True)
        items = [CorpusItem(None, audio, 0, "ambient", 10.0, 0.5, 3.0, 0) for audio in audios]
        results = {}
        for jobs in (1, 2):
            threads_that_ran.clear()
            result = evaluate(items, model, jobs=jobs)
            self.check_split_threads(threads_that_ran, jobs)
            assert len(threads_that_ran) == 3 * len(items)
            results[jobs] = [(r.item_id, r.t60_hat, r.drr_hat, r.e_t60, r.e_drr) for r in result.records]
        assert results[1] == results[2]

    def test_estimate(self, audios, model, monkeypatch, threads_that_ran, tmp_path, capsys):
        force_gate(monkeypatch, True)
        wavs = []
        for i, audio in enumerate(audios):
            wavs.append(str(tmp_path / f"in{i}.wav"))
            write_wav_pcm16(wavs[-1], audio)
        model_path = tmp_path / "m.rvpm"
        save_model(model, model_path)
        outputs = {}
        for jobs in (1, 2):
            threads_that_ran.clear()
            per_frame = tmp_path / f"post{jobs}"
            argv = ["estimate", *wavs, "--model", str(model_path), "--per-frame", str(per_frame), "--jobs", str(jobs)]
            assert main(argv) == 0
            self.check_split_threads(threads_that_ran, jobs)
            assert len(threads_that_ran) == 3 * len(wavs)
            csvs = [(per_frame / f"in{i}.posteriors.csv").read_bytes() for i in range(len(wavs))]
            outputs[jobs] = capsys.readouterr().out, csvs
        assert outputs[1] == outputs[2]
        assert "\t1198\n" in outputs[1][0]

