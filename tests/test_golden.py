"""Byte-identity of the CLI's outputs on a fixed tiny corpus.

The digests were taken before the estimate, evaluate and train paths were
consolidated; any change to the bytes these commands write fails here.
Timing fields (`proc_s` in the evaluate CSV, `rtf` in the stats JSON) vary
from run to run and are left out of the digests.

The pinned run goes through subprocesses with BLAS held to one thread: the
last bits of the MLP's matrix products, and so of the full-precision
per-frame CSVs, depend on how many threads OpenBLAS splits them over.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_data_dirs
from revparams import estimator
from revparams.cli import main

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SRC = str(Path(estimator.__file__).resolve().parents[1])

GOLDEN = {
    "train_stdout": "8e51a5bef75ccea505715eee868667f63406ef7591bdb1a91a23182287f43df1",
    "model": "9ab1386efa9480e00bffeeb6ba7ae3f78ba45e2a7625e6dddf48361b890dd280",
    "estimate_stdout": "d8cda44d511b9c0b6b1e81f63972c561ba126ceea75493cf2cba093ce456de4f",
    "per_frame": "c21a811a9f69695c7749e86087064a877454b6831fd6ee83516729489d151ad7",
    "evaluate_csv": "5034073e755a592cd77fb6a06e7cdfe3eb18fcdd009a5ce9f7518f4bb66b86f0",
    "stats_json": "9947bd9017892f8324456a6cb82e5d86cef22fbfc812fb5053bb3410a955e5a3",
}


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run(argv) -> str:
    """Run the CLI and return what it printed to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _run_pinned(argv, cwd) -> str:
    """Run the CLI in a fresh interpreter with one BLAS thread; return stdout."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-m", "revparams.cli", *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _synth_argv(root) -> list:
    speech_dir, rir_dir = write_data_dirs(root)
    return [
        "synth",
        "--speech-dir",
        str(speech_dir),
        "--rir-dir",
        str(rir_dir),
        "--noise",
        "ambient,fan",
        "--snr",
        "10,20",
        "--out",
        str(root / "corpus"),
    ]


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Outputs of synth -> train -> estimate (jobs 1 and 2) -> evaluate.

    Runs with the corpus as working directory so printed paths are relative.
    """
    root = tmp_path_factory.mktemp("golden")
    _run(_synth_argv(root))
    corpus = root / "corpus"
    argv = ["train", "--manifest", "manifest.csv", "--out", "model.rvpm", "--hidden", "4", "--epochs", "2"]
    out = {"train_stdout": _run_pinned(argv, corpus)}
    out["model"] = (corpus / "model.rvpm").read_bytes()
    wavs = sorted(p.name for p in corpus.glob("*.wav"))
    for jobs in (1, 2):
        posteriors = corpus / f"post{jobs}"
        argv = ["estimate", *wavs, "--model", "model.rvpm", "--per-frame", posteriors.name, "--jobs", str(jobs)]
        out[f"estimate_stdout_{jobs}"] = _run_pinned(argv, corpus)
        out[f"per_frame_{jobs}"] = b"".join(
            p.name.encode() + b"\0" + p.read_bytes() for p in sorted(posteriors.iterdir())
        )
    argv = ["evaluate", "--manifest", "manifest.csv", "--model", "model.rvpm", "--out", "results.csv"]
    _run_pinned([*argv, "--stats", "stats.json"], corpus)
    rows = (corpus / "results.csv").read_text().splitlines()
    assert rows[0].endswith(",proc_s")
    out["evaluate_csv"] = "\n".join(row.rsplit(",", 1)[0] for row in rows)
    stats = json.loads((corpus / "stats.json").read_text())
    del stats["rtf"]
    out["stats_json"] = json.dumps(stats, indent=2, sort_keys=True)
    return out


@pytest.mark.parametrize("key", ["train_stdout", "model", "evaluate_csv", "stats_json"])
def test_output_bytes_are_pinned(golden_run, key):
    assert _sha(golden_run[key]) == GOLDEN[key]


@pytest.mark.parametrize("jobs", [1, 2])
def test_estimate_bytes_are_pinned(golden_run, jobs):
    assert _sha(golden_run[f"estimate_stdout_{jobs}"]) == GOLDEN["estimate_stdout"]
    assert _sha(golden_run[f"per_frame_{jobs}"]) == GOLDEN["per_frame"]


def test_per_frame_runs_gabor_stage_once_per_file(tmp_path, monkeypatch):
    _run(_synth_argv(tmp_path))
    corpus = tmp_path / "corpus"
    model = str(tmp_path / "m.rvpm")
    _run(["train", "--manifest", str(corpus / "manifest.csv"), "--out", model, "--hidden", "4", "--epochs", "1"])
    extract, calls = estimator.extract_features, []

    def counting(spec, bank):
        calls.append(spec.n_frames)
        return extract(spec, bank)

    monkeypatch.setattr(estimator, "extract_features", counting)
    wavs = [str(p) for p in sorted(corpus.glob("*.wav"))[:3]]
    _run(["estimate", *wavs, "--model", model, "--per-frame", str(tmp_path / "post")])
    assert len(calls) == len(wavs)
