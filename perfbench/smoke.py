"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload untraced and traced on shrunken inputs, and checks
that each run passes its own output checks and measures every metric
BENCHMARK.json declares, in the declared unit. Then checks that run.py
refuses to run, without printing a result, where the package source is
missing. Exits 0 when all of this holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile

import benchenv

benchenv.pin_threads()
benchenv.import_package()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    long_items=2,
    long_speech_s=3.0,
    short_items=6,
    train_utterances_per_room=1,
    train_speech_s=(0.5, 0.6),
    train_epochs=1,
    probe_frames=256,
    gradient_batches=2,
    setup_repeats=2,
)


def check_workloads(declared: dict) -> None:
    for name, workload in workloads.WORKLOADS.items():
        for trace in (0, 1):
            tracer = tracing.Tracer() if trace else tracing.NullTracer()
            workdir = workloads.Workdir(benchenv.ROOT / ".perfbench_tmp")
            try:
                outcome = workload(7, 0.2, tracer, workdir, TINY)
            finally:
                workdir.close()
            metrics = run.select_metrics(outcome.metrics, declared["per_layer" if trace else "end_to_end"])
            if outcome.failed or outcome.attempted < 1:
                raise AssertionError(f"{name}: {outcome.failed} of {outcome.attempted} operations failed")
            if trace == 0 and any(m["value"] <= 0 for m in metrics.values()):
                raise AssertionError(f"{name}: an end-to-end metric is not positive: {metrics}")
            print(f"ok {name} trace={trace}: {len(metrics)} metrics, {outcome.attempted} operations")


def check_refuses_without_source() -> None:
    """A directory holding only BENCHMARK.json and perfbench/ must fail."""
    (benchenv.ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=benchenv.ROOT / ".perfbench_tmp") as bare:
        shutil.copy(benchenv.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            benchenv.ROOT / "perfbench", f"{bare}/perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError(f"run.py without src/ exited {proc.returncode}: {proc.stdout!r}")
    print(f"ok refuses to run without src/ (exit {proc.returncode})")


def main() -> int:
    declared = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    check_workloads(declared)
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
