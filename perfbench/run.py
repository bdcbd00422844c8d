"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the workload's inputs from the
seed, measures for about ``--seconds`` seconds with BLAS/OpenMP pinned to
one thread, checks every output, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the per-layer ones, from a separate run
with spans around each module call. The line before it holds the
environment (versions, thread counts, CPU) and run details; the same record,
with the spans, is written under ``.perfbench_out/``.
"""

import argparse
import json
import sys

import benchenv

benchenv.pin_threads()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def select_metrics(measured: dict, declared: list) -> dict:
    """The declared metrics, each with the unit BENCHMARK.json gives it."""
    selected = {}
    for spec in declared:
        got = measured.get(spec["name"])
        if got is None:
            raise RuntimeError(f"metric {spec['name']} was not measured")
        if got["unit"] != spec["unit"]:
            raise RuntimeError(f"metric {spec['name']} measured in {got['unit']}, declared {spec['unit']}")
        selected[spec["name"]] = got
    return selected


def main(argv=None) -> int:
    args = _parse(argv)
    rp = benchenv.import_package()
    import tracing
    import workloads

    declared = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = benchenv.describe()
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    workdir = workloads.Workdir(benchenv.ROOT / ".perfbench_tmp")
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, workdir, workloads.Sizes()
        )
    finally:
        workdir.close()
    metrics = select_metrics(outcome.metrics, declared["per_layer" if args.trace else "end_to_end"])
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revparams": rp.__version__,
        "env": env,
        "detail": outcome.detail,
        "all_metrics": outcome.metrics,
    }
    out_dir = benchenv.ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = tracer.to_list() if args.trace else []
    (out_dir / f"{stem}.json").write_text(json.dumps(dict(record, result=result, spans=spans)))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
