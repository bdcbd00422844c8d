"""Regenerate the fixed model used by the estimate workloads.

    python3 perfbench/make_model.py [--out perfbench/model/estimate.rvpm]

Trains the desk-scale recipe (12 rooms x 12 utterances x 9 noise conditions,
H=256, 20 epochs) and writes the .rvpm container, then prints its sha256.
The estimate workloads load the committed file and refuse to run when its
hash differs from ``workloads.MODEL_SHA256``, so a change to training code
never changes their inputs. After a deliberate regeneration, update that
constant and say so in the change that does it: results measured with
different models are not comparable.
"""

import argparse
import hashlib
import sys
import time

import benchenv

benchenv.pin_threads()
rp = benchenv.import_package()

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(workloads.MODEL_PATH))
    args = parser.parse_args(argv)

    grid, params = rp.ClassGrid(), rp.FrameParams()
    bank = rp.build_diagonal_filterbank(params.n_mels, params.frame_rate())
    start = time.perf_counter()
    seed = workloads.ROOMS_SEED
    manifest, _ = inputs.training_corpus(seed, inputs.room_rirs(seed), 12, (1.1, 1.6), grid, NullTracer())
    dataset = inputs.features(manifest, params, bank, NullTracer())
    print(f"features for {len(dataset)} items in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    config = rp.TrainConfig(learning_rate=0.05, epochs=20, hidden_units=256, batch_size=256, seed=seed)
    start = time.perf_counter()
    model, history = rp.train(dataset, config, grid, manifest.vocabulary, params)
    print(
        f"trained in {time.perf_counter() - start:.1f} s, final val_acc={history[-1]['val_acc']:.3f}",
        file=sys.stderr,
    )
    rp.save_model(model, args.out)
    with open(args.out, "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
