#!/usr/bin/env python3
"""End-to-end demo on the shipped synthetic corpus.

Generates the default dataset, derives fusion weights, trains all four
scheme/weighting arms, and prints the weight tables plus the scoring
summary. Everything is seeded; rerunning prints the same numbers.
"""

import argparse
import time

from painfusion import generate_synthetic, run_matrix, split_train_valid
from painfusion.evaluate import metrics_table
from painfusion.presets import (
    default_experiment_config,
    default_synthetic_config,
    synthetic_split,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_args()

    t0 = time.time()
    synthetic = default_synthetic_config(args.seed)
    sequences = generate_synthetic(synthetic, args.threads)
    train_ids, valid_ids = synthetic_split(synthetic.n_subjects)
    train, valid = split_train_valid(sequences, train_ids, valid_ids)
    n_frames = sum(s.n_frames for s in sequences)
    print(
        f"corpus: {len(sequences)} subjects, {n_frames} frames "
        f"({len(train)} train / {len(valid)} valid subjects)"
    )

    results = run_matrix(train, valid, default_experiment_config(args.seed), threads=args.threads)

    for name, result in results:
        print()
        print(f"[{name}]")
        print(result.weights.to_text(), end="")

    print()
    rows = [(name, r.confusion_matrix, r.metric_set) for name, r in results]
    print(metrics_table(rows), end="")
    print(f"\ntotal {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
