#!/usr/bin/env python3
"""Directional comparison across generator seeds.

For each seed, regenerates the default synthetic corpus and runs the
four-arm matrix, then reports how often the statistically weighted
fusion arms beat their baselines on positive-class F1. This is the
claim the package exists to demonstrate, so it should hold for the
overwhelming majority of seeds.
"""

import argparse
import time

from painfusion import generate_synthetic, run_matrix, split_train_valid
from painfusion.presets import (
    default_experiment_config,
    default_synthetic_config,
    synthetic_split,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, starting at 0")
    parser.add_argument("--threads", type=int, default=4)
    args = parser.parse_args()

    header = f"{'seed':>4} {'singular':>9} {'bif+stat':>9} {'quad+stat':>10} {'quad+avg':>9}"
    print(header)
    print("-" * len(header))

    t0 = time.time()
    fusion_beats_single = 0
    statistical_beats_average = 0
    for seed in range(args.seeds):
        sequences = generate_synthetic(default_synthetic_config(seed), args.threads)
        train_ids, valid_ids = synthetic_split(len(sequences))
        train, valid = split_train_valid(sequences, train_ids, valid_ids)
        rows = dict(run_matrix(train, valid, default_experiment_config(seed), threads=args.threads))
        f1 = {name: r.metric_set.f1_pos for name, r in rows.items()}
        fusion_beats_single += f1["bifurcated_statistical"] >= f1["singular"]
        statistical_beats_average += (
            f1["quadrifurcated_statistical"] >= f1["quadrifurcated_average"]
        )
        print(
            f"{seed:>4} {f1['singular']:>9.3f} {f1['bifurcated_statistical']:>9.3f} "
            f"{f1['quadrifurcated_statistical']:>10.3f} {f1['quadrifurcated_average']:>9.3f}"
        )

    print()
    print(f"bifurcated+statistical >= singular:        {fusion_beats_single}/{args.seeds}")
    print(f"quadrifurcated statistical >= average:     {statistical_beats_average}/{args.seeds}")
    print(f"total {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
