#!/usr/bin/env python3
"""Train on the 4-class blob benchmark and compare against the instance-only baseline.

Usage: python scripts/run_blob_benchmark.py [--seeds 0 1 2]
"""

import argparse

from andkit.benchmark import benchmark_config, make_benchmark_splits, run_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--per-class-half", type=int, default=100)
    # left out, the blobs keep BlobSpec's noise_sigma
    parser.add_argument("--noise-sigma", type=float, default=argparse.SUPPRESS)
    args = parser.parse_args()
    spec = {"noise_sigma": args.noise_sigma} if "noise_sigma" in args else {}

    print(f"{'seed':>4}  {'mode':<9} {'train-LOO':>9} {'test':>6}  consistent/round")
    for seed in args.seeds:
        train_split, test_split = make_benchmark_splits(
            args.classes, args.per_class_half, seed=100 + seed, **spec
        )
        for mode, overrides in (("curriculum", {}), ("baseline", {"instance_only": True})):
            cfg = benchmark_config(train_split.dim, seed, **overrides)
            res = run_benchmark(train_split, test_split, cfg)
            rounds = " ".join(f"{r}:{c}" for r, c in sorted(res.consistent_per_round.items()))
            print(
                f"{seed:>4}  {mode:<9} {res.train_accuracy:>9.3f} {res.test_accuracy:>6.3f}  {rounds}"
            )


if __name__ == "__main__":
    main()
