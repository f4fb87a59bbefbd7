"""Time one set-up of a training run in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py DATA.ands LAYERS SEED

Set-up is importing andkit, loading the dataset file, and the public
`init_params` + `init_bank` for the run's shapes, seeded as `train` seeds
them. A fresh process per probe is needed because an import is paid once
per interpreter.
"""

import sys
import time


def main(argv: list[str]) -> int:
    data_path, layers, seed = argv[0], argv[1], int(argv[2])
    start = time.perf_counter()
    from andkit import EncoderConfig, SeededRng, init_bank, init_params, load_dataset
    from andkit.numerics import derive_seed

    dataset = load_dataset(data_path)
    sizes = (dataset.dim,) + tuple(int(s) for s in layers.split(","))
    init_params(EncoderConfig(sizes, seed=derive_seed(seed, 1)))
    init_bank(dataset.n, sizes[-1], SeededRng(derive_seed(seed, 2)))
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
