"""Time the two numeric kernels in isolation (best of five runs each).

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from polygauss import _kernels


def _timed(fn, args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def bench(label, fn, *args, repeats=5):
    fn(*args)  # warm-up
    best = min(_timed(fn, args) for _ in range(repeats))
    print(f"{label:<40} {best * 1e3:10.3f} ms")


def main():
    print(f"backend: numpy {np.__version__}\n")

    rng = np.random.default_rng(0)
    for R, M in ((64, 64), (500, 64), (2000, 128)):
        X = np.fft.fft(rng.standard_normal((R, M)), axis=1)
        bench(f"triple_grid  R={R:<5} M={M}", _kernels.triple_grid, X, M // 2 + 1)

    for N, J in ((60, 3), (60, 12), (1024, 32)):
        t = np.arange(N) * 0.15
        bench(f"gram_recurrence  N={N:<5} J={J}", _kernels.gram_recurrence, t, J)


if __name__ == "__main__":
    main()
