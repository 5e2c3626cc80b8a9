"""Time the kernels of ``garchmc._kernels_py``, called directly: the scalar
volatility and likelihood, and the batch likelihood on BATCH_K candidates
per call. Every row is per candidate (one parameter set): a scalar call
scores one.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--n 250 2000]

End-to-end run timing is the job of ``perfbench/run.py``.
"""
import argparse
import statistics
import time

import numpy as np

from garchmc import _kernels_py, data, model

THETA = (0.05, 0.90, 0.01)
BATCHES = 7
#: Candidates per batch call: the default refit interval.
BATCH_K = 1000


def time_call(fn, args, batch_s=0.1):
    """Median seconds per call of fn(*args) over batches of about batch_s."""
    reps, spent = 1, 0.0
    while spent < batch_s:
        reps *= 2
        start = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        spent = time.perf_counter() - start
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        times.append((time.perf_counter() - start) / reps)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, nargs="+", default=[250, 2000],
                        help="return series lengths")
    args = parser.parse_args()

    print(f"{'kernel':>20} {'n':>6} {'us/cand':>10} {'ns/step':>9}")
    for n in args.n:
        spec = data.SyntheticSpec(model.ParamVector(*THETA), n=n, seed=1)
        y = np.ascontiguousarray(data.generate_synthetic(spec))
        call_args = (y, *THETA, float(np.var(y)))
        thetas = np.tile(THETA, (BATCH_K, 1))
        rows = [
            ("volatility", time_call(_kernels_py.volatility, call_args)),
            ("log_likelihood", time_call(_kernels_py.log_likelihood, call_args)),
            ("log_likelihood_batch",
             time_call(_kernels_py.log_likelihood_batch, (y, thetas, call_args[-1])) / BATCH_K),
        ]
        for fn_name, t in rows:
            print(f"{fn_name:>20} {n:>6} {t * 1e6:10.2f} {t * 1e9 / n:9.1f}")


if __name__ == "__main__":
    main()
