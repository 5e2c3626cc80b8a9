"""Benchmark inputs made from the benchmark's own seed.

The price file for the CSV workload and the series for the kernel
micro-timing come from this simulator, not from ``garchmc.data``, so a
change to the program's generator cannot change what the benchmark feeds it.
"""
import hashlib

import numpy as np

#: Generating parameters (alpha, beta, omega) of every benchmark series; the
#: same triple as the paper's synthetic protocol.
THETA = (0.03, 0.94, 0.011)

#: Simulated steps discarded before recording, so a series starts near the
#: stationary distribution.
WARMUP = 1000


def simulate_returns(seed, n, stream, theta=THETA):
    """GARCH(1,1) percent returns of length n, deterministic in (seed, stream).

    ``stream`` keeps independent series of one seed apart (the CSV prices and
    the micro-timing series use different streams).
    """
    a, b, w = theta
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
    eps = rng.standard_normal(n + WARMUP)
    y = np.empty(n + WARMUP)
    s = w / (1.0 - a - b)
    prev = 0.0
    for t in range(n + WARMUP):
        s = w + a * prev * prev + b * s
        prev = np.sqrt(s) * eps[t]
        y[t] = prev
    return y[WARMUP:]


def write_prices(path, seed, n_prices):
    """Write a ``date,price`` CSV of n_prices prices; returns its SHA-256."""
    r = simulate_returns(seed, n_prices - 1, stream=0)
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(r / 100.0)]))
    lines = ["date,price"] + [f"d{i:04d},{p:.6f}" for i, p in enumerate(prices)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return file_sha256(path)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
